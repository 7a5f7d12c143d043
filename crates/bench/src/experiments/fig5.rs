//! Fig. 5: original implementations of HubSort/HubCluster vs the
//! paper's grouping-framework reimplementations.

use lgr_engine::{Session, TechniqueSpec};

use crate::table::geomean;
use crate::TextTable;

/// Regenerates Fig. 5 (per-dataset geometric mean of per-app
/// speedups, like the paper's bars).
pub fn run(h: &Session) -> String {
    let techniques = h.selected_techniques(&[
        TechniqueSpec::hubsort_o(),
        TechniqueSpec::hubsort(),
        TechniqueSpec::hubcluster_o(),
        TechniqueSpec::hubcluster(),
    ]);
    let apps = h.eval_apps();
    let datasets = h.main_datasets();
    if techniques.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 5");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &techniques));
    let labels: Vec<String> = techniques.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["dataset"];
    header.extend(labels.iter().map(String::as_str));
    header.push("best");
    let mut t = TextTable::new(
        "Fig. 5: speedup (%) over no reordering, original vs framework implementations",
        header,
    );
    let mut per_tech: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];
    for ds in &datasets {
        let mut row = vec![ds.label()];
        let mut best = f64::MIN;
        let mut best_name = String::new();
        for (i, tech) in techniques.iter().enumerate() {
            let ratios: Vec<f64> = apps.iter().map(|app| h.speedup(app, ds, tech)).collect();
            let gm = geomean(&ratios);
            per_tech[i].push(gm);
            let pct = (gm - 1.0) * 100.0;
            row.push(format!("{pct:+.1}"));
            if pct > best {
                best = pct;
                best_name = tech.label();
            }
        }
        row.push(best_name);
        t.row(row);
    }
    let mut gm_row = vec!["GMean".to_owned()];
    for ratios in &per_tech {
        gm_row.push(format!("{:+.1}", (geomean(ratios) - 1.0) * 100.0));
    }
    gm_row.push(String::new());
    t.row(gm_row);
    t.note("paper: framework implementations match or beat the originals, motivating their use in the main evaluation");
    t.to_string()
}
