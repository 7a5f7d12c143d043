//! Sec. VII extension: Gorder+DBG layering — keep most of Gorder's
//! structure-aware quality while making hot vertices contiguous.

use lgr_engine::{Session, TechniqueSpec};

use crate::table::geomean;
use crate::TextTable;

/// Regenerates the paper's Gorder+DBG comparison (Sec. VII reports
/// +17.2% for Gorder+DBG vs +18.6% for Gorder alone across the 40
/// datapoints).
pub fn run(h: &Session) -> String {
    let techniques = h.selected_techniques(&[
        TechniqueSpec::dbg(),
        TechniqueSpec::gorder(),
        TechniqueSpec::gorder_dbg(),
    ]);
    let apps = h.eval_apps();
    let datasets = h.main_datasets();
    if techniques.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Sec. VII (composed)");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &techniques));
    let labels: Vec<String> = techniques.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["dataset"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        "Sec. VII: Gorder+DBG layering — speedup (%) excluding reordering time",
        header,
    );
    let mut per_tech: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];
    for ds in &datasets {
        let mut row = vec![ds.label()];
        for (i, tech) in techniques.iter().enumerate() {
            let ratios: Vec<f64> = apps.iter().map(|app| h.speedup(app, ds, tech)).collect();
            let gm = geomean(&ratios);
            per_tech[i].push(gm);
            row.push(format!("{:+.1}", (gm - 1.0) * 100.0));
        }
        t.row(row);
    }
    let mut gm_row = vec!["GMean".to_owned()];
    for ratios in &per_tech {
        gm_row.push(format!("{:+.1}", (geomean(ratios) - 1.0) * 100.0));
    }
    t.row(gm_row);
    t.note("paper: the composition retains most of Gorder's speedup while making hot vertices contiguous (a prerequisite for domain-specialized hardware caching)");
    t.to_string()
}
