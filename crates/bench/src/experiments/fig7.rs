//! Fig. 7: reordering on no-skew datasets (uni, road).

use lgr_engine::{DatasetSpec, Session, TechniqueSpec};

use crate::table::geomean;
use crate::TextTable;

/// Regenerates Fig. 7.
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let apps = h.eval_apps();
    let datasets = h.selected_datasets(&DatasetSpec::no_skew());
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 7");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &techs));
    let labels: Vec<String> = techs.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["dataset", "app"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        "Fig. 7: speedup (%) on no-skew datasets (skew-aware techniques should be ~neutral)",
        header,
    );
    for ds in &datasets {
        for app in &apps {
            let mut row = vec![ds.label(), app.label().to_owned()];
            for tech in &techs {
                let s = h.speedup(app, ds, tech);
                row.push(format!("{:+.1}", (s - 1.0) * 100.0));
            }
            t.row(row);
        }
        let mut gm = vec![ds.label(), "GMean".to_owned()];
        for tech in &techs {
            let ratios: Vec<f64> = apps.iter().map(|app| h.speedup(app, ds, tech)).collect();
            gm.push(format!("{:+.1}", (geomean(&ratios) - 1.0) * 100.0));
        }
        t.row(gm);
    }
    t.note("paper: skew-aware techniques within ~1.2% of baseline; Gorder ~+3.5% (exploits fine-grain locality)");
    t.to_string()
}
