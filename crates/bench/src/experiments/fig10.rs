//! Fig. 10: net speedup after accounting for reordering time
//! (single run of each application).

use lgr_engine::{DatasetSpec, Session, TechniqueSpec};
use lgr_graph::datasets::DatasetId;

use crate::table::geomean;
use crate::TextTable;

/// The four datasets of the paper's Fig. 10: the two largest
/// unstructured and two largest structured.
pub fn datasets() -> Vec<DatasetSpec> {
    [DatasetId::Tw, DatasetId::Sd, DatasetId::Fr, DatasetId::Mp]
        .into_iter()
        .map(DatasetSpec::from)
        .collect()
}

/// Regenerates Fig. 10.
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let apps = h.eval_apps();
    let datasets = h.selected_datasets(&datasets());
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 10");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &techs));
    let labels: Vec<String> = techs.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["app", "dataset"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        "Fig. 10: net speedup (%) including reordering time (1 run)",
        header,
    );
    for app in &apps {
        for ds in &datasets {
            let mut row = vec![app.label().to_owned(), ds.label()];
            for tech in &techs {
                let s = h.net_speedup(app, ds, tech, 1);
                row.push(format!("{:+.1}", (s - 1.0) * 100.0));
            }
            t.row(row);
        }
    }
    let mut gm = vec!["GMean".to_owned(), String::new()];
    for tech in &techs {
        let ratios: Vec<f64> = apps
            .iter()
            .flat_map(|app| {
                datasets
                    .iter()
                    .map(move |ds| h.net_speedup(app, ds, tech, 1))
            })
            .collect();
        gm.push(format!("{:+.1}", (geomean(&ratios) - 1.0) * 100.0));
    }
    t.row(gm);
    t.note("paper: Gorder's reordering cost causes severe net slowdowns (up to -96.5%); DBG is the only technique with a positive average net speedup (+6.2%)");
    t.to_string()
}
