//! Fig. 11: SSSP net speedup as the number of traversals grows —
//! how fast each technique amortizes its reordering cost.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Session, TechniqueSpec};

use crate::table::geomean;
use crate::TextTable;

/// Regenerates Fig. 11.
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let mut apps = h.selected_apps(&[AppSpec::new(AppId::Sssp)]);
    let datasets = h.selected_datasets(&super::fig10::datasets());
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 11");
    }
    // Use the selected spec so `--apps sssp:roots=...` knobs apply.
    let sssp = apps.remove(0);
    h.run_all(&super::roster_jobs(
        std::slice::from_ref(&sssp),
        &datasets,
        &techs,
    ));
    let labels: Vec<String> = techs.iter().map(TechniqueSpec::label).collect();
    let traversal_counts = [1u64, 8, 16, 32];
    let mut out = String::new();
    for &k in &traversal_counts {
        let mut header = vec!["dataset"];
        header.extend(labels.iter().map(String::as_str));
        let mut t = TextTable::new(
            &format!("Fig. 11: SSSP net speedup (%) with {k} traversal(s)"),
            header,
        );
        for ds in &datasets {
            let mut row = vec![ds.label()];
            for tech in &techs {
                let s = h.net_speedup(&sssp, ds, tech, k);
                row.push(format!("{:+.1}", (s - 1.0) * 100.0));
            }
            t.row(row);
        }
        let mut gm = vec!["GMean".to_owned()];
        for tech in &techs {
            let ratios: Vec<f64> = datasets
                .iter()
                .map(|ds| h.net_speedup(&sssp, ds, tech, k))
                .collect();
            gm.push(format!("{:+.1}", (geomean(&ratios) - 1.0) * 100.0));
        }
        t.row(gm);
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out.push_str(
        "paper: every technique loses at 1 traversal; DBG breaks even fastest (+11.5% average by 8 traversals vs +2.1% for the next best); Gorder never recovers in this range\n",
    );
    out
}
