//! Fig. 3: Radii slowdown after random reordering at different
//! granularities — the structure-preservation probe.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Session, TechniqueSpec};

use crate::TextTable;

/// Regenerates Fig. 3.
pub fn run(h: &Session) -> String {
    let techniques = h.selected_techniques(&[
        TechniqueSpec::rv(),
        TechniqueSpec::rcb(1),
        TechniqueSpec::rcb(2),
        TechniqueSpec::rcb(4),
    ]);
    let mut apps = h.selected_apps(&[AppSpec::new(AppId::Radii)]);
    let datasets = h.main_datasets();
    if techniques.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 3");
    }
    // Use the selected spec so `--apps radii:rounds=...` knobs apply.
    let radii = apps.remove(0);
    h.run_all(&super::roster_jobs(
        std::slice::from_ref(&radii),
        &datasets,
        &techniques,
    ));
    let labels: Vec<String> = techniques.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["dataset"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        "Fig. 3: Radii slowdown (%) after random reordering (higher = worse)",
        header,
    );
    for ds in &datasets {
        let mut row = vec![ds.label()];
        for tech in &techniques {
            let s = h.speedup(&radii, ds, tech);
            // Slowdown% = (time_with / time_base - 1) * 100 = (1/s - 1) * 100.
            let slowdown = (1.0 / s - 1.0) * 100.0;
            row.push(format!("{slowdown:.1}"));
        }
        t.row(row);
    }
    t.note("paper: RV worst; slowdown shrinks as granularity grows (RCB-1 > RCB-2 > RCB-4)");
    t.note("paper: kr (synthetic, structureless) is insensitive; real datasets slow 9.6-28.5% under RCB-1");
    t.to_string()
}
