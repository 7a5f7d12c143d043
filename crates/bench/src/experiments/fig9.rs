//! Fig. 9: where L2 misses are served for the push-dominated apps
//! (SSSP, PRD), original ordering vs DBG.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Job, Session, TechniqueSpec};

use crate::table::pct;
use crate::TextTable;

/// Regenerates Fig. 9.
pub fn run(h: &Session) -> String {
    let apps = h.selected_apps(&[AppSpec::new(AppId::Sssp), AppSpec::new(AppId::Prd)]);
    let dbg = h.selected_techniques(&[TechniqueSpec::dbg()]);
    let datasets = h.main_datasets();
    if apps.is_empty() || dbg.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 9");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &dbg));
    let mut out = String::new();
    for (tech, title) in [
        (None, "Fig. 9a: L2 miss break-up (%) — original ordering"),
        (
            Some(TechniqueSpec::dbg()),
            "Fig. 9b: L2 miss break-up (%) — DBG reordering",
        ),
    ] {
        let mut t = TextTable::new(
            title,
            vec![
                "app",
                "dataset",
                "L3 hits",
                "snoop (local)",
                "snoop (remote)",
                "off-chip",
            ],
        );
        for app in &apps {
            for ds in &datasets {
                let mut job = Job::new(app.clone(), ds.clone());
                if let Some(spec) = &tech {
                    job = job.with_technique(spec.clone());
                }
                let stats = h.run(&job).stats;
                let f = stats.l2_breakdown.fractions();
                t.row(vec![
                    app.label().to_owned(),
                    ds.label(),
                    pct(f[0]),
                    pct(f[1]),
                    pct(f[2]),
                    pct(f[3]),
                ]);
            }
        }
        t.note("paper: PRD (unconditional pushes) snoops far more than SSSP (conditional writes)");
        if tech.is_some() {
            t.note("paper: DBG cuts off-chip accesses, but for PRD most of the recovered requests still pay snoop latency");
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}
