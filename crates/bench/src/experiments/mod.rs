//! One module per reproduced table/figure. Each exposes
//! `run(&Session) -> String` returning a formatted report.

pub mod ablation;
pub mod composed;
pub mod dynamic;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table11;
pub mod table12;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use lgr_engine::{AppSpec, DatasetSpec, Job, Session, TechniqueSpec};

/// An experiment the `repro` binary can run.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI name (`table1`, `fig6`, ...).
    pub name: &'static str,
    /// What the paper's artifact shows.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(&Session) -> String,
}

/// Placeholder report for an experiment whose entire roster was
/// excluded by the `--techniques` / `--apps` selection.
pub(crate) fn skipped(title: &str) -> String {
    format!("{title}: skipped (nothing selected by --techniques/--apps)\n")
}

/// A roster's traced jobs: every app on every dataset, under the
/// original ordering and under each technique. Experiments hand them
/// to [`Session::run_all`] up front, then print their tables in
/// roster order from warm caches.
pub(crate) fn roster_jobs(
    apps: &[AppSpec],
    datasets: &[DatasetSpec],
    techniques: &[TechniqueSpec],
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in apps {
        for ds in datasets {
            let original = Job::new(app.clone(), ds.clone());
            for tech in techniques {
                jobs.push(original.clone().with_technique(tech.clone()));
            }
            jobs.push(original);
        }
    }
    jobs
}

/// Every reproduced experiment, in paper order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "Hot-vertex fraction and edge coverage per dataset",
        run: table1::run,
    },
    Experiment {
        name: "table2",
        description: "Average hot vertices per cache block (original ordering)",
        run: table2::run,
    },
    Experiment {
        name: "table3",
        description: "Cache capacity needed for all hot vertices",
        run: table3::run,
    },
    Experiment {
        name: "table4",
        description: "Degree distribution of hot vertices (sd)",
        run: table4::run,
    },
    Experiment {
        name: "table5",
        description: "Skew-aware techniques as grouping-framework instances",
        run: table5::run,
    },
    Experiment {
        name: "fig3",
        description: "Radii slowdown under random reordering (RV, RCB-1/2/4)",
        run: fig3::run,
    },
    Experiment {
        name: "fig5",
        description: "Original vs framework implementations of HubSort/HubCluster",
        run: fig5::run,
    },
    Experiment {
        name: "table11",
        description: "Reordering time normalized to Sort",
        run: table11::run,
    },
    Experiment {
        name: "fig6",
        description: "Application speedup excluding reordering time (main result)",
        run: fig6::run,
    },
    Experiment {
        name: "fig7",
        description: "Reordering on no-skew datasets (uni, road)",
        run: fig7::run,
    },
    Experiment {
        name: "fig8",
        description: "L1/L2/L3 MPKI for PageRank",
        run: fig8::run,
    },
    Experiment {
        name: "fig9",
        description: "L2 miss breakdown for push-dominated apps (SSSP, PRD)",
        run: fig9::run,
    },
    Experiment {
        name: "fig10",
        description: "Net speedup including reordering time",
        run: fig10::run,
    },
    Experiment {
        name: "fig11",
        description: "SSSP net speedup vs number of traversals",
        run: fig11::run,
    },
    Experiment {
        name: "table12",
        description: "PR iterations needed to amortize reordering",
        run: table12::run,
    },
    Experiment {
        name: "composed",
        description: "Gorder+DBG layering (paper Sec. VII)",
        run: composed::run,
    },
    Experiment {
        name: "ablation",
        description: "DBG group-count sensitivity sweep",
        run: ablation::run,
    },
    Experiment {
        name: "dynamic",
        description: "Evolving-graph amortization (paper Sec. VIII-B)",
        run: dynamic::run,
    },
];

/// Looks an experiment up by CLI name.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert!(by_name("fig6").is_some());
        assert!(by_name("table1").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(ALL.len(), 18);
    }
}
