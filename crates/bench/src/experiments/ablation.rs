//! Ablation: DBG's group count — the knob the grouping framework
//! (Table V) exposes between HubCluster-like coarseness (1 hot group)
//! and Sort-like fineness (many groups).

use lgr_analytics::apps::AppId;
use lgr_core::Dbg;
use lgr_engine::{AppSpec, DatasetSpec, Job, Session, TechniqueSpec};
use lgr_graph::datasets::DatasetId;

use crate::TextTable;

/// Sweeps DBG's number of geometric hot groups on one unstructured
/// and one structured dataset, reporting PR speedup and structure
/// preservation. Every swept variant is addressed through the spec
/// layer (`dbg:groups=k`).
pub fn run(h: &Session) -> String {
    // This is a DBG/PR study: honor the session filters like every
    // other experiment.
    let datasets = h.selected_datasets(&[
        DatasetSpec::from(DatasetId::Sd),
        DatasetSpec::from(DatasetId::Mp),
    ]);
    if h.selected_techniques(&[TechniqueSpec::dbg()]).is_empty()
        || h.selected_apps(&[AppSpec::new(AppId::Pr)]).is_empty()
        || datasets.is_empty()
    {
        return super::skipped("Ablation");
    }
    // Every job runs the bare `pr` spec at the session defaults, so
    // both sides of the comparison match (app knob overrides are
    // ignored here by design).
    let group_counts = [1u32, 2, 4, 6, 8, 10];
    let pr = AppSpec::new(AppId::Pr);
    let specs: Vec<TechniqueSpec> = group_counts
        .iter()
        .map(|&k| TechniqueSpec::dbg_groups(k))
        .collect();
    h.run_all(&super::roster_jobs(
        std::slice::from_ref(&pr),
        &datasets,
        &specs,
    ));
    let mut out = String::new();
    for ds in &datasets {
        let mut t = TextTable::new(
            &format!(
                "Ablation: DBG hot-group count on {} ({})",
                ds.label(),
                match ds.is_structured() {
                    Some(true) => "structured",
                    Some(false) => "unstructured",
                    None => "external",
                }
            ),
            vec![
                "spec",
                "total groups",
                "PR speedup (%)",
                "adjacency preserved (%)",
                "reorder (ms)",
            ],
        );
        let average_degree = h.graph(ds).average_degree();
        let original = Job::new(pr.clone(), ds.clone());
        let base = h.run(&original).cycles() as f64;
        for (&k, spec) in group_counts.iter().zip(&specs) {
            let timed = h.dataset_reorder(ds, spec, AppId::Pr.reorder_degree());
            let grouping = Dbg::with_hot_groups(k).spec_for(average_degree);
            let cycles = h
                .run(&original.clone().with_technique(spec.clone()))
                .cycles() as f64;
            t.row(vec![
                spec.to_string(),
                grouping.num_groups().to_string(),
                format!("{:+.1}", (base / cycles - 1.0) * 100.0),
                format!("{:.1}", timed.permutation.adjacency_preservation() * 100.0),
                format!("{:.1}", timed.elapsed.as_secs_f64() * 1e3),
            ]);
        }
        t.note("more groups = finer binning = less structure preserved; the paper picks 8 total groups as the sweet spot");
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}
