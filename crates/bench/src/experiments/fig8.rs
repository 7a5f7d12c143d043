//! Fig. 8: L1/L2/L3 MPKI for PageRank across datasets and orderings.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Job, Session, TechniqueSpec};

use crate::TextTable;

/// Regenerates Fig. 8 (three panels: L1, L2, L3 MPKI).
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let mut apps = h.selected_apps(&[AppSpec::new(AppId::Pr)]);
    let datasets = h.main_datasets();
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 8");
    }
    // Use the selected spec so `--apps pr:iters=...` knobs apply.
    let pr = apps.remove(0);
    // The untouched ordering is always the leading column; drop an
    // explicit `orig` from the roster so it isn't shown (and its
    // identity permutation not applied) twice.
    let techs: Vec<TechniqueSpec> = techs
        .into_iter()
        .filter(|t| *t != TechniqueSpec::original())
        .collect();
    h.run_all(&super::roster_jobs(
        std::slice::from_ref(&pr),
        &datasets,
        &techs,
    ));
    let orderings: Vec<Option<TechniqueSpec>> = std::iter::once(None)
        .chain(techs.into_iter().map(Some))
        .collect();
    let labels: Vec<String> = orderings
        .iter()
        .map(|o| {
            o.as_ref()
                .map_or_else(|| "Original".to_owned(), TechniqueSpec::label)
        })
        .collect();
    let mut out = String::new();
    for (level, title) in [
        (0usize, "Fig. 8a: L1 MPKI for PR"),
        (1, "Fig. 8b: L2 MPKI for PR"),
        (2, "Fig. 8c: L3 MPKI for PR"),
    ] {
        let mut header = vec!["dataset"];
        header.extend(labels.iter().map(String::as_str));
        let mut t = TextTable::new(title, header);
        for ds in &datasets {
            let mut row = vec![ds.label()];
            for ord in &orderings {
                let mut job = Job::new(pr.clone(), ds.clone());
                if let Some(spec) = ord {
                    job = job.with_technique(spec.clone());
                }
                let stats = h.run(&job).stats;
                row.push(format!("{:.1}", stats.mpki()[level]));
            }
            t.row(row);
        }
        match level {
            0 => t.note("paper: fine-grain techniques (Sort/HubSort) RAISE L1 MPKI on structured datasets (lj/wl/fr/mp)"),
            1 => t.note("paper: L2 MPKI tracks L1 (almost everything missing L1 misses L2 too)"),
            _ => t.note("paper: ALL skew-aware techniques cut L3 MPKI; small datasets (lj/wl) have little headroom"),
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}
