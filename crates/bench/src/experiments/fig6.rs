//! Fig. 6: the main result — application speedup excluding reordering
//! time, five apps x eight datasets x five techniques.

use lgr_engine::{AppSpec, DatasetSpec, Session, TechniqueSpec};

use crate::table::geomean;
use crate::TextTable;

/// Regenerates Fig. 6 (a: unstructured, b: structured), plus the
/// paper's headline averages. A `--datasets` selection replaces the
/// two class panels with one panel over the selection verbatim, so
/// external `file:`/`lgr:` graphs run the full pipeline here.
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let apps = h.eval_apps();
    let datasets = h.main_datasets();
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Fig. 6");
    }
    h.run_all(&super::roster_jobs(&apps, &datasets, &techs));
    let mut out = String::new();
    if h.config().datasets.is_none() {
        out.push_str(&panel(
            h,
            &techs,
            &apps,
            "Fig. 6a: speedup (%) excluding reordering time — unstructured datasets",
            &DatasetSpec::unstructured(),
        ));
        out.push('\n');
        out.push_str(&panel(
            h,
            &techs,
            &apps,
            "Fig. 6b: speedup (%) excluding reordering time — structured datasets",
            &DatasetSpec::structured(),
        ));
    } else {
        out.push_str(&panel(
            h,
            &techs,
            &apps,
            "Fig. 6: speedup (%) excluding reordering time — selected datasets",
            &datasets,
        ));
    }
    out.push('\n');
    out.push_str(&summary(h, &techs, &apps, &datasets));
    out
}

fn panel(
    h: &Session,
    techs: &[TechniqueSpec],
    apps: &[AppSpec],
    title: &str,
    datasets: &[DatasetSpec],
) -> String {
    let labels: Vec<String> = techs.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["app", "dataset"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(title, header);
    for app in apps {
        for ds in datasets {
            let mut row = vec![app.label().to_owned(), ds.label()];
            for tech in techs {
                let s = h.speedup(app, ds, tech);
                row.push(format!("{:+.1}", (s - 1.0) * 100.0));
            }
            t.row(row);
        }
    }
    // Per-technique geomean over this panel.
    let mut gm = vec!["GMean".to_owned(), String::new()];
    for tech in techs {
        let ratios: Vec<f64> = apps
            .iter()
            .flat_map(|app| datasets.iter().map(move |ds| h.speedup(app, ds, tech)))
            .collect();
        gm.push(format!("{:+.1}", (geomean(&ratios) - 1.0) * 100.0));
    }
    t.row(gm);
    t.to_string()
}

fn summary(
    h: &Session,
    techs: &[TechniqueSpec],
    apps: &[AppSpec],
    datasets: &[DatasetSpec],
) -> String {
    // Classify the active roster; external sources (unknown class)
    // count toward "all" only.
    let unstructured: Vec<DatasetSpec> = datasets
        .iter()
        .filter(|d| d.is_structured() == Some(false) && d.is_skewed() == Some(true))
        .cloned()
        .collect();
    let structured: Vec<DatasetSpec> = datasets
        .iter()
        .filter(|d| d.is_structured() == Some(true))
        .cloned()
        .collect();
    let mut t = TextTable::new(
        "Fig. 6 summary: geometric-mean speedup (%) across all 40 datapoints",
        vec!["technique", "all", "unstructured", "structured"],
    );
    for tech in techs {
        let collect = |dss: &[DatasetSpec]| -> String {
            if dss.is_empty() {
                return "n/a".to_owned();
            }
            let ratios: Vec<f64> = apps
                .iter()
                .flat_map(|app| dss.iter().map(move |ds| h.speedup(app, ds, tech)))
                .collect();
            format!("{:+.1}", (geomean(&ratios) - 1.0) * 100.0)
        };
        t.row(vec![
            tech.label(),
            collect(datasets),
            collect(&unstructured),
            collect(&structured),
        ]);
    }
    t.note(
        "paper: DBG +16.8% overall vs Sort +8.4%, HubSort +7.9%, HubCluster +11.6%, Gorder +18.6%",
    );
    t.note("paper: on structured datasets Sort/HubSort go NEGATIVE while DBG stays positive");
    t.to_string()
}
