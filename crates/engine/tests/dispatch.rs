//! Pins the traced outcome of every application through `Session`'s
//! app dispatch: one quick session at sd=2^10 on `lj`, each `AppId`
//! under the original ordering and under DBG, compared as canonical
//! JSON report lines. Any change to how a job's arrays are registered,
//! how its tracer is built, or which kernel runs shows up here as a
//! byte difference.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Job, Session, SessionConfig, TechniqueSpec};
use lgr_graph::datasets::{DatasetId, DatasetScale};

/// `report(..).canonicalized().to_json()` for `AppId::ALL` x
/// {Original, `dbg`}, in that order.
const PINNED: [&str; 10] = [
    r#"{"app":"BC","app_spec":"bc","dataset":"lj","dataset_spec":"lj","technique":"Original","spec":"orig","cycles":27265,"instructions":7843,"mpki":[47.81333673339284,47.81333673339284,3.4425602448042842],"reorder_ms":null,"speedup":1}"#,
    r#"{"app":"BC","app_spec":"bc","dataset":"lj","dataset_spec":"lj","technique":"DBG","spec":"dbg","cycles":25437,"instructions":7843,"mpki":[40.16320285604998,40.035700624760935,8.160142802499044],"reorder_ms":null,"speedup":1.0718638204190747}"#,
    r#"{"app":"SSSP","app_spec":"sssp","dataset":"lj","dataset_spec":"lj","technique":"Original","spec":"orig","cycles":25991,"instructions":8914,"mpki":[36.796051155485756,36.796051155485756,2.355844738613417],"reorder_ms":null,"speedup":1}"#,
    r#"{"app":"SSSP","app_spec":"sssp","dataset":"lj","dataset_spec":"lj","technique":"DBG","spec":"dbg","cycles":31746,"instructions":11744,"mpki":[27.162806539509535,27.162806539509535,4.8535422343324255],"reorder_ms":null,"speedup":0.8187173187173187}"#,
    r#"{"app":"PR","app_spec":"pr","dataset":"lj","dataset_spec":"lj","technique":"Original","spec":"orig","cycles":33628,"instructions":12068,"mpki":[25.02485913158767,18.8929400066291,1.6572754391779914],"reorder_ms":null,"speedup":1}"#,
    r#"{"app":"PR","app_spec":"pr","dataset":"lj","dataset_spec":"lj","technique":"DBG","spec":"dbg","cycles":34859,"instructions":12068,"mpki":[25.687769307258865,17.56711965528671,8.120649651972158],"reorder_ms":null,"speedup":0.964686307696721}"#,
    r#"{"app":"PRD","app_spec":"prd","dataset":"lj","dataset_spec":"lj","technique":"Original","spec":"orig","cycles":68061,"instructions":22051,"mpki":[24.397986485873655,24.397986485873655,1.4058319350596344],"reorder_ms":null,"speedup":1}"#,
    r#"{"app":"PRD","app_spec":"prd","dataset":"lj","dataset_spec":"lj","technique":"DBG","spec":"dbg","cycles":65663,"instructions":22051,"mpki":[23.173552219853974,21.450274363974422,2.857013287379257],"reorder_ms":null,"speedup":1.0365198056744285}"#,
    r#"{"app":"Radii","app_spec":"radii","dataset":"lj","dataset_spec":"lj","technique":"Original","spec":"orig","cycles":46316,"instructions":20124,"mpki":[22.112900019876765,11.528523156430133,0.8447624726694494],"reorder_ms":null,"speedup":1}"#,
    r#"{"app":"Radii","app_spec":"radii","dataset":"lj","dataset_spec":"lj","technique":"DBG","spec":"dbg","cycles":47453,"instructions":20124,"mpki":[24.199960246471875,11.03160405485987,4.720731464917511],"reorder_ms":null,"speedup":0.9760394495606178}"#,
];

fn session() -> Session {
    let mut cfg = SessionConfig::quick();
    cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
    Session::new(cfg)
}

fn jobs() -> Vec<Job> {
    AppId::ALL
        .into_iter()
        .flat_map(|app| {
            let base = Job::new(AppSpec::new(app), DatasetId::Lj);
            [base.clone(), base.with_technique(TechniqueSpec::dbg())]
        })
        .collect()
}

#[test]
fn traced_reports_match_pinned_lines() {
    let s = session();
    let got: Vec<String> = jobs()
        .iter()
        .map(|job| s.report(job).canonicalized().to_json())
        .collect();
    assert_eq!(got.len(), PINNED.len());
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(got, want);
    }
}

#[test]
fn every_app_runs_untraced() {
    let s = session();
    for job in jobs() {
        // The duration itself is host noise; returning at all means the
        // app's untraced arm ran to completion.
        let _ = s.wall(&job);
    }
    assert_eq!(s.cache_stats().walls.misses, jobs().len() as u64);
}
