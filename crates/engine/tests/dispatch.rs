//! Pins the traced outcome of every application through `Session`'s
//! app dispatch: one quick session at sd=2^10 on `lj`, each `AppId`
//! under the original ordering and under DBG, compared as canonical
//! JSON report lines. Any change to how a job's arrays are registered,
//! how its tracer is built, or which kernel runs shows up here as a
//! byte difference.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Job, Session, SessionConfig, TechniqueSpec};
use lgr_graph::datasets::{DatasetId, DatasetScale};
use lgr_graph::DegreeKind;

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

/// FNV-1a-64 over the little-endian bytes of every new ID.
fn fingerprint(new_ids: &[u32]) -> u64 {
    new_ids
        .iter()
        .flat_map(|id| id.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(spec, out-degree fingerprint, in-degree fingerprint)` of every
/// built-in permutation on `lj` at sd=2^10. The values do not depend
/// on `LGR_THREADS`.
const PINNED_PERMUTATIONS: [(&str, u64, u64); 12] = [
    ("orig", 0xf5f45328a8ebdb25, 0xf5f45328a8ebdb25),
    ("sort", 0x40c2f849dc2e7875, 0xdbaff8f2fecd6835),
    ("hubsort", 0x486dcd65e92a0955, 0xd602ddfd73798b65),
    ("hubcluster", 0x3b40587f847c6675, 0x677900c11b2cf835),
    ("hubsort-o", 0x074711167721bfb5, 0x074711167721bfb5),
    ("hubcluster-o", 0x977fa8f66059c295, 0x977fa8f66059c295),
    ("dbg", 0x844f4ee0de88ab45, 0x0122cda3e1fb9275),
    ("dbg:groups=2", 0x2ab831bd09a98515, 0x5308cd6f1dd62d75),
    ("gorder", 0x2f2a9e9bd7929f25, 0x2f2a9e9bd7929f25),
    ("gorder+dbg", 0x3666d5e2ae90d005, 0x282f1bdf09cd6005),
    ("rv", 0x356865a27fa61565, 0x356865a27fa61565),
    ("rcb:4", 0x8a32ad161d69db25, 0x8a32ad161d69db25),
];

#[test]
fn permutations_match_pinned_fingerprints() {
    let s = session();
    let lj = DatasetId::Lj.into();
    let got: Vec<(&str, u64, u64)> = PINNED_PERMUTATIONS
        .iter()
        .map(|&(name, _, _)| {
            let spec: TechniqueSpec = name.parse().unwrap();
            let [out, inn] = [DegreeKind::Out, DegreeKind::In]
                .map(|kind| fingerprint(s.dataset_reorder(&lj, &spec, kind).permutation.new_ids()));
            (name, out, inn)
        })
        .collect();
    assert_eq!(got, PINNED_PERMUTATIONS);
}
