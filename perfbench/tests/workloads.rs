//! Every workload at a tiny scale: it runs end to end, prints every
//! metric with its unit, and its checks fail when an output is
//! corrupted.

use std::path::PathBuf;

use perfbench::{render, run, Params, Workload, END_TO_END, PER_LAYER};

/// A tiny run writing only under this test's own directory.
fn params(workload: Workload, seed: u64, trace: bool, dir: &str) -> Params {
    let mut p = Params::new(workload, seed, 0.0, trace);
    p.scale = Some(9);
    p.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    p
}

/// The readable block and the result line of a run.
fn report(p: &Params) -> (String, String) {
    let text = render(p, &run(p));
    let (block, last) = text
        .trim_end()
        .rsplit_once('\n')
        .expect("two or more lines");
    (block.to_owned(), last.to_owned())
}

/// Figures each workload prints beyond the result line's metrics.
fn extras(workload: Workload) -> &'static [(&'static str, &'static str)] {
    match workload {
        Workload::SimSweep => &[],
        Workload::ReorderHost => &[("reorder_s", "s"), ("host_app_s", "s")],
        Workload::ServeMix => &[
            ("req_p50_ms", "ms"),
            ("req_p99_ms", "ms"),
            ("req_per_s", "1/s"),
            ("requests", "count"),
        ],
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let dir = format!("all-{}-{trace}", workload.name());
            let p = params(workload, 7, trace, &dir);
            let (block, last) = report(&p);
            let what = format!("{} trace={trace}", workload.name());
            assert!(
                last.starts_with("{\"correct\":true,"),
                "{what}: {block}\n{last}"
            );
            assert!(last.contains("\"failed\":0,"), "{what}: {last}");
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in table {
                let entry = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                assert!(
                    last[at..].starts_with(&entry)
                        && last[at..]
                            .split('}')
                            .next()
                            .unwrap()
                            .ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{what}: {name} lacks unit {unit}"
                );
            }
            let common: &[(&str, &str)] = if trace {
                &[("fail_frac", "ratio"), ("trace.overhead_frac", "ratio")]
            } else {
                &[("fail_frac", "ratio"), ("peak_rss_mb", "MiB")]
            };
            for (name, unit) in extras(workload).iter().chain(common) {
                assert!(
                    block
                        .lines()
                        .any(|l| l.starts_with(name) && l.ends_with(&format!(" {unit}"))),
                    "{what}: {name} ({unit}) not printed:\n{block}"
                );
            }
            if trace {
                let spans = p.out_dir.join(format!("spans-{}-7.jsonl", workload.name()));
                let dump = std::fs::read_to_string(&spans).expect("spans written");
                assert!(dump.lines().count() > 10, "{what}: too few spans");
                assert!(dump
                    .lines()
                    .all(|l| l.contains("\"parent\":") && l.contains("\"job\":")));
            }
        }
    }
}

#[test]
fn a_corrupted_golden_fails_sim_sweep() {
    let mut p = params(Workload::SimSweep, 5, false, "golden");
    p.golden_dir = p.out_dir.join("goldens");
    p.write_golden = true;
    assert!(report(&p).1.contains("\"failed\":0,"));
    p.write_golden = false;
    assert!(
        report(&p).1.contains("\"failed\":0,"),
        "the fresh golden matches"
    );

    let path = perfbench::sim_sweep::golden_path(&p);
    let golden = std::fs::read_to_string(&path).unwrap();
    let corrupted = golden.replacen("cycles: ", "cycles: 1", 1);
    assert_ne!(golden, corrupted);
    std::fs::write(&path, corrupted).unwrap();
    let (_, last) = report(&p);
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(!last.contains("\"failed\":0,"), "{last}");
}

#[test]
fn a_corrupted_output_fails_every_workload() {
    for workload in Workload::ALL {
        let mut p = params(workload, 5, false, &format!("tamper-{}", workload.name()));
        p.tamper = true;
        let (block, last) = report(&p);
        assert!(
            last.starts_with("{\"correct\":false,"),
            "{}: {last}",
            workload.name()
        );
        let fail_frac = block
            .lines()
            .find_map(|l| l.strip_prefix("fail_frac"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .expect("fail_frac printed");
        assert!(
            fail_frac > 0.0,
            "{}: fail_frac {fail_frac}",
            workload.name()
        );
    }
}
