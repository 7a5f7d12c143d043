//! `sim_sweep`: a slice of Figs. 6 and 8 through the traced cache
//! simulator.
//!
//! A fresh `Session` at sd=2^15 on the default 8-core, 2-socket
//! simulated machine runs `fig6::run` and `fig8::run` over datasets
//! `sd` and `mp`, Original plus the five main-evaluation orderings,
//! and apps `pr`, `sssp` and `bc`: 36 traced jobs, each starting with
//! empty simulated caches. Set-up is generation and CSR build.

use std::path::PathBuf;
use std::time::Instant;

use lgr_bench::experiments::{fig6, fig8};
use lgr_engine::{Job, Session, SessionConfig, TechniqueSpec};

use crate::{median, spec, Checks, Outcome, Params, Tracer};

/// Default scale exponent: `sd` gets 2^15 vertices.
pub const SCALE: u32 = 15;

/// Fewest set-up samples in a run. Set-up takes about 0.1 s, so many
/// cheap samples keep its median steady.
const SETUPS: usize = 15;

const DATASETS: [&str; 2] = ["sd", "mp"];
const APPS: [&str; 3] = ["pr", "sssp", "bc"];

fn session(p: &Params) -> Session {
    let mut cfg = SessionConfig::default().with_scale_exp(p.scale.unwrap_or(SCALE));
    cfg.datasets = Some(
        DATASETS
            .iter()
            .map(|d| spec(&format!("{d}:seed={}", p.seed)))
            .collect(),
    );
    cfg.apps = Some(APPS.iter().map(|a| spec(a)).collect());
    Session::new(cfg)
}

/// A fresh session with every dataset materialized, and how long that
/// took.
fn setup(p: &Params, tr: &Tracer) -> (Session, f64) {
    let t = Instant::now();
    let s = session(p);
    for ds in s.main_datasets() {
        tr.span("graph.build", 0, || s.graph(&ds));
    }
    (s, t.elapsed().as_secs_f64())
}

/// Every traced job of the sweep, in a fixed order.
fn jobs(s: &Session) -> Vec<Job> {
    let mut jobs = Vec::new();
    for ds in s.main_datasets() {
        for app in s.eval_apps() {
            let base = Job::new(app, ds.clone());
            jobs.push(base.clone());
            for tech in s.main_eval() {
                jobs.push(base.clone().with_technique(tech));
            }
        }
    }
    jobs
}

struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// The timed region on the tracer's clock.
    window: (u64, u64),
    /// The figures plus one `SimStats` digest line per job.
    output: String,
    /// Σ over every job: L1 accesses, L1 misses, L3 misses, cycles.
    totals: [u64; 4],
}

fn pass(p: &Params, tr: &Tracer) -> Pass {
    let (s, setup_s) = setup(p, tr);
    let jobs = jobs(&s);
    let from = tr.now_ns();
    let t = Instant::now();
    let mut output = if tr.enabled() {
        traced_sweep(&s, &jobs, tr)
    } else {
        fig6::run(&s) + &fig8::run(&s)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let window = (from, tr.now_ns());

    let mut totals = [0u64; 4];
    for job in &jobs {
        let stats = s.run(job).stats;
        totals[0] += stats.l1.accesses;
        totals[1] += stats.l1.misses;
        totals[2] += stats.l3.misses;
        totals[3] += stats.cycles;
        let tech = job
            .technique
            .as_ref()
            .map_or_else(|| "orig".to_owned(), TechniqueSpec::to_string);
        output.push_str(&format!("{}/{}/{tech} {stats:?}\n", job.app, job.dataset));
    }
    Pass {
        setup_s,
        wall_s,
        window,
        output,
        totals,
    }
}

/// The same work as `fig6::run` + `fig8::run`, split into spans: every
/// permutation and relabel, every traced run and report, then the
/// figures on warm caches.
fn traced_sweep(s: &Session, jobs: &[Job], tr: &Tracer) -> String {
    for (i, job) in jobs.iter().enumerate() {
        let Some(tech) = &job.technique else { continue };
        let kind = job.app.id().reorder_degree();
        tr.span(&format!("core.perm.{tech}"), i as u64, || {
            s.dataset_reorder(&job.dataset, tech, kind)
        });
        tr.span("graph.relabel", i as u64, || {
            s.reordered_graph(&job.dataset, tech, kind)
        });
    }
    for (i, job) in jobs.iter().enumerate() {
        tr.span(
            &format!("cachesim.traced.{}", job.app.token()),
            i as u64,
            || s.run(job),
        );
    }
    for (i, job) in jobs.iter().enumerate() {
        tr.span("engine.report", i as u64, || s.report(job));
    }
    tr.span("bench.render", 0, || fig6::run(s) + &fig8::run(s))
}

/// Where the golden for this scale and seed lives.
pub fn golden_path(p: &Params) -> PathBuf {
    p.golden_dir.join(format!(
        "sim_sweep.sd{}.seed{}.txt",
        p.scale.unwrap_or(SCALE),
        p.seed
    ))
}

/// Compares `got` with `want` line by line; each line is one check.
fn compare(checks: &mut Checks, what: &str, want: &str, got: &str) {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    checks.check(want.len() == got.len(), || {
        format!("{what}: {} lines, expected {}", got.len(), want.len())
    });
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        checks.check(w == g, || {
            format!("{what}: line {} is `{g}`, expected `{w}`", i + 1)
        });
    }
}

pub fn run(p: &Params, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let mut passes = vec![pass(p, &untraced)];
    while p.another_pass(passes.len(), start) {
        passes.push(pass(p, &untraced));
    }
    let traced = p.trace.then(|| pass(p, tr));
    let mut setups: Vec<f64> = passes.iter().map(|x| x.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(setup(p, &untraced).1);
    }

    // Output checks: against the golden for this scale and seed when
    // one is stored, else every pass against the first (each pass is
    // an independent session).
    let mut outputs: Vec<String> = passes
        .iter()
        .chain(&traced)
        .map(|x| x.output.clone())
        .collect();
    if p.tamper {
        outputs[0].push_str("tampered\n");
    }
    let golden = golden_path(p);
    if p.write_golden {
        let written = std::fs::create_dir_all(&p.golden_dir)
            .and_then(|()| std::fs::write(&golden, &outputs[0]));
        out.checks.check(written.is_ok(), || {
            format!("writing {}: {written:?}", golden.display())
        });
    } else if let Ok(want) = std::fs::read_to_string(&golden) {
        for got in &outputs {
            compare(&mut out.checks, "golden", &want, got);
        }
    } else {
        for got in &outputs[1..] {
            compare(&mut out.checks, "pass vs first pass", &outputs[0], got);
        }
    }

    let walls: Vec<f64> = passes.iter().map(|x| x.wall_s).collect();
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.extra("passes", passes.len() as f64, "count");
    out.extra("setup_samples", setups.len() as f64, "count");

    if let Some(traced) = traced {
        let [accesses, l1_misses, l3_misses, cycles] = traced.totals;
        out.set("cachesim.accesses", accesses as f64);
        out.set("cachesim.l1_misses", l1_misses as f64);
        out.set("cachesim.l3_misses", l3_misses as f64);
        out.set("cachesim.cycles", cycles as f64);
        out.add_trace(tr, traced.window, median(&walls));
        let traced_ms: f64 = APPS
            .iter()
            .filter_map(|a| out.metrics.get(&format!("cachesim.traced_ms.{a}")))
            .sum();
        out.set(
            "cachesim.maccess_per_s",
            accesses as f64 / 1e6 / (traced_ms / 1e3).max(1e-9),
        );
        out.extra(
            "cachesim_share_of_wall",
            traced_ms / 1e3 / traced.wall_s,
            "ratio",
        );
    }
    out
}
