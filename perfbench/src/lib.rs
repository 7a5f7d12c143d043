//! Benchmark of the graph-reordering workspace: three workloads, each
//! measured end to end with tracing off, and layer by layer from spans
//! the benchmark records around its own calls into the workspace
//! crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` its metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`] and the spans are written to
//! `.perfbench/spans-<workload>-<seed>.jsonl`. Lines above it repeat
//! every figure in readable form, including the workload's own
//! end-to-end figures that not every workload has.

pub mod reorder_host;
pub mod serve_mix;
pub mod sim_sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub use trace::Tracer;

/// End-to-end metrics every workload reports with tracing off:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_s", "s")];

/// Per-layer metrics every workload reports with tracing on. A layer
/// the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("graph.build_ms", "ms"),
    ("io.lgr_load_ms", "ms"),
    ("core.perm_ms.dbg", "ms"),
    ("core.perm_ms.sort", "ms"),
    ("core.perm_ms.hubsort", "ms"),
    ("core.perm_ms.hubcluster", "ms"),
    ("core.perm_ms.gorder", "ms"),
    ("graph.relabel_ms", "ms"),
    ("analytics.host_ms.pr", "ms"),
    ("analytics.host_ms.sssp", "ms"),
    ("cachesim.traced_ms.pr", "ms"),
    ("cachesim.traced_ms.sssp", "ms"),
    ("cachesim.traced_ms.bc", "ms"),
    ("cachesim.maccess_per_s", "Maccess/s"),
    ("cachesim.accesses", "count"),
    ("cachesim.l1_misses", "count"),
    ("cachesim.l3_misses", "count"),
    ("cachesim.cycles", "count"),
    ("engine.report_ms", "ms"),
    ("engine.cache_stats_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_evictions", "count"),
    ("engine.hit_ratio", "ratio"),
    ("serve.start_ms", "ms"),
    ("serve.rtt_ms.hit", "ms"),
    ("serve.rtt_ms.cold", "ms"),
    ("serve.rtt_ms.error", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The share of a traced pass that top-level spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Fewest timed passes in an untraced run, so the median can drop
/// one disturbed pass.
pub const MIN_PASSES: usize = 3;

/// The seed whose outputs are pinned by goldens under `goldens/`.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSweep,
    ReorderHost,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimSweep,
        Workload::ReorderHost,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::ReorderHost => "reorder_host",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    /// Flows only into generated inputs: dataset `seed=` overrides and
    /// the serve request stream.
    pub seed: u64,
    /// How long to keep repeating passes (at least [`MIN_PASSES`] run).
    pub seconds: f64,
    pub trace: bool,
    /// Test hook: scale exponent override (`sd` gets `2^scale`
    /// vertices); `None` keeps the workload's own.
    pub scale: Option<u32>,
    /// Where spans and the `.lgr` dataset cache are written.
    pub out_dir: PathBuf,
    /// Where sim_sweep looks for (or writes) its goldens.
    pub golden_dir: PathBuf,
    /// Write the sim_sweep golden for this scale and seed instead of
    /// checking against it.
    pub write_golden: bool,
    /// Test hook: corrupt one observed output before it is checked, to
    /// prove the checks can fail.
    pub tamper: bool,
}

impl Params {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Params {
            workload,
            seed,
            seconds,
            trace,
            scale: None,
            out_dir: PathBuf::from(".perfbench"),
            golden_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens")),
            write_golden: false,
            tamper: false,
        }
    }

    /// `true` while another untraced pass should start: always until
    /// [`MIN_PASSES`] have run, then, in an untraced run only, until
    /// the run's time is used up. A traced run thus times exactly
    /// [`MIN_PASSES`] untraced passes, whose median is the baseline of
    /// its tracing overhead.
    pub fn another_pass(&self, passes: usize, start: Instant) -> bool {
        passes < MIN_PASSES || (!self.trace && start.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Pass/fail bookkeeping of the output checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Metric values by name (units come from the tables).
    pub metrics: BTreeMap<String, f64>,
    /// Workload-specific figures printed above the result line:
    /// `(name, value, unit)`.
    pub extra: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_owned(), value, unit));
    }

    /// Adds the traced pass's per-layer figures: Σ self time per span
    /// (`layer.name[.key]` → metric `layer.name_ms[.key]`), the
    /// coverage of `[from_ns, to_ns)` and the tracing overhead.
    /// Coverage below [`MIN_COVERAGE`] fails the run.
    pub fn add_trace(&mut self, tr: &Tracer, window: (u64, u64), untraced_wall_s: f64) {
        let spans = tr.spans();
        for (name, ms) in trace::self_ms_by_name(&spans) {
            self.set(&span_metric(&name), ms);
        }
        let coverage = trace::coverage(&spans, window.0, window.1);
        self.set("trace.coverage", coverage);
        let traced_wall_s = (window.1 - window.0) as f64 / 1e9;
        self.set(
            "trace.overhead_frac",
            (traced_wall_s - untraced_wall_s) / untraced_wall_s,
        );
        self.extra("traced_wall_s", traced_wall_s, "s");
        self.extra("untraced_wall_s", untraced_wall_s, "s");
        self.checks.check(coverage >= MIN_COVERAGE, || {
            format!("top-level spans cover {coverage:.3} of the traced wall, below {MIN_COVERAGE}")
        });
    }
}

/// `core.perm.dbg` → `core.perm_ms.dbg`.
fn span_metric(span: &str) -> String {
    let mut parts = span.splitn(3, '.');
    let layer = parts.next().unwrap_or(span);
    match (parts.next(), parts.next()) {
        (Some(what), Some(key)) => format!("{layer}.{what}_ms.{key}"),
        (Some(what), None) => format!("{layer}.{what}_ms"),
        _ => format!("{span}_ms"),
    }
}

/// Runs one workload and returns its outcome (not yet printed).
pub fn run(p: &Params) -> Outcome {
    let tr = Tracer::new(p.trace);
    let mut out = match p.workload {
        Workload::SimSweep => sim_sweep::run(p, &tr),
        Workload::ReorderHost => reorder_host::run(p, &tr),
        Workload::ServeMix => serve_mix::run(p, &tr),
    };
    if p.trace {
        let path = p
            .out_dir
            .join(format!("spans-{}-{}.jsonl", p.workload.name(), p.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            out.checks
                .check(false, || format!("writing {}: {e}", path.display()));
        }
    } else {
        out.extra("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    out
}

/// The readable report and, as its last line, the result object.
pub fn render(p: &Params, out: &Outcome) -> String {
    let table: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# {} seed={} trace={}",
        p.workload.name(),
        p.seed,
        u8::from(p.trace)
    );
    for (name, value, unit) in &out.extra {
        let _ = writeln!(text, "{name:<28} {value:>16.6} {unit}");
    }
    let fail_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    let _ = writeln!(text, "{:<28} {fail_frac:>16.6} ratio", "fail_frac");
    for msg in &out.checks.messages {
        let _ = writeln!(text, "check failed: {msg}");
    }
    let mut metrics = String::new();
    for (name, unit) in table {
        let value = out.metrics.get(*name).copied().unwrap_or(0.0);
        let _ = writeln!(text, "{name:<28} {value:>16.6} {unit}");
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        );
    }
    let _ = writeln!(
        text,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed
    );
    text
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median (mean of the middle pair for even lengths); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `q` in (0, 1]; 0 if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Parses a spec the benchmark itself spells out.
fn spec<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| panic!("built-in spec `{s}` parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_map_to_metric_names() {
        assert_eq!(span_metric("core.perm.dbg"), "core.perm_ms.dbg");
        assert_eq!(span_metric("graph.relabel"), "graph.relabel_ms");
        assert_eq!(span_metric("serve.rtt.hit"), "serve.rtt_ms.hit");
    }

    #[test]
    fn every_span_metric_is_declared() {
        for span in [
            "graph.build",
            "io.lgr_load",
            "core.perm.gorder",
            "graph.relabel",
            "analytics.host.sssp",
            "cachesim.traced.bc",
            "engine.report",
            "engine.cache_stats",
            "bench.render",
            "serve.start",
            "serve.rtt.cold",
        ] {
            let metric = span_metric(span);
            assert!(
                PER_LAYER.iter().any(|(name, _)| *name == metric),
                "{metric} is not in PER_LAYER"
            );
        }
    }

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
    }
}
