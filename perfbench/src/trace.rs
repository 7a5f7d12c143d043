//! In-memory span recorder used by the traced mode.
//!
//! A span is opened by the benchmark around one call into a layer's
//! public API. Spans nest through a per-thread stack, so a span opened
//! while another is running on the same thread records it as parent.
//! Nothing is written while the workload runs: [`Tracer::write_jsonl`]
//! dumps the spans once the run is over.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u32,
    /// Enclosing span on the same thread (0 = top level).
    pub parent: u32,
    /// The job (or request) the call served.
    pub job: u64,
    /// Span name, `layer.metric[.key]`.
    pub name: String,
    /// Start and end, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads. A disabled tracer only
/// runs the wrapped closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn span<R>(&self, name: &str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                job,
                name: name.to_owned(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<(String, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_ns(c));
            (s.name.clone(), s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Σ self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_times_ns(spans) {
        *out.entry(name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Share of `[from_ns, to_ns)` covered by top-level spans. Concurrent
/// spans count once, so two clients waiting at the same time do not
/// cover the wall twice.
pub fn coverage(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.start_ns >= from_ns && s.end_ns <= to_ns)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_ns(&top) as f64 / (to_ns - from_ns).max(1) as f64
}

/// Total length of the union of intervals.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in sorted {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 40),
            span(3, 1, "inner", 30, 50),
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["outer"], 60.0 / 1e6);
        assert_eq!(by_name["inner"], 50.0 / 1e6);
    }

    #[test]
    fn coverage_counts_overlap_once() {
        let spans = [span(1, 0, "a", 0, 50), span(2, 0, "b", 25, 75)];
        assert_eq!(coverage(&spans, 0, 100), 0.75);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", 7, || t.span("inner", 7, || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.job, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
