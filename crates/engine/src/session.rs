//! The [`Session`]: pool ownership, dataset/permutation/run caching,
//! and the paper's measurement methodology, addressable by spec.
//!
//! A session is the library-level engine the `repro` harness (and any
//! future service) drives: it owns the worker [`Pool`], lazily
//! materializes datasets (synthetic analogues, text files, or binary
//! `.lgr` snapshots), caches timed permutations and reordered CSRs
//! under canonicalized keys, and runs traced/untraced application
//! jobs. Everything is addressed by [`DatasetSpec`] /
//! [`TechniqueSpec`] / [`AppSpec`], so a string from a CLI flag,
//! config file, or RPC payload reaches the same cached machinery as a
//! typed call.
//!
//! With [`SessionConfig::dataset_cache`] set, every materialized
//! graph is persisted as a checksummed `.lgr` file keyed by spec
//! string + scale; later sessions reload the binary CSR instead of
//! regenerating and rebuilding it.
//!
//! # Threading model
//!
//! A `Session` is `Send + Sync`: wrap it in an [`Arc`] and hand
//! clones to as many threads (or server connections) as you like.
//! Every cache is a sharded-lock map ([`ShardedCache`]) with per-key
//! build coalescing — N concurrent requests for the same
//! (dataset, technique, app) key trigger exactly **one** graph build,
//! reordering, or traced run; the other N-1 threads block on the
//! in-flight slot and wake to the shared `Arc`'d result. Reports are
//! therefore byte-identical whether a job batch runs sequentially or
//! hammered from many threads (the only wall-clock field,
//! `reorder_ms`, is measured once per key and then shared). All
//! threads share the session's single worker [`Pool`], which is only
//! a thread count: each broadcast runs on its own scoped threads, so
//! concurrent jobs never wait on one another's data-parallel
//! sections. [`Session::run_all`] drains a batch of traced jobs on
//! one broadcast, and each job's relabel broadcasts again inside it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lgr_analytics::apps::bc::{bc_with_arrays, BcArrays};
use lgr_analytics::apps::pagerank::{pagerank_with_arrays, PrArrays};
use lgr_analytics::apps::pagerank_delta::{pagerank_delta_with_arrays, PrdArrays};
use lgr_analytics::apps::radii::{radii_with_arrays, RadiiArrays};
use lgr_analytics::apps::sssp::{sssp_with_arrays, SsspArrays};
use lgr_analytics::apps::{AppId, BcConfig, PrConfig, PrdConfig, RadiiConfig, SsspConfig};
use lgr_cachesim::{MemoryLayout, MemorySim, NullTracer, SimConfig, SimStats, Tracer};
use lgr_core::{ReorderingTechnique, TimedReorder};
use lgr_graph::datasets::DatasetScale;
use lgr_graph::{Csr, DegreeKind, VertexId};
use lgr_io::DatasetCache;
use lgr_parallel::Pool;
use lgr_sync::atomic::{AtomicUsize, Ordering};

use crate::app::AppSpec;
use crate::coalesce::{CacheConfig, CacheStats, EvictionPolicy, ShardedCache};
use crate::dataset::{DatasetError, DatasetGraph, DatasetRegistry, DatasetSpec};
use crate::registry::TechniqueRegistry;
use crate::report::Report;
use crate::spec::{SpecError, TechniqueSpec};

/// Session-wide knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Dataset scale (vertex count of `sd`; others keep Table IX
    /// ratios). Per-spec `sd=`/`seed=` overrides take precedence.
    pub scale: DatasetScale,
    /// Simulated machine.
    pub sim: SimConfig,
    /// Roots aggregated per root-dependent app run (the paper uses 8).
    pub roots: usize,
    /// Fixed PageRank iterations per traced run.
    pub pr_iters: usize,
    /// PageRank-Delta iteration cap.
    pub prd_iters: usize,
    /// Radii round cap.
    pub radii_rounds: usize,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// Restrict experiments to these techniques (`None` = all). Rosters
    /// pass through [`Session::selected_techniques`], so a `--techniques
    /// dbg,sort` CLI filter reaches every experiment uniformly.
    pub techniques: Option<Vec<TechniqueSpec>>,
    /// Restrict experiments to these applications (`None` = all),
    /// matched by app identity; a knobbed selection entry
    /// (`pr:iters=10`) overrides the roster's knobs.
    pub apps: Option<Vec<AppSpec>>,
    /// Restrict experiments to these datasets (`None` = the paper's
    /// rosters). Like `--techniques`, the main evaluation runs the
    /// selection verbatim — naming `file:/data/web.el` here routes an
    /// external graph through every spec-driven experiment.
    pub datasets: Option<Vec<DatasetSpec>>,
    /// Directory of persisted `.lgr` graphs keyed by spec + scale
    /// (`None` = rebuild every session). Misses populate the cache;
    /// hits skip generation, parsing, and CSR construction entirely.
    pub dataset_cache: Option<PathBuf>,
    /// Byte budget applied to **each** in-memory session cache
    /// (graphs, permutations, reordered CSRs, roots, run stats, wall
    /// times); `None` = unbounded, the historical behavior. When set,
    /// published entries are evicted under [`SessionConfig::cache_policy`]
    /// whenever a cache's resident bytes exceed the budget, and
    /// evicted keys rebuild deterministically on their next request
    /// (only the re-measured `reorder_ms` wall-clock field can
    /// differ; [`Report::canonicalized`](crate::Report::canonicalized)
    /// output is byte-identical).
    pub cache_bytes: Option<u64>,
    /// Replacement policy for budgeted caches (ignored when
    /// [`SessionConfig::cache_bytes`] is `None`).
    pub cache_policy: EvictionPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scale: DatasetScale::with_sd_vertices(1 << 17),
            sim: SimConfig::default(),
            roots: 2,
            pr_iters: 3,
            prd_iters: 5,
            radii_rounds: 1024,
            verbose: false,
            techniques: None,
            apps: None,
            datasets: None,
            dataset_cache: None,
            cache_bytes: None,
            cache_policy: EvictionPolicy::default(),
        }
    }
}

impl SessionConfig {
    /// A tiny configuration for smoke tests and CI. The scale is
    /// chosen so `repro --quick all` finishes in well under a minute
    /// even in debug builds (the full suite simulates every app on
    /// every dataset).
    pub fn quick() -> Self {
        SessionConfig {
            scale: DatasetScale::with_sd_vertices(1 << 11),
            roots: 1,
            pr_iters: 2,
            prd_iters: 3,
            radii_rounds: 256,
            ..Default::default()
        }
    }

    /// Overrides the scale exponent: `sd` gets `2^exp` vertices.
    pub fn with_scale_exp(mut self, exp: u32) -> Self {
        self.scale = DatasetScale::with_sd_vertices(1usize << exp);
        self
    }
}

/// One traced run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Simulator statistics (MPKI, breakdowns, cycles).
    pub stats: SimStats,
}

impl RunStats {
    /// Estimated execution cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// A point-in-time snapshot of every session cache's counters — the
/// observability surface behind `repro --cache-stats` and the serve
/// protocol's `{"stats":"true"}` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Original-ordering graphs keyed by dataset spec.
    pub graphs: CacheStats,
    /// Timed permutations keyed by (dataset, technique, degree kind).
    pub reorders: CacheStats,
    /// Reordered CSRs under the same canonicalized keys.
    pub reordered: CacheStats,
    /// Per-dataset root-candidate vectors.
    pub roots: CacheStats,
    /// Traced run statistics keyed by job.
    pub runs: CacheStats,
    /// Untraced wall-clock measurements keyed by job.
    pub walls: CacheStats,
}

impl SessionCacheStats {
    /// Every cache's `(name, stats)` pair, in a fixed order.
    pub fn named(&self) -> [(&'static str, CacheStats); 6] {
        [
            ("graphs", self.graphs),
            ("reorders", self.reorders),
            ("reordered", self.reordered),
            ("roots", self.roots),
            ("runs", self.runs),
            ("walls", self.walls),
        ]
    }

    /// The sum over every cache (budgets sum when configured).
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, stats) in self.named() {
            total.absorb(&stats);
        }
        total
    }

    /// Serializes to one JSON object on a single line, one nested
    /// object per cache plus a `"total"` rollup:
    /// `{"stats":{"graphs":{"hits":3,...},...,"total":{...}}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn write_cache(out: &mut String, name: &str, s: &CacheStats) {
            let _ = write!(
                out,
                "\"{name}\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
                 \"resident_bytes\":{},\"entries\":{},\"budget_bytes\":{}}}",
                s.hits,
                s.misses,
                s.evictions,
                s.resident_bytes,
                s.entries,
                s.budget_bytes
                    .map_or_else(|| "null".to_owned(), |b| b.to_string()),
            );
        }
        let mut out = String::from("{\"stats\":{");
        for (name, stats) in self.named() {
            write_cache(&mut out, name, &stats);
            out.push(',');
        }
        write_cache(&mut out, "total", &self.total());
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for SessionCacheStats {
    /// A fixed-width table, one row per cache plus the total row.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>8} {:>8} {:>10} {:>9} {:>15} {:>15}",
            "cache", "hits", "misses", "evictions", "entries", "resident_bytes", "budget_bytes"
        )?;
        let total = self.total();
        for (name, s) in self.named().iter().chain([&("total", total)]) {
            writeln!(
                f,
                "{:<10} {:>8} {:>8} {:>10} {:>9} {:>15} {:>15}",
                name,
                s.hits,
                s.misses,
                s.evictions,
                s.entries,
                s.resident_bytes,
                s.budget_bytes
                    .map_or_else(|| "unbounded".to_owned(), |b| b.to_string()),
            )?;
        }
        Ok(())
    }
}

/// One unit of work: an application on a dataset under an (optional)
/// reordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Job {
    /// What to run.
    pub app: AppSpec,
    /// Which dataset to run it on.
    pub dataset: DatasetSpec,
    /// How to reorder first (`None` = original ordering).
    pub technique: Option<TechniqueSpec>,
}

impl Job {
    /// A job on the original ordering. Accepts anything convertible to
    /// a [`DatasetSpec`], including a bare
    /// [`DatasetId`](lgr_graph::datasets::DatasetId).
    pub fn new(app: AppSpec, dataset: impl Into<DatasetSpec>) -> Self {
        Job {
            app,
            dataset: dataset.into(),
            technique: None,
        }
    }

    /// The same job under `spec`'s reordering.
    pub fn with_technique(mut self, spec: TechniqueSpec) -> Self {
        self.technique = Some(spec);
        self
    }
}

type ReorderKey = (DatasetSpec, TechniqueSpec, DegreeKind);
type RunKey = (AppSpec, DatasetSpec, Option<TechniqueSpec>);

/// Caching engine shared by every experiment, CLI invocation, server
/// connection, and library embedding. `Send + Sync`: share one
/// session across threads via [`Arc`]; every cache coalesces
/// concurrent builds of the same key into a single execution.
pub struct Session {
    cfg: SessionConfig,
    registry: TechniqueRegistry,
    dataset_registry: DatasetRegistry,
    /// Worker pool shared by every CSR build, permutation apply and
    /// file parse the session performs — across all threads driving
    /// the session concurrently. Sized by the
    /// `LGR_THREADS` knob (default: available parallelism).
    pool: Pool,
    graphs: ShardedCache<DatasetSpec, Csr>,
    reorders: ShardedCache<ReorderKey, TimedReorder>,
    /// Reordered CSRs, cached under the same canonicalized key as the
    /// permutations that produced them — rebuilding the graph per
    /// `run`/`wall` call was the single biggest repeated cost of the
    /// repro pipeline.
    reordered: ShardedCache<ReorderKey, Csr>,
    /// Per-dataset root candidates (vertices with both edge
    /// directions), so the O(V) scan runs once per dataset rather than
    /// once per prepared run.
    root_candidates: ShardedCache<DatasetSpec, Vec<VertexId>>,
    runs: ShardedCache<RunKey, RunStats>,
    walls: ShardedCache<RunKey, Duration>,
}

// The whole point of the sharded caches: one engine, many threads. A
// regression that reintroduces a non-Sync cell fails to compile here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("cfg", &self.cfg).finish()
    }
}

impl Session {
    /// A session with the given configuration and the built-in
    /// technique and dataset registries.
    pub fn new(cfg: SessionConfig) -> Self {
        Self::with_registry(cfg, TechniqueRegistry::new())
    }

    /// A session whose technique specs also resolve against
    /// `registry`'s custom techniques.
    pub fn with_registry(cfg: SessionConfig, registry: TechniqueRegistry) -> Self {
        let cache_cfg = CacheConfig {
            budget_bytes: cfg.cache_bytes,
            policy: cfg.cache_policy,
            ..CacheConfig::default()
        };
        Session {
            registry,
            dataset_registry: DatasetRegistry::new(),
            pool: Pool::with_default_threads(),
            graphs: ShardedCache::with_config(cache_cfg),
            reorders: ShardedCache::with_config(cache_cfg),
            reordered: ShardedCache::with_config(cache_cfg),
            root_candidates: ShardedCache::with_config(cache_cfg),
            runs: ShardedCache::with_config(cache_cfg),
            walls: ShardedCache::with_config(cache_cfg),
            cfg,
        }
    }

    /// The worker pool shared by the session's graph construction,
    /// relabeling and file parsing.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The technique registry specs resolve against.
    pub fn registry(&self) -> &TechniqueRegistry {
        &self.registry
    }

    /// Mutable registry access, for registering custom techniques.
    pub fn registry_mut(&mut self) -> &mut TechniqueRegistry {
        &mut self.registry
    }

    /// The dataset registry specs resolve against.
    pub fn dataset_registry(&self) -> &DatasetRegistry {
        &self.dataset_registry
    }

    /// Mutable dataset-registry access, for registering custom
    /// sources.
    pub fn dataset_registry_mut(&mut self) -> &mut DatasetRegistry {
        &mut self.dataset_registry
    }

    fn log(&self, msg: &str) {
        if self.cfg.verbose {
            eprintln!("[repro] {msg}");
        }
    }

    /// A snapshot of every cache's hit/miss/eviction/resident-bytes
    /// counters. Cheap enough to call per request (`entries` walks
    /// the shard maps; everything else is an atomic load).
    pub fn cache_stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            graphs: self.graphs.stats(),
            reorders: self.reorders.stats(),
            reordered: self.reordered.stats(),
            roots: self.root_candidates.stats(),
            runs: self.runs.stats(),
            walls: self.walls.stats(),
        }
    }

    /// Slot-map entries across every cache, published or in flight —
    /// the leak check after a failed job: a build that panics must
    /// leave no slot behind (see [`ShardedCache::tracked_slots`]).
    pub fn tracked_slots(&self) -> usize {
        self.graphs.tracked_slots()
            + self.reorders.tracked_slots()
            + self.reordered.tracked_slots()
            + self.root_candidates.tracked_slots()
            + self.runs.tracked_slots()
            + self.walls.tracked_slots()
    }

    /// The dataset's graph in its original ordering, materialized (or
    /// loaded from the dataset cache) on first use. Weights are always
    /// attached (SSSP uses them; other apps ignore them): sources that
    /// carry none get the deterministic per-spec weight stream.
    /// Concurrent requests coalesce: one thread builds, the rest wait
    /// and share the result.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] when the spec names a file that is missing or
    /// malformed, or a custom source whose builder fails. Errors are
    /// not cached; a later call retries.
    pub fn try_graph(&self, ds: &DatasetSpec) -> Result<Arc<Csr>, DatasetError> {
        self.graphs.get_or_try_build(ds, || self.build_graph(ds))
    }

    /// The uncached graph materialization behind [`Session::try_graph`]
    /// (runs at most once per spec thanks to the coalescing cache).
    fn build_graph(&self, ds: &DatasetSpec) -> Result<Csr, DatasetError> {
        let cache = self.cfg.dataset_cache.as_ref().map(DatasetCache::new);
        let key = ds.cache_key(self.cfg.scale);
        if let Some(cache) = &cache {
            if let Some(g) = cache.load(&key) {
                self.log(&format!("loading dataset {ds} from cache ({key})"));
                return Ok(self.ensure_weighted(ds, g));
            }
        }
        self.log(&format!("building dataset {ds}"));
        let g = match self
            .dataset_registry
            .build(ds, self.cfg.scale, &self.pool)?
        {
            DatasetGraph::Edges(mut el) => {
                if !el.is_weighted() {
                    el.randomize_weights(64, ds.weight_seed());
                }
                Csr::from_edge_list_with(&el, &self.pool)
            }
            DatasetGraph::Graph(csr) => self.ensure_weighted(ds, csr),
        };
        if let Some(cache) = &cache {
            match cache.store(&key, &g) {
                Ok(path) => self.log(&format!("cached dataset {ds} at {}", path.display())),
                Err(e) => eprintln!("[repro] warning: could not cache dataset {ds}: {e}"),
            }
        }
        Ok(g)
    }

    /// [`Session::try_graph`], panicking on load failure — the
    /// ergonomic accessor for specs already validated (the `repro`
    /// binary validates every `--datasets` entry up front).
    ///
    /// # Panics
    ///
    /// Panics if the dataset fails to materialize.
    pub fn graph(&self, ds: &DatasetSpec) -> Arc<Csr> {
        self.try_graph(ds)
            .unwrap_or_else(|e| panic!("dataset `{ds}`: {e}"))
    }

    /// Attaches the spec's deterministic weight stream when a loaded
    /// graph carries none (a hand-made `.lgr` file, say), so every
    /// dataset is runnable under SSSP.
    fn ensure_weighted(&self, ds: &DatasetSpec, csr: Csr) -> Csr {
        if csr.is_weighted() {
            return csr;
        }
        self.log(&format!(
            "dataset {ds} carries no weights; attaching the deterministic stream"
        ));
        let mut el = csr.to_edge_list();
        el.randomize_weights(64, ds.weight_seed());
        Csr::from_edge_list_with(&el, &self.pool)
    }

    /// Instantiates the technique a spec describes.
    pub fn technique(
        &self,
        spec: &TechniqueSpec,
    ) -> Result<Box<dyn ReorderingTechnique>, SpecError> {
        self.registry.build(spec)
    }

    /// Degree-kind canonicalization: techniques whose permutation
    /// ignores the degree kind share one cached entry.
    fn canonical_kind(spec: &TechniqueSpec, kind: DegreeKind) -> DegreeKind {
        if spec.uses_degree_kind() {
            kind
        } else {
            DegreeKind::Out
        }
    }

    /// Times `spec`'s reordering of an arbitrary graph (uncached;
    /// out-degrees drive hot/cold decisions).
    pub fn reorder(&self, graph: &Csr, spec: &TechniqueSpec) -> TimedReorder {
        self.reorder_with_kind(graph, spec, DegreeKind::Out)
    }

    /// [`Session::reorder`] with an explicit degree kind.
    ///
    /// # Panics
    ///
    /// Panics if the spec names a custom technique this session's
    /// registry does not hold (parse specs through
    /// [`TechniqueRegistry::parse`](crate::TechniqueRegistry::parse)
    /// to catch that early).
    pub fn reorder_with_kind(
        &self,
        graph: &Csr,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> TimedReorder {
        let t = self
            .technique(spec)
            .unwrap_or_else(|e| panic!("unresolvable spec `{spec}`: {e}"));
        TimedReorder::run(t.as_ref(), graph, kind)
    }

    /// The (timed) permutation for `spec` on `ds` using `kind`
    /// degrees, cached; concurrent requests coalesce into one
    /// reordering run.
    pub fn dataset_reorder(
        &self,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> Arc<TimedReorder> {
        let key = (ds.clone(), spec.clone(), Self::canonical_kind(spec, kind));
        let canonical = key.2;
        self.reorders.get_or_build(&key, || {
            let graph = self.graph(ds);
            self.log(&format!("reordering {} with {}", ds.label(), spec.label()));
            self.reorder_with_kind(&graph, spec, canonical)
        })
    }

    /// The reordered CSR for `spec` on `ds` using `kind` degrees,
    /// cached under the same canonicalized key as the permutation so
    /// every `run`/`wall` call on the same (dataset, technique) pair
    /// reuses one relabeled graph.
    pub fn reordered_graph(
        &self,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> Arc<Csr> {
        let key = (ds.clone(), spec.clone(), Self::canonical_kind(spec, kind));
        self.reordered.get_or_build(&key, || {
            let base = self.graph(ds);
            let timed = self.dataset_reorder(ds, spec, kind);
            self.log(&format!("rebuilding {} under {}", ds.label(), spec.label()));
            base.apply_permutation_with(&timed.permutation, &self.pool)
        })
    }

    /// The dataset's root candidates (vertices with both in- and
    /// out-edges), cached.
    fn root_candidates(&self, ds: &DatasetSpec) -> Arc<Vec<VertexId>> {
        self.root_candidates.get_or_build(ds, || {
            let g = self.graph(ds);
            (0..g.num_vertices() as VertexId)
                .filter(|&v| g.out_degree(v) > 0 && g.in_degree(v) > 0)
                .collect()
        })
    }

    /// Deterministic roots on the ORIGINAL graph: vertices with both
    /// in- and out-edges, evenly spaced through the ID range. Returns
    /// at most one root per candidate — when `count` exceeds the
    /// candidate pool the result is the whole pool, never duplicated
    /// roots (a duplicate would double-charge its traversal in the
    /// aggregated simulation). A graph with no candidates falls back
    /// to vertex 0, or to no roots at all when it has no vertices.
    pub fn roots(&self, ds: &DatasetSpec, count: usize) -> Vec<VertexId> {
        let candidates = self.root_candidates(ds);
        if candidates.is_empty() {
            return if self.graph(ds).num_vertices() == 0 {
                Vec::new()
            } else {
                vec![0]
            };
        }
        let k = count.max(1).min(candidates.len());
        (0..k)
            .map(|i| {
                let idx = (i * candidates.len() / k + candidates.len() / (2 * k))
                    .min(candidates.len() - 1);
                candidates[idx]
            })
            .collect()
    }

    /// Traced run of a job, cached. Root-dependent apps aggregate the
    /// configured number of traversals into one simulation, mirroring
    /// the paper's methodology. Concurrent requests for the same job
    /// coalesce into one traced execution.
    pub fn run(&self, job: &Job) -> Arc<RunStats> {
        let key = (job.app.clone(), job.dataset.clone(), job.technique.clone());
        self.runs.get_or_build(&key, || {
            self.log(&format!(
                "tracing {} on {} / {}",
                job.app.label(),
                job.dataset.label(),
                job.technique
                    .as_ref()
                    .map_or_else(|| "Original".to_owned(), TechniqueSpec::label)
            ));
            let base = self.graph(&job.dataset);
            let (graph, roots) = self.prepared(job, &base);
            let sim = self.execute(&job.app, &graph, &roots, |layout| {
                MemorySim::new(self.cfg.sim, layout)
            });
            RunStats {
                stats: *sim.stats(),
            }
        })
    }

    /// Warms the run cache with every job's traced run, so callers
    /// can then read [`Session::run`] (or anything built on it) in any
    /// order from warm caches. Two phases:
    ///
    /// 1. Serially, every technique job's permutation is computed, so
    ///    the wall-clock `reorder_ms` measurement never overlaps a
    ///    simulation.
    /// 2. The traced runs drain on one broadcast of the session's
    ///    pool (the caller is worker 0), each worker pulling the next
    ///    job from a shared index. A relabel inside a job broadcasts
    ///    on the same pool. Duplicate jobs coalesce in the run cache.
    ///    With one pool thread everything runs on the caller, in job
    ///    order.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking job's payload (as [`Session::run`] would)
    /// once every thread has stopped. A thread stops at its first
    /// panic; the others drain the remaining jobs first.
    pub fn run_all(&self, jobs: &[Job]) {
        for job in jobs {
            if let Some(spec) = &job.technique {
                self.dataset_reorder(&job.dataset, spec, job.app.id().reorder_degree());
            }
        }
        let next = AtomicUsize::new(0);
        let drain = || {
            // ordering: Relaxed — the counter only hands out distinct
            // indices; each run's result is published by the run cache.
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                self.run(job);
            }
        };
        self.pool.broadcast(|_| drain());
    }

    /// Untraced wall-clock run (same work as [`Session::run`]), cached.
    pub fn wall(&self, job: &Job) -> Duration {
        let key = (job.app.clone(), job.dataset.clone(), job.technique.clone());
        *self.walls.get_or_build(&key, || {
            let base = self.graph(&job.dataset);
            let (graph, roots) = self.prepared(job, &base);
            let start = Instant::now();
            self.execute(&job.app, &graph, &roots, |_| NullTracer);
            start.elapsed()
        })
    }

    /// Runs a job and flattens the outcome (plus its baseline
    /// comparison and reorder timing) into a machine-readable
    /// [`Report`].
    pub fn report(&self, job: &Job) -> Report {
        let stats = self.run(job);
        let base = self.run(&Job::new(job.app.clone(), job.dataset.clone()));
        let (technique, spec, reorder_ms) = match &job.technique {
            None => (
                "Original".to_owned(),
                TechniqueSpec::original().to_string(),
                None,
            ),
            Some(spec) => {
                let timed = self.dataset_reorder(&job.dataset, spec, job.app.id().reorder_degree());
                (
                    spec.label(),
                    spec.to_string(),
                    Some(timed.elapsed.as_secs_f64() * 1e3),
                )
            }
        };
        Report {
            app: job.app.label().to_owned(),
            app_spec: job.app.to_string(),
            dataset: job.dataset.label(),
            dataset_spec: job.dataset.to_string(),
            technique,
            spec,
            cycles: stats.cycles(),
            instructions: stats.stats.instructions,
            mpki: stats.stats.mpki(),
            reorder_ms,
            speedup: base.cycles() as f64 / (stats.cycles() as f64).max(1.0),
        }
    }

    /// Builds the (possibly reordered) graph and maps roots through the
    /// permutation.
    fn prepared(&self, job: &Job, base: &Arc<Csr>) -> (Arc<Csr>, Vec<VertexId>) {
        // Radii needs its 64 BFS sources fixed in *logical* vertex
        // terms so every ordering computes the same problem.
        let count = if job.app.id() == AppId::Radii {
            job.app.sources().unwrap_or(64)
        } else {
            job.app.roots().unwrap_or(self.cfg.roots)
        };
        let roots = self.roots(&job.dataset, count);
        match &job.technique {
            None => (Arc::clone(base), roots),
            Some(spec) => {
                let kind = job.app.id().reorder_degree();
                let timed = self.dataset_reorder(&job.dataset, spec, kind);
                let g = self.reordered_graph(&job.dataset, spec, kind);
                let mapped = roots.iter().map(|&r| timed.permutation.new_id(r)).collect();
                (g, mapped)
            }
        }
    }

    fn pr_config(&self, app: &AppSpec) -> PrConfig {
        PrConfig {
            max_iters: app.iters().unwrap_or(self.cfg.pr_iters),
            tolerance: 0.0,
            cores: self.cfg.sim.cores,
            ..Default::default()
        }
    }

    fn prd_config(&self, app: &AppSpec) -> PrdConfig {
        PrdConfig {
            max_iters: app.iters().unwrap_or(self.cfg.prd_iters),
            cores: self.cfg.sim.cores,
            ..Default::default()
        }
    }

    fn radii_config(&self, app: &AppSpec, sources: &[VertexId]) -> RadiiConfig {
        RadiiConfig {
            max_rounds: app.rounds().unwrap_or(self.cfg.radii_rounds),
            cores: self.cfg.sim.cores,
            ..Default::default()
        }
        .with_sources(sources.to_vec())
    }

    /// Runs `app` on `graph` under the tracer `make_tracer` builds: the
    /// app's arrays are registered in a fresh [`MemoryLayout`], the
    /// tracer is built from that layout, and the app's kernel runs
    /// against the registered arrays. Root-dependent apps run once per
    /// root into the same tracer.
    fn execute<T: Tracer>(
        &self,
        app: &AppSpec,
        graph: &Csr,
        roots: &[VertexId],
        make_tracer: impl FnOnce(MemoryLayout) -> T,
    ) -> T {
        let cores = self.cfg.sim.cores;
        let mut layout = MemoryLayout::new();
        match app.id() {
            AppId::Pr => {
                let arrays = PrArrays::register(&mut layout, graph);
                let mut t = make_tracer(layout);
                pagerank_with_arrays(graph, &self.pr_config(app), &arrays, &mut t);
                t
            }
            AppId::Prd => {
                let arrays = PrdArrays::register(&mut layout, graph);
                let mut t = make_tracer(layout);
                pagerank_delta_with_arrays(graph, &self.prd_config(app), &arrays, &mut t);
                t
            }
            AppId::Sssp => {
                let arrays = SsspArrays::register(&mut layout, graph);
                let mut t = make_tracer(layout);
                for &r in roots {
                    let cfg = SsspConfig {
                        cores,
                        ..SsspConfig::from_root(r)
                    };
                    sssp_with_arrays(graph, &cfg, &arrays, &mut t);
                }
                t
            }
            AppId::Bc => {
                let arrays = BcArrays::register(&mut layout, graph);
                let mut t = make_tracer(layout);
                for &r in roots {
                    let cfg = BcConfig { root: r, cores };
                    bc_with_arrays(graph, &cfg, &arrays, &mut t);
                }
                t
            }
            AppId::Radii => {
                let arrays = RadiiArrays::register(&mut layout, graph);
                let mut t = make_tracer(layout);
                radii_with_arrays(graph, &self.radii_config(app, roots), &arrays, &mut t);
                t
            }
        }
    }

    /// Traced PageRank cycles on an arbitrary (already reordered)
    /// graph — used by ablations that sweep technique parameters
    /// outside the cached dataset registry.
    pub fn simulate_pr(&self, graph: &Csr) -> u64 {
        let app = AppSpec::new(AppId::Pr);
        let sim = self.execute(&app, graph, &[], |layout| {
            MemorySim::new(self.cfg.sim, layout)
        });
        sim.stats().cycles
    }

    /// Speedup factor of `spec` over the original ordering for
    /// `app` x `ds`, excluding reordering time (Fig. 6's metric).
    pub fn speedup(&self, app: &AppSpec, ds: &DatasetSpec, spec: &TechniqueSpec) -> f64 {
        let base = self.run(&Job::new(app.clone(), ds.clone())).cycles() as f64;
        let with = self
            .run(&Job::new(app.clone(), ds.clone()).with_technique(spec.clone()))
            .cycles() as f64;
        base / with.max(1.0)
    }

    /// Converts a wall-clock duration into simulated cycles using the
    /// dataset's PageRank calibration: the same PR work is both
    /// simulated (cycles) and executed on the host (seconds); their
    /// ratio is the exchange rate. This lets measured reordering times
    /// be charged against simulated application cycles (Figs. 10–11,
    /// Table XII).
    pub fn wall_to_cycles(&self, ds: &DatasetSpec, wall: Duration) -> u64 {
        let pr = Job::new(AppSpec::new(AppId::Pr), ds.clone());
        let sim_cycles = self.run(&pr).cycles() as f64;
        let host_secs = self.wall(&pr).as_secs_f64().max(1e-9);
        let rate = sim_cycles / host_secs;
        (wall.as_secs_f64() * rate) as u64
    }

    /// Net speedup including reordering time, amortized over
    /// `traversals` repetitions of the app run (Figs. 10–11):
    /// `base * T / (reorder + with * T)`.
    pub fn net_speedup(
        &self,
        app: &AppSpec,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        traversals: u64,
    ) -> f64 {
        let base = self.run(&Job::new(app.clone(), ds.clone())).cycles() as f64;
        let with = self
            .run(&Job::new(app.clone(), ds.clone()).with_technique(spec.clone()))
            .cycles() as f64;
        let reorder = self.dataset_reorder(ds, spec, app.id().reorder_degree());
        let reorder_cycles = self.wall_to_cycles(ds, reorder.elapsed) as f64;
        (base * traversals as f64) / (reorder_cycles + with * traversals as f64)
    }

    /// Filters a fixed-comparison roster (the random probes of Fig. 3,
    /// the `-O` variants of Fig. 5, ...) through the session's
    /// `--techniques` selection, preserving roster order. `None`
    /// selects everything. Unlike [`Session::main_eval`], this can
    /// only subset: those experiments compare specific techniques.
    pub fn selected_techniques(&self, roster: &[TechniqueSpec]) -> Vec<TechniqueSpec> {
        match &self.cfg.techniques {
            None => roster.to_vec(),
            Some(sel) => roster.iter().filter(|t| sel.contains(t)).cloned().collect(),
        }
    }

    /// Filters an app roster through the session's `--apps` selection
    /// (matched by app identity, so `pr` selects `pr:iters=4` rosters
    /// too), preserving roster order. `None` selects everything. A
    /// selection entry carrying knobs (`pr:iters=10`) replaces the
    /// matching roster entry, so `--apps pr:iters=10` actually runs
    /// ten iterations rather than silently dropping the override.
    pub fn selected_apps(&self, roster: &[AppSpec]) -> Vec<AppSpec> {
        match &self.cfg.apps {
            None => roster.to_vec(),
            Some(sel) => roster
                .iter()
                .filter_map(|a| {
                    let matched = sel.iter().find(|s| s.id() == a.id())?;
                    Some(if *matched == AppSpec::new(matched.id()) {
                        a.clone()
                    } else {
                        matched.clone()
                    })
                })
                .collect(),
        }
    }

    /// Filters a fixed dataset roster (Fig. 7's no-skew pair, Fig.
    /// 10's four largest, ...) through the session's `--datasets`
    /// selection, preserving roster order. `None` selects everything.
    /// Like [`Session::selected_techniques`], this can only subset:
    /// those experiments are defined over specific datasets.
    pub fn selected_datasets(&self, roster: &[DatasetSpec]) -> Vec<DatasetSpec> {
        match &self.cfg.datasets {
            None => roster.to_vec(),
            Some(sel) => roster.iter().filter(|d| sel.contains(d)).cloned().collect(),
        }
    }

    /// The dataset roster of the main evaluation: the `--datasets`
    /// selection verbatim when one is set (evaluate exactly what was
    /// named, including external `file:`/`lgr:` sources no built-in
    /// roster contains), else the paper's eight skewed datasets.
    pub fn main_datasets(&self) -> Vec<DatasetSpec> {
        match &self.cfg.datasets {
            None => DatasetSpec::skewed(),
            Some(sel) => sel.clone(),
        }
    }

    /// The technique roster of the main evaluation: the `--techniques`
    /// selection verbatim when one is set (evaluate exactly what was
    /// named, including parameterizations like `rcb:3` or
    /// `dbg:groups=2` that no default roster contains), else the
    /// paper's five (Fig. 6).
    pub fn main_eval(&self) -> Vec<TechniqueSpec> {
        match &self.cfg.techniques {
            None => TechniqueSpec::main_eval(),
            Some(sel) => sel.clone(),
        }
    }

    /// The five applications, after selection.
    pub fn eval_apps(&self) -> Vec<AppSpec> {
        self.selected_apps(&AppSpec::all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::datasets::DatasetId;

    fn tiny() -> Session {
        let mut cfg = SessionConfig::quick();
        cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
        Session::new(cfg)
    }

    fn lj() -> DatasetSpec {
        DatasetSpec::builtin(DatasetId::Lj)
    }

    #[test]
    fn caches_are_keyed_by_spec_and_canonicalized() {
        let s = tiny();
        // Parsed and constructed specs hit the same entry.
        let parsed: TechniqueSpec = "rv".parse().unwrap();
        let a = s.dataset_reorder(&lj(), &parsed, DegreeKind::In);
        let b = s.dataset_reorder(
            &"lj".parse().unwrap(),
            &TechniqueSpec::rv(),
            DegreeKind::Out,
        );
        assert!(Arc::ptr_eq(&a, &b), "RV ignores degree kind");
        let c = s.dataset_reorder(&lj(), &TechniqueSpec::dbg(), DegreeKind::In);
        let d = s.dataset_reorder(&lj(), &TechniqueSpec::dbg(), DegreeKind::Out);
        assert!(!Arc::ptr_eq(&c, &d), "DBG is degree-kind sensitive");
    }

    #[test]
    fn reorder_is_cached_and_canonicalized() {
        let s = tiny();
        let rv = TechniqueSpec::rv();
        let a = s.dataset_reorder(&lj(), &rv, DegreeKind::In);
        let b = s.dataset_reorder(&lj(), &rv, DegreeKind::Out);
        assert!(Arc::ptr_eq(&a, &b), "RV ignores degree kind");
        let dbg = TechniqueSpec::dbg();
        let c = s.dataset_reorder(&lj(), &dbg, DegreeKind::In);
        let d = s.dataset_reorder(&lj(), &dbg, DegreeKind::Out);
        assert!(!Arc::ptr_eq(&c, &d), "DBG is degree-kind sensitive");
    }

    #[test]
    fn graph_is_cached() {
        let s = tiny();
        assert!(Arc::ptr_eq(&s.graph(&lj()), &s.graph(&lj())));
    }

    #[test]
    fn reordered_graph_is_cached_across_runs() {
        let s = tiny();
        let dbg = TechniqueSpec::dbg();
        let a = s.reordered_graph(&lj(), &dbg, DegreeKind::Out);
        let b = s.reordered_graph(&lj(), &dbg, DegreeKind::Out);
        assert!(Arc::ptr_eq(&a, &b), "same key must reuse the CSR");
        // Degree-kind canonicalization applies to the graph cache too.
        let c = s.reordered_graph(&lj(), &TechniqueSpec::rv(), DegreeKind::In);
        let d = s.reordered_graph(&lj(), &TechniqueSpec::rv(), DegreeKind::Out);
        assert!(Arc::ptr_eq(&c, &d), "RV ignores degree kind");
        // And the cached graph matches a fresh sequential apply.
        let timed = s.dataset_reorder(&lj(), &dbg, DegreeKind::Out);
        let fresh = s.graph(&lj()).apply_permutation(&timed.permutation);
        assert_eq!(*a, fresh);
    }

    #[test]
    fn traced_run_produces_stats() {
        let s = tiny();
        let r = s.run(&Job::new(AppSpec::new(AppId::Pr), DatasetId::Lj));
        assert!(r.stats.instructions > 0);
        assert!(r.stats.l1.accesses > 0);
        assert!(r.cycles() > 0);
    }

    #[test]
    fn speedup_is_computable_for_all_apps() {
        let s = tiny();
        for app in AppId::ALL {
            let x = s.speedup(&AppSpec::new(app), &lj(), &TechniqueSpec::dbg());
            assert!(x > 0.1 && x < 10.0, "{}: speedup {x}", app.name());
        }
    }

    #[test]
    fn net_speedup_increases_with_traversals() {
        let s = tiny();
        let sssp = AppSpec::new(AppId::Sssp);
        let one = s.net_speedup(&sssp, &lj(), &TechniqueSpec::dbg(), 1);
        let many = s.net_speedup(&sssp, &lj(), &TechniqueSpec::dbg(), 64);
        assert!(many >= one, "amortization should help: {one} vs {many}");
    }

    #[test]
    fn roots_are_deterministic_and_valid() {
        let s = tiny();
        let sd = DatasetSpec::builtin(DatasetId::Sd);
        let r1 = s.roots(&sd, 4);
        assert_eq!(r1, s.roots(&sd, 4));
        assert_eq!(r1.len(), 4);
        let g = s.graph(&sd);
        for &r in &r1 {
            assert!(g.out_degree(r) > 0);
        }
    }

    #[test]
    fn roots_never_duplicate_when_count_exceeds_pool() {
        let s = tiny();
        // Ask for far more roots than any 2^10-vertex dataset has
        // candidates: the result must be capped and duplicate-free.
        let roots = s.roots(&lj(), 10_000_000);
        let mut unique = roots.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), roots.len(), "duplicate roots returned");
        assert!(roots.len() <= s.graph(&lj()).num_vertices());
    }

    #[test]
    fn dataset_specs_with_different_scales_are_distinct_graphs() {
        let s = tiny();
        let base = s.graph(&lj());
        let scaled = s.graph(&"lj:sd=11".parse().unwrap());
        assert!(scaled.num_vertices() > base.num_vertices());
        let reseeded = s.graph(&"lj:seed=7".parse().unwrap());
        assert_eq!(reseeded.num_vertices(), base.num_vertices());
        assert_ne!(*reseeded, *base, "different seed must differ");
    }

    #[test]
    fn out_of_enum_parameterizations_are_first_class() {
        let s = tiny();
        // rcb:3 is outside the paper's fixed RCB-1/2/4 probes; through
        // the spec layer it runs and labels correctly.
        let spec: TechniqueSpec = "rcb:3".parse().unwrap();
        let job = Job::new(AppSpec::new(AppId::Pr), DatasetId::Lj).with_technique(spec.clone());
        let report = s.report(&job);
        assert_eq!(report.technique, "RCB-3");
        assert_eq!(report.spec, "rcb:3");
        assert!(report.cycles > 0);
        assert!(report.reorder_ms.is_some());
    }

    #[test]
    fn report_baseline_speedup_is_one() {
        let s = tiny();
        let r = s.report(&Job::new(AppSpec::new(AppId::Pr), DatasetId::Lj));
        assert_eq!(r.technique, "Original");
        assert_eq!(r.spec, "orig");
        assert_eq!(r.dataset_spec, "lj");
        assert!((r.speedup - 1.0).abs() < 1e-12);
        assert_eq!(r.reorder_ms, None);
        let line = r.to_json();
        assert!(line.contains("\"dataset\":\"lj\""), "{line}");
    }

    #[test]
    fn app_knobs_change_the_run_and_its_cache_key() {
        let s = tiny();
        let short: AppSpec = "pr:iters=1".parse().unwrap();
        let long: AppSpec = "pr:iters=4".parse().unwrap();
        let a = s.run(&Job::new(short, DatasetId::Lj));
        let b = s.run(&Job::new(long, DatasetId::Lj));
        assert!(
            b.stats.instructions > a.stats.instructions,
            "more iterations must execute more instructions"
        );
    }

    #[test]
    fn selection_filters_rosters() {
        let mut cfg = SessionConfig::quick();
        cfg.techniques = Some(vec![TechniqueSpec::dbg(), TechniqueSpec::sort()]);
        cfg.apps = Some(vec![AppSpec::new(AppId::Pr)]);
        cfg.datasets = Some(vec![lj(), DatasetSpec::file("/data/web.el")]);
        let s = Session::new(cfg);
        // main_eval / main_datasets are the selection verbatim.
        let techs = s.main_eval();
        assert_eq!(techs, vec![TechniqueSpec::dbg(), TechniqueSpec::sort()]);
        assert_eq!(
            s.main_datasets(),
            vec![lj(), DatasetSpec::file("/data/web.el")]
        );
        // Fixed rosters intersect with it, keeping roster order.
        assert_eq!(
            s.selected_techniques(&TechniqueSpec::main_eval()),
            vec![TechniqueSpec::sort(), TechniqueSpec::dbg()]
        );
        assert_eq!(s.selected_datasets(&DatasetSpec::skewed()), vec![lj()]);
        assert!(s.selected_datasets(&DatasetSpec::no_skew()).is_empty());
        let apps = s.eval_apps();
        assert_eq!(apps, vec![AppSpec::new(AppId::Pr)]);
        // Rosters outside the selection filter to empty.
        assert!(s.selected_techniques(&[TechniqueSpec::rv()]).is_empty());
        // The `pr` filter also selects knobbed pr rosters.
        let knobbed: AppSpec = "pr:iters=4".parse().unwrap();
        assert_eq!(
            s.selected_apps(std::slice::from_ref(&knobbed)),
            vec![knobbed]
        );
    }

    #[test]
    fn no_selection_defaults_to_paper_rosters() {
        let s = tiny();
        assert_eq!(s.main_datasets(), DatasetSpec::skewed());
        assert_eq!(
            s.selected_datasets(&DatasetSpec::no_skew()),
            DatasetSpec::no_skew()
        );
    }

    #[test]
    fn knobbed_app_selection_overrides_the_roster() {
        let mut cfg = SessionConfig::quick();
        let knobbed: AppSpec = "pr:iters=10".parse().unwrap();
        cfg.apps = Some(vec![knobbed.clone()]);
        let s = Session::new(cfg);
        // A bare `pr` roster entry picks up the selection's knobs...
        assert_eq!(s.eval_apps(), vec![knobbed]);
        // ...while a bare selection leaves roster knobs untouched.
        let mut cfg = SessionConfig::quick();
        cfg.apps = Some(vec![AppSpec::new(AppId::Pr)]);
        let s = Session::new(cfg);
        let roster: AppSpec = "pr:iters=7".parse().unwrap();
        assert_eq!(s.selected_apps(std::slice::from_ref(&roster)), vec![roster]);
    }

    #[test]
    fn composition_runs_through_the_session() {
        let s = tiny();
        let spec: TechniqueSpec = "sort+dbg".parse().unwrap();
        let timed = s.dataset_reorder(&lj(), &spec, DegreeKind::Out);
        assert_eq!(timed.permutation.len(), s.graph(&lj()).num_vertices());
        let speedup = s.speedup(&AppSpec::new(AppId::Pr), &lj(), &spec);
        assert!(speedup > 0.1 && speedup < 10.0);
    }

    #[test]
    fn file_datasets_run_the_full_pipeline() {
        let dir = std::env::temp_dir().join(format!("lgr-session-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.el");
        let mut text = String::from("# tiny community graph\n");
        for i in 0u32..120 {
            text.push_str(&format!("{} {}\n", i % 40, (i * 7 + 1) % 40));
        }
        std::fs::write(&path, text).unwrap();
        let s = tiny();
        let spec: DatasetSpec = format!("file:{}", path.display()).parse().unwrap();
        let g = s.try_graph(&spec).unwrap();
        assert_eq!(g.num_vertices(), 40);
        assert!(g.is_weighted(), "weights attached for SSSP");
        // Full job pipeline: reorder + analytics + cachesim.
        let report = s.report(
            &Job::new(AppSpec::new(AppId::Pr), spec.clone()).with_technique(TechniqueSpec::dbg()),
        );
        assert_eq!(report.dataset, "tiny");
        assert!(report.cycles > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_datasets_error_without_panicking() {
        let s = tiny();
        let spec: DatasetSpec = "file:/nonexistent/missing.el".parse().unwrap();
        assert!(matches!(s.try_graph(&spec), Err(DatasetError::Load { .. })));
    }

    #[test]
    fn editing_a_file_dataset_invalidates_the_cache() {
        let dir = std::env::temp_dir().join(format!("lgr-session-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let el = dir.join("g.el");
        std::fs::write(&el, "0 1\n1 2\n2 0\n").unwrap();
        let mut cfg = SessionConfig::quick();
        cfg.dataset_cache = Some(dir.join("cache"));
        let spec: DatasetSpec = format!("file:{}", el.display()).parse().unwrap();
        let first = Session::new(cfg.clone())
            .try_graph(&spec)
            .unwrap()
            .num_edges();
        // Regenerate the source with different content (length change
        // alone must miss the cache — mtime granularity is coarse).
        std::fs::write(&el, "0 1\n1 2\n2 0\n0 2\n2 1\n").unwrap();
        let second = Session::new(cfg).try_graph(&spec).unwrap().num_edges();
        assert_eq!(first, 3);
        assert_eq!(second, 5, "edited file must not be served stale");
        assert_eq!(
            std::fs::read_dir(dir.join("cache")).unwrap().count(),
            2,
            "two distinct cache entries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_cache_round_trips_identically() {
        let dir = std::env::temp_dir().join(format!("lgr-session-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SessionConfig::quick();
        cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
        cfg.dataset_cache = Some(dir.clone());
        // First session builds and persists...
        let first = Session::new(cfg.clone());
        let built = first.try_graph(&lj()).unwrap();
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1, "one .lgr entry stored");
        // ...second session reloads the identical graph from disk.
        let second = Session::new(cfg);
        let loaded = second.try_graph(&lj()).unwrap();
        assert_eq!(*loaded, *built, "cache reload must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }
}
