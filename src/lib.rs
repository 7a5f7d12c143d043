//! # graph-reorder
//!
//! A production-quality Rust implementation of **lightweight
//! skew-aware graph reordering**, reproducing *Faldu, Diamond & Grot,
//! "A Closer Look at Lightweight Graph Reordering" (IISWC 2019)* —
//! including the paper's contribution, **Degree-Based Grouping (DBG)**,
//! every baseline technique it characterizes, the five graph
//! applications of its evaluation, and a cache-hierarchy simulator
//! that stands in for its hardware-counter methodology.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`engine`] (`lgr-engine`) — the string-addressable public
//!   surface: [`Session`](engine::Session),
//!   [`TechniqueSpec`](engine::TechniqueSpec),
//!   [`AppSpec`](engine::AppSpec),
//!   [`DatasetSpec`](engine::DatasetSpec), and JSON-lines
//!   [`Report`](engine::Report)s.
//! * [`graph`] (`lgr-graph`) — CSR graphs, generators, dataset
//!   analogues, skew statistics.
//! * [`io`] (`lgr-io`) — on-disk formats: the `.lgr` binary CSR
//!   snapshot, SNAP/TSV and Matrix Market loaders, and the
//!   generate-once [`DatasetCache`](io::DatasetCache).
//! * [`reorder`] (`lgr-core`) — DBG, Sort, HubSort, HubCluster,
//!   Gorder, random probes, and the generalized grouping framework.
//! * [`analytics`] (`lgr-analytics`) — the Ligra-style engine and the
//!   PR / PRD / BC / SSSP / Radii applications.
//! * [`cachesim`] (`lgr-cachesim`) — the trace-driven multi-core
//!   cache simulator (MPKI, snoop classification, cycle model).
//! * [`parallel`] (`lgr-parallel`) — the scoped-thread worker pool
//!   and data-parallel primitives behind the parallel CSR build,
//!   permutation apply and text parsing.
//!
//! # Quickstart
//!
//! A [`Session`](engine::Session) owns the worker pool and the
//! graph / permutation / reordered-CSR caches; datasets, techniques,
//! and apps are addressed by name, exactly as on the `repro` command
//! line:
//!
//! ```
//! use graph_reorder::prelude::*;
//!
//! let mut cfg = SessionConfig::quick();
//! cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
//! let session = Session::new(cfg);
//!
//! // Everything parses from strings — parameters and composition
//! // included: "dbg:groups=4", "rcb:3", "gorder+dbg", ...
//! let spec: TechniqueSpec = "dbg".parse().unwrap();
//! let app: AppSpec = "pr".parse().unwrap();
//! let ds: DatasetSpec = "lj".parse().unwrap();
//!
//! // Run a job; the report serializes to JSON lines.
//! let job = Job::new(app, ds).with_technique(spec.clone());
//! let report = session.report(&job);
//! assert_eq!(report.technique, "DBG");
//! println!("{}", report.to_json());
//!
//! // Or reorder any graph directly through the same session.
//! let el = gen::community(gen::CommunityConfig::new(1 << 10, 8.0).with_seed(7));
//! let graph = Csr::from_edge_list(&el);
//! let timed = session.reorder(&graph, &spec);
//! assert_eq!(timed.permutation.len(), graph.num_vertices());
//! ```
//!
//! # Datasets
//!
//! A [`DatasetSpec`](engine::DatasetSpec) names where a graph comes
//! from; every spec round-trips through `Display`/`FromStr` and works
//! uniformly in `Job`s, session caches, and `repro --datasets`:
//!
//! | Spec | Source |
//! |---|---|
//! | `"sd"`, `"kr"` (alias `"kron"`), ... | built-in synthetic analogue at the session scale |
//! | `"kr:sd=15"` | same, at the scale where `sd` has 2^15 vertices |
//! | `"kr:seed=7"` | same, reseeded generator |
//! | `"file:/data/web.el"` | SNAP/TSV edge list (`src dst [weight]` lines) |
//! | `"file:/data/web.mtx:weighted"` | Matrix Market, value column as weights |
//! | `"file:/data/raw:fmt=el"` | explicit format when the extension is ambiguous |
//! | `"lgr:/data/web.lgr"` | binary CSR snapshot — reloads with no parsing or rebuild |
//!
//! Text files parse in parallel on the session pool; sources without
//! weights get a deterministic per-spec weight stream so SSSP always
//! runs. Setting
//! [`SessionConfig::dataset_cache`](engine::SessionConfig) (or
//! `repro --dataset-cache <dir>`) persists every materialized graph
//! as a checksummed `.lgr` file named by spec + scale; later runs
//! reload the binary CSR byte-identically instead of regenerating.
//! Custom sources registered on a
//! [`DatasetRegistry`](engine::DatasetRegistry) become
//! string-addressable like the built-ins.
//!
//! Techniques are still available as plain types when no session is
//! wanted — `Dbg::default().reorder(&graph, DegreeKind::Out)` works as
//! before — and custom techniques registered on a
//! [`TechniqueRegistry`](engine::TechniqueRegistry) become
//! string-addressable like the built-ins.
//!
//! # Serving
//!
//! A [`Session`](engine::Session) is `Send + Sync`: share one behind
//! an `Arc` and drive it from many threads. Its caches coalesce
//! concurrent builds per key — N simultaneous requests for the same
//! (dataset, technique, app) trigger exactly one graph build,
//! reordering, and traced run, and everyone shares the result — so a
//! concurrent batch produces reports byte-identical to a sequential
//! one. All threads share the session's single worker pool.
//!
//! ```
//! use std::sync::Arc;
//! use graph_reorder::prelude::*;
//!
//! let cfg = SessionConfig::quick().with_scale_exp(10);
//! let session = Arc::new(Session::new(cfg));
//! let job = Job::new("pr".parse().unwrap(), "lj".parse::<DatasetSpec>().unwrap())
//!     .with_technique("dbg".parse().unwrap());
//!
//! let reports: Vec<String> = std::thread::scope(|scope| {
//!     (0..4)
//!         .map(|_| {
//!             let (session, job) = (Arc::clone(&session), job.clone());
//!             scope.spawn(move || session.report(&job).to_json())
//!         })
//!         .collect::<Vec<_>>()
//!         .into_iter()
//!         .map(|h| h.join().unwrap())
//!         .collect()
//! });
//! // One build served all four threads; the bytes agree exactly.
//! assert!(reports.iter().all(|r| r == &reports[0]));
//! ```
//!
//! The `lgr-serve` binary (crate `lgr-serve`) fronts a shared session
//! with a JSON-lines TCP service — `std::net` only. One request per
//! line; the response is the job's [`Report`](engine::Report) (or
//! `{"error":"..."}`):
//!
//! ```text
//! $ lgr-serve serve --quick --addr 127.0.0.1:7411 --workers 4
//! lgr-serve listening on 127.0.0.1:7411 (4 connection workers, 8 pool threads)
//!
//! → {"technique":"dbg","app":"pr:iters=4","dataset":"kr:sd=14"}
//! ← {"app":"PR","app_spec":"pr:iters=4","dataset":"kr:sd=14",...,"speedup":1.27}
//! ```
//!
//! `lgr-serve client --jobs jobs.jsonl --concurrency 8 --canonical`
//! drives a concurrent batch and prints responses in input order;
//! `lgr-serve local` runs the same jobs sequentially in-process.
//! Under `--canonical` (which clears the single wall-clock report
//! field) the two outputs diff byte-for-byte.
//!
//! # Memory governance
//!
//! Session caches are unbounded by default — every distinct (dataset,
//! technique, app) a long-lived server answers stays resident
//! forever. [`SessionConfig::cache_bytes`](engine::SessionConfig)
//! gives each cache a byte budget: values report their estimated
//! resident size through [`CacheWeight`](engine::CacheWeight), and
//! once a cache's published bytes exceed the budget it evicts — by
//! measured rebuild-cost per byte under the default
//! [`EvictionPolicy::CostAware`](engine::EvictionPolicy), or plain
//! recency under `Lru`. In-flight builds are never evicted, and a
//! rebuilt entry answers with canonically identical report bytes.
//! [`Session::cache_stats`](engine::Session::cache_stats) snapshots
//! per-cache hit/miss/eviction/resident counters (the CLI surfaces:
//! `repro --cache-stats`, `lgr-serve serve --cache-bytes 256m`, and
//! the `{"stats":"true"}` request line):
//!
//! ```
//! use graph_reorder::prelude::*;
//!
//! let mut cfg = SessionConfig::quick().with_scale_exp(10);
//! cfg.cache_bytes = Some(64 * 1024); // budget per cache; None = unbounded
//! let session = Session::new(cfg);
//! let job = Job::new("pr".parse().unwrap(), "lj".parse::<DatasetSpec>().unwrap());
//! session.report(&job);
//!
//! let stats = session.cache_stats();
//! assert!(stats.total().misses > 0);
//! assert!(stats.graphs.resident_bytes <= 64 * 1024);
//! println!("{stats}"); // fixed-width table; stats.to_json() for one JSON line
//! ```

#![warn(missing_docs)]

pub use lgr_analytics as analytics;
pub use lgr_cachesim as cachesim;
pub use lgr_core as reorder;
pub use lgr_engine as engine;
pub use lgr_graph as graph;
pub use lgr_io as io;
pub use lgr_parallel as parallel;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lgr_analytics::apps::{
        bc, pagerank, pagerank_delta, radii, sssp, AppId, BcConfig, PrConfig, PrdConfig,
        RadiiConfig, SsspConfig,
    };
    pub use lgr_cachesim::{MemorySim, NullTracer, SimConfig, Tracer};
    pub use lgr_core::{Dbg, Gorder, HubCluster, HubSort, Identity, ReorderingTechnique, Sort};
    pub use lgr_engine::{
        AppSpec, CacheStats, CacheWeight, DatasetRegistry, DatasetSpec, EvictionPolicy, Job,
        Report, Session, SessionCacheStats, SessionConfig, SpecError, TechniqueRegistry,
        TechniqueSpec,
    };
    pub use lgr_graph::datasets::{DatasetId, DatasetScale};
    pub use lgr_graph::{gen, Csr, DegreeKind, EdgeList, Permutation};
    pub use lgr_io::DatasetCache;
    pub use lgr_parallel::Pool;
}
