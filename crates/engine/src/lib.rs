//! The string-addressable engine: sessions, specs, and reports.
//!
//! This crate is the composable public surface of the reproduction.
//! It addresses apps and orderings by name, the way Ligra/GAPBS-style
//! suites do on the command line:
//!
//! * [`TechniqueSpec`] — a reordering technique parsed from strings
//!   like `"dbg"`, `"dbg:groups=4"`, `"hubsort-o"`, `"rcb:4"`, with
//!   `+`-composition (`"gorder+dbg"`) and a round-tripping
//!   [`Display`](std::fmt::Display)/[`FromStr`](std::str::FromStr)
//!   contract.
//! * [`AppSpec`] — the five evaluated applications plus per-app knobs
//!   (`"pr:iters=4"`, `"bc:roots=8"`), same contract.
//! * [`DatasetSpec`] — where a graph comes from: built-in analogues
//!   (`"sd"`, `"kr:sd=15"`), external text files
//!   (`"file:/data/web.el"`, `"file:/data/web.mtx:weighted"`), or
//!   binary CSR snapshots (`"lgr:/data/web.lgr"`), same contract.
//! * [`TechniqueRegistry`] / [`DatasetRegistry`] — resolve specs to
//!   boxed [`ReorderingTechnique`](lgr_core::ReorderingTechnique)s
//!   and graph sources, both open to user registrations.
//! * [`Session`] — owns the worker pool and the graph / permutation /
//!   reordered-CSR / root caches, runs traced and untraced [`Job`]s,
//!   emits machine-readable [`Report`]s (JSON lines, no external
//!   dependencies), and optionally persists every materialized graph
//!   to an on-disk [`lgr_io::DatasetCache`]. A session is
//!   `Send + Sync`: share one behind an [`Arc`](std::sync::Arc)
//!   across threads, and its [`ShardedCache`](coalesce::ShardedCache)s
//!   coalesce concurrent builds of the same key into a single
//!   execution (see the [`session`] module docs for the threading
//!   model). [`SessionConfig::cache_bytes`](session::SessionConfig)
//!   bounds each cache's resident bytes ([`CacheWeight`]-accounted,
//!   [`EvictionPolicy`]-governed, observable via
//!   [`Session::cache_stats`](session::Session::cache_stats)); the
//!   default is unbounded.
//!
//! # Example
//!
//! ```
//! use lgr_engine::{AppSpec, Job, Session, SessionConfig, TechniqueSpec};
//! use lgr_graph::datasets::{DatasetId, DatasetScale};
//!
//! let mut cfg = SessionConfig::quick();
//! cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
//! let session = Session::new(cfg);
//!
//! let spec: TechniqueSpec = "dbg".parse().unwrap();
//! let app: AppSpec = "pr".parse().unwrap();
//! let job = Job::new(app, DatasetId::Lj).with_technique(spec);
//! let report = session.report(&job);
//! assert_eq!(report.technique, "DBG");
//! println!("{}", report.to_json());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod coalesce;
pub mod dataset;
pub mod registry;
pub mod report;
pub mod session;
pub mod spec;
pub mod weight;

pub use app::AppSpec;
pub use coalesce::{CacheConfig, CacheStats, EvictionPolicy};
pub use dataset::{
    DatasetBuilder, DatasetError, DatasetGraph, DatasetRegistry, DatasetSource, DatasetSpec,
    TextFormat, BUILTIN_DATASETS, DATASET_SPEC_FORMS,
};
pub use registry::{TechniqueBuilder, TechniqueRegistry};
pub use report::Report;
pub use session::{Job, RunStats, Session, SessionCacheStats, SessionConfig};
pub use spec::{
    SpecError, TechniqueAtom, TechniqueSpec, BUILTIN_TECHNIQUES, DEFAULT_DBG_HOT_GROUPS,
    DEFAULT_SEED,
};
pub use weight::CacheWeight;
