//! Scoped shared-memory parallelism for the graph-reorder workspace.
//!
//! The build environment has no registry access, so this crate is the
//! workspace's registry-free analogue of `rayon` (in the same spirit
//! as the API-subset stand-ins under `shims/`): a [`Pool`] that is
//! only a worker count, whose broadcasts run on `std::thread::scope`
//! threads, plus the handful of data-parallel primitives the
//! reorder→rebuild→run pipeline needs:
//!
//! * [`Pool::broadcast`] — run one closure on every worker, blocking
//!   until all finish (the base primitive everything else builds on);
//! * [`par_fill`] — safe chunked fill of a slice;
//! * [`stable_offsets`] — parallel per-worker histograms merged by
//!   one sequential prefix sum, the core of stable parallel counting
//!   sorts (CSR construction);
//! * [`even_ranges`] / [`edge_balanced_ranges`] — work division,
//!   including the degree-skew-aware splitter that keeps hub-first
//!   orderings from starving all but one worker;
//! * [`SyncSlice`] — the unsafe escape hatch for scatter kernels whose
//!   writes are disjoint by construction but not by contiguous chunks.
//!
//! # Determinism
//!
//! Every primitive here is deterministic: results are pure functions
//! of the inputs, independent of the worker count and of scheduling.
//! Parallel counting sorts preserve stability by giving each worker a
//! contiguous input range and merging histograms in worker order, so
//! `threads = N` produces bit-identical output to `threads = 1`.
//!
//! # Thread-count knob
//!
//! [`Pool::with_default_threads`] sizes the pool from the
//! `LGR_THREADS` environment variable, falling back to the machine's
//! available parallelism. CI runs the test suite a second time with
//! `LGR_THREADS=2` to exercise the parallel paths under contention.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ops;
mod pool;
mod shared;
mod split;

pub use ops::{par_fill, stable_offsets, StableOffsets};
pub use pool::Pool;
pub use shared::SyncSlice;
pub use split::{edge_balanced_ranges, even_ranges};
