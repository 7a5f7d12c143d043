//! The worker pool: a thread count plus scoped-thread broadcasts.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;

/// A worker count for scoped data parallelism.
///
/// Each [`Pool::broadcast`] runs worker 0 on the calling thread and
/// the others on [`std::thread::scope`] threads joined before it
/// returns, so `Pool::new(t)` spawns `t - 1` OS threads per broadcast,
/// holds no threads or locks between calls, and `t == 1` is a true
/// sequential fallback. The pool's users are one-shot operations (CSR
/// build, relabel, text parsing) that run for milliseconds, next to
/// which the spawn cost is noise.
///
/// A pool is `Send + Sync`: one pool can back many concurrent jobs
/// (the shared-`Session` serving path hands a single pool to every
/// connection handler). Broadcasts from different threads run
/// independently, and a job may itself broadcast on the pool that
/// runs it.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use lgr_parallel::Pool;
///
/// let pool = Pool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.broadcast(|worker| {
///     assert!(worker < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.into_inner(), 4);
/// ```
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

// The serving tier shares one pool across every connection thread; a
// regression that makes `Pool` thread-local fails to compile here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pool>();
};

impl Pool {
    /// A pool with `threads` total workers (the calling thread counts
    /// as one). `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`Pool::default_threads`].
    pub fn with_default_threads() -> Self {
        Pool::new(Self::default_threads())
    }

    /// The workspace-wide thread-count knob: the `LGR_THREADS`
    /// environment variable if set to a positive integer, otherwise
    /// the machine's available parallelism.
    pub fn default_threads() -> usize {
        std::env::var("LGR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    }

    /// Total worker count, including the calling thread.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(worker_index)` once for every index in `0..threads`,
    /// blocking until all invocations complete. The calling thread
    /// runs `f(0)` itself; the other indices run on scoped threads,
    /// so `f` may borrow from the caller's stack. If the OS refuses a
    /// thread, the caller runs that index after `f(0)`: every
    /// primitive's output depends only on the worker index, so the
    /// result is the same.
    ///
    /// `f` may call `broadcast` on the same pool, and concurrent
    /// calls from different threads are independent.
    ///
    /// # Panics
    ///
    /// If `f` panics on the calling thread the panic resumes here once
    /// every helper has finished; if `f` panics on a helper, the first
    /// such helper's original payload is re-raised here after all of
    /// them are joined.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        let f = &f;
        std::thread::scope(|scope| {
            let mut helpers = Vec::new();
            let mut refused = Vec::new();
            for worker in 1..self.threads {
                match std::thread::Builder::new()
                    .name(format!("lgr-pool-{worker}"))
                    .spawn_scoped(scope, move || f(worker))
                {
                    Ok(helper) => helpers.push(helper),
                    Err(_) => refused.push(worker),
                }
            }
            f(0);
            refused.into_iter().for_each(f);
            // The scope still joins the helpers after this one before
            // it re-raises the payload.
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    resume_unwind(payload);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let counts: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(|w| {
                counts[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "worker {w} of {threads}");
            }
        }
    }

    #[test]
    fn workers_persist_across_broadcasts() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 400);
    }

    #[test]
    fn borrows_caller_stack() {
        let pool = Pool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6];
        let partials: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|w| {
            let sum: u64 = data[w * 2..w * 2 + 2].iter().sum();
            partials[w].store(sum as usize, Ordering::Relaxed);
        });
        let total: usize = partials.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicUsize::new(0);
        pool.broadcast(|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|w| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("worker panic must surface");
        // The original payload is preserved, not a generic message.
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool stays usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 4);
    }

    #[test]
    fn caller_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|w| {
                if w == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(Pool::default_threads() >= 1);
    }

    #[test]
    fn concurrent_broadcasts_from_many_threads_serialize_correctly() {
        // The shared-session serving path: several job threads drive
        // one pool at once. Every broadcast must still run exactly
        // once per worker.
        for pool_threads in [1usize, 3] {
            let pool = Pool::new(pool_threads);
            let total = AtomicUsize::new(0);
            const CALLERS: usize = 4;
            const ROUNDS: usize = 50;
            std::thread::scope(|scope| {
                for _ in 0..CALLERS {
                    let (pool, total) = (&pool, &total);
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            pool.broadcast(|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(
                total.into_inner(),
                CALLERS * ROUNDS * pool_threads,
                "{pool_threads} pool threads"
            );
        }
    }

    #[test]
    fn nested_broadcasts_complete() {
        // A job may broadcast on the pool that runs it
        // (`Session::run_all` drains its jobs that way). A watchdog
        // turns a deadlock into a failure instead of a hang.
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let pool = Pool::new(2);
            let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(|outer| {
                pool.broadcast(|inner| {
                    counts[outer * 2 + inner].fetch_add(1, Ordering::Relaxed);
                });
            });
            let counts: Vec<usize> = counts.into_iter().map(AtomicUsize::into_inner).collect();
            let _ = done.send(counts);
        });
        let counts = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("nested broadcasts must complete");
        body.join().expect("the body sent its counts");
        assert_eq!(counts, [1; 4]);
    }

    #[test]
    fn a_panic_under_contention_does_not_poison_other_callers() {
        let pool = Pool::new(2);
        std::thread::scope(|scope| {
            let ok = scope.spawn(|| {
                for _ in 0..100 {
                    pool.broadcast(|_| {});
                }
            });
            let panicky = scope.spawn(|| {
                for _ in 0..10 {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        pool.broadcast(|w| {
                            if w == 1 {
                                panic!("boom");
                            }
                        });
                    }));
                    assert!(r.is_err());
                }
            });
            ok.join().expect("clean caller must stay clean");
            panicky.join().expect("panics were caught");
        });
    }
}
