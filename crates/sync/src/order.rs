//! The lock-order auditor: per-thread held-lock tracking and rank
//! enforcement.
//!
//! Every ranked [`Mutex`](crate::Mutex)/[`RwLock`](crate::RwLock)
//! acquisition is checked against the thread's currently held locks:
//! acquiring a lock whose [`Rank`] level is **not strictly greater**
//! than every held lock's level panics, naming both locks and both
//! acquisition sites. Because ranks impose a total order on every
//! nesting the program ever performs, a clean run is a proof that no
//! cycle (and therefore no lock-order deadlock) is possible among
//! ranked locks — not just that this execution got lucky.
//!
//! Auditing is compiled in under `debug_assertions` or the `model`
//! feature and compiles to nothing in ordinary release builds.

#[cfg(any(debug_assertions, feature = "model"))]
use std::cell::RefCell;

/// A static deadlock-prevention rank for a lock.
///
/// The workspace's documented global order (lower level = acquired
/// first; a thread may only acquire strictly *increasing* levels):
///
/// | level | lock |
/// |-------|------|
/// | 100   | `engine.cache.shard` (a [`ShardedCache`] shard map) |
/// | 200   | `engine.cache.slot` (a per-key in-flight slot) |
/// | 400+  | `serve.*` (batch-client result collection) |
///
/// [`ShardedCache`]: https://docs.rs/lgr-engine
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    /// Position in the global acquisition order.
    pub level: u16,
    /// Human-readable lock name, printed by violation panics.
    pub name: &'static str,
}

/// Shorthand [`Rank`] constructor, usable in `const` contexts.
pub const fn rank(level: u16, name: &'static str) -> Rank {
    Rank { level, name }
}

/// One lock currently held by this thread.
#[cfg(any(debug_assertions, feature = "model"))]
#[derive(Debug, Clone, Copy)]
struct Held {
    rank: Rank,
    site: &'static std::panic::Location<'static>,
    /// Unique acquisition token: guards can drop out of LIFO order, so
    /// release removes by token, not by popping.
    token: u64,
}

#[cfg(any(debug_assertions, feature = "model"))]
thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An acquisition registered with the auditor; dropping it (or calling
/// [`AuditToken::release`]) removes the lock from the held set. The
/// zero-sized release-build variant does nothing.
#[derive(Debug)]
#[must_use]
pub(crate) struct AuditToken {
    #[cfg(any(debug_assertions, feature = "model"))]
    token: u64,
}

#[cfg(any(debug_assertions, feature = "model"))]
impl Drop for AuditToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == self.token) {
                held.remove(pos);
            }
        });
    }
}

/// Checks `rank` against this thread's held set and registers the
/// acquisition. Panics on a violation, naming both locks and both
/// acquisition sites. `rank = None` (an unranked lock) records
/// nothing and constrains nothing.
#[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
pub(crate) fn on_acquire(rank: Option<Rank>) -> Option<AuditToken> {
    #[cfg(any(debug_assertions, feature = "model"))]
    {
        let rank = rank?;
        let site = std::panic::Location::caller();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(worst) = held.iter().max_by_key(|h| h.rank.level) {
                if rank.level <= worst.rank.level {
                    let held_list = held
                        .iter()
                        .map(|h| {
                            format!("`{}` (level {}, at {})", h.rank.name, h.rank.level, h.site)
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    panic!(
                        "lock-order violation: acquiring `{}` (level {}) at {} while holding \
                         `{}` (level {}, acquired at {}); the global order requires strictly \
                         increasing levels (held: {})",
                        rank.name,
                        rank.level,
                        site,
                        worst.rank.name,
                        worst.rank.level,
                        worst.site,
                        held_list
                    );
                }
            }
            let token = NEXT_TOKEN.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            });
            held.push(Held { rank, site, token });
            Some(AuditToken { token })
        })
    }
    #[cfg(not(any(debug_assertions, feature = "model")))]
    {
        let _ = rank;
        Some(AuditToken {})
    }
}

/// Number of ranked locks this thread currently holds (test hook).
pub fn held_locks() -> usize {
    #[cfg(any(debug_assertions, feature = "model"))]
    {
        HELD.with(|held| held.borrow().len())
    }
    #[cfg(not(any(debug_assertions, feature = "model")))]
    {
        0
    }
}
