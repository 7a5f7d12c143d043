//! `lgr-sync`: rank-audited, poison-recovering synchronization
//! primitives that double as a deterministic model checker.
//!
//! The workspace's concurrency stack (the coalescing cache in
//! `lgr-engine`, batch fan-out in `lgr-serve`) builds on the [`Mutex`]/[`RwLock`]/[`Condvar`] wrappers
//! here instead of `std::sync` (a lint, `cargo xtask lint`, enforces
//! this). The wrappers buy three things over std, at zero release-mode
//! cost:
//!
//! 1. **Lock-order auditing** ([`order`]): locks constructed with
//!    [`Mutex::ranked`]/[`RwLock::ranked`] carry a static [`Rank`];
//!    under `debug_assertions` (or the `model` feature) every
//!    acquisition is checked against the thread's held set, and a
//!    rank inversion panics naming both locks and both acquisition
//!    sites. A clean test run therefore proves the documented global
//!    lock order (shard → slot → serve), not
//!    merely that one interleaving got lucky.
//!
//! 2. **Poison recovery**: `lock()`/`read()`/`write()` never return a
//!    `Result`. A poisoned lock — some thread panicked while holding
//!    it — is recovered via `PoisonError::into_inner` and counted in
//!    [`poison_recoveries`], instead of propagating the panic to
//!    unrelated threads (a serving process must not fail a healthy
//!    connection because another connection's request panicked).
//!    Every type whose invariants could be mid-flight during a panic
//!    must therefore be panic-safe by construction; the model tests
//!    check exactly that for the cache protocol.
//!
//! 3. **Deterministic model checking** (the `model` module, behind the
//!    `model` feature): inside `model::check` every acquire, release, wait,
//!    notify, atomic op, spawn, and join routes through a cooperative
//!    scheduler that explores interleavings exhaustively (bounded
//!    preemption, CHESS-style). Outside a run — even with the feature
//!    enabled — the primitives fall back to plain std behavior, so
//!    one compilation of the workspace serves both ordinary and model
//!    tests.
//!
//! # Example
//!
//! ```
//! use lgr_sync::{rank, Mutex};
//!
//! static COUNTER_RANK: lgr_sync::Rank = rank(500, "example.counter");
//! let counter = Mutex::ranked(COUNTER_RANK, 0u64);
//! *counter.lock() += 1;
//! assert_eq!(*counter.lock(), 1);
//! ```

pub mod atomic;
#[cfg(feature = "model")]
pub mod model;
pub mod order;
pub mod thread;

pub use order::{held_locks, rank, Rank};

use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
};

/// Total poisoned-lock recoveries process-wide. A nonzero value means
/// some thread panicked while holding an `lgr-sync` lock and a later
/// acquirer recovered the lock instead of re-panicking; surfacing it
/// (e.g. in `lgr-serve` stats) makes such events observable.
// ordering: Relaxed — monotonic diagnostic counter; nothing
// synchronizes through it.
static POISON_RECOVERIES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of poisoned-lock recoveries since process start.
pub fn poison_recoveries() -> u64 {
    // ordering: Relaxed — see POISON_RECOVERIES.
    POISON_RECOVERIES.load(std::sync::atomic::Ordering::Relaxed)
}

/// The poison-recovery helper: unwraps a lock/wait result, trading a
/// poison error for the guard it carries and a counter bump. This is
/// the one sanctioned place to discharge `PoisonError` (the
/// `no-lock-result-unwrap` lint pushes all callers here).
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    match result {
        Ok(g) => g,
        Err(e) => {
            // ordering: Relaxed — see POISON_RECOVERIES.
            POISON_RECOVERIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            e.into_inner()
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock with optional rank auditing, poison
/// recovery, and model-mode scheduling. See the [crate docs](crate)
/// for the full story.
#[derive(Debug)]
pub struct Mutex<T> {
    rank: Option<Rank>,
    label: &'static str,
    #[cfg(feature = "model")]
    model: Option<model::ResourceId>,
    inner: StdMutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Releases the lock (and its
/// auditor registration) on drop; guards may drop out of LIFO order.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T> {
    inner: Option<StdMutexGuard<'a, T>>,
    audit: Option<order::AuditToken>,
    owner: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// An unranked mutex (participates in poison recovery and model
    /// scheduling, but not in lock-order auditing).
    pub fn new(value: T) -> Self {
        Self::build(None, "mutex", value)
    }

    /// An unranked mutex with a label for model-trace readability.
    pub fn with_label(label: &'static str, value: T) -> Self {
        Self::build(None, label, value)
    }

    /// A mutex with a static [`Rank`] in the global lock order.
    pub fn ranked(rank: Rank, value: T) -> Self {
        Self::build(Some(rank), rank.name, value)
    }

    fn build(rank: Option<Rank>, label: &'static str, value: T) -> Self {
        Mutex {
            rank,
            label,
            #[cfg(feature = "model")]
            model: model::register_mutex(),
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poison (see
    /// [`poison_recoveries`]). Panics if the acquisition violates the
    /// global rank order.
    #[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let audit = order::on_acquire(self.rank);
        #[cfg(feature = "model")]
        model::op_acquire_mutex(self.model, self.label);
        // The std lock below is uncontended in model mode: the model
        // layer granted exclusivity first.
        let inner = recover(self.inner.lock());
        MutexGuard {
            inner: Some(inner),
            audit,
            owner: self,
        }
    }

    /// Consumes the mutex, returning the value (poison recovered).
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }

    /// Mutable access without locking (poison recovered).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }

    /// The label shown in model traces ([`Rank::name`] when ranked).
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already dismantled")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already dismantled")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release order matters: std lock first, then the model-layer
        // release (which may hand other threads the virtual lock), then
        // the audit entry (via `audit`'s own Drop). A guard dismantled
        // by `Condvar::wait` (inner already taken) releases nothing.
        let was_held = self.inner.take().is_some();
        #[cfg(feature = "model")]
        if was_held {
            model::op_release_mutex(self.owner.model);
        }
        #[cfg(not(feature = "model"))]
        let _ = (was_held, self.owner);
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with optional rank auditing, poison recovery,
/// and model-mode scheduling.
#[derive(Debug)]
pub struct RwLock<T> {
    rank: Option<Rank>,
    label: &'static str,
    #[cfg(feature = "model")]
    model: Option<model::ResourceId>,
    inner: StdRwLock<T>,
}

/// Shared guard returned by [`RwLock::read`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T> {
    inner: Option<StdRwLockReadGuard<'a, T>>,
    audit: Option<order::AuditToken>,
    owner: &'a RwLock<T>,
}

/// Exclusive guard returned by [`RwLock::write`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T> {
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    audit: Option<order::AuditToken>,
    owner: &'a RwLock<T>,
}

impl<T> RwLock<T> {
    /// An unranked reader-writer lock.
    pub fn new(value: T) -> Self {
        Self::build(None, "rwlock", value)
    }

    /// An unranked lock with a label for model-trace readability.
    pub fn with_label(label: &'static str, value: T) -> Self {
        Self::build(None, label, value)
    }

    /// A lock with a static [`Rank`] in the global lock order. Read
    /// and write acquisitions are audited identically: a held read
    /// lock constrains ordering just like a held write lock.
    pub fn ranked(rank: Rank, value: T) -> Self {
        Self::build(Some(rank), rank.name, value)
    }

    fn build(rank: Option<Rank>, label: &'static str, value: T) -> Self {
        RwLock {
            rank,
            label,
            #[cfg(feature = "model")]
            model: model::register_rwlock(),
            inner: StdRwLock::new(value),
        }
    }

    /// Acquires shared access (poison recovered, rank audited).
    #[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let audit = order::on_acquire(self.rank);
        #[cfg(feature = "model")]
        model::op_acquire_rw(self.model, false, self.label);
        let inner = recover(self.inner.read());
        RwLockReadGuard {
            inner: Some(inner),
            audit,
            owner: self,
        }
    }

    /// Acquires exclusive access (poison recovered, rank audited).
    #[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let audit = order::on_acquire(self.rank);
        #[cfg(feature = "model")]
        model::op_acquire_rw(self.model, true, self.label);
        let inner = recover(self.inner.write());
        RwLockWriteGuard {
            inner: Some(inner),
            audit,
            owner: self,
        }
    }

    /// Consumes the lock, returning the value (poison recovered).
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }

    /// Mutable access without locking (poison recovered).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }

    /// The label shown in model traces ([`Rank::name`] when ranked).
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already dismantled")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        #[cfg(feature = "model")]
        model::op_release_rw(self.owner.model, false);
        #[cfg(not(feature = "model"))]
        let _ = self.owner;
        let _ = self.audit.take();
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already dismantled")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already dismantled")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        #[cfg(feature = "model")]
        model::op_release_rw(self.owner.model, true);
        #[cfg(not(feature = "model"))]
        let _ = self.owner;
        let _ = self.audit.take();
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable tied to [`Mutex`]. In model mode waits and
/// notifies are schedule points and `notify_one` deterministically
/// wakes the longest waiter (FIFO); a wait that no interleaving ever
/// notifies shows up as a model-check deadlock — that is exactly the
/// missed-wakeup oracle the engine model tests rely on.
#[derive(Debug)]
pub struct Condvar {
    inner: StdCondvar,
    label: &'static str,
    #[cfg(feature = "model")]
    model: Option<model::ResourceId>,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Self {
        Self::with_label("condvar")
    }

    /// The label shown in model traces.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// A condvar with a label for model-trace readability.
    pub fn with_label(label: &'static str) -> Self {
        Condvar {
            inner: StdCondvar::new(),
            label,
            #[cfg(feature = "model")]
            model: model::register_condvar(),
        }
    }

    /// Atomically releases `guard`'s mutex, waits for a notification,
    /// and reacquires the mutex. Spurious wakeups are possible on the
    /// std path (as with `std::sync::Condvar`) — always wait in a
    /// predicate loop; the model path has none.
    #[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let owner = guard.owner;
        // The lock is not held during the wait: retire its audit entry
        // now and re-register on reacquisition.
        let _ = guard.audit.take();
        #[cfg(feature = "model")]
        if model::active() {
            guard.inner.take();
            // Skip the guard's Drop: the virtual release happens inside
            // op_condvar_wait (atomically with enqueuing the waiter).
            std::mem::forget(guard);
            model::op_condvar_wait(self.model, owner.model, self.label);
            // Virtual mutex reacquired; the std lock below is free.
            let inner = recover(owner.inner.lock());
            let audit = order::on_acquire(owner.rank);
            return MutexGuard {
                inner: Some(inner),
                audit,
                owner,
            };
        }
        let std_guard = guard.inner.take().expect("guard already dismantled");
        drop(guard); // fields already taken; Drop is a no-op
        let inner = recover(self.inner.wait(std_guard));
        let audit = order::on_acquire(owner.rank);
        MutexGuard {
            inner: Some(inner),
            audit,
            owner,
        }
    }

    /// [`Condvar::wait`] in a predicate loop: returns once
    /// `condition(&mut *guard)` is false.
    #[cfg_attr(any(debug_assertions, feature = "model"), track_caller)]
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wakes one waiter (the longest-waiting one, in model mode).
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if model::active() {
            model::op_condvar_notify(self.model, false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if model::active() {
            model::op_condvar_notify(self.model, true);
            return;
        }
        self.inner.notify_all();
    }
}
