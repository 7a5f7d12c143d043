//! Model-aware thread spawning.
//!
//! [`spawn`] mirrors `std::thread::spawn`: outside a model run it
//! delegates to it directly. Inside `model::check`
//! the new thread becomes a *managed* thread of the active execution —
//! it runs only when the deterministic scheduler hands it the token,
//! and [`JoinHandle::join`] is a schedule point. A managed thread
//! whose closure panics fails the whole model check (so in model mode
//! `join` never observes a panicked thread).

#[cfg(feature = "model")]
use std::sync::{Arc, Mutex as StdMutex, PoisonError};

#[cfg(feature = "model")]
use crate::model;

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    #[cfg(feature = "model")]
    Model {
        tid: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
}

/// Model-aware drop-in for `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// In model mode this is a schedule point and always returns `Ok`:
    /// a managed thread's panic aborts the entire model check instead
    /// of surfacing here.
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Std(h) => h.join(),
            #[cfg(feature = "model")]
            Inner::Model { tid, result } => {
                model::op_join(tid);
                let value = result
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("managed thread finished without storing its result");
                Ok(value)
            }
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle { .. }")
    }
}

/// Model-aware drop-in for `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(feature = "model")]
    if model::active() {
        let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot = Arc::clone(&result);
        let tid = model::op_spawn(Box::new(move || {
            let value = f();
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }))
        .expect("model spawn outside an execution");
        return JoinHandle {
            inner: Inner::Model { tid, result },
        };
    }
    JoinHandle {
        inner: Inner::Std(std::thread::spawn(f)),
    }
}
