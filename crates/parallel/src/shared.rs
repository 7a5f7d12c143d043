//! Shared-slice escape hatch for disjoint scatter writes.

use std::marker::PhantomData;
use std::ops::Range;

/// A copyable, thread-shareable view of a mutable slice for kernels
/// whose writes are disjoint *by construction* rather than by
/// contiguous chunks (counting-sort scatters, per-vertex row sorts).
///
/// This is the one unsafe primitive of the crate: all accessors are
/// `unsafe fn`s whose contract is that no two concurrent accesses
/// overlap. Prefer the safe [`crate::par_fill`] whenever the write
/// pattern is chunked.
///
/// # Example
///
/// ```
/// use lgr_parallel::{even_ranges, Pool, SyncSlice};
///
/// let pool = Pool::new(4);
/// let mut out = vec![0usize; 16];
/// let ranges = even_ranges(out.len(), pool.threads());
/// let view = SyncSlice::new(&mut out);
/// pool.broadcast(|w| {
///     for i in ranges[w].clone() {
///         // SAFETY: the ranges are disjoint, so no slot is written
///         // by two workers.
///         unsafe { view.write(i, i * i) };
///     }
/// });
/// assert_eq!(out[5], 25);
/// ```
pub struct SyncSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T> Clone for SyncSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SyncSlice<'_, T> {}

impl<T> std::fmt::Debug for SyncSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSlice").field("len", &self.len).finish()
    }
}

// SAFETY: a `SyncSlice` is a pointer plus a length; sending or sharing
// it across threads is sound because every access is `unsafe` and the
// accessor's contract (disjointness) is what actually prevents data
// races. `T: Send` is required because remote threads may drop-in
// replace and otherwise fully own individual elements.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wraps a mutable slice. The borrow keeps the underlying storage
    /// exclusively reserved for the lifetime of the view.
    pub fn new(slice: &'a mut [T]) -> Self {
        SyncSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` to slot `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds, and no other thread may concurrently
    /// read or write slot `index`.
    #[inline]
    pub unsafe fn write(self, index: usize, value: T) {
        debug_assert!(index < self.len);
        *self.ptr.add(index) = value;
    }

    /// Reborrows `range` as a mutable subslice.
    ///
    /// # Safety
    ///
    /// `range` must be in bounds, and no other thread may concurrently
    /// access any slot in `range` while the returned slice is alive.
    #[inline]
    pub unsafe fn slice_mut(self, range: Range<usize>) -> &'a mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn disjoint_parallel_writes() {
        let pool = Pool::new(4);
        let mut data = vec![0u32; 100];
        let view = SyncSlice::new(&mut data);
        pool.broadcast(|w| {
            // Strided ownership: worker w owns indices ≡ w (mod 4).
            let mut i = w;
            while i < view.len() {
                // SAFETY: residue classes are disjoint across workers.
                unsafe { view.write(i, i as u32 * 2) };
                i += 4;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn subslice_sorting() {
        let pool = Pool::new(2);
        let mut data = vec![5u32, 3, 1, 9, 8, 2];
        let view = SyncSlice::new(&mut data);
        pool.broadcast(|w| {
            let range = if w == 0 { 0..3 } else { 3..6 };
            // SAFETY: the two halves are disjoint.
            let half = unsafe { view.slice_mut(range) };
            half.sort_unstable();
        });
        assert_eq!(data, vec![1, 3, 5, 2, 8, 9]);
    }
}
