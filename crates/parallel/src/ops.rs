//! Safe data-parallel operations built on [`Pool::broadcast`].

use std::ops::Range;

use crate::{even_ranges, Pool, SyncSlice};

/// Runs `f(chunk_index, range, &mut data[range])` for every range, in
/// parallel. Ranges are assigned to workers round-robin (`ranges[k]`
/// goes to worker `k % threads`), so callers may pass more ranges than
/// workers.
///
/// # Panics
///
/// Panics if the ranges are not sorted, non-overlapping, and within
/// `data` bounds.
pub(crate) fn par_chunks_mut<T, F>(pool: &Pool, data: &mut [T], ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    assert!(
        ranges.windows(2).all(|w| w[0].end <= w[1].start),
        "chunk ranges must be sorted and non-overlapping"
    );
    if let Some(last) = ranges.last() {
        assert!(
            last.end <= data.len(),
            "chunk range {last:?} exceeds slice length {}",
            data.len()
        );
    }
    let view = SyncSlice::new(data);
    let threads = pool.threads();
    pool.broadcast(|w| {
        for k in (w..ranges.len()).step_by(threads) {
            let range = ranges[k].clone();
            // SAFETY: the ranges were checked non-overlapping above
            // and each index k is visited by exactly one worker, so
            // every subslice is accessed by one thread only.
            let chunk = unsafe { view.slice_mut(range.clone()) };
            f(k, range, chunk);
        }
    });
}

/// Fills `out[i] = f(i)` in parallel over even chunks.
///
/// # Example
///
/// ```
/// use lgr_parallel::{par_fill, Pool};
///
/// let pool = Pool::new(4);
/// let mut squares = vec![0usize; 100];
/// par_fill(&pool, &mut squares, |i| i * i);
/// assert_eq!(squares[9], 81);
/// ```
pub fn par_fill<T, F>(pool: &Pool, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let ranges = even_ranges(out.len(), pool.threads());
    par_chunks_mut(pool, out, &ranges, |_, range, chunk| {
        for (slot, i) in chunk.iter_mut().zip(range) {
            *slot = f(i);
        }
    });
}

/// Stable scatter offsets: the result of a per-worker histogram merged
/// by prefix sum, as produced by [`stable_offsets`].
///
/// For a counting sort over `bins` keys where worker `w` owns the
/// `w`-th contiguous input range, `row(w)[b]` is the first output slot
/// for worker `w`'s items with key `b`. Laying items out at
/// `row(w)[b]`, incrementing per item, yields the *stable* order:
/// grouped by bin, original input order within each bin.
#[derive(Debug, Clone)]
pub struct StableOffsets {
    bins: usize,
    /// Flat `workers × bins` start-offset matrix, row per worker.
    offsets: Vec<usize>,
    /// `bin_starts[b]` is the first output slot of bin `b`; the extra
    /// last entry equals the item total (a ready-made CSR index).
    bin_starts: Vec<usize>,
}

impl StableOffsets {
    /// Worker `w`'s start offset per bin. Clone it into a local cursor
    /// and post-increment per scattered item.
    pub fn row(&self, worker: usize) -> &[usize] {
        &self.offsets[worker * self.bins..(worker + 1) * self.bins]
    }

    /// Exclusive prefix sum of bin sizes, length `bins + 1` — exactly
    /// a CSR index array when bins are vertices.
    pub fn bin_starts(&self) -> &[usize] {
        &self.bin_starts
    }

    /// Consumes `self`, returning the bin-starts vector without
    /// copying.
    pub fn into_bin_starts(self) -> Vec<usize> {
        self.bin_starts
    }

    /// Total number of items counted.
    pub fn total(&self) -> usize {
        *self.bin_starts.last().expect("bin_starts is never empty")
    }
}

/// Per-worker histogram + prefix-sum merge: counts `bin_of(i)` for
/// every item `i` of every range in parallel, then merges the
/// per-worker histograms into stable scatter offsets (bin-major, then
/// worker-minor — i.e. original input order within each bin, because
/// `ranges[w]` must be the `w`-th *contiguous* piece of the input).
///
/// The O(items) counting pass runs on the pool; the O(workers × bins)
/// merge is one sequential prefix sum.
///
/// # Example
///
/// ```
/// use lgr_parallel::{even_ranges, stable_offsets, Pool};
///
/// let keys = [1usize, 0, 1, 1, 0];
/// let pool = Pool::new(2);
/// let ranges = even_ranges(keys.len(), pool.threads());
/// let offs = stable_offsets(&pool, &ranges, 2, |i| keys[i]);
/// assert_eq!(offs.bin_starts(), &[0, 2, 5]);
/// // Worker 0 owns items 0..3 (keys 1, 0, 1): its first key-0 item
/// // lands at slot 0, its first key-1 item at slot 2.
/// assert_eq!(offs.row(0), &[0, 2]);
/// // Worker 1 owns items 3..5 (keys 1, 0): after worker 0's one
/// // key-0 item and two key-1 items.
/// assert_eq!(offs.row(1), &[1, 4]);
/// ```
///
/// # Panics
///
/// Panics if `bin_of` returns a value `>= bins`.
pub fn stable_offsets<F>(
    pool: &Pool,
    ranges: &[Range<usize>],
    bins: usize,
    bin_of: F,
) -> StableOffsets
where
    F: Fn(usize) -> usize + Sync,
{
    let workers = ranges.len();
    let mut counts = vec![0usize; workers * bins];
    // Pass 1: per-worker histograms, each worker filling its own row.
    let rows: Vec<Range<usize>> = (0..workers).map(|w| w * bins..(w + 1) * bins).collect();
    par_chunks_mut(pool, &mut counts, &rows, |w, _, row| {
        for i in ranges[w].clone() {
            row[bin_of(i)] += 1;
        }
    });
    // Pass 2: one exclusive prefix sum over the matrix in that same
    // bin-major, worker-minor order, turning each count into its first
    // output slot.
    let mut offsets = counts;
    let mut bin_starts = vec![0usize; bins + 1];
    let mut acc = 0usize;
    for (b, start) in (0..bins).zip(&mut bin_starts) {
        *start = acc;
        for cell in offsets.iter_mut().skip(b).step_by(bins) {
            let count = *cell;
            *cell = acc;
            acc += count;
        }
    }
    if let Some(total) = bin_starts.last_mut() {
        *total = acc;
    }
    StableOffsets {
        bins,
        offsets,
        bin_starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_fill_matches_sequential() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut out = vec![0u64; 1000];
            par_fill(&pool, &mut out, |i| (i as u64).wrapping_mul(0x9E37));
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i as u64).wrapping_mul(0x9E37)));
        }
    }

    #[test]
    fn par_chunks_mut_round_robins_excess_ranges() {
        let pool = Pool::new(2);
        let mut data = vec![0usize; 10];
        let ranges: Vec<Range<usize>> = (0..5).map(|i| i * 2..i * 2 + 2).collect();
        par_chunks_mut(&pool, &mut data, &ranges, |k, range, chunk| {
            for (slot, i) in chunk.iter_mut().zip(range) {
                *slot = k * 100 + i;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[9], 409);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn par_chunks_mut_rejects_overlap() {
        let pool = Pool::new(2);
        let mut data = vec![0usize; 10];
        par_chunks_mut(&pool, &mut data, &[0..5, 4..10], |_, _, _| {});
    }

    /// Reference sequential stable counting-sort offsets.
    fn reference_offsets(keys: &[usize], ranges: &[Range<usize>], bins: usize) -> Vec<usize> {
        let workers = ranges.len();
        let mut counts = vec![0usize; workers * bins];
        for (w, r) in ranges.iter().enumerate() {
            for i in r.clone() {
                counts[w * bins + keys[i]] += 1;
            }
        }
        let mut offsets = vec![0usize; workers * bins];
        let mut acc = 0usize;
        for b in 0..bins {
            for w in 0..workers {
                offsets[w * bins + b] = acc;
                acc += counts[w * bins + b];
            }
        }
        offsets
    }

    #[test]
    fn stable_offsets_matches_reference() {
        let keys: Vec<usize> = (0..500).map(|i| (i * 7 + i / 13) % 17).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let ranges = even_ranges(keys.len(), pool.threads());
            let offs = stable_offsets(&pool, &ranges, 17, |i| keys[i]);
            let expect = reference_offsets(&keys, &ranges, 17);
            for w in 0..pool.threads() {
                assert_eq!(offs.row(w), &expect[w * 17..(w + 1) * 17], "worker {w}");
            }
            assert_eq!(offs.total(), keys.len());
            // bin_starts is the exclusive prefix of bin sizes.
            let mut sizes = [0usize; 17];
            for &k in &keys {
                sizes[k] += 1;
            }
            let mut acc = 0;
            for (b, &s) in sizes.iter().enumerate() {
                assert_eq!(offs.bin_starts()[b], acc);
                acc += s;
            }
            assert_eq!(offs.bin_starts()[17], acc);
        }
    }

    #[test]
    fn stable_offsets_scatter_is_stable() {
        // Scatter items through the offsets and verify bin-major,
        // input-order-within-bin layout.
        let keys = [2usize, 0, 2, 1, 0, 2, 2, 1];
        let pool = Pool::new(3);
        let ranges = even_ranges(keys.len(), pool.threads());
        let offs = stable_offsets(&pool, &ranges, 3, |i| keys[i]);
        let mut out = vec![usize::MAX; keys.len()];
        for (w, r) in ranges.iter().enumerate() {
            let mut cursor = offs.row(w).to_vec();
            for i in r.clone() {
                out[cursor[keys[i]]] = i;
                cursor[keys[i]] += 1;
            }
        }
        // Stable counting sort of indices by key.
        let mut expect: Vec<usize> = (0..keys.len()).collect();
        expect.sort_by_key(|&i| keys[i]);
        assert_eq!(out, expect);
    }

    #[test]
    fn stable_offsets_empty_input() {
        let pool = Pool::new(4);
        let ranges = even_ranges(0, pool.threads());
        let offs = stable_offsets(&pool, &ranges, 5, |_| unreachable!());
        assert_eq!(offs.total(), 0);
        assert_eq!(offs.bin_starts(), &[0; 6]);
    }

    #[test]
    fn stable_offsets_zero_bins() {
        let pool = Pool::new(2);
        let ranges = even_ranges(0, pool.threads());
        let offs = stable_offsets(&pool, &ranges, 0, |_| unreachable!());
        assert_eq!(offs.total(), 0);
        assert_eq!(offs.bin_starts(), &[0]);
    }
}
