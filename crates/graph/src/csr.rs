//! Compressed Sparse Row graphs with both edge directions.
//!
//! Like Ligra, the analytics engine needs in-edges for pull-based
//! computations and out-edges for push-based ones, so [`Csr`] stores
//! both adjacency structures. Weighted graphs carry per-edge weights
//! parallel to each adjacency array.

use lgr_parallel::{edge_balanced_ranges, even_ranges, stable_offsets, Pool, SyncSlice};

use crate::{EdgeList, Permutation, VertexId, Weight};

/// Canonicalizes one vertex's neighbor list: ascending neighbor IDs,
/// weights moving with their edges. Equal `(neighbor, weight)` pairs
/// make the result independent of the input order, which is what lets
/// every pool size produce CSRs structurally equal (`==`) to one
/// another.
///
/// `scratch` holds the transient `(neighbor, weight)` pairs of the
/// weighted path; callers keep one buffer per worker and reuse it
/// across vertices, so sorting V adjacency lists costs O(max degree)
/// transient space instead of V allocations.
fn sort_adjacent(
    neighbors: &mut [VertexId],
    weights: Option<&mut [Weight]>,
    scratch: &mut Vec<(VertexId, Weight)>,
) {
    match weights {
        None => neighbors.sort_unstable(),
        Some(ws) => {
            scratch.clear();
            scratch.extend(neighbors.iter().copied().zip(ws.iter().copied()));
            scratch.sort_unstable();
            for (i, &(nbr, w)) in scratch.iter().enumerate() {
                neighbors[i] = nbr;
                ws[i] = w;
            }
        }
    }
}

/// Why a set of raw CSR arrays does not describe a valid [`Csr`]
/// (see [`Csr::from_adjacency_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPartsError {
    message: String,
}

impl CsrPartsError {
    fn new(message: impl Into<String>) -> Self {
        CsrPartsError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CsrPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR parts: {}", self.message)
    }
}

impl std::error::Error for CsrPartsError {}

/// Borrowed view of one adjacency direction's raw arrays, exposed so
/// serializers (the `.lgr` binary format in `lgr-io`) can write a CSR
/// without round-tripping through an [`EdgeList`].
#[derive(Debug, Clone, Copy)]
pub struct AdjacencyView<'a> {
    /// Cumulative edge offsets, length `V + 1`:
    /// `index[v]..index[v + 1]` is vertex `v`'s neighbor range.
    pub index: &'a [usize],
    /// Neighbor IDs grouped by owning vertex, ascending within each
    /// vertex's range (the canonical order).
    pub neighbors: &'a [VertexId],
    /// Optional per-edge weights parallel to `neighbors`.
    pub weights: Option<&'a [Weight]>,
}

/// One direction of adjacency in CSR form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Adjacency {
    /// `index[v]..index[v+1]` is the neighbor range of `v`. Length V+1.
    index: Vec<usize>,
    /// Neighbor IDs, grouped by owning vertex.
    neighbors: Vec<VertexId>,
    /// Optional per-edge weights, parallel to `neighbors`.
    weights: Option<Vec<Weight>>,
}

impl Adjacency {
    /// Builds the adjacency from `(owner, neighbor, weight)` triples by
    /// stable counting sort on the pool — O(V + E), the same prefix-sum
    /// construction a graph framework would use: per-worker counting,
    /// a stable prefix-sum merge, a parallel scatter, and edge-balanced
    /// parallel per-vertex neighbor sorting.
    ///
    /// `ranges` partitions the edge array, one contiguous range per
    /// counting worker.
    fn build(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[Weight]>,
        owner_is_src: bool,
        pool: &Pool,
        ranges: &[std::ops::Range<usize>],
    ) -> Self {
        let owner_of = |i: usize| {
            let (u, v) = edges[i];
            if owner_is_src {
                u as usize
            } else {
                v as usize
            }
        };
        let offs = stable_offsets(pool, ranges, num_vertices, owner_of);
        let mut neighbors = vec![0 as VertexId; edges.len()];
        let mut out_weights = weights.map(|_| vec![0 as Weight; edges.len()]);
        {
            let nb = SyncSlice::new(&mut neighbors);
            let wt = out_weights.as_mut().map(|w| SyncSlice::new(w));
            pool.broadcast(|w| {
                // Counting ranges may be fewer than pool workers (the
                // histogram cap in `from_edge_list_with`); surplus
                // workers sit this pass out.
                if w >= ranges.len() {
                    return;
                }
                let mut cursor = offs.row(w).to_vec();
                for i in ranges[w].clone() {
                    let (u, v) = edges[i];
                    let (owner, other) = if owner_is_src { (u, v) } else { (v, u) };
                    let slot = cursor[owner as usize];
                    cursor[owner as usize] += 1;
                    // SAFETY: stable offsets assign every (worker,
                    // edge) pair a distinct slot, so writes are
                    // disjoint across workers.
                    unsafe { nb.write(slot, other) };
                    if let (Some(ws), Some(wt)) = (weights, wt) {
                        // SAFETY: same disjoint-slot argument as the
                        // neighbor write above.
                        unsafe { wt.write(slot, ws[i]) };
                    }
                }
            });
        }
        let index = offs.into_bin_starts();
        // Canonicalize: sort each vertex's neighbor list (weights move
        // with their edges). This makes CSR equality structural — two
        // edge lists describing the same multigraph build identical
        // CSRs — and gives the ascending-ID edge order real datasets
        // ship with. Vertices are divided by edge mass so hub-heavy
        // prefixes don't serialize on one worker.
        let vranges = edge_balanced_ranges(&index, pool.threads());
        {
            let nb = SyncSlice::new(&mut neighbors);
            let wt = out_weights.as_mut().map(|w| SyncSlice::new(w));
            pool.broadcast(|w| {
                let mut scratch = Vec::new();
                for v in vranges[w].clone() {
                    let range = index[v]..index[v + 1];
                    // SAFETY: neighbor ranges of distinct vertices are
                    // disjoint, and each worker owns a distinct vertex
                    // range.
                    let nbrs = unsafe { nb.slice_mut(range.clone()) };
                    // SAFETY: same disjoint per-vertex range as above.
                    let ws = wt.map(|wt| unsafe { wt.slice_mut(range.clone()) });
                    sort_adjacent(nbrs, ws, &mut scratch);
                }
            });
        }
        Adjacency {
            index,
            neighbors,
            weights: out_weights,
        }
    }

    /// Relabels this adjacency under `perm` directly, CSR-to-CSR: new
    /// vertex `nv`'s list is original vertex `inv[nv]`'s list with
    /// every neighbor relabeled, then canonically sorted. No
    /// intermediate edge list is materialized. Relabeling and sorting
    /// are divided across the pool by edge mass.
    fn permute(&self, perm: &Permutation, inv: &[VertexId], pool: &Pool) -> Self {
        let n = inv.len();
        let mut index = vec![0usize; n + 1];
        for nv in 0..n {
            index[nv + 1] = index[nv] + self.degree(inv[nv]) as usize;
        }
        let mut neighbors = vec![0 as VertexId; self.neighbors.len()];
        let mut weights = self
            .weights
            .as_ref()
            .map(|_| vec![0 as Weight; self.neighbors.len()]);
        let eranges = edge_balanced_ranges(&index, pool.threads());
        {
            let nb = SyncSlice::new(&mut neighbors);
            let wt = weights.as_mut().map(|w| SyncSlice::new(w));
            pool.broadcast(|w| {
                let mut scratch = Vec::new();
                for nv in eranges[w].clone() {
                    let src = self.range(inv[nv]);
                    let dst = index[nv]..index[nv + 1];
                    // SAFETY: destination ranges of distinct new
                    // vertices are disjoint, and each worker owns a
                    // distinct new-vertex range.
                    let out = unsafe { nb.slice_mut(dst.clone()) };
                    for (slot, s) in out.iter_mut().zip(src.clone()) {
                        *slot = perm.new_id(self.neighbors[s]);
                    }
                    let out_w = match (self.weights.as_ref(), wt) {
                        (Some(src_w), Some(wt)) => {
                            // SAFETY: same disjoint destination range
                            // as the neighbor slice above.
                            let out_w = unsafe { wt.slice_mut(dst) };
                            out_w.copy_from_slice(&src_w[src]);
                            Some(out_w)
                        }
                        _ => None,
                    };
                    sort_adjacent(out, out_w, &mut scratch);
                }
            });
        }
        Adjacency {
            index,
            neighbors,
            weights,
        }
    }

    #[inline]
    fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.index[v as usize]..self.index[v as usize + 1]
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.range(v)]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u32 {
        (self.index[v as usize + 1] - self.index[v as usize]) as u32
    }
}

/// A directed graph in Compressed Sparse Row form, storing both in- and
/// out-edges, with optional per-edge weights.
///
/// # Example
///
/// ```
/// use lgr_graph::{Csr, EdgeList};
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1);
/// el.push(0, 2);
/// el.push(2, 1);
/// let g = Csr::from_edge_list(&el);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(1), &[0, 2]);
/// assert_eq!(g.out_degree(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Csr {
    num_vertices: usize,
    num_edges: usize,
    out: Adjacency,
    inn: Adjacency,
}

impl Csr {
    /// Builds a CSR graph from an edge list on the calling thread:
    /// [`Csr::from_edge_list_with`] on a one-worker pool. O(V + E).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_edge_list_with(el, &Pool::new(1))
    }

    /// Builds a CSR graph from an edge list using the worker pool:
    /// out- and in-adjacencies are assembled by parallel counting
    /// sort (per-worker histograms merged by prefix sum, parallel
    /// scatter, edge-balanced parallel neighbor sorting).
    ///
    /// The result is structurally identical (`==`) for every pool
    /// size; a one-worker pool runs every pass on the calling thread.
    ///
    /// # Example
    ///
    /// ```
    /// use lgr_graph::{Csr, EdgeList};
    /// use lgr_parallel::Pool;
    ///
    /// let mut el = EdgeList::new(3);
    /// el.push(0, 1);
    /// el.push(2, 1);
    /// let pool = Pool::new(4);
    /// assert_eq!(Csr::from_edge_list_with(&el, &pool), Csr::from_edge_list(&el));
    /// ```
    pub fn from_edge_list_with(el: &EdgeList, pool: &Pool) -> Self {
        let n = el.num_vertices();
        let edges = el.edges();
        let weights = el.weights();
        // Each counting range costs a V-slot histogram row (plus a
        // V-slot scatter cursor), so cap the range count at the
        // average degree: the transient per-direction matrix then
        // never exceeds the edge array itself, instead of growing
        // linearly with core count on many-core hosts.
        let parts = pool.threads().min((edges.len() / n.max(1)).max(1));
        let ranges = even_ranges(edges.len(), parts);
        Csr {
            num_vertices: n,
            num_edges: edges.len(),
            out: Adjacency::build(n, edges, weights, true, pool, &ranges),
            inn: Adjacency::build(n, edges, weights, false, pool, &ranges),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` if the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.out.weights.is_some()
    }

    /// Average degree `E / V` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_vertices as f64
        }
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.inn.degree(v)
    }

    /// Weights parallel to [`Csr::out_neighbors`], if the graph is
    /// weighted.
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.out.weights.as_ref().map(|w| &w[self.out.range(v)])
    }

    /// Weights parallel to [`Csr::in_neighbors`], if the graph is
    /// weighted.
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.inn.weights.as_ref().map(|w| &w[self.inn.range(v)])
    }

    /// Offset of the first out-edge of `v` within the out-edge array.
    ///
    /// Exposed so the cache simulator can map edge-array traversals to
    /// memory addresses.
    #[inline]
    pub fn out_edge_offset(&self, v: VertexId) -> usize {
        self.out.index[v as usize]
    }

    /// Offset of the first in-edge of `v` within the in-edge array.
    #[inline]
    pub fn in_edge_offset(&self, v: VertexId) -> usize {
        self.inn.index[v as usize]
    }

    /// All out-degrees as a vector.
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices as VertexId)
            .map(|v| self.out_degree(v))
            .collect()
    }

    /// All in-degrees as a vector.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices as VertexId)
            .map(|v| self.in_degree(v))
            .collect()
    }

    /// Converts back to an edge list (edges ordered by source vertex).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices, self.num_edges);
        for u in 0..self.num_vertices as VertexId {
            match self.out_weights(u) {
                Some(ws) => {
                    for (&v, &w) in self.out_neighbors(u).iter().zip(ws) {
                        el.push_weighted(u, v, w);
                    }
                }
                None => {
                    for &v in self.out_neighbors(u) {
                        el.push(u, v);
                    }
                }
            }
        }
        el
    }

    /// Relabels every vertex according to `perm` and rebuilds the CSR
    /// on the calling thread: [`Csr::apply_permutation_with`] on a
    /// one-worker pool.
    ///
    /// This is the "apply the reordering" step: after it, vertex `v`'s
    /// data lives at slot `perm.new_id(v)` of every array. The graph
    /// itself (as a set of weighted edges) is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the vertex count.
    pub fn apply_permutation(&self, perm: &Permutation) -> Csr {
        self.apply_permutation_with(perm, &Pool::new(1))
    }

    /// Relabels every vertex according to `perm` using the worker
    /// pool: the direct CSR-to-CSR relabel/scatter with neighbor
    /// relabeling and canonical sorting divided across the pool's
    /// workers (edge-balanced).
    ///
    /// No intermediate [`EdgeList`] is materialized and no counting
    /// sort is repeated, but the result is structurally identical
    /// (`==`) to rebuilding from the relabeled edge list, for every
    /// pool size.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the vertex count.
    pub fn apply_permutation_with(&self, perm: &Permutation, pool: &Pool) -> Csr {
        assert_eq!(perm.len(), self.num_vertices, "permutation length mismatch");
        let inv = perm.inverse();
        Csr {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            out: self.out.permute(perm, &inv, pool),
            inn: self.inn.permute(perm, &inv, pool),
        }
    }

    /// Raw view of the out-direction arrays (for serializers).
    pub fn out_adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView {
            index: &self.out.index,
            neighbors: &self.out.neighbors,
            weights: self.out.weights.as_deref(),
        }
    }

    /// Raw view of the in-direction arrays (for serializers).
    pub fn in_adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView {
            index: &self.inn.index,
            neighbors: &self.inn.neighbors,
            weights: self.inn.weights.as_deref(),
        }
    }

    /// Reassembles a CSR from the raw arrays of both directions — the
    /// deserialization counterpart of [`Csr::out_adjacency`] /
    /// [`Csr::in_adjacency`], used by the `.lgr` binary loader to
    /// reconstruct a graph with no per-edge parsing or counting sort.
    ///
    /// Validates the structural invariants every constructor of this
    /// type guarantees: index shape and monotonicity, neighbor-ID
    /// bounds, weight-array parity between directions, equal edge
    /// counts in both directions, and the canonical ascending
    /// `(neighbor, weight)` order within each vertex's range (what
    /// makes CSR equality structural). It does **not** verify that the
    /// in-direction is the exact transpose of the out-direction;
    /// serialized files carry a checksum for integrity instead.
    pub fn from_adjacency_parts(
        num_vertices: usize,
        out: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
        inn: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
    ) -> Result<Csr, CsrPartsError> {
        if out.2.is_some() != inn.2.is_some() {
            return Err(CsrPartsError::new(
                "one direction is weighted and the other is not",
            ));
        }
        let num_edges = out.1.len();
        if inn.1.len() != num_edges {
            return Err(CsrPartsError::new(format!(
                "edge-count mismatch: {} out-edges vs {} in-edges",
                num_edges,
                inn.1.len()
            )));
        }
        let validate =
            |dir: &str,
             (index, neighbors, weights): &(Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>)|
             -> Result<(), CsrPartsError> {
                if index.len() != num_vertices + 1 {
                    return Err(CsrPartsError::new(format!(
                        "{dir} index has {} entries, expected {}",
                        index.len(),
                        num_vertices + 1
                    )));
                }
                if index.first() != Some(&0) {
                    return Err(CsrPartsError::new(format!("{dir} index must start at 0")));
                }
                if index.windows(2).any(|w| w[0] > w[1]) {
                    return Err(CsrPartsError::new(format!("{dir} index is not monotonic")));
                }
                if index[num_vertices] != neighbors.len() {
                    return Err(CsrPartsError::new(format!(
                        "{dir} index ends at {} but there are {} neighbors",
                        index[num_vertices],
                        neighbors.len()
                    )));
                }
                if neighbors.iter().any(|&v| v as usize >= num_vertices) {
                    return Err(CsrPartsError::new(format!(
                        "{dir} neighbor ID out of range for {num_vertices} vertices"
                    )));
                }
                if let Some(ws) = weights {
                    if ws.len() != neighbors.len() {
                        return Err(CsrPartsError::new(format!(
                            "{dir} weights length {} does not match {} neighbors",
                            ws.len(),
                            neighbors.len()
                        )));
                    }
                }
                for v in 0..num_vertices {
                    let range = index[v]..index[v + 1];
                    let sorted = match weights {
                        None => neighbors[range.clone()].windows(2).all(|w| w[0] <= w[1]),
                        Some(ws) => range
                            .clone()
                            .skip(1)
                            .all(|i| (neighbors[i - 1], ws[i - 1]) <= (neighbors[i], ws[i])),
                    };
                    if !sorted {
                        return Err(CsrPartsError::new(format!(
                            "{dir} neighbors of vertex {v} are not in canonical order"
                        )));
                    }
                }
                Ok(())
            };
        validate("out", &out)?;
        validate("in", &inn)?;
        Ok(Csr {
            num_vertices,
            num_edges,
            out: Adjacency {
                index: out.0,
                neighbors: out.1,
                weights: out.2,
            },
            inn: Adjacency {
                index: inn.0,
                neighbors: inn.1,
                weights: inn.2,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(0, 2);
        el.push(1, 3);
        el.push(2, 3);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn weighted_round_trip() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10);
        el.push_weighted(0, 2, 20);
        el.push_weighted(2, 1, 30);
        let g = Csr::from_edge_list(&el);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[10, 20]);
        // In-edges of 1 come from 0 (w=10) and 2 (w=30).
        let (in_nb, in_w) = (g.in_neighbors(1), g.in_weights(1).unwrap());
        let mut pairs: Vec<_> = in_nb.iter().zip(in_w).map(|(&a, &b)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 10), (2, 30)]);
    }

    #[test]
    fn to_edge_list_round_trips() {
        let g = diamond();
        let el = g.to_edge_list();
        let g2 = Csr::from_edge_list(&el);
        assert_eq!(g, g2);
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = diamond();
        // Reverse IDs: v -> 3 - v.
        let perm = Permutation::from_new_ids(vec![3, 2, 1, 0]).unwrap();
        let h = g.apply_permutation(&perm);
        assert_eq!(h.num_edges(), g.num_edges());
        // Edge 0->1 becomes 3->2.
        assert!(h.out_neighbors(3).contains(&2));
        // Degree multiset is preserved.
        let mut dg: Vec<_> = g.out_degrees();
        let mut dh: Vec<_> = h.out_degrees();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }

    #[test]
    fn permutation_preserves_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 5);
        el.push_weighted(1, 2, 6);
        let g = Csr::from_edge_list(&el);
        let perm = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let h = g.apply_permutation(&perm);
        // Edge 0->1 (w=5) is now 2->0.
        assert_eq!(h.out_neighbors(2), &[0]);
        assert_eq!(h.out_weights(2).unwrap(), &[5]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut el = EdgeList::new(2);
        el.push(0, 0);
        el.push(0, 1);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn adjacency_parts_round_trip() {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 5);
        el.push_weighted(0, 2, 7);
        el.push_weighted(2, 3, 9);
        for g in [
            Csr::from_edge_list(&el),
            diamond(),
            Csr::from_edge_list(&EdgeList::new(0)),
            Csr::from_edge_list(&EdgeList::new(1)),
        ] {
            let out = g.out_adjacency();
            let inn = g.in_adjacency();
            let rebuilt = Csr::from_adjacency_parts(
                g.num_vertices(),
                (
                    out.index.to_vec(),
                    out.neighbors.to_vec(),
                    out.weights.map(<[_]>::to_vec),
                ),
                (
                    inn.index.to_vec(),
                    inn.neighbors.to_vec(),
                    inn.weights.map(<[_]>::to_vec),
                ),
            )
            .unwrap();
            assert_eq!(rebuilt, g);
        }
    }

    #[test]
    fn adjacency_parts_validation_rejects_corruption() {
        let g = diamond();
        let parts = |g: &Csr| {
            let o = g.out_adjacency();
            let i = g.in_adjacency();
            (
                (
                    o.index.to_vec(),
                    o.neighbors.to_vec(),
                    o.weights.map(<[_]>::to_vec),
                ),
                (
                    i.index.to_vec(),
                    i.neighbors.to_vec(),
                    i.weights.map(<[_]>::to_vec),
                ),
            )
        };
        // Out-of-range neighbor.
        let (mut out, inn) = parts(&g);
        out.1[0] = 99;
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Non-monotonic index.
        let (mut out, inn) = parts(&g);
        out.0[1] = 4;
        out.0[2] = 2;
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Non-canonical neighbor order.
        let (mut out, inn) = parts(&g);
        out.1.swap(0, 1);
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Wrong vertex count.
        let (out, inn) = parts(&g);
        assert!(Csr::from_adjacency_parts(5, out, inn).is_err());
        // Mixed weightedness across directions.
        let (mut out, inn) = parts(&g);
        out.2 = Some(vec![1; 4]);
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
    }

    #[test]
    fn edge_offsets_are_cumulative() {
        let g = diamond();
        assert_eq!(g.out_edge_offset(0), 0);
        assert_eq!(g.out_edge_offset(1), 2);
        assert_eq!(g.out_edge_offset(2), 3);
        assert_eq!(g.in_edge_offset(3), 2);
    }
}
