//! Pooled CSR construction and permutation apply checked against a
//! naive oracle local to this file, for every thread count, including
//! weighted, self-loop, and parallel-edge graphs.
//!
//! The oracle builds each direction as one `Vec` per vertex by pushing
//! every edge onto its owner's row and sorting each row by
//! `(neighbor, weight)`. It shares no code with `Csr`, so it stays an
//! independent reference now that the library has a single builder.

use proptest::prelude::*;

use lgr_graph::{gen, AdjacencyView, Csr, EdgeList, VertexId, Weight};
use lgr_parallel::Pool;

/// Thread counts exercised per case (1 = everything on the caller).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// One direction as per-vertex `(neighbor, weight)` rows; unweighted
/// edges carry weight 0.
type Rows = Vec<Vec<(VertexId, Weight)>>;

/// Everything `Csr` equality compares: vertex and edge counts,
/// weightedness, and both directions' rows.
type Shape = (usize, usize, bool, Rows, Rows);

/// The oracle: push every edge onto its owner's row, then sort rows.
fn oracle_rows(el: &EdgeList, owner_is_src: bool) -> Rows {
    let mut rows = vec![Vec::new(); el.num_vertices()];
    for (i, &(u, v)) in el.edges().iter().enumerate() {
        let w = el.weights().map_or(0, |ws| ws[i]);
        let (owner, other) = if owner_is_src { (u, v) } else { (v, u) };
        rows[owner as usize].push((other, w));
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

fn oracle(el: &EdgeList) -> Shape {
    (
        el.num_vertices(),
        el.edges().len(),
        el.weights().is_some(),
        oracle_rows(el, true),
        oracle_rows(el, false),
    )
}

/// Reads one direction back from the raw arrays, checking the index
/// shape on the way.
fn csr_rows(view: AdjacencyView<'_>, n: usize) -> Rows {
    assert_eq!(view.index.len(), n + 1, "index length");
    assert_eq!(view.index[0], 0, "index start");
    assert_eq!(view.index[n], view.neighbors.len(), "index end");
    (0..n)
        .map(|v| {
            (view.index[v]..view.index[v + 1])
                .map(|i| (view.neighbors[i], view.weights.map_or(0, |ws| ws[i])))
                .collect()
        })
        .collect()
}

fn shape(g: &Csr) -> Shape {
    let n = g.num_vertices();
    (
        n,
        g.num_edges(),
        g.is_weighted(),
        csr_rows(g.out_adjacency(), n),
        csr_rows(g.in_adjacency(), n),
    )
}

/// Small vertex counts with many edges, so self-loops and parallel
/// edges occur constantly; `weighted != 0` attaches deterministic
/// pseudo-random weights.
fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (1usize..14, 0u8..2, 0u64..1000).prop_flat_map(|(n, weighted, seed)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200).prop_map(move |edges| {
            let mut el = EdgeList::from_parts(n, edges, None);
            if weighted != 0 {
                el.randomize_weights(31, seed);
            }
            el
        })
    })
}

proptest! {
    // Case budget: ProptestConfig's default (64 in the workspace shim,
    // CI-friendly); set PROPTEST_CASES=<n> for deeper local soak runs.
    #![proptest_config(ProptestConfig::default())]

    /// CSR construction matches the naive oracle for every pool size,
    /// and the one-worker `from_edge_list` equals every pooled build.
    #[test]
    fn build_matches_naive_oracle(el in arb_edge_list()) {
        let expect = oracle(&el);
        let single = Csr::from_edge_list(&el);
        prop_assert_eq!(shape(&single), expect.clone());
        for threads in THREADS {
            let pool = Pool::new(threads);
            let par = Csr::from_edge_list_with(&el, &pool);
            prop_assert_eq!(shape(&par), expect.clone(), "threads = {}", threads);
            prop_assert_eq!(&par, &single, "threads = {}", threads);
        }
    }

    /// The direct CSR-to-CSR permutation apply matches the oracle of
    /// the relabeled edge list and equals the seed semantics: rebuild
    /// from the relabeled edge list.
    #[test]
    fn direct_apply_matches_edge_list_rebuild(el in arb_edge_list(), seed in 0u64..1000) {
        let g = Csr::from_edge_list(&el);
        let perm = gen::random_permutation(g.num_vertices(), seed);
        let expect = oracle(&el.relabel(&perm));
        let via_edge_list = Csr::from_edge_list(&g.to_edge_list().relabel(&perm));
        prop_assert_eq!(shape(&g.apply_permutation(&perm)), expect.clone());
        for threads in THREADS {
            let pool = Pool::new(threads);
            let pooled = g.apply_permutation_with(&perm, &pool);
            prop_assert_eq!(shape(&pooled), expect.clone(), "threads = {}", threads);
            prop_assert_eq!(&pooled, &via_edge_list, "threads = {}", threads);
        }
    }
}

#[test]
fn parallel_build_empty_graph() {
    let el = EdgeList::new(0);
    for threads in THREADS {
        let g = Csr::from_edge_list_with(&el, &Pool::new(threads));
        assert_eq!(shape(&g), oracle(&el), "threads = {threads}");
    }
}

#[test]
fn parallel_build_more_workers_than_edges() {
    let mut el = EdgeList::new(3);
    el.push(0, 1);
    el.push(2, 2);
    for threads in THREADS {
        let g = Csr::from_edge_list_with(&el, &Pool::new(threads));
        assert_eq!(shape(&g), oracle(&el), "threads = {threads}");
    }
}

#[test]
fn parallel_paths_on_generated_graph() {
    // A mid-size skewed graph with weights: one pool per thread count
    // reused across build and apply.
    let mut el = gen::community(gen::CommunityConfig::new(3000, 6.0).with_seed(42));
    el.randomize_weights(16, 9);
    let perm = gen::random_permutation(el.num_vertices(), 77);
    let built = oracle(&el);
    let relabeled = oracle(&el.relabel(&perm));
    for threads in THREADS {
        let pool = Pool::new(threads);
        let g = Csr::from_edge_list_with(&el, &pool);
        assert_eq!(shape(&g), built, "threads = {threads}");
        let h = g.apply_permutation_with(&perm, &pool);
        assert_eq!(shape(&h), relabeled, "threads = {threads}");
        assert_eq!(h, Csr::from_edge_list(&g.to_edge_list().relabel(&perm)));
    }
}
