//! Structural-equality properties for the pooled construction paths:
//! parallel CSR build and direct permutation apply must be `==` to
//! their sequential counterparts for every thread count, including weighted, self-loop, and parallel-edge
//! graphs.

use proptest::prelude::*;

use lgr_graph::{gen, Csr, EdgeList};
use lgr_parallel::Pool;

/// Thread counts exercised per case (1 = the sequential fallback).
const THREADS: [usize; 4] = [1, 2, 3, 8];

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

    /// Pooled CSR construction is structurally identical to the
    /// sequential counting-sort build.
    #[test]
    fn parallel_build_matches_sequential(el in arb_edge_list()) {
        let seq = Csr::from_edge_list(&el);
        for threads in THREADS {
            let pool = Pool::new(threads);
            let par = Csr::from_edge_list_with(&el, &pool);
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// The direct CSR-to-CSR permutation apply (sequential and pooled)
    /// equals the seed semantics: rebuild from the relabeled edge
    /// list.
    #[test]
    fn direct_apply_matches_edge_list_rebuild(el in arb_edge_list(), seed in 0u64..1000) {
        let g = Csr::from_edge_list(&el);
        let perm = gen::random_permutation(g.num_vertices(), seed);
        let via_edge_list = Csr::from_edge_list(&g.to_edge_list().relabel(&perm));
        let direct = g.apply_permutation(&perm);
        prop_assert_eq!(&direct, &via_edge_list);
        for threads in THREADS {
            let pool = Pool::new(threads);
            let pooled = g.apply_permutation_with(&perm, &pool);
            prop_assert_eq!(&pooled, &via_edge_list, "threads = {}", threads);
        }
    }
}

#[test]
fn parallel_build_empty_graph() {
    let pool = Pool::new(8);
    let el = EdgeList::new(0);
    assert_eq!(
        Csr::from_edge_list_with(&el, &pool),
        Csr::from_edge_list(&el)
    );
}

#[test]
fn parallel_build_more_workers_than_edges() {
    let pool = Pool::new(8);
    let mut el = EdgeList::new(3);
    el.push(0, 1);
    el.push(2, 2);
    assert_eq!(
        Csr::from_edge_list_with(&el, &pool),
        Csr::from_edge_list(&el)
    );
}

#[test]
fn parallel_paths_on_generated_graph() {
    // A mid-size skewed graph with weights: one pool reused across
    // build, apply, and degree extraction.
    let mut el = gen::community(gen::CommunityConfig::new(3000, 6.0).with_seed(42));
    el.randomize_weights(16, 9);
    let pool = Pool::new(4);
    let seq = Csr::from_edge_list(&el);
    let par = Csr::from_edge_list_with(&el, &pool);
    assert_eq!(par, seq);
    let perm = gen::random_permutation(seq.num_vertices(), 77);
    assert_eq!(
        seq.apply_permutation_with(&perm, &pool),
        Csr::from_edge_list(&seq.to_edge_list().relabel(&perm))
    );
}
