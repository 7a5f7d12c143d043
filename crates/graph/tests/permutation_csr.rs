//! Focused unit tests for [`Permutation`] validity and
//! [`Csr::apply_permutation`] structure preservation — the two
//! invariants every reordering technique in the workspace leans on.

use lgr_graph::gen::{self, RmatConfig};
use lgr_graph::{Csr, EdgeList, Permutation};

// ---------------------------------------------------------------------
// Permutation validity: bijectivity and inverse round-trips.
// ---------------------------------------------------------------------

#[test]
fn random_permutations_are_bijections() {
    for seed in 0..32 {
        let p = gen::random_permutation(97, seed);
        // Every new ID in 0..97, each exactly once.
        let mut seen = [false; 97];
        for v in 0..97u32 {
            let new = p.new_id(v) as usize;
            assert!(new < 97, "seed {seed}: new ID {new} out of range");
            assert!(!seen[new], "seed {seed}: new ID {new} assigned twice");
            seen[new] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn from_new_ids_validates_bijectivity() {
    assert!(Permutation::from_new_ids(vec![]).is_ok());
    assert!(Permutation::from_new_ids(vec![0]).is_ok());
    assert!(Permutation::from_new_ids(vec![4, 3, 2, 1, 0]).is_ok());
    // Duplicate target.
    assert!(Permutation::from_new_ids(vec![1, 1, 0]).is_err());
    // Out-of-range target.
    assert!(Permutation::from_new_ids(vec![0, 1, 3]).is_err());
    // Gap (duplicate + out of range at once).
    assert!(Permutation::from_new_ids(vec![5, 5, 5, 5, 5, 5]).is_err());
}

#[test]
fn inverse_round_trips_to_identity() {
    for seed in [0, 7, 13, 99] {
        let p = gen::random_permutation(64, seed);
        let inv = Permutation::from_new_ids(p.inverse()).expect("inverse is a bijection");
        assert!(p.then(&inv).is_identity(), "p . p^-1 = id (seed {seed})");
        assert!(inv.then(&p).is_identity(), "p^-1 . p = id (seed {seed})");
        // Inverting twice restores the original mapping.
        let back = Permutation::from_new_ids(inv.inverse()).unwrap();
        assert_eq!(back, p);
    }
}

#[test]
fn inverse_agrees_with_original_id() {
    let p = gen::random_permutation(31, 5);
    let inv = p.inverse();
    for new in 0..31u32 {
        assert_eq!(inv[new as usize], p.original_id(new));
    }
}

// ---------------------------------------------------------------------
// Csr::apply_permutation: edge and degree preservation.
// ---------------------------------------------------------------------

fn skewed_graph() -> Csr {
    Csr::from_edge_list(&gen::rmat(RmatConfig::new(8, 6).with_seed(11)))
}

#[test]
fn apply_permutation_preserves_edge_count_and_vertices() {
    let g = skewed_graph();
    let p = gen::random_permutation(g.num_vertices(), 3);
    let h = g.apply_permutation(&p);
    assert_eq!(h.num_vertices(), g.num_vertices());
    assert_eq!(h.num_edges(), g.num_edges());
}

#[test]
fn apply_permutation_relabels_every_edge_exactly() {
    let g = skewed_graph();
    let p = gen::random_permutation(g.num_vertices(), 17);
    let h = g.apply_permutation(&p);

    let mut expected: Vec<(u32, u32)> = g
        .to_edge_list()
        .edges()
        .iter()
        .map(|&(u, v)| (p.new_id(u), p.new_id(v)))
        .collect();
    let mut actual: Vec<(u32, u32)> = h.to_edge_list().edges().to_vec();
    expected.sort_unstable();
    actual.sort_unstable();
    assert_eq!(expected, actual, "edge multiset must be relabeled 1:1");
}

#[test]
fn apply_permutation_moves_vertex_degrees() {
    let g = skewed_graph();
    let p = gen::random_permutation(g.num_vertices(), 23);
    let h = g.apply_permutation(&p);
    for v in 0..g.num_vertices() as u32 {
        let new = p.new_id(v);
        assert_eq!(h.out_degree(new), g.out_degree(v), "out-degree of {v}");
        assert_eq!(h.in_degree(new), g.in_degree(v), "in-degree of {v}");
    }
}

#[test]
fn apply_permutation_preserves_weights() {
    let mut el = EdgeList::new(16);
    for i in 0..16u32 {
        el.push_weighted(i, (i + 3) % 16, i + 1);
        el.push_weighted(i, (i + 7) % 16, 2 * i + 1);
    }
    let g = Csr::from_edge_list(&el);
    assert!(g.is_weighted());
    let p = gen::random_permutation(16, 9);
    let h = g.apply_permutation(&p);
    assert!(h.is_weighted());

    // Per relabeled edge, the weight multiset must match.
    let collect = |g: &Csr, map: &dyn Fn(u32) -> u32| {
        let mut out: Vec<(u32, u32, u32)> = Vec::new();
        for v in 0..16u32 {
            let ws = g.out_weights(v).expect("weighted graph");
            for (&u, &w) in g.out_neighbors(v).iter().zip(ws) {
                out.push((map(v), map(u), w));
            }
        }
        out.sort_unstable();
        out
    };
    let orig = collect(&g, &|v| p.new_id(v));
    let reord = collect(&h, &|v| v);
    assert_eq!(orig, reord, "weights must travel with their edges");
}

#[test]
fn identity_permutation_is_a_noop() {
    let g = skewed_graph();
    let p = Permutation::identity(g.num_vertices());
    assert_eq!(g.apply_permutation(&p), g);
}
