//! Property-based tests for the reordering techniques.

use proptest::prelude::*;

use lgr_core::framework::{group_reorder, GroupingSpec};
use lgr_core::{
    Dbg, HubCluster, HubClusterOriginal, HubSort, HubSortOriginal, ReorderingTechnique, Sort,
};
use lgr_graph::{average_degree, Csr, DegreeKind, EdgeList};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..250)
            .prop_map(move |edges| Csr::from_edge_list(&EdgeList::from_parts(n, edges, None)))
    })
}

proptest! {
    // Case budget: ProptestConfig's default (64 in the workspace shim,
    // CI-friendly); set PROPTEST_CASES=<n> for deeper local soak runs.
    #![proptest_config(ProptestConfig::default())]

    /// Table V equivalence, checked exhaustively: HubCluster computed
    /// directly equals the grouping framework with the two-group spec,
    /// and Sort equals the per-degree spec.
    #[test]
    fn framework_equivalences(g in arb_graph()) {
        let degrees = DegreeKind::Out.degrees(&g);
        let avg = average_degree(&degrees);
        let max = degrees.iter().copied().max().unwrap_or(0);

        let hc = HubCluster::new().reorder(&g, DegreeKind::Out);
        let hc_spec = group_reorder(&degrees, &GroupingSpec::hub_clustering(avg));
        prop_assert_eq!(hc, hc_spec);

        let sort = Sort::new().reorder(&g, DegreeKind::Out);
        let sort_spec = group_reorder(&degrees, &GroupingSpec::sort(max));
        prop_assert_eq!(sort, sort_spec);

        let hs = HubSort::new().reorder(&g, DegreeKind::Out);
        let hs_spec = group_reorder(&degrees, &GroupingSpec::hub_sorting(avg, max));
        prop_assert_eq!(hs, hs_spec);
    }

    /// Hot vertices end up in a contiguous prefix for every hot/cold
    /// segregating technique.
    #[test]
    fn hot_vertices_form_prefix(g in arb_graph()) {
        let degrees = DegreeKind::Out.degrees(&g);
        let threshold = lgr_core::framework::hot_threshold(average_degree(&degrees));
        for t in [
            &HubSort::new() as &dyn ReorderingTechnique,
            &HubCluster::new(),
            &Sort::new(),
        ] {
            let p = t.reorder(&g, DegreeKind::Out);
            let layout = p.inverse();
            // Find the last hot position; no hot vertex may appear
            // after a cold one.
            let flags: Vec<bool> =
                layout.iter().map(|&v| degrees[v as usize] >= threshold).collect();
            let first_cold = flags.iter().position(|&h| !h).unwrap_or(flags.len());
            prop_assert!(
                flags[first_cold..].iter().all(|&h| !h),
                "{}: hot vertex after cold region: {flags:?}",
                t.name()
            );
        }
    }

    /// DBG specs with more hot groups strictly refine coarser ones:
    /// two degrees binned together by the fine spec are always binned
    /// together by the coarse spec. (Refinement is the sense in which
    /// "more groups = finer reordering"; adjacency preservation is
    /// only *statistically* higher for coarse specs because group
    /// junctions can create incidental adjacencies either way.)
    #[test]
    fn dbg_finer_specs_refine_coarser(
        avg in 1.0f64..200.0,
        d1 in 0u32..10_000,
        d2 in 0u32..10_000,
    ) {
        let coarse = Dbg::with_hot_groups(1).spec_for(avg);
        let fine = Dbg::with_hot_groups(6).spec_for(avg);
        if fine.group_of(d1) == fine.group_of(d2) {
            prop_assert_eq!(
                coarse.group_of(d1),
                coarse.group_of(d2),
                "fine spec must refine the coarse one (degrees {} and {})",
                d1,
                d2
            );
        }
    }

    /// The "-O" variants still produce valid hot-prefix layouts by
    /// out-degree (chunked for HubCluster-O).
    #[test]
    fn original_variants_are_valid(g in arb_graph()) {
        let a = HubSortOriginal::new().reorder(&g, DegreeKind::Out);
        let b = HubClusterOriginal::new().reorder(&g, DegreeKind::Out);
        prop_assert_eq!(a.len(), g.num_vertices());
        prop_assert_eq!(b.len(), g.num_vertices());
        // HubSort-O sorts hot descending by out-degree.
        let degrees = DegreeKind::Out.degrees(&g);
        let threshold = lgr_core::framework::hot_threshold(average_degree(&degrees));
        let layout = a.inverse();
        let hot: Vec<u32> = layout
            .iter()
            .copied()
            .take_while(|&v| degrees[v as usize] >= threshold)
            .collect();
        prop_assert!(
            hot.windows(2).all(|w| degrees[w[0] as usize] >= degrees[w[1] as usize]),
            "HubSort-O hot region not sorted"
        );
    }

    /// Grouping is stable: two vertices in the same group keep their
    /// original relative order, for arbitrary specs.
    #[test]
    fn grouping_is_stable(
        degrees in proptest::collection::vec(0u32..100, 1..120),
        mut bounds in proptest::collection::vec(1u32..100, 0..5),
    ) {
        bounds.sort_unstable_by(|x, y| y.cmp(x));
        bounds.dedup();
        bounds.push(0);
        let spec = GroupingSpec::new(bounds).unwrap();
        let p = group_reorder(&degrees, &spec);
        let layout = p.inverse();
        let mut last: Vec<Option<u32>> = vec![None; spec.num_groups()];
        for &v in &layout {
            let grp = spec.group_of(degrees[v as usize]);
            if let Some(prev) = last[grp] {
                prop_assert!(prev < v, "instability in group {grp}");
            }
            last[grp] = Some(v);
        }
    }
}
