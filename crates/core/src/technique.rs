//! The reordering technique abstraction.

use std::time::{Duration, Instant};

use lgr_graph::{Csr, DegreeKind, Permutation};

/// A vertex reordering technique.
///
/// A technique inspects a graph and produces a [`Permutation`] mapping
/// original vertex IDs to new IDs. Reordering never changes the graph
/// itself — only where each vertex's data lives in memory.
pub trait ReorderingTechnique {
    /// Short display name ("DBG", "Sort", ...), used in reports.
    fn name(&self) -> &'static str;

    /// Computes the relabeling for `graph`.
    ///
    /// `kind` selects which degree drives hot/cold decisions; the
    /// paper's methodology picks it per application (Table VIII:
    /// out-degree for pull-dominated apps, in-degree for push-dominated
    /// ones). Techniques that don't use degrees may ignore it.
    fn reorder(&self, graph: &Csr, kind: DegreeKind) -> Permutation;
}

/// The do-nothing baseline: every vertex keeps its ID.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl ReorderingTechnique for Identity {
    fn name(&self) -> &'static str {
        "Original"
    }

    fn reorder(&self, graph: &Csr, _kind: DegreeKind) -> Permutation {
        Permutation::identity(graph.num_vertices())
    }
}

/// A permutation together with how long it took to compute — the raw
/// material of the paper's net-speedup analysis (Figs. 10–11,
/// Tables XI–XII).
#[derive(Debug, Clone)]
pub struct TimedReorder {
    /// The computed relabeling.
    pub permutation: Permutation,
    /// Wall-clock time spent computing it.
    pub elapsed: Duration,
}

impl TimedReorder {
    /// Runs `technique` on `graph` on the calling thread and records
    /// the elapsed wall time. The reorder time is single-threaded,
    /// like the untraced run it is charged against in the net-speedup
    /// analysis, so it does not depend on `LGR_THREADS`.
    pub fn run<T: ReorderingTechnique + ?Sized>(
        technique: &T,
        graph: &Csr,
        kind: DegreeKind,
    ) -> TimedReorder {
        let start = Instant::now();
        let permutation = technique.reorder(graph, kind);
        TimedReorder {
            permutation,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    #[test]
    fn identity_is_identity() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        let p = Identity.reorder(&g, DegreeKind::Out);
        assert!(p.is_identity());
        assert_eq!(Identity.name(), "Original");
    }

    #[test]
    fn timed_reorder_measures() {
        let mut el = EdgeList::new(64);
        for i in 0..63 {
            el.push(i, i + 1);
        }
        let g = Csr::from_edge_list(&el);
        let t = TimedReorder::run(&Identity, &g, DegreeKind::Out);
        assert!(t.permutation.is_identity());
    }

    #[test]
    fn technique_names_match_paper() {
        use crate::{Dbg, Gorder, HubCluster, HubSort, HubSortOriginal, RandomCacheBlock, Sort};
        assert_eq!(Dbg::new().name(), "DBG");
        assert_eq!(RandomCacheBlock::new(4, 0).name(), "RCB-4");
        assert_eq!(HubSortOriginal::new().name(), "HubSort-O");
        // The five techniques of the main evaluation, in paper order.
        let main_eval: [&dyn ReorderingTechnique; 5] = [
            &Sort::new(),
            &HubSort::new(),
            &HubCluster::new(),
            &Dbg::new(),
            &Gorder::new(),
        ];
        let names: Vec<_> = main_eval.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["Sort", "HubSort", "HubCluster", "DBG", "Gorder"]);
    }
}
