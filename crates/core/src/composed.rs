//! Layered reordering: apply one technique, then another on top.
//!
//! The paper's Sec. VII proposes **Gorder+DBG**: DBG applied after
//! Gorder retains most of Gorder's structure-aware layout (DBG only
//! splices out coarse degree groups) while also segregating hot
//! vertices into a contiguous region — a prerequisite for the
//! domain-specialized hardware cache scheme the authors cite.

use std::fmt;

use lgr_graph::{Csr, DegreeKind, Permutation};

use crate::technique::ReorderingTechnique;

/// Runtime composition of an arbitrary number of boxed techniques,
/// applied left to right with permutation composition. This is what a
/// spec string like `"gorder+dbg"` builds.
///
/// Stage `i+1` sees the graph as reordered by stages `0..=i`, and the
/// returned permutation is the composition of every stage's
/// relabeling.
pub struct Pipeline {
    stages: Vec<Box<dyn ReorderingTechnique>>,
}

impl Pipeline {
    /// A pipeline over the given stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Box<dyn ReorderingTechnique>>) -> Self {
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        Pipeline { stages }
    }

    /// The number of composed stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the pipeline has no stages (never: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.stages.iter().map(|s| s.name()))
            .finish()
    }
}

impl ReorderingTechnique for Pipeline {
    fn name(&self) -> &'static str {
        "Pipeline"
    }

    fn reorder(&self, graph: &Csr, kind: DegreeKind) -> Permutation {
        let mut perm = self.stages[0].reorder(graph, kind);
        for stage in &self.stages[1..] {
            let intermediate = graph.apply_permutation(&perm);
            let next = stage.reorder(&intermediate, kind);
            perm = perm.then(&next);
        }
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::hot_threshold;
    use crate::{Dbg, Gorder};
    use lgr_graph::average_degree;
    use lgr_graph::gen::{community, CommunityConfig};

    fn gorder_dbg() -> Pipeline {
        Pipeline::new(vec![Box::new(Gorder::new()), Box::new(Dbg::default())])
    }

    #[test]
    fn composition_matches_manual_layering() {
        let el = community(CommunityConfig::new(512, 6.0).with_seed(4));
        let g = Csr::from_edge_list(&el);
        let pipeline = gorder_dbg();
        assert_eq!(pipeline.len(), 2);
        assert!(!pipeline.is_empty());
        let combo = pipeline.reorder(&g, DegreeKind::Out);

        let p1 = Gorder::new().reorder(&g, DegreeKind::Out);
        let mid = g.apply_permutation(&p1);
        let p2 = Dbg::default().reorder(&mid, DegreeKind::Out);
        assert_eq!(combo, p1.then(&p2));
    }

    #[test]
    fn single_stage_pipeline_is_transparent() {
        let el = community(CommunityConfig::new(128, 4.0).with_seed(2));
        let g = Csr::from_edge_list(&el);
        let pipeline = Pipeline::new(vec![Box::new(Dbg::default())]);
        assert_eq!(
            pipeline.reorder(&g, DegreeKind::Out),
            Dbg::default().reorder(&g, DegreeKind::Out)
        );
    }

    #[test]
    fn composition_segregates_hot_vertices() {
        let el = community(CommunityConfig::new(1024, 8.0).with_seed(9));
        let g = Csr::from_edge_list(&el);
        let p = gorder_dbg().reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let degrees = h.out_degrees();
        let threshold = hot_threshold(average_degree(&degrees));
        let hot_count = degrees.iter().filter(|&&d| d >= threshold).count();
        // All vertices with degree >= threshold live in the leading
        // DBG groups, i.e. a contiguous prefix.
        let first_cold = degrees
            .iter()
            .position(|&d| d < threshold)
            .unwrap_or(degrees.len());
        assert!(
            first_cold >= hot_count,
            "hot region not contiguous: first cold at {first_cold}, {hot_count} hot"
        );
    }
}
