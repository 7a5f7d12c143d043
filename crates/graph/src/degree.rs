//! Degree selection and hot/cold classification.
//!
//! The paper's skew-aware techniques reorder by in-degree or out-degree
//! depending on the application's computation model (Table VIII): pull
//! apps reuse the properties of *out*-neighbors' sources, push apps the
//! *in*-degree side. [`DegreeKind`] selects which degree drives a
//! reordering; the hot/cold threshold is the dataset's average degree
//! unless stated otherwise, exactly as in the paper.

use crate::{Csr, VertexId};

/// Which degree of a vertex a reordering technique should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegreeKind {
    /// In-degree (used by push-dominated applications: SSSP, PRD).
    In,
    /// Out-degree (used by pull-dominated applications: BC, PR, Radii).
    #[default]
    Out,
    /// Sum of in- and out-degree.
    Both,
}

impl DegreeKind {
    /// Extracts the selected degree for every vertex of `graph`.
    pub fn degrees(self, graph: &Csr) -> Vec<u32> {
        match self {
            DegreeKind::In => graph.in_degrees(),
            DegreeKind::Out => graph.out_degrees(),
            DegreeKind::Both => {
                let mut d = graph.in_degrees();
                for (v, dv) in d.iter_mut().enumerate() {
                    *dv += graph.out_degree(v as VertexId);
                }
                d
            }
        }
    }
}

/// Average of a degree vector (0.0 if empty). The hot/cold threshold of
/// the paper: a vertex is *hot* when `degree >= average`.
pub fn average_degree(degrees: &[u32]) -> f64 {
    if degrees.is_empty() {
        0.0
    } else {
        degrees.iter().map(|&d| d as u64).sum::<u64>() as f64 / degrees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn star() -> Csr {
        // 1,2,3 all point at 0; 0 points at 1.
        let mut el = EdgeList::new(4);
        el.push(1, 0);
        el.push(2, 0);
        el.push(3, 0);
        el.push(0, 1);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn degree_kinds() {
        let g = star();
        assert_eq!(DegreeKind::In.degrees(&g), vec![3, 1, 0, 0]);
        assert_eq!(DegreeKind::Out.degrees(&g), vec![1, 1, 1, 1]);
        assert_eq!(DegreeKind::Both.degrees(&g), vec![4, 2, 1, 1]);
    }

    #[test]
    fn average_of_degrees() {
        assert_eq!(average_degree(&[3, 1, 0, 0]), 1.0);
    }

    #[test]
    fn average_of_empty_is_zero() {
        assert_eq!(average_degree(&[]), 0.0);
    }

    #[test]
    fn default_is_out() {
        assert_eq!(DegreeKind::default(), DegreeKind::Out);
    }
}
