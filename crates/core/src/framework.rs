//! The generalized grouping framework (paper Listing 1 + Table V).
//!
//! The paper observes that every skew-aware technique is an instance of
//! one binning algorithm: assign contiguous, descending degree ranges
//! to K groups, bin vertices into groups *stably* (preserving original
//! relative order), and concatenate the groups hottest-first.
//!
//! * **Sort** = one group per distinct degree value.
//! * **Hub Sorting** = one group per distinct hot degree + a single
//!   cold group (sorting-by-fine-grouping).
//! * **Hub Clustering** = two groups split at the average degree.
//! * **DBG** = geometrically spaced ranges, a handful of groups.
//!
//! Because binning is a stable counting sort over group indices, the
//! whole framework runs in O(V + K) after degree extraction.

use std::error::Error;
use std::fmt;

use lgr_graph::{Permutation, VertexId};

/// Error returned for malformed group boundary specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSpecError {
    detail: String,
}

impl fmt::Display for InvalidSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid grouping spec: {}", self.detail)
    }
}

impl Error for InvalidSpecError {}

/// A partition of the degree axis into contiguous, descending ranges.
///
/// `lower_bounds` holds the inclusive lower bound of each group,
/// strictly descending, ending at 0 so every degree falls in exactly
/// one group. Group 0 is the hottest: `[lower_bounds[0], infinity)`.
///
/// # Example
///
/// ```
/// use lgr_core::GroupingSpec;
///
/// // Three groups: [40, inf), [20, 40), [0, 20).
/// let spec = GroupingSpec::new(vec![40, 20, 0]).unwrap();
/// assert_eq!(spec.group_of(100), 0);
/// assert_eq!(spec.group_of(25), 1);
/// assert_eq!(spec.group_of(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupingSpec {
    lower_bounds: Vec<u32>,
}

impl GroupingSpec {
    /// Builds a spec from strictly descending lower bounds ending at 0.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpecError`] if `lower_bounds` is empty, does not
    /// end at 0, or is not strictly descending.
    pub fn new(lower_bounds: Vec<u32>) -> Result<Self, InvalidSpecError> {
        if lower_bounds.is_empty() {
            return Err(InvalidSpecError {
                detail: "no groups".to_owned(),
            });
        }
        if *lower_bounds.last().unwrap() != 0 {
            return Err(InvalidSpecError {
                detail: "last lower bound must be 0 so all degrees are covered".to_owned(),
            });
        }
        if lower_bounds.windows(2).any(|w| w[0] <= w[1]) {
            return Err(InvalidSpecError {
                detail: "lower bounds must be strictly descending".to_owned(),
            });
        }
        Ok(GroupingSpec { lower_bounds })
    }

    /// Number of groups K.
    pub fn num_groups(&self) -> usize {
        self.lower_bounds.len()
    }

    /// The inclusive lower bound of each group, hottest first.
    pub fn lower_bounds(&self) -> &[u32] {
        &self.lower_bounds
    }

    /// Group index (0 = hottest) of a vertex with the given degree.
    #[inline]
    pub fn group_of(&self, degree: u32) -> usize {
        // Binary search over descending bounds: first group whose lower
        // bound <= degree. Specs are small (K <= ~10 for DBG) but Sort
        // specs have thousands of groups, so log K matters.
        let mut lo = 0usize;
        let mut hi = self.lower_bounds.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.lower_bounds[mid] <= degree {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// **Sort** as a grouping (Table V row 1): one group per degree
    /// value in `[0, max_degree]`, hottest first.
    pub fn sort(max_degree: u32) -> Self {
        GroupingSpec {
            lower_bounds: (0..=max_degree).rev().collect(),
        }
    }

    /// **Hub Sorting** as a grouping (Table V row 2): one group per
    /// distinct hot degree (`>= avg`), plus a single cold group.
    pub fn hub_sorting(avg_degree: f64, max_degree: u32) -> Self {
        let threshold = hot_threshold(avg_degree);
        let mut bounds: Vec<u32> = (threshold..=max_degree.max(threshold)).rev().collect();
        if *bounds.last().unwrap_or(&1) != 0 {
            bounds.push(0);
        }
        GroupingSpec {
            lower_bounds: bounds,
        }
    }

    /// **Hub Clustering** as a grouping (Table V row 3): hot vs cold at
    /// the average degree.
    pub fn hub_clustering(avg_degree: f64) -> Self {
        let threshold = hot_threshold(avg_degree);
        GroupingSpec {
            lower_bounds: if threshold == 0 {
                vec![0]
            } else {
                vec![threshold, 0]
            },
        }
    }

    /// **DBG** as a grouping (Table V row 4): geometric ranges
    /// `[32A, inf), [16A, 32A), ..., [A, 2A), [A/2, A), [0, A/2)` —
    /// the paper's 8-group configuration, generalized to
    /// `num_hot_groups` doublings above the average. Past 32 doublings
    /// every bound saturates at the top of the `u32` degree range, so
    /// larger counts build the same spec as 32.
    ///
    /// # Panics
    ///
    /// Panics if `num_hot_groups` is 0.
    pub fn dbg(avg_degree: f64, num_hot_groups: u32) -> Self {
        assert!(num_hot_groups >= 1);
        let a = hot_threshold(avg_degree);
        let hot = num_hot_groups.min(32);
        let mut bounds = Vec::with_capacity(hot as usize + 2);
        // Hot groups: [2^(k)A, 2^(k+1)A) for k = hot-1 .. 0.
        for k in (0..hot).rev() {
            let b = a.saturating_mul(1u32 << k);
            bounds.push(b);
        }
        // Cold split at A/2, then the floor group.
        let half = a / 2;
        if half > 0 && half < *bounds.last().unwrap_or(&u32::MAX) {
            bounds.push(half);
        }
        if *bounds.last().unwrap_or(&1) != 0 {
            bounds.push(0);
        }
        // Deduplicate any collapsed bounds (tiny averages).
        bounds.dedup();
        GroupingSpec {
            lower_bounds: bounds,
        }
    }
}

/// The paper's hot threshold: a vertex is hot when its degree is at
/// least the average degree (rounded up so "degree >= avg" holds for
/// integer degrees).
pub fn hot_threshold(avg_degree: f64) -> u32 {
    avg_degree.ceil().max(1.0) as u32
}

/// The generalized DBG binning algorithm (paper Listing 1): bins
/// vertices by `spec`, preserving original relative order within each
/// group, and lays groups out hottest-first.
///
/// Runs in O(V + K): group sizes are counted, prefix-summed into group
/// start offsets, and vertices are scattered stably.
pub fn group_reorder(degrees: &[u32], spec: &GroupingSpec) -> Permutation {
    let k = spec.num_groups();
    // Pass 1: group of every vertex + group sizes.
    let mut group_of = vec![0u32; degrees.len()];
    let mut counts = vec![0usize; k];
    for (v, &d) in degrees.iter().enumerate() {
        let g = spec.group_of(d);
        group_of[v] = g as u32;
        counts[g] += 1;
    }
    // Pass 2: exclusive prefix sum = start offset of each group.
    let mut offsets = vec![0usize; k];
    let mut acc = 0usize;
    for (g, &c) in counts.iter().enumerate() {
        offsets[g] = acc;
        acc += c;
    }
    // Pass 3: stable scatter.
    let mut new_ids = vec![0 as VertexId; degrees.len()];
    for (v, &g) in group_of.iter().enumerate() {
        let slot = offsets[g as usize];
        offsets[g as usize] += 1;
        new_ids[v] = slot as VertexId;
    }
    Permutation::from_new_ids(new_ids).expect("stable scatter produces a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(GroupingSpec::new(vec![]).is_err());
        assert!(GroupingSpec::new(vec![5, 2]).is_err()); // doesn't end at 0
        assert!(GroupingSpec::new(vec![2, 2, 0]).is_err()); // not strict
        assert!(GroupingSpec::new(vec![0]).is_ok()); // single group
        assert!(GroupingSpec::new(vec![10, 5, 0]).is_ok());
    }

    #[test]
    fn group_of_covers_all_degrees() {
        let spec = GroupingSpec::new(vec![40, 20, 10, 0]).unwrap();
        assert_eq!(spec.group_of(1000), 0);
        assert_eq!(spec.group_of(40), 0);
        assert_eq!(spec.group_of(39), 1);
        assert_eq!(spec.group_of(20), 1);
        assert_eq!(spec.group_of(19), 2);
        assert_eq!(spec.group_of(10), 2);
        assert_eq!(spec.group_of(9), 3);
        assert_eq!(spec.group_of(0), 3);
    }

    #[test]
    fn sort_spec_is_per_degree() {
        let spec = GroupingSpec::sort(5);
        assert_eq!(spec.num_groups(), 6);
        for d in 0..=5u32 {
            assert_eq!(spec.group_of(d), (5 - d) as usize);
        }
    }

    #[test]
    fn dbg_spec_matches_paper_configuration() {
        // A = 20: ranges [640,inf),[320,640),[160,320),[80,160),[40,80),
        // [20,40),[10,20),[0,10) — 8 groups.
        let spec = GroupingSpec::dbg(20.0, 6);
        assert_eq!(
            spec.lower_bounds(),
            &[640, 320, 160, 80, 40, 20, 10, 0],
            "paper's 8-group DBG configuration"
        );
    }

    #[test]
    fn dbg_spec_degenerate_small_average() {
        // Average degree 1: cold split collapses; still valid.
        let spec = GroupingSpec::dbg(1.0, 6);
        assert_eq!(*spec.lower_bounds().last().unwrap(), 0);
        assert!(spec.lower_bounds().windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn dbg_spec_caps_hot_groups_at_32_doublings() {
        for avg in [1.0, 2.5, 10.0, 1000.0] {
            assert_eq!(
                GroupingSpec::dbg(avg, u32::MAX),
                GroupingSpec::dbg(avg, 32),
                "avg {avg}"
            );
        }
    }

    #[test]
    fn hub_clustering_spec() {
        let spec = GroupingSpec::hub_clustering(4.2);
        assert_eq!(spec.lower_bounds(), &[5, 0]);
    }

    #[test]
    fn group_reorder_is_stable_within_groups() {
        // degrees: vertices 0..8; hot (>=10): v1(11), v4(10), v6(99).
        let degrees = [1, 11, 2, 3, 10, 0, 99, 4];
        let spec = GroupingSpec::new(vec![10, 0]).unwrap();
        let perm = group_reorder(&degrees, &spec);
        // layout: new slot -> original vertex. Hot vertices first, in
        // original relative order; then cold.
        let layout = perm.inverse();
        assert_eq!(layout, vec![1, 4, 6, 0, 2, 3, 5, 7]);
    }

    #[test]
    fn group_reorder_by_sort_spec_sorts_descending() {
        let degrees = [3, 1, 4, 1, 5, 9, 2, 6];
        let spec = GroupingSpec::sort(9);
        let perm = group_reorder(&degrees, &spec);
        let layout = perm.inverse();
        let sorted: Vec<u32> = layout.iter().map(|&v| degrees[v as usize]).collect();
        assert_eq!(sorted, vec![9, 6, 5, 4, 3, 2, 1, 1]);
        // Stability: the two degree-1 vertices keep original order (1, 3).
        assert_eq!(&layout[6..], &[1, 3]);
    }

    #[test]
    fn hub_sorting_spec_sorts_hot_preserves_cold() {
        // avg 4 -> threshold 4. degrees: hot = v0(9), v3(4), v5(7).
        let degrees = [9, 1, 2, 4, 3, 7];
        let spec = GroupingSpec::hub_sorting(4.0, 9);
        let perm = group_reorder(&degrees, &spec);
        let layout = perm.inverse();
        // Hot sorted descending: 9 (v0), 7 (v5), 4 (v3); cold in original
        // order: v1, v2, v4.
        assert_eq!(layout, vec![0, 5, 3, 1, 2, 4]);
    }

    #[test]
    fn empty_graph_reorders_fine() {
        let perm = group_reorder(&[], &GroupingSpec::hub_clustering(1.0));
        assert_eq!(perm.len(), 0);
    }

    #[test]
    fn hot_threshold_rounds_up() {
        assert_eq!(hot_threshold(4.0), 4);
        assert_eq!(hot_threshold(4.1), 5);
        assert_eq!(hot_threshold(0.2), 1);
    }
}
