//! Selection: turning a score matrix into candidate correspondences.
//!
//! The matcher scores *every* pair; selection decides which pairs become
//! candidate correspondences for human review. Three policies are provided:
//! simple thresholding, top-k per source, and greedy one-to-one (a stable,
//! mutual-best assignment suitable when elements are expected to match at
//! most once).

use crate::confidence::Confidence;
use crate::correspondence::{Correspondence, MatchSet};
use crate::matrix::MatchMatrix;
use crate::obs::{self, SpanKind};
use sm_schema::ElementId;
use std::time::Duration;

/// Candidate-selection policy.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// All pairs scoring at least the threshold.
    Threshold(Confidence),
    /// The best `k` targets for each source, provided they clear the
    /// threshold (keeps review queues bounded).
    TopKPerSource {
        /// Candidates per source element.
        k: usize,
        /// Minimum score.
        min: Confidence,
    },
    /// Greedy one-to-one assignment: repeatedly take the globally best
    /// remaining pair above the threshold, excluding used rows/columns.
    OneToOne {
        /// Minimum score.
        min: Confidence,
    },
}

impl Selection {
    /// Apply the policy to a matrix, producing candidates (best first).
    /// Every application records a `stage.select` span (payload = matrix
    /// cell count), so blocked/batch runs get a Select row in traces even
    /// though selection happens outside the pipeline proper.
    pub fn apply(&self, matrix: &MatchMatrix) -> MatchSet {
        self.apply_timed(matrix).0
    }

    /// [`Self::apply`], also returning the duration of its `stage.select`
    /// span: a run's [`crate::pipeline::StageTimings::select`].
    pub(crate) fn apply_timed(&self, matrix: &MatchMatrix) -> (MatchSet, Duration) {
        let cells = (matrix.rows() * matrix.cols()) as u64;
        obs::timed(SpanKind::StageSelect, |_| cells, || self.select(matrix))
    }

    fn select(&self, matrix: &MatchMatrix) -> MatchSet {
        let mut set = match self {
            Selection::Threshold(min) => {
                let mut out = MatchSet::new();
                for (s, t, c) in matrix.iter_above(*min) {
                    out.push(Correspondence::candidate(s, t, c));
                }
                out
            }
            Selection::TopKPerSource { k, min } => {
                let mut out = MatchSet::new();
                for i in 0..matrix.rows() {
                    let s = ElementId(i as u32);
                    for (t, c) in matrix.top_k_for_source(s, *k) {
                        if c.value() >= min.value() {
                            out.push(Correspondence::candidate(s, t, c));
                        }
                    }
                }
                out
            }
            Selection::OneToOne { min } => one_to_one(matrix, *min),
        };
        set.sort_by_score();
        set
    }
}

/// Greedy global one-to-one assignment above a threshold.
fn one_to_one(matrix: &MatchMatrix, min: Confidence) -> MatchSet {
    let mut pairs: Vec<(ElementId, ElementId, Confidence)> = matrix.iter_above(min).collect();
    pairs.sort_by(|a, b| b.2.value().partial_cmp(&a.2.value()).expect("finite"));
    let mut used_s = vec![false; matrix.rows()];
    let mut used_t = vec![false; matrix.cols()];
    let mut out = MatchSet::new();
    for (s, t, c) in pairs {
        if !used_s[s.index()] && !used_t[t.index()] {
            used_s[s.index()] = true;
            used_t[t.index()] = true;
            out.push(Correspondence::candidate(s, t, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3 with a clear diagonal plus one decoy.
    fn matrix() -> MatchMatrix {
        let mut m = MatchMatrix::new(3, 3);
        let vals = [
            (0, 0, 0.9),
            (0, 1, 0.5),
            (1, 1, 0.8),
            (2, 2, 0.7),
            (2, 1, 0.6),
        ];
        for (s, t, v) in vals {
            m.set(ElementId(s), ElementId(t), Confidence::new(v));
        }
        m
    }

    #[test]
    fn threshold_selects_all_above() {
        let set = Selection::Threshold(Confidence::new(0.55)).apply(&matrix());
        assert_eq!(set.len(), 4); // 0.9 0.8 0.7 0.6
                                  // Sorted best-first.
        assert!((set.all()[0].score.value() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn top_k_bounds_per_source() {
        let set = Selection::TopKPerSource {
            k: 1,
            min: Confidence::new(0.0 + 1e-6),
        }
        .apply(&matrix());
        assert_eq!(set.len(), 3, "one per source");
        let sources: Vec<u32> = set.all().iter().map(|c| c.source.0).collect();
        assert!(sources.contains(&0) && sources.contains(&1) && sources.contains(&2));
    }

    #[test]
    fn top_k_respects_min() {
        let set = Selection::TopKPerSource {
            k: 3,
            min: Confidence::new(0.75),
        }
        .apply(&matrix());
        assert_eq!(set.len(), 2); // 0.9 and 0.8 only
    }

    #[test]
    fn one_to_one_is_injective() {
        let set = Selection::OneToOne {
            min: Confidence::new(0.1),
        }
        .apply(&matrix());
        let mut seen_s = std::collections::HashSet::new();
        let mut seen_t = std::collections::HashSet::new();
        for c in set.all() {
            assert!(seen_s.insert(c.source), "source reused");
            assert!(seen_t.insert(c.target), "target reused");
        }
        // Greedy picks (0,0,.9), (1,1,.8), (2,2,.7).
        assert_eq!(set.len(), 3);
        assert!(set
            .all()
            .iter()
            .any(|c| c.source == ElementId(2) && c.target == ElementId(2)));
    }

    #[test]
    fn one_to_one_greedy_blocks_decoy() {
        // Decoy (2,1,0.6) must lose to (1,1,0.8) for column 1.
        let set = Selection::OneToOne {
            min: Confidence::new(0.1),
        }
        .apply(&matrix());
        assert!(!set
            .all()
            .iter()
            .any(|c| c.source == ElementId(2) && c.target == ElementId(1)));
    }

    #[test]
    fn empty_matrix_selects_nothing() {
        let m = MatchMatrix::new(0, 0);
        for sel in [
            Selection::Threshold(Confidence::new(0.1)),
            Selection::TopKPerSource {
                k: 2,
                min: Confidence::new(0.1),
            },
            Selection::OneToOne {
                min: Confidence::new(0.1),
            },
        ] {
            assert!(sel.apply(&m).is_empty());
        }
    }

    #[test]
    fn high_threshold_selects_nothing() {
        let set = Selection::Threshold(Confidence::new(0.95)).apply(&matrix());
        assert!(set.is_empty());
    }
}
