//! Evidence-aware confidence scores.
//!
//! The paper (§3.2): *"each match voter establishes a confidence score in the
//! range (−1, +1) where −1 indicates that there is definitely no
//! correspondence, +1 indicates a definite correspondence and 0 indicates
//! complete uncertainty. … Compared to conventional schema matching tools,
//! Harmony is novel in that it considers both the standard evidence ratio
//! (e.g., number of shared words in the documentation) as well as the total
//! amount of available evidence when calculating confidence scores."*
//!
//! [`Confidence::from_evidence`] implements exactly that: the *sign and
//! magnitude direction* come from the evidence ratio (`ratio` in \[0,1\], mapped
//! to [−1,+1] via `2·ratio − 1`), and the score is then scaled by an evidence
//! weight `n / (n + k)` that approaches 1 as the amount of evidence `n`
//! grows. A perfect ratio backed by two tokens is worth much less than the
//! same ratio backed by forty tokens — which is what lets the vote merger
//! trust the documentation voter on richly documented elements and ignore it
//! on bare ones.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A voter's confidence in one candidate correspondence, in `(−1, +1)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Confidence(f64);

impl Confidence {
    /// Complete uncertainty: no evidence either way.
    pub const NEUTRAL: Confidence = Confidence(0.0);

    /// The largest magnitude a confidence takes: `1 − 1e-9`.
    pub const LIMIT: f64 = 1.0 - 1e-9;

    /// Construct from a raw value, clamped into `(−1, +1)`.
    ///
    /// The open interval is enforced by clamping to ±[`Self::LIMIT`]: the paper's
    /// semantics reserve exactly ±1 for *definite* knowledge, which evidence
    /// accumulation can approach but not reach.
    #[inline]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            return Confidence(0.0);
        }
        Confidence(value.clamp(-Self::LIMIT, Self::LIMIT))
    }

    /// The Harmony construction: combine an evidence *ratio* with the total
    /// *amount* of evidence.
    ///
    /// * `ratio` in \[0,1\]: fraction of evidence in favour (e.g. shared words /
    ///   total words). Values outside \[0,1\] are clamped.
    /// * `evidence` ≥ 0: how much evidence was examined (e.g. total words).
    /// * `damping` > 0: how much evidence is needed before the voter commits;
    ///   at `evidence == damping` the score reaches half its asymptote.
    ///
    /// With `evidence == 0` the result is exactly [`Confidence::NEUTRAL`].
    #[inline]
    pub fn from_evidence(ratio: f64, evidence: f64, damping: f64) -> Self {
        Confidence::weighted(ratio, Confidence::evidence_weight(evidence, damping))
    }

    /// The evidence half of [`Confidence::from_evidence`]: the weight
    /// `n / (n + k)` in `[0, 1)`. Computing it once and reusing it through
    /// [`Confidence::weighted`] gives bit-identical confidences.
    #[inline]
    pub fn evidence_weight(evidence: f64, damping: f64) -> f64 {
        let evidence = evidence.max(0.0);
        let damping = damping.max(f64::MIN_POSITIVE);
        evidence / (evidence + damping)
    }

    /// The ratio half of [`Confidence::from_evidence`], given the weight
    /// from [`Confidence::evidence_weight`].
    #[inline]
    pub fn weighted(ratio: f64, weight: f64) -> Self {
        let raw = 2.0 * ratio.clamp(0.0, 1.0) - 1.0;
        Confidence::new(raw * weight)
    }

    /// The underlying value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// |value| — how *committed* the voter is, regardless of direction. This
    /// is the weight the Harmony vote merger uses.
    #[inline]
    pub fn commitment(self) -> f64 {
        self.0.abs()
    }

    /// True when the score favours a correspondence.
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }

    /// True when the score is exactly neutral.
    pub fn is_neutral(self) -> bool {
        self.0 == 0.0
    }

    /// Map from `(−1,+1)` to a `[0,1]` match score (used where a probability-
    /// like value is needed, e.g. spreadsheet output).
    pub fn as_unit(self) -> f64 {
        (self.0 + 1.0) / 2.0
    }

    /// Inverse of [`Confidence::as_unit`].
    pub fn from_unit(u: f64) -> Self {
        Confidence::new(2.0 * u.clamp(0.0, 1.0) - 1.0)
    }
}

impl Default for Confidence {
    fn default() -> Self {
        Confidence::NEUTRAL
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_evidence_is_neutral() {
        let c = Confidence::from_evidence(1.0, 0.0, 4.0);
        assert!(c.is_neutral());
        let d = Confidence::from_evidence(0.0, 0.0, 4.0);
        assert!(d.is_neutral());
    }

    #[test]
    fn more_evidence_pushes_towards_extremes() {
        // Perfect ratio with growing evidence → monotonically increasing.
        let mut prev = 0.0;
        for n in [1.0, 2.0, 4.0, 8.0, 32.0, 1024.0] {
            let c = Confidence::from_evidence(1.0, n, 4.0).value();
            assert!(c > prev, "evidence {n}: {c} <= {prev}");
            prev = c;
        }
        assert!(prev > 0.99, "asymptote approaches +1: {prev}");
        // Zero ratio mirrors to −1.
        let worst = Confidence::from_evidence(0.0, 1024.0, 4.0).value();
        assert!(worst < -0.99);
    }

    #[test]
    fn half_ratio_is_neutral_at_any_evidence() {
        for n in [0.0, 1.0, 100.0] {
            assert!(Confidence::from_evidence(0.5, n, 4.0).is_neutral());
        }
    }

    #[test]
    fn same_ratio_different_evidence_differ() {
        // The paper's novelty: ratio alone does not determine the score.
        let sparse = Confidence::from_evidence(0.9, 2.0, 4.0);
        let rich = Confidence::from_evidence(0.9, 40.0, 4.0);
        assert!(rich.value() > sparse.value());
        assert!(rich.commitment() > sparse.commitment());
    }

    #[test]
    fn open_interval_enforced() {
        assert!(Confidence::new(5.0).value() < 1.0);
        assert!(Confidence::new(-5.0).value() > -1.0);
        assert_eq!(Confidence::new(f64::NAN).value(), 0.0);
    }

    #[test]
    fn ratio_clamped() {
        let c = Confidence::from_evidence(7.0, 10.0, 4.0);
        assert!(c.value() > 0.0 && c.value() < 1.0);
        let d = Confidence::from_evidence(-3.0, 10.0, 4.0);
        assert!(d.value() < 0.0 && d.value() > -1.0);
    }

    #[test]
    fn unit_mapping_round_trips() {
        for v in [-0.9, -0.5, 0.0, 0.3, 0.9] {
            let c = Confidence::new(v);
            let back = Confidence::from_unit(c.as_unit());
            assert!((back.value() - c.value()).abs() < 1e-12);
        }
        assert_eq!(Confidence::NEUTRAL.as_unit(), 0.5);
    }

    #[test]
    fn damping_controls_commitment_speed() {
        let eager = Confidence::from_evidence(1.0, 4.0, 1.0);
        let cautious = Confidence::from_evidence(1.0, 4.0, 16.0);
        assert!(eager.value() > cautious.value());
        // At evidence == damping the weight is exactly 1/2.
        let half = Confidence::from_evidence(1.0, 8.0, 8.0);
        assert!((half.value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        assert_eq!(Confidence::new(0.25).to_string(), "+0.250");
        assert_eq!(Confidence::new(-0.5).to_string(), "-0.500");
    }
}
