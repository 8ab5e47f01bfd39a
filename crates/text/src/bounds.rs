//! Cheap, provable *upper bounds* on the similarity measures — the tier-1
//! substrate of the score-stage cascade.
//!
//! Every function here answers the same question in O(1) or O(tokens): "how
//! high could this measure possibly score for this pair?" without running
//! the measure. The engine's cascade (see `harmony_core::cascade`) combines
//! these caps into a bound on the *merged* score and skips the expensive
//! voters whenever the bound already falls below the score floor — which is
//! lossless exactly because every bound in this module is a true upper
//! bound: it may over-estimate, it must never under-estimate.
//!
//! Two families:
//!
//! * **Token-id signatures** ([`id_signature`]) — each interned id sets one
//!   bit of a `u128`. The *difference popcount* bounds set intersection:
//!   every bit in `sig_a & !sig_b` is witnessed by at least one element of
//!   `A` that provably cannot be in `B` (its bit would otherwise be set in
//!   `sig_b`), and distinct bits are witnessed by distinct elements, so
//!   `|A∩B| ≤ |A| − popcount(sig_a & !sig_b)` (and symmetrically). Note the
//!   plain popcount of `sig_a & sig_b` is *not* an upper bound under
//!   hashing — many elements can share one bit — but `AND == 0` does prove
//!   an empty intersection.
//! * **Character profiles** ([`CharProfile`]) — per-string counts of 32
//!   coarse character kinds. Jaro's matched-character count `m` is at most
//!   the multiset intersection of the two character bags, which the
//!   kind-wise `min` of counts over-estimates (merging distinct characters
//!   into one kind only loosens the bound, never tightens it below truth).
//!   `m` caps Jaro from above ([`jaro_upper_bound`]), the bag bound
//!   `d ≥ max_len − m` caps Levenshtein similarity
//!   ([`levenshtein_sim_upper_bound`]), and Jaro-Winkler follows because it
//!   is monotone in Jaro for any fixed exact prefix
//!   ([`jaro_winkler_upper_bound`]).

use crate::intern::TokenId;

/// Number of coarse character kinds tracked by [`CharProfile`].
pub const CHAR_KINDS: usize = 32;

/// The signature bit of one interned id: a multiplicative hash folded to
/// 7 bits (0..128). Deterministic per id, so equal ids always collide —
/// the property every bound below relies on.
#[inline]
fn sig_bit(id: TokenId) -> u32 {
    id.0.wrapping_mul(0x9E37_79B1) >> 25
}

/// The 128-bit signature of an id collection: one bit per id (duplicates
/// are harmless — they set the same bit). Equal ids set equal bits, so a
/// shared element always shows up as a shared bit.
pub fn id_signature(ids: &[TokenId]) -> u128 {
    let mut sig = 0u128;
    for &id in ids {
        sig |= 1u128 << sig_bit(id);
    }
    sig
}

/// Upper bound on `|A ∩ B|` from the sets' signatures and exact sizes
/// (`la = |A|`, `lb = |B|` — sorted-deduplicated set sizes).
///
/// Every bit of `sa & !sb` is set by at least one element of `A` whose bit
/// is absent from `sb`; such an element cannot be in `B`, and distinct
/// bits are witnessed by distinct elements. Hence at least
/// `popcount(sa & !sb)` elements of `A` are outside the intersection —
/// and symmetrically for `B`.
#[inline]
pub fn signature_intersection_bound(sa: u128, la: usize, sb: u128, lb: usize) -> usize {
    let only_a = (sa & !sb).count_ones() as usize;
    let only_b = (sb & !sa).count_ones() as usize;
    la.saturating_sub(only_a)
        .min(lb.saturating_sub(only_b))
        .min(la)
        .min(lb)
}

/// Upper bound on the Jaccard similarity of two id sets, with the edge
/// semantics of [`crate::intern::sorted_ids_jaccard`] (both empty → 1.0,
/// one empty → 0.0). Jaccard `i/(la+lb−i)` is increasing in the
/// intersection size for fixed set sizes, so capping the intersection caps
/// the ratio.
#[inline]
pub fn signature_jaccard_bound(sa: u128, la: usize, sb: u128, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let i = signature_intersection_bound(sa, la, sb, lb);
    i as f64 / (la + lb - i) as f64
}

/// The coarse kind of one character: `a`–`z` (case-folded) → 0–25, ASCII
/// digits → 26, other ASCII → 27, non-ASCII → 28–31. Any deterministic
/// kind function is sound here — equal characters always share a kind, so
/// merging distinct characters into one kind can only *loosen* the
/// multiset-intersection bound.
#[inline]
pub fn char_kind(c: char) -> usize {
    if c.is_ascii_alphabetic() {
        (c.to_ascii_lowercase() as usize) - ('a' as usize)
    } else if c.is_ascii_digit() {
        26
    } else if c.is_ascii() {
        27
    } else {
        28 + (c as usize) % 4
    }
}

/// Per-string counts of the 32 coarse character kinds, precomputed once per
/// prepared schema. Counts saturate at `u16::MAX`; a saturated profile makes
/// every bound fall back to the trivial cap (never to an under-estimate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharProfile {
    counts: [u16; CHAR_KINDS],
    len: usize,
    saturated: bool,
}

impl CharProfile {
    /// Profile a pre-decoded char slice.
    pub fn of_chars(chars: &[char]) -> Self {
        let mut counts = [0u16; CHAR_KINDS];
        let mut saturated = false;
        for &c in chars {
            let k = char_kind(c);
            if counts[k] == u16::MAX {
                saturated = true;
            } else {
                counts[k] += 1;
            }
        }
        CharProfile {
            counts,
            len: chars.len(),
            saturated,
        }
    }

    /// Character length of the profiled string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty string's profile.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Upper bound on the size of the character *multiset* intersection —
    /// and therefore on Jaro's matched-character count `m` and on the
    /// number of characters Levenshtein can keep.
    #[inline]
    pub fn common_chars_bound(&self, other: &CharProfile) -> usize {
        if self.saturated || other.saturated {
            return self.len.min(other.len);
        }
        let mut m = 0usize;
        for k in 0..CHAR_KINDS {
            m += usize::from(self.counts[k].min(other.counts[k]));
        }
        m.min(self.len).min(other.len)
    }
}

/// Upper bound on [`crate::similarity::jaro_chars`] from character
/// profiles. Jaro is `(m/la + m/lb + (m−t)/m)/3` with `(m−t)/m ≤ 1` and
/// `m` capped by the multiset-intersection bound; `m == 0` (with both
/// sides non-empty) makes Jaro exactly 0, edge cases mirror the measure.
pub fn jaro_upper_bound(a: &CharProfile, b: &CharProfile) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let m = a.common_chars_bound(b);
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + 1.0) / 3.0
}

/// Upper bound on [`crate::similarity::jaro_winkler_chars`] given the
/// *exact* common prefix length (callers read it straight off the raw
/// chars — it is a ≤4-char compare). Jaro-Winkler
/// `j + ℓ·0.1·(1−j)` is increasing in `j` for any `ℓ ≤ 4` (slope
/// `1 − 0.1ℓ ≥ 0.6`), so substituting the Jaro cap preserves the bound.
pub fn jaro_winkler_upper_bound(a: &CharProfile, b: &CharProfile, prefix: usize) -> f64 {
    let j = jaro_upper_bound(a, b);
    (j + prefix.min(4) as f64 * 0.1 * (1.0 - j)).min(1.0)
}

/// The exact common-prefix length (≤ 4) Jaro-Winkler uses, read off raw
/// char slices.
#[inline]
pub fn jw_prefix_len(a: &[char], b: &[char]) -> usize {
    a.iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count()
}

/// Upper bound on [`crate::similarity::levenshtein_sim_chars`]. Every kept
/// (non-deleted, non-substituted) character of the longer string pairs
/// with an equal character of the other, so `kept ≤ m` (the multiset
/// bound) and `distance ≥ max_len − m`, giving `sim ≤ m / max_len`.
pub fn levenshtein_sim_upper_bound(a: &CharProfile, b: &CharProfile) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    (a.common_chars_bound(b) as f64 / max_len as f64).min(1.0)
}

/// Upper bound on the edit-distance voter's blended ratio
/// `0.5·jaro_winkler + 0.4·levenshtein_sim + 0.1·soundex`, given the exact
/// common-prefix length and the exact Soundex term. Equivalent to blending
/// [`jaro_winkler_upper_bound`] and [`levenshtein_sim_upper_bound`] but
/// shares the single `common_chars_bound` pass both caps pivot on — the
/// 32-kind min-fold is the dominant cost and would otherwise run twice.
#[inline]
pub fn edit_blend_upper_bound(a: &CharProfile, b: &CharProfile, prefix: usize, sdx: f64) -> f64 {
    if a.is_empty() || b.is_empty() {
        // Mirrors the component bounds: both empty → jaro = lev = 1,
        // exactly one empty → jaro = lev = 0.
        return if a.is_empty() && b.is_empty() {
            0.9 + 0.1 * sdx
        } else {
            0.1 * sdx
        };
    }
    let m = a.common_chars_bound(b);
    if m == 0 {
        return 0.1 * sdx;
    }
    let mf = m as f64;
    let j = (mf / a.len() as f64 + mf / b.len() as f64 + 1.0) / 3.0;
    let jw = (j + prefix.min(4) as f64 * 0.1 * (1.0 - j)).min(1.0);
    let lev = (mf / a.len().max(b.len()) as f64).min(1.0);
    0.5 * jw + 0.4 * lev + 0.1 * sdx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{sorted_ids_jaccard, to_sorted_set, TokenArena};
    use crate::similarity::{jaro_winkler_chars, levenshtein_sim_chars};

    const WORDS: &[&str] = &[
        "",
        "a",
        "date",
        "DATE_BEGIN",
        "DateTimeFirstInfo",
        "begin_date",
        "location",
        "LOCATION_NAME",
        "remarks",
        "crédit",
        "crèche",
        "x1",
        "aaaa",
        "abab",
        "priority7",
        "ööö",
        "status_code_value_long_name",
    ];

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn signature_bound_never_underestimates_jaccard() {
        let arena = TokenArena::new();
        let sets: Vec<Vec<&str>> = vec![
            vec![],
            vec!["date"],
            vec!["date", "begin"],
            vec!["date", "begin", "event"],
            vec!["location", "name"],
            vec!["a", "b", "c", "d", "e", "f", "g", "h"],
            vec!["b", "c", "x", "y"],
        ];
        let interned: Vec<Vec<TokenId>> = sets
            .iter()
            .map(|s| to_sorted_set(arena.intern_all(s)))
            .collect();
        for a in &interned {
            for b in &interned {
                let (sa, sb) = (id_signature(a), id_signature(b));
                let bound = signature_jaccard_bound(sa, a.len(), sb, b.len());
                let truth = sorted_ids_jaccard(a, b);
                assert!(
                    bound >= truth - 1e-12,
                    "bound {bound} under-estimates jaccard {truth} for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn signature_and_zero_proves_disjoint() {
        let arena = TokenArena::new();
        let a = to_sorted_set(arena.intern_all(&["alpha", "beta"]));
        let b = to_sorted_set(arena.intern_all(&["alpha", "gamma"]));
        let (sa, sb) = (id_signature(&a), id_signature(&b));
        // A shared id sets the same bit in both signatures.
        assert_ne!(sa & sb, 0);
        assert!(signature_intersection_bound(sa, 2, sb, 2) >= 1);
    }

    #[test]
    fn jaro_winkler_bound_dominates_measure() {
        for a in WORDS {
            for b in WORDS {
                let (ca, cb) = (chars(a), chars(b));
                let (pa, pb) = (CharProfile::of_chars(&ca), CharProfile::of_chars(&cb));
                let prefix = jw_prefix_len(&ca, &cb);
                let bound = jaro_winkler_upper_bound(&pa, &pb, prefix);
                let truth = jaro_winkler_chars(&ca, &cb);
                assert!(
                    bound >= truth - 1e-12,
                    "jw bound {bound} < {truth} for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn levenshtein_bound_dominates_measure() {
        for a in WORDS {
            for b in WORDS {
                let (ca, cb) = (chars(a), chars(b));
                let (pa, pb) = (CharProfile::of_chars(&ca), CharProfile::of_chars(&cb));
                let bound = levenshtein_sim_upper_bound(&pa, &pb);
                let truth = levenshtein_sim_chars(&ca, &cb);
                assert!(
                    bound >= truth - 1e-12,
                    "lev bound {bound} < {truth} for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn disjoint_kinds_give_exact_zero() {
        let (pa, pb) = (
            CharProfile::of_chars(&chars("abc")),
            CharProfile::of_chars(&chars("123")),
        );
        assert_eq!(jaro_upper_bound(&pa, &pb), 0.0);
        assert_eq!(jaro_winkler_upper_bound(&pa, &pb, 0), 0.0);
    }

    #[test]
    fn empty_edges_mirror_the_measures() {
        let e = CharProfile::of_chars(&[]);
        let x = CharProfile::of_chars(&chars("x"));
        assert_eq!(jaro_upper_bound(&e, &e), 1.0);
        assert_eq!(jaro_upper_bound(&e, &x), 0.0);
        assert_eq!(levenshtein_sim_upper_bound(&e, &e), 1.0);
        assert_eq!(signature_jaccard_bound(0, 0, 0, 0), 1.0);
        assert_eq!(signature_jaccard_bound(0, 0, 1, 1), 0.0);
    }
}
