//! Match voters.
//!
//! The paper (§3.2): *"several match voters are invoked, each of which
//! identifies correspondences using a different strategy."* Every voter maps
//! a (source element, target element) pair to an evidence-aware
//! [`Confidence`]. Voters must be cheap per pair — all heavy per-element work
//! lives in [`MatchContext`].
//!
//! Each voter's scoring body is a `pub(crate)` free function over
//! [`ElementFeatures`] (`exact_name_vote`, `token_vote`, …); the trait impls
//! here delegate to them, and so do the structure-of-arrays batch kernels in
//! the private `cascade` module, which re-invoke the *same* functions voter-major over
//! a CSR candidate row. One body per voter is what keeps the cascaded score
//! path bit-identical to per-pair `MatchVoter` dispatch.

use crate::confidence::Confidence;
use crate::context::{ElementFeatures, MatchContext};
use sm_schema::{DataType, ElementId, ElementKind};
use sm_text::intern::sorted_ids_jaccard;
use sm_text::similarity::{jaro_winkler_chars, levenshtein_sim_chars, monge_elkan_jw_interned};
use sm_text::soundex::soundex_key_sim;
use sm_text::tfidf::DocView;

/// A strategy that scores candidate correspondences.
pub trait MatchVoter: Send + Sync {
    /// Stable voter name (appears in provenance and reports).
    fn name(&self) -> &'static str;

    /// Score one candidate pair.
    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence;
}

// ---------------------------------------------------------------------------
// Evidence laws. Each voter that weighs its ratio by a count of evidence
// reads that count through one law, and the cascade's per-context weight
// tables (`crate::cascade`) are built from the same laws, so the bound
// arithmetic cannot drift from the votes it bounds.
// ---------------------------------------------------------------------------

/// How a voter combines its two sides' counts into one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Combine {
    Sum,
    Min,
    Max,
}

/// A voter's evidence law: combine the two sides' counts, divide by `per`
/// to get the evidence, weigh it against `damping` (see
/// [`Confidence::from_evidence`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvidenceLaw {
    combine: Combine,
    per: f64,
    damping: f64,
}

impl EvidenceLaw {
    /// The combined count of one pair.
    #[inline]
    pub(crate) fn count(self, a: usize, b: usize) -> usize {
        match self.combine {
            Combine::Sum => a + b,
            Combine::Min => a.min(b),
            Combine::Max => a.max(b),
        }
    }

    /// The evidence weight of a combined count.
    #[inline]
    pub(crate) fn weight(self, count: usize) -> f64 {
        Confidence::evidence_weight(count as f64 / self.per, self.damping)
    }

    /// The vote for `ratio` backed by the two sides' counts.
    #[inline]
    pub(crate) fn vote(self, ratio: f64, a: usize, b: usize) -> Confidence {
        Confidence::weighted(ratio, self.weight(self.count(a, b)))
    }
}

/// Exact-name hit: the number of (equal) name tokens.
pub(crate) const EXACT_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Min,
    per: 1.0,
    damping: 0.8,
};
/// Token overlap: the mean name length.
pub(crate) const TOKEN_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Sum,
    per: 2.0,
    damping: 1.5,
};
/// Edit distance: a third of the shorter raw name's characters.
pub(crate) const EDIT_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Min,
    per: 3.0,
    damping: 1.2,
};
/// Documentation: the smaller document's token count.
pub(crate) const DOC_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Min,
    per: 1.0,
    damping: 5.0,
};
/// Path: the mean parent-name length, tokens counted with multiplicity.
pub(crate) const PATH_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Sum,
    per: 2.0,
    damping: 2.0,
};
/// Structure: the smaller children-token count, with multiplicity.
pub(crate) const STRUCTURE_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Min,
    per: 1.0,
    damping: 6.0,
};
/// Acronym: the longer name's token count.
pub(crate) const ACRONYM_EVIDENCE: EvidenceLaw = EvidenceLaw {
    combine: Combine::Max,
    per: 1.0,
    damping: 1.0,
};

/// Ratio of an acronym hit.
pub(crate) const ACRONYM_RATIO: f64 = 0.95;

/// Discount on the token voter's soft (Monge-Elkan) overlap.
pub(crate) const SOFT_DISCOUNT: f64 = 0.85;

/// The exact-name voter's vote on a mismatch: weak negative evidence only,
/// since most true correspondences do NOT share exact names.
#[inline]
pub(crate) fn exact_mismatch() -> Confidence {
    Confidence::from_evidence(0.35, 1.0, 6.0)
}

/// The role voter's vote on a container/leaf mismatch: solid negative
/// evidence.
#[inline]
pub(crate) fn role_clash() -> Confidence {
    Confidence::from_evidence(0.0, 4.0, 2.0)
}

// ---------------------------------------------------------------------------
// Free-function voter kernels. One body per voter, shared by the trait impls
// below and by the cascade's batch path (`crate::cascade`) — the only way to
// guarantee both paths produce bit-identical confidences.
// ---------------------------------------------------------------------------

/// [`ExactNameVoter`]'s body.
pub(crate) fn exact_name_vote(fa: &ElementFeatures, fb: &ElementFeatures) -> Confidence {
    let a = &fa.name_ids;
    let b = &fb.name_ids;
    if a.is_empty() || b.is_empty() {
        return Confidence::NEUTRAL;
    }
    // Interned-sequence equality ⇔ normalized-token-sequence equality.
    if a == b {
        EXACT_EVIDENCE.vote(1.0, a.len(), b.len())
    } else {
        exact_mismatch()
    }
}

/// [`TokenVoter`]'s body.
pub(crate) fn token_vote(tag: u32, fa: &ElementFeatures, fb: &ElementFeatures) -> Confidence {
    if fa.name_ids.is_empty() || fb.name_ids.is_empty() {
        return Confidence::NEUTRAL;
    }
    // Exact token overlap plus soft (per-token edit-distance) alignment:
    // `date` vs `datetime` should contribute even though the stems
    // differ. The soft component is discounted so exact overlap wins.
    // Both run on interned ids: the Jaccard is a sorted merge walk, and
    // Monge-Elkan short-circuits every shared token to 1.0 via an id
    // membership test before falling back to character-level JW.
    let jaccard = sorted_ids_jaccard(&fa.name_set, &fb.name_set);
    let soft = monge_elkan_jw_interned(
        tag,
        &fa.name_bag.tokens,
        &fa.name_ids,
        &fa.name_set,
        &fb.name_bag.tokens,
        &fb.name_ids,
        &fb.name_set,
    );
    let sim = jaccard.max(SOFT_DISCOUNT * soft);
    TOKEN_EVIDENCE.vote(sim, fa.name_ids.len(), fb.name_ids.len())
}

/// The memoized raw-name similarity blend behind [`EditDistanceVoter`].
/// Names were char-decoded and Soundex-encoded once at prepare time; the
/// pair loop runs on slices and packed keys only. Raw names repeat heavily
/// across enterprise schemata (boilerplate `id`, `name`, `code` columns),
/// so the blended similarity is memoized per thread by interned raw-name
/// pair — ids are stable and the blend is a pure function of the two
/// strings, so entries never invalidate. The memo is capacity-bounded
/// (see [`sm_text::intern::PairMemo`]); flushes surface through
/// [`sm_text::intern::pair_memo_stats`].
pub(crate) fn edit_distance_sim(tag: u32, fa: &ElementFeatures, fb: &ElementFeatures) -> f64 {
    std::thread_local! {
        static EDIT_MEMO: std::cell::RefCell<sm_text::intern::PairMemo> =
            std::cell::RefCell::new(sm_text::intern::PairMemo::new());
    }
    EDIT_MEMO.with(|memo| {
        memo.borrow_mut()
            .get_or_insert_with(tag, fa.raw_name_id, fb.raw_name_id, || {
                let jw = jaro_winkler_chars(&fa.raw_chars, &fb.raw_chars);
                let lev = levenshtein_sim_chars(&fa.raw_chars, &fb.raw_chars);
                let sdx = soundex_key_sim(fa.raw_soundex, fb.raw_soundex);
                0.5 * jw + 0.4 * lev + 0.1 * sdx
            })
    })
}

/// [`EditDistanceVoter`]'s body.
pub(crate) fn edit_distance_vote(
    tag: u32,
    fa: &ElementFeatures,
    fb: &ElementFeatures,
) -> Confidence {
    if fa.raw_chars.is_empty() || fb.raw_chars.is_empty() {
        return Confidence::NEUTRAL;
    }
    let sim = edit_distance_sim(tag, fa, fb);
    // Short names provide little evidence; evidence grows with length.
    EDIT_EVIDENCE.vote(sim, fa.raw_chars.len(), fb.raw_chars.len())
}

/// [`DocVoter`]'s body.
pub(crate) fn doc_vote(a: DocView<'_>, b: DocView<'_>) -> Confidence {
    if a.is_empty() || b.is_empty() {
        return Confidence::NEUTRAL;
    }
    let cosine = a.cosine(b);
    // Calibration: a random documentation pair has cosine near 0, not
    // near 0.5, so raw cosine is a poor evidence *ratio*. The square
    // root re-centres it: cosine 0.25 ≈ "as much for as against".
    let ratio = cosine.sqrt();
    DOC_EVIDENCE.vote(ratio, a.token_count, b.token_count)
}

/// [`TypeVoter`]'s body.
pub(crate) fn type_vote(ta: DataType, tb: DataType) -> Confidence {
    type_vote_of(ta.compatibility(tb))
}

/// [`TypeVoter`]'s vote for a given type compatibility.
pub(crate) fn type_vote_of(compat: f64) -> Confidence {
    // A single type observation is modest evidence; incompatibility is
    // stronger evidence than compatibility (types rule out, they don't
    // rule in).
    let evidence = if compat < 0.2 { 3.0 } else { 1.0 };
    Confidence::from_evidence(compat, evidence, 2.0)
}

/// [`PathVoter`]'s body.
pub(crate) fn path_vote(fa: &ElementFeatures, fb: &ElementFeatures) -> Confidence {
    if fa.parent_set.is_empty() || fb.parent_set.is_empty() {
        return Confidence::NEUTRAL;
    }
    let jaccard = sorted_ids_jaccard(&fa.parent_set, &fb.parent_set);
    // Evidence counts tokens with multiplicity.
    PATH_EVIDENCE.vote(jaccard, fa.parent_len as usize, fb.parent_len as usize)
}

/// [`StructureVoter`]'s body.
pub(crate) fn structure_vote(fa: &ElementFeatures, fb: &ElementFeatures) -> Confidence {
    if fa.children_set.is_empty() || fb.children_set.is_empty() {
        return Confidence::NEUTRAL;
    }
    let jaccard = sorted_ids_jaccard(&fa.children_set, &fb.children_set);
    STRUCTURE_EVIDENCE.vote(jaccard, fa.children_len as usize, fb.children_len as usize)
}

/// [`RoleVoter`]'s body.
pub(crate) fn role_vote(ka: ElementKind, kb: ElementKind) -> Confidence {
    if ka.role_compatible(kb) {
        Confidence::NEUTRAL
    } else {
        role_clash()
    }
}

/// [`AcronymVoter`]'s body.
pub(crate) fn acronym_vote(fa: &ElementFeatures, fb: &ElementFeatures) -> Confidence {
    if !fa.raw_name_spans_two_bytes() || !fb.raw_name_spans_two_bytes() {
        return Confidence::NEUTRAL;
    }
    // Acronyms were computed and interned at prepare time; the per-pair
    // check is two integer compares (interning is injective, so id
    // equality is string equality).
    let hit = (fb.name_ids.len() >= 2 && fa.raw_name_id == fb.acronym_id)
        || (fa.name_ids.len() >= 2 && fb.raw_name_id == fa.acronym_id);
    if hit {
        ACRONYM_EVIDENCE.vote(ACRONYM_RATIO, fa.name_ids.len(), fb.name_ids.len())
    } else {
        Confidence::NEUTRAL
    }
}

/// Exact-name voter: full-credit when normalized token sequences are equal.
///
/// Evidence: the number of tokens — `id` == `id` is weak evidence, a
/// five-token equality is strong.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactNameVoter;

impl MatchVoter for ExactNameVoter {
    fn name(&self) -> &'static str {
        "exact-name"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        exact_name_vote(ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Token-overlap voter: Jaccard similarity of normalized name-token sets,
/// with evidence equal to the union size.
#[derive(Debug, Default, Clone, Copy)]
pub struct TokenVoter;

impl MatchVoter for TokenVoter {
    fn name(&self) -> &'static str {
        "name-tokens"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        token_vote(ctx.arena_tag(), ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Edit-distance voter: blend of Jaro-Winkler and normalized Levenshtein on
/// raw lowercase names, plus a Soundex tie-breaker. Catches misspellings and
/// convention drift that tokenization cannot.
#[derive(Debug, Default, Clone, Copy)]
pub struct EditDistanceVoter;

impl MatchVoter for EditDistanceVoter {
    fn name(&self) -> &'static str {
        "edit-distance"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        edit_distance_vote(ctx.arena_tag(), ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Documentation voter: TF-IDF cosine over name+documentation text.
///
/// This is the voter the paper leans on ("Harmony relies heavily on textual
/// documentation"), and the one whose evidence varies most: elements range
/// from undocumented to paragraph-length descriptions. Evidence is the
/// smaller of the two token counts — a correspondence supported by two long
/// descriptions is far more trustworthy than one supported by a long and an
/// empty one.
#[derive(Debug, Default, Clone, Copy)]
pub struct DocVoter;

impl MatchVoter for DocVoter {
    fn name(&self) -> &'static str {
        "documentation"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        doc_vote(ctx.source_doc(s), ctx.target_doc(t))
    }
}

/// Data-type voter: compatibility of normalized value types. Weak but cheap;
/// its main value is *vetoing* absurd pairs (a table vs a date column).
#[derive(Debug, Default, Clone, Copy)]
pub struct TypeVoter;

impl MatchVoter for TypeVoter {
    fn name(&self) -> &'static str {
        "data-type"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        type_vote(
            ctx.source.element(s).datatype,
            ctx.target.element(t).datatype,
        )
    }
}

/// Path voter: token overlap of the *parents'* names. `Vehicle/vin` vs
/// `VehicleType/Vin` gains support because their containers align.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathVoter;

impl MatchVoter for PathVoter {
    fn name(&self) -> &'static str {
        "path-context"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        path_vote(ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Structural voter: for container elements, overlap of the *children's*
/// combined name tokens — two tables whose columns share vocabulary likely
/// describe the same concept even when the tables' own names differ.
#[derive(Debug, Default, Clone, Copy)]
pub struct StructureVoter;

impl MatchVoter for StructureVoter {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        structure_vote(ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Role voter: containers should match containers, leaves leaves. Produces
/// negative evidence for role mismatches and stays neutral otherwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoleVoter;

impl MatchVoter for RoleVoter {
    fn name(&self) -> &'static str {
        "role"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        role_vote(ctx.source.element(s).kind, ctx.target.element(t).kind)
    }
}

/// Acronym voter: fires when one side's whole name equals the acronym of the
/// other side's token sequence (`COI` vs `community_of_interest`).
#[derive(Debug, Default, Clone, Copy)]
pub struct AcronymVoter;

impl MatchVoter for AcronymVoter {
    fn name(&self) -> &'static str {
        "acronym"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        acronym_vote(ctx.source_feat(s), ctx.target_feat(t))
    }
}

/// Instance voter: distributional similarity of sampled data values — the
/// *conventional* evidence source the paper's Harmony deliberately de-
/// emphasizes ("relies heavily on textual documentation … instead of data
/// instances"). Neutral whenever either side has no sample, which is the
/// common enterprise case; experiment F9 compares the two evidence regimes.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstanceVoter;

impl MatchVoter for InstanceVoter {
    fn name(&self) -> &'static str {
        "instances"
    }

    fn vote(&self, ctx: &MatchContext<'_>, s: ElementId, t: ElementId) -> Confidence {
        let (Some(pa), Some(pb)) = (
            ctx.source_feat(s).instances.as_ref(),
            ctx.target_feat(t).instances.as_ref(),
        ) else {
            return Confidence::NEUTRAL;
        };
        let sim = pa.similarity(pb);
        // Evidence grows with the smaller sample; profiles built from a
        // handful of rows are weak testimony.
        let evidence = pa.count.min(pb.count) as f64;
        Confidence::from_evidence(sim, evidence, 8.0)
    }
}

/// The default Harmony voter panel, in a fixed, documented order. Matches
/// the paper's design: documentation-driven, no instance evidence.
pub fn default_voters() -> Vec<Box<dyn MatchVoter>> {
    vec![
        Box::new(ExactNameVoter),
        Box::new(TokenVoter),
        Box::new(EditDistanceVoter),
        Box::new(DocVoter),
        Box::new(TypeVoter),
        Box::new(PathVoter),
        Box::new(StructureVoter),
        Box::new(RoleVoter),
        Box::new(AcronymVoter),
    ]
}

/// The default panel extended with the [`InstanceVoter`] — the conventional
/// configuration, usable when data samples exist.
pub fn voters_with_instances() -> Vec<Box<dyn MatchVoter>> {
    let mut v = default_voters();
    v.push(Box::new(InstanceVoter));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, Documentation, ElementKind, Schema, SchemaFormat, SchemaId};
    use sm_text::normalize::Normalizer;

    fn fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let ev = a.add_root("All_Event_Vitals", ElementKind::Table, DataType::None);
        let d = a
            .add_child(
                ev,
                "DATE_BEGIN_156",
                ElementKind::Column,
                DataType::DateTime,
            )
            .unwrap();
        a.set_doc(d, Documentation::embedded("date and time the event began"))
            .unwrap();
        a.add_child(ev, "event_loc", ElementKind::Column, DataType::text())
            .unwrap();
        let coi = a.add_root("COI", ElementKind::Table, DataType::None);
        a.add_child(coi, "member", ElementKind::Column, DataType::text())
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let ev2 = b.add_root("Event", ElementKind::ComplexType, DataType::None);
        let d2 = b
            .add_child(
                ev2,
                "DATETIME_FIRST_INFO",
                ElementKind::XmlElement,
                DataType::DateTime,
            )
            .unwrap();
        b.set_doc(
            d2,
            Documentation::embedded("date and time when information about the event first arrived"),
        )
        .unwrap();
        b.add_child(
            ev2,
            "EventLocation",
            ElementKind::XmlElement,
            DataType::text(),
        )
        .unwrap();
        let c = b.add_root(
            "CommunityOfInterest",
            ElementKind::ComplexType,
            DataType::None,
        );
        b.add_child(c, "MemberName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    fn ctx<'x>(a: &'x Schema, b: &'x Schema) -> MatchContext<'x> {
        MatchContext::build(a, b, &Normalizer::new())
    }

    #[test]
    fn exact_name_fires_only_on_equality() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let loc_a = a.find_by_name("event_loc").unwrap();
        let loc_b = b.find_by_name("EventLocation").unwrap();
        // event_loc expands loc→location; EventLocation tokenizes to the
        // same normalized pair → exact hit.
        let v = ExactNameVoter.vote(&c, loc_a, loc_b);
        assert!(v.value() > 0.5, "{v}");
        let date_a = a.find_by_name("DATE_BEGIN_156").unwrap();
        let v2 = ExactNameVoter.vote(&c, date_a, loc_b);
        assert!(v2.value() < 0.0);
    }

    #[test]
    fn token_voter_scores_partial_overlap_between_extremes() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let date_a = a.find_by_name("DATE_BEGIN_156").unwrap();
        let date_b = b.find_by_name("DATETIME_FIRST_INFO").unwrap();
        let loc_b = b.find_by_name("EventLocation").unwrap();
        let related = TokenVoter.vote(&c, date_a, date_b);
        let unrelated = TokenVoter.vote(&c, date_a, loc_b);
        assert!(
            related.value() > unrelated.value(),
            "related {related} vs unrelated {unrelated}"
        );
    }

    #[test]
    fn doc_voter_uses_documentation_and_needs_it() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let date_a = a.find_by_name("DATE_BEGIN_156").unwrap();
        let date_b = b.find_by_name("DATETIME_FIRST_INFO").unwrap();
        let v = DocVoter.vote(&c, date_a, date_b);
        assert!(v.value() > 0.0, "shared doc vocabulary: {v}");
        // An unrelated documented pair must score below the related one.
        let member_b = b.find_by_name("MemberName").unwrap();
        let unrelated = DocVoter.vote(&c, date_a, member_b);
        assert!(unrelated.value() < v.value());
    }

    #[test]
    fn type_voter_vetoes_structural_vs_leaf() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let table = a.find_by_name("All_Event_Vitals").unwrap();
        let leaf = b.find_by_name("DATETIME_FIRST_INFO").unwrap();
        assert!(TypeVoter.vote(&c, table, leaf).value() < -0.3);
        let date_a = a.find_by_name("DATE_BEGIN_156").unwrap();
        assert!(TypeVoter.vote(&c, date_a, leaf).value() > 0.0);
    }

    #[test]
    fn path_voter_rewards_matching_containers() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let date_a = a.find_by_name("DATE_BEGIN_156").unwrap();
        let date_b = b.find_by_name("DATETIME_FIRST_INFO").unwrap();
        let member_b = b.find_by_name("MemberName").unwrap();
        let same_ctx = PathVoter.vote(&c, date_a, date_b);
        let diff_ctx = PathVoter.vote(&c, date_a, member_b);
        assert!(same_ctx.value() > diff_ctx.value());
        // Roots have no parents → neutral.
        let t = a.find_by_name("COI").unwrap();
        let e = b.find_by_name("Event").unwrap();
        assert!(PathVoter.vote(&c, t, e).is_neutral());
    }

    #[test]
    fn structure_voter_compares_children_vocabulary() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let ev_a = a.find_by_name("All_Event_Vitals").unwrap();
        let ev_b = b.find_by_name("Event").unwrap();
        let coi_b = b.find_by_name("CommunityOfInterest").unwrap();
        let good = StructureVoter.vote(&c, ev_a, ev_b);
        let bad = StructureVoter.vote(&c, ev_a, coi_b);
        assert!(good.value() > bad.value(), "good {good} bad {bad}");
        // Leaves have no children → neutral.
        let leaf = a.find_by_name("member").unwrap();
        assert!(StructureVoter.vote(&c, leaf, ev_b).is_neutral());
    }

    #[test]
    fn role_voter_penalizes_container_leaf() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let table = a.find_by_name("COI").unwrap();
        let leaf = b.find_by_name("MemberName").unwrap();
        assert!(RoleVoter.vote(&c, table, leaf).value() < 0.0);
        let ct = b.find_by_name("CommunityOfInterest").unwrap();
        assert!(RoleVoter.vote(&c, table, ct).is_neutral());
    }

    #[test]
    fn acronym_voter_fires_on_coi() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        let coi = a.find_by_name("COI").unwrap();
        let full = b.find_by_name("CommunityOfInterest").unwrap();
        let v = AcronymVoter.vote(&c, coi, full);
        assert!(v.value() > 0.5, "{v}");
        let ev = b.find_by_name("Event").unwrap();
        assert!(AcronymVoter.vote(&c, coi, ev).is_neutral());
    }

    #[test]
    fn edit_distance_handles_misspellings() {
        let mut a = Schema::new(SchemaId(1), "a", SchemaFormat::Generic);
        a.add_root("organisation_name", ElementKind::Group, DataType::text());
        let mut b = Schema::new(SchemaId(2), "b", SchemaFormat::Generic);
        b.add_root("organization_name", ElementKind::Group, DataType::text());
        b.add_root("weapon_code", ElementKind::Group, DataType::text());
        let c = ctx(&a, &b);
        let s = a.find_by_name("organisation_name").unwrap();
        let close = b.find_by_name("organization_name").unwrap();
        let far = b.find_by_name("weapon_code").unwrap();
        let v_close = EditDistanceVoter.vote(&c, s, close);
        let v_far = EditDistanceVoter.vote(&c, s, far);
        assert!(v_close.value() > 0.5, "{v_close}");
        assert!(v_close.value() > v_far.value());
    }

    #[test]
    fn all_default_voters_bounded() {
        let (a, b) = fixture();
        let c = ctx(&a, &b);
        for voter in default_voters() {
            for s in a.ids() {
                for t in b.ids() {
                    let v = voter.vote(&c, s, t);
                    assert!(
                        v.value() > -1.0 && v.value() < 1.0,
                        "{} out of range: {v}",
                        voter.name()
                    );
                }
            }
        }
    }

    #[test]
    fn voter_names_unique() {
        let names: Vec<&str> = default_voters().iter().map(|v| v.name()).collect();
        let set: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(names.len(), set.len());
    }
}
