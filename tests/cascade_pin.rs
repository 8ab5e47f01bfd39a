//! Contract of the score cascade (`harmony_core`'s tier-1 bound prefilter
//! plus SoA tier-2 batch scoring): the cascade is a *work skipper*, never a
//! semantics change.
//!
//! * With a score floor set, the cascade-on blocked run must be
//!   byte-identical to the cascade-off reference (full voter panel on every
//!   candidate, floor applied at merge) — matrices and selections alike,
//!   across seeds, blocking policies, executor widths, and floors.
//! * A restricted increment (`MatchEngine::run_restricted`) runs the same
//!   Score/Merge/Propagate over an id rectangle: its pairs are the
//!   exhaustive run's cells bit for bit, under every floor, with the
//!   cascade on or off, at every executor width.
//! * The signature popcount bound that powers tier 1 must dominate the true
//!   token Jaccard for arbitrary id sets (property-tested).
//! * On adversarial names — either side of the 64-char Jaro/Levenshtein
//!   fast path, combining marks and other non-ASCII text, single-char
//!   tokens, empty docs — tier 1 never prunes a pair the full panel scores
//!   at or above the floor (property-tested).

use harmony_core::index::BlockingPolicy;
use harmony_core::prelude::*;
use harmony_core::select::Selection;
use proptest::prelude::*;
use sm_schema::{DataType, Documentation, ElementId, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::bounds::{id_signature, signature_intersection_bound, signature_jaccard_bound};
use sm_text::intern::{sorted_ids_jaccard, TokenId};
use sm_text::normalize::Normalizer;
use std::sync::Arc;

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere.
    MatchEngine::new().with_normalizer(Normalizer::new())
}

/// Pin: across seeds × policies × thread counts, the cascade changes no
/// byte of the merged matrix and no selected correspondence. Also checks
/// the cascade actually skips work somewhere (the skip-rate floor the CI
/// gate enforces at paper scale).
#[test]
fn cascade_blocked_run_is_byte_identical_to_reference() {
    let mut total_pruned = 0u64;
    for seed in [3u64, 17, 42] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.08));
        for policy in [BlockingPolicy::default(), BlockingPolicy::Exhaustive] {
            for threads in [1usize, 4] {
                let cascade = engine().with_threads(threads).with_score_floor(Some(0.0));
                let reference = engine()
                    .with_threads(threads)
                    .with_score_floor(Some(0.0))
                    .with_cascade(false);
                assert!(cascade.cascade_active());
                assert!(!reference.cascade_active());

                let got = cascade
                    .pipeline()
                    .run_blocked(&pair.source, &pair.target, &policy);
                let want = reference
                    .pipeline()
                    .run_blocked(&pair.source, &pair.target, &policy);
                assert_eq!(
                    got.matrix.as_slice(),
                    want.matrix.as_slice(),
                    "cascade diverged (seed {seed}, {policy:?}, {threads} threads)"
                );

                let selection = Selection::OneToOne {
                    min: Confidence::new(0.30),
                };
                let sel_got = selection.apply(&got.matrix);
                let sel_want = selection.apply(&want.matrix);
                assert_eq!(
                    sel_got.all(),
                    sel_want.all(),
                    "selections diverged (seed {seed}, {policy:?}, {threads} threads)"
                );

                // Counter bookkeeping: the two tiers partition the scored
                // pairs and the Score stage time.
                assert_eq!(
                    got.timings.pairs_pruned + got.timings.pairs_full,
                    got.pairs_scored as u64
                );
                assert_eq!(
                    got.timings.score,
                    got.timings.score_tier1 + got.timings.score_tier2
                );
                assert_eq!(want.timings.pairs_pruned, 0, "reference must not prune");
                total_pruned += got.timings.pairs_pruned;
            }
        }
    }
    assert!(
        total_pruned > 0,
        "cascade never pruned a pair across the whole matrix of runs"
    );
}

/// Pin: a *positive* floor (the general branch of the merged-score bound,
/// not the sign-only zero-floor specialization) is lossless too.
#[test]
fn cascade_with_positive_floor_is_byte_identical_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(7, 0.08));
    for floor in [0.05, 0.30] {
        let cascade = engine().with_threads(2).with_score_floor(Some(floor));
        let reference = engine()
            .with_threads(2)
            .with_score_floor(Some(floor))
            .with_cascade(false);
        let got =
            cascade
                .pipeline()
                .run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
        let want = reference.pipeline().run_blocked(
            &pair.source,
            &pair.target,
            &BlockingPolicy::default(),
        );
        assert_eq!(
            got.matrix.as_slice(),
            want.matrix.as_slice(),
            "cascade diverged at floor {floor}"
        );
    }
}

/// Pin: the floored dense pipeline (full panel, no cascade) and the
/// floored exhaustive blocked pipeline (cascade) agree byte-for-byte —
/// the strongest cross-path check, since the two never share a code path
/// past the voter kernels.
#[test]
fn cascade_exhaustive_matches_floored_dense_run() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.08));
    let engine = engine().with_threads(3).with_score_floor(Some(0.0));
    let dense = engine.pipeline().run(&pair.source, &pair.target);
    let blocked =
        engine
            .pipeline()
            .run_blocked(&pair.source, &pair.target, &BlockingPolicy::Exhaustive);
    assert_eq!(dense.matrix.as_slice(), blocked.matrix.as_slice());
}

/// Pin: restricted increments read the exhaustive run's cells. Across
/// seeds × floors × cascade on/off × executor widths, `run_restricted`
/// returns one pair per `source_ids × target_ids` entry, in caller order
/// (repeats included), scored bit-for-bit as the exhaustive `run` scores
/// that cell. Source filters are concept subtrees (also reversed, with a
/// repeated id) and the depth-2 attributes; target filters are the whole
/// schema and the depth-2 attributes alone, whose parents lie outside the
/// rectangle.
#[test]
fn restricted_pairs_are_exhaustive_run_cells() {
    let pools: Vec<(usize, Arc<Executor>)> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| (threads, Arc::new(Executor::new(threads))))
        .collect();
    for seed in [3u64, 17, 42] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.08));
        let (source, target) = (&pair.source, &pair.target);
        let mut source_sets: Vec<Vec<ElementId>> = pair
            .source_anchors
            .iter()
            .take(3)
            .map(|&(anchor, _)| NodeFilter::subtree(anchor).select(source))
            .collect();
        let mut reordered = source_sets[0].clone();
        reordered.reverse();
        reordered.push(reordered[0]);
        source_sets.push(reordered);
        source_sets.push(NodeFilter::at_depth(2).select(source));
        let all = NodeFilter::All.select(target);
        let attributes = NodeFilter::at_depth(2).select(target);
        assert!(attributes.iter().all(|&t| target
            .element(t)
            .parent
            .is_some_and(|p| !attributes.contains(&p))));

        for floor in [None, Some(0.0), Some(0.30)] {
            for cascade in [true, false] {
                for (threads, pool) in &pools {
                    let engine = engine()
                        .with_executor(Arc::clone(pool))
                        .with_threads(*threads)
                        .with_score_floor(floor)
                        .with_cascade(cascade);
                    let full = engine.run(source, target);
                    let ctx = engine.build_context(source, target);
                    for source_ids in &source_sets {
                        for target_ids in [&all, &attributes] {
                            let got = engine.run_restricted(&ctx, source_ids, target_ids);
                            let want: Vec<(ElementId, ElementId, u64)> = source_ids
                                .iter()
                                .flat_map(|&s| target_ids.iter().map(move |&t| (s, t)))
                                .map(|(s, t)| (s, t, full.matrix.get(s, t).value().to_bits()))
                                .collect();
                            let got: Vec<(ElementId, ElementId, u64)> = got
                                .pairs
                                .iter()
                                .map(|&(s, t, c)| (s, t, c.value().to_bits()))
                                .collect();
                            assert!(
                                got == want,
                                "restricted cells diverged from the exhaustive run (seed \
                                 {seed}, floor {floor:?}, cascade {cascade}, {threads} \
                                 threads, {} x {} ids)",
                                source_ids.len(),
                                target_ids.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A non-default voter panel deactivates the cascade (its bounds are
/// derived from the default panel's formulas) but keeps the floor.
#[test]
fn non_default_panel_keeps_floor_but_not_cascade() {
    let with_panel = MatchEngine::new()
        .with_voters(harmony_core::voter::default_voters())
        .with_score_floor(Some(0.0));
    assert!(!with_panel.cascade_active());
}

/// Name stems that stress the tier-1 bounds: combining marks and other
/// non-ASCII text, single-char tokens, acronyms, and near-duplicates.
const STEMS: [&str; 16] = [
    "customer_id",
    "CustomerId",
    "cust_nm",
    "DATE_BEGIN_156",
    "date_begin",
    "cafe\u{301}_name",
    "caf\u{e9}_name",
    "Gr\u{f6}\u{df}e",
    "\u{6570}\u{636e}_id",
    "a_b_c",
    "x",
    "q_1",
    "A_B",
    "coi",
    "community_of_interest",
    "r\u{e9}sume\u{301}_date",
];

/// Docs, including empty and absent ones.
const DOCS: [Option<&str>; 5] = [
    None,
    Some(""),
    Some("the date the customer account began"),
    Some("identifiant du caf\u{e9} \u{2014} na\u{ef}ve r\u{e9}sum\u{e9}"),
    Some("a b c x"),
];

/// A small deterministic generator driven by the proptest seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// A name: a stem, or a long name cut to 63, 64 or 65 chars (either
    /// side of the 64-char fast path), sometimes with one char changed.
    fn name(&mut self) -> String {
        let stem = STEMS[self.below(STEMS.len())];
        if self.below(3) > 0 {
            return stem.to_string();
        }
        let len = 63 + self.below(3);
        let mut chars: Vec<char> = stem.chars().chain("_".chars()).cycle().take(len).collect();
        if self.below(2) == 0 {
            let at = self.below(len);
            chars[at] = if chars[at] == 'z' { 'y' } else { 'z' };
        }
        chars.into_iter().collect()
    }
}

/// A two-level schema of `tables` containers with a few children each.
fn adversarial_schema(id: u32, draw: &mut Draw, tables: usize, xml: bool) -> Schema {
    let (format, container, leaf) = if xml {
        (
            SchemaFormat::Xml,
            ElementKind::ComplexType,
            ElementKind::XmlElement,
        )
    } else {
        (
            SchemaFormat::Relational,
            ElementKind::Table,
            ElementKind::Column,
        )
    };
    let types = [
        DataType::Integer,
        DataType::text(),
        DataType::varchar(20),
        DataType::Date,
    ];
    let mut schema = Schema::new(SchemaId(id), format!("adversarial_{id}"), format);
    let doc = |schema: &mut Schema, draw: &mut Draw, e: ElementId| {
        if let Some(text) = DOCS[draw.below(DOCS.len())] {
            schema
                .set_doc(e, Documentation::embedded(text))
                .expect("element exists");
        }
    };
    for _ in 0..tables {
        let root = schema.add_root(draw.name(), container, DataType::None);
        doc(&mut schema, draw, root);
        for _ in 0..1 + draw.below(4) {
            let dt = types[draw.below(types.len())];
            let child = schema
                .add_child(root, draw.name(), leaf, dt)
                .expect("parent exists");
            doc(&mut schema, draw, child);
        }
    }
    schema
}

fn sorted_set(ids: Vec<u32>) -> Vec<TokenId> {
    let mut ids: Vec<TokenId> = ids.into_iter().map(TokenId).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tier 1 is sound on adversarial names: at floors 0.0 and 0.3, the
    /// cascade-on blocked and exhaustive matrices equal the cascade-off
    /// reference's, so no pruned pair had a full-panel merged score at or
    /// above the floor.
    #[test]
    fn cascade_is_lossless_on_adversarial_names(seed in any::<u64>()) {
        let mut draw = Draw(seed);
        let (n_source, n_target) = (1 + draw.below(4), 1 + draw.below(4));
        let source = adversarial_schema(1, &mut draw, n_source, false);
        let target = adversarial_schema(2, &mut draw, n_target, true);
        for floor in [0.0, 0.3] {
            let cascade = engine().with_score_floor(Some(floor));
            let reference = engine().with_score_floor(Some(floor)).with_cascade(false);
            for policy in [BlockingPolicy::default(), BlockingPolicy::Exhaustive] {
                let got = cascade.pipeline().run_blocked(&source, &target, &policy);
                let want = reference.pipeline().run_blocked(&source, &target, &policy);
                prop_assert_eq!(
                    got.matrix.as_slice(),
                    want.matrix.as_slice(),
                    "cascade diverged (seed {:#x}, floor {}, {:?})",
                    seed,
                    floor,
                    policy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 128-bit signature bounds dominate the exact set statistics for
    /// arbitrary id sets: intersection bound ≥ true intersection size,
    /// Jaccard bound ≥ true Jaccard.
    #[test]
    fn signature_bounds_dominate_exact_overlap(
        a in proptest::collection::vec(0u32..5_000, 0..40),
        b in proptest::collection::vec(0u32..5_000, 0..40),
    ) {
        let a = sorted_set(a);
        let b = sorted_set(b);
        let (sa, sb) = (id_signature(&a), id_signature(&b));

        let truth = a.iter().filter(|id| b.binary_search(id).is_ok()).count();
        let inter_bound = signature_intersection_bound(sa, a.len(), sb, b.len());
        prop_assert!(
            inter_bound >= truth,
            "intersection bound {inter_bound} < true {truth}"
        );

        if !a.is_empty() && !b.is_empty() {
            let jacc_bound = signature_jaccard_bound(sa, a.len(), sb, b.len());
            let jacc = sorted_ids_jaccard(&a, &b);
            prop_assert!(
                jacc_bound >= jacc,
                "jaccard bound {jacc_bound} < true {jacc}"
            );
        }
    }
}
