//! Pin: the blocking index (`harmony_core::index`) answers exactly what
//! its policy documents. The oracle here is a brute-force restatement of
//! that policy over every `(source, target)` pair — no posting lists, no
//! probe kernel, nothing imported from the index but the policy enum it is
//! configured with. Candidate generation — inline at one lane or fanned out
//! across executor lanes, with per-pair or pre-built indices — must produce
//! exactly the oracle's candidate set across seeds × policies × thread
//! counts, and the CSR store must hold exactly the oracle's posting lists,
//! IDF weight bits and exact-name postings.

use harmony_core::exec::Executor;
use harmony_core::index::{generate_candidates, BlockingPolicy, ElementTokenIndex};
use harmony_core::prelude::*;
use harmony_core::prepare::PreparedSchema;
use proptest::prelude::*;
use sm_schema::{DataType, Documentation, ElementId, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::intern::TokenId;
use sm_text::normalize::Normalizer;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The brute-force oracle. Its law and constants are restated from the
// documentation of `BlockingPolicy`, `generate_candidates` and the child
// rescue in `crates/core/src/index.rs`, not imported.
// ---------------------------------------------------------------------------

/// Smoothed IDF weight of a feature held by `df` of `n` elements.
fn idf(n: usize, df: usize) -> f64 {
    ((n as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
}

/// Overlap weight at which a pair of containers rescues its children.
const CHILD_RESCUE_WEIGHT: f64 = 5.0;

/// Strongest partners per container that fan out to children.
const CHILD_RESCUE_PARTNERS: usize = 3;

/// Each feature's document frequency over one side.
fn document_frequencies(side: &PreparedSchema) -> HashMap<TokenId, usize> {
    let mut df = HashMap::new();
    for idx in 0..side.len() {
        for &feat in side.block_features_of(idx) {
            *df.entry(feat).or_insert(0) += 1;
        }
    }
    df
}

/// `w[a][b]`: the overlap weight of element `a` of `from` with element `b`
/// of `to` — the IDF weights over `to` of every feature of `a` that `b`
/// also holds, summed in `a`'s feature order — or `None` when the two
/// share no feature.
fn overlaps(from: &PreparedSchema, to: &PreparedSchema) -> Vec<Vec<Option<f64>>> {
    let df = document_frequencies(to);
    (0..from.len())
        .map(|a| {
            (0..to.len())
                .map(|b| {
                    let mut w = None;
                    for feat in from.block_features_of(a) {
                        if to.block_features_of(b).contains(feat) {
                            *w.get_or_insert(0.0) += idf(to.len(), df[feat]);
                        }
                    }
                    w
                })
                .collect()
        })
        .collect()
}

/// The opposites one probing element keeps under a non-exhaustive policy,
/// with their overlap weights.
fn kept(row: &[Option<f64>], policy: &BlockingPolicy) -> Vec<(usize, f64)> {
    let shared = row
        .iter()
        .enumerate()
        .filter_map(|(b, w)| w.map(|w| (b, w)));
    match *policy {
        BlockingPolicy::WeightedThreshold { min_weight } => {
            shared.filter(|&(_, w)| w >= min_weight).collect()
        }
        BlockingPolicy::TopK { k, min_weight } => {
            let mut ranked: Vec<(usize, f64)> = shared.collect();
            ranked.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
            ranked
                .into_iter()
                .enumerate()
                .filter(|&(rank, (_, w))| rank < k || w >= min_weight)
                .map(|(_, kept)| kept)
                .collect()
        }
        BlockingPolicy::Exhaustive => unreachable!("exhaustive keeps every pair"),
    }
}

/// Pairwise overlap weights of one schema pair in both probe directions,
/// computed once and shared by every policy.
struct Overlaps {
    forward: Vec<Vec<Option<f64>>>,
    backward: Vec<Vec<Option<f64>>>,
}

impl Overlaps {
    fn new(ps: &PreparedSchema, pt: &PreparedSchema) -> Self {
        Overlaps {
            forward: overlaps(ps, pt),
            backward: overlaps(pt, ps),
        }
    }
}

fn children(schema: &Schema, idx: usize) -> &[ElementId] {
    &schema.elements()[idx].children
}

fn parent(schema: &Schema, idx: usize) -> Option<usize> {
    schema.elements()[idx].parent.map(|p| p.index())
}

/// The candidate set `policy` defines for `source` × `target`, as sorted
/// `(source, target)` element indices.
fn oracle(
    source: &Schema,
    target: &Schema,
    ps: &PreparedSchema,
    pt: &PreparedSchema,
    weights: &Overlaps,
    policy: &BlockingPolicy,
) -> Vec<(usize, usize)> {
    let (rows, cols) = (source.len(), target.len());
    if matches!(policy, BlockingPolicy::Exhaustive) {
        return (0..rows)
            .flat_map(|s| (0..cols).map(move |t| (s, t)))
            .collect();
    }
    // Both probe directions, unioned; each direction's kept pairs with
    // their weights feed the child rescue.
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut probed: Vec<(usize, usize, f64)> = Vec::new();
    for (s, row) in weights.forward.iter().enumerate() {
        probed.extend(kept(row, policy).into_iter().map(|(t, w)| (s, t, w)));
    }
    for (t, row) in weights.backward.iter().enumerate() {
        probed.extend(kept(row, policy).into_iter().map(|(s, w)| (s, t, w)));
    }
    pairs.extend(probed.iter().map(|&(s, t, _)| (s, t)));

    // Exact-name rescue: equal, non-empty normalized name-token sequences.
    for s in 0..rows {
        for t in 0..cols {
            let name = &ps.element(s).name_ids;
            if !name.is_empty() && *name == pt.element(t).name_ids {
                pairs.insert((s, t));
            }
        }
    }

    // Child rescue: strong container pairs at their strongest weight,
    // walked by weight descending then pair ascending, each container
    // fanning out to at most `CHILD_RESCUE_PARTNERS` partners.
    let mut strongest: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(s, t, w) in &probed {
        let containers = !children(source, s).is_empty() && !children(target, t).is_empty();
        if containers && w >= CHILD_RESCUE_WEIGHT {
            let best = strongest.entry((s, t)).or_insert(w);
            *best = best.max(w);
        }
    }
    let mut strong: Vec<((usize, usize), f64)> = strongest.into_iter().collect();
    strong.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
    let (mut source_partners, mut target_partners) = (vec![0; rows], vec![0; cols]);
    for ((s, t), _) in strong {
        if source_partners[s] < CHILD_RESCUE_PARTNERS && target_partners[t] < CHILD_RESCUE_PARTNERS
        {
            source_partners[s] += 1;
            target_partners[t] += 1;
            for cs in children(source, s) {
                for ct in children(target, t) {
                    pairs.insert((cs.index(), ct.index()));
                }
            }
        }
    }

    // Parent closure, transitively up to the roots.
    let mut frontier: Vec<(usize, usize)> = pairs.iter().copied().collect();
    while let Some((s, t)) = frontier.pop() {
        if let (Some(ps), Some(pt)) = (parent(source, s), parent(target, t)) {
            if pairs.insert((ps, pt)) {
                frontier.push((ps, pt));
            }
        }
    }
    pairs.into_iter().collect()
}

/// A candidate set's pairs, in row-major order.
fn pairs_of(candidates: &CandidateSet) -> Vec<(usize, usize)> {
    (0..candidates.rows())
        .flat_map(|s| candidates.row(s).iter().map(move |&t| (s, t as usize)))
        .collect()
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere.
    MatchEngine::new().with_normalizer(Normalizer::new())
}

fn policies() -> Vec<BlockingPolicy> {
    vec![
        BlockingPolicy::default(),
        BlockingPolicy::TopK {
            k: 3,
            min_weight: 4.0,
        },
        BlockingPolicy::TopK {
            k: 1,
            min_weight: f64::INFINITY,
        },
        // No rank slots: exactly the pairs at or above the bound.
        BlockingPolicy::TopK {
            k: 0,
            min_weight: 6.0,
        },
        // Fewer than k clear the bound: the weak candidates fill the
        // remaining slots by rank.
        BlockingPolicy::TopK {
            k: 64,
            min_weight: 3.0,
        },
        // A bound every touched candidate clears.
        BlockingPolicy::TopK {
            k: 24,
            min_weight: 0.0,
        },
        BlockingPolicy::WeightedThreshold { min_weight: 2.5 },
        BlockingPolicy::WeightedThreshold { min_weight: 8.0 },
        // The probe keeps nothing: exact-name pairs and their closure only,
        // so container rows hold pairs through the closure alone.
        BlockingPolicy::WeightedThreshold {
            min_weight: f64::INFINITY,
        },
        BlockingPolicy::Exhaustive,
    ]
}

/// `generate_candidates` on one pair yields the oracle's set under every
/// policy in `policies`, at executor widths 1 (the inline path), 2 and 8,
/// with per-pair index builds and with pre-built indices.
fn assert_pinned_under(source: &Schema, target: &Schema, label: &str, policies: &[BlockingPolicy]) {
    let engine = engine();
    let ps = engine.prepare(source);
    let pt = engine.prepare(target);
    let weights = Overlaps::new(&ps, &pt);
    for policy in policies {
        let expect = oracle(source, target, &ps, &pt, &weights, policy);
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(threads);
            let indices = (
                ElementTokenIndex::build_parallel(&ps, &exec, threads),
                ElementTokenIndex::build_parallel(&pt, &exec, threads),
            );
            for prebuilt in [None, Some((&indices.0, &indices.1))] {
                let got = generate_candidates(
                    source,
                    target,
                    &ps,
                    &pt,
                    prebuilt,
                    policy,
                    Job::new(&exec, threads),
                );
                assert_eq!((got.rows(), got.cols()), (source.len(), target.len()));
                assert_eq!(
                    pairs_of(&got),
                    expect,
                    "candidates diverged at {threads} lanes, prebuilt {} ({label}, {policy:?})",
                    prebuilt.is_some()
                );
            }
        }
    }
}

fn assert_pinned(source: &Schema, target: &Schema, label: &str) {
    assert_pinned_under(source, target, label, &policies());
}

/// The CSR store holds exactly the oracle's index of `prepared`: every
/// feature's posting list (ascending elements holding it), its IDF weight
/// bits, the distinct-feature count (no phantom features), and every
/// element's exact-name postings. Features of `other` this side lacks have
/// no postings and the `df = 0` weight.
fn assert_store_pinned(prepared: &PreparedSchema, other: &PreparedSchema) {
    let csr = ElementTokenIndex::build(prepared);
    let n = prepared.len();
    assert_eq!(csr.len(), n);
    let df = document_frequencies(prepared);
    for (&feat, &count) in &df {
        let holders: Vec<u32> = (0..n as u32)
            .filter(|&idx| prepared.block_features_of(idx as usize).contains(&feat))
            .collect();
        assert_eq!(csr.postings_by_id(feat), holders.as_slice());
        assert_eq!(
            csr.weight_by_id(feat).to_bits(),
            idf(n, count).to_bits(),
            "weight bits diverged for feature {feat:?}"
        );
    }
    assert_eq!(csr.feature_count(), df.len(), "phantom or lost features");
    for idx in 0..other.len() {
        for feat in other.block_features_of(idx) {
            if !df.contains_key(feat) {
                assert!(csr.postings_by_id(*feat).is_empty());
                assert_eq!(csr.weight_by_id(*feat).to_bits(), idf(n, 0).to_bits());
            }
        }
    }
    for side in [prepared, other] {
        for idx in 0..side.len() {
            let name = side.element(idx).name_ids.as_slice();
            let namesakes: Vec<u32> = (0..n as u32)
                .filter(|&e| !name.is_empty() && prepared.element(e as usize).name_ids == name)
                .collect();
            assert_eq!(csr.name_postings(name), namesakes.as_slice());
        }
    }
}

/// Candidate sets equal the oracle's across seeds × policies × executor
/// widths. Scale 0.06 fits the post-probe passes in one chunk (they run
/// inline); the scale-0.5 pair has more source rows, and more containers
/// on one tree level, than a chunk holds, so row assembly and parent
/// closure fan out across the lanes.
#[test]
fn csr_candidates_pin_to_reference_across_seeds_policies_threads() {
    for (seed, scale) in [(1u64, 0.06), (29, 0.06), (404, 0.06), (7, 0.5)] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, scale));
        assert_pinned(
            &pair.source,
            &pair.target,
            &format!("seed {seed}, scale {scale}"),
        );
    }
}

/// A hand-built pair: acronym (`COI` ↔ `CommunityOfInterest`), doc-token
/// and exact-name (`last_name` ↔ `LastName`) evidence across a relational
/// and an XML schema.
fn fixture() -> (Schema, Schema) {
    let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
    let p = a.add_root("Person", ElementKind::Table, DataType::None);
    let pid = a
        .add_child(p, "person_id", ElementKind::Column, DataType::Integer)
        .unwrap();
    a.set_doc(pid, Documentation::embedded("unique person identifier"))
        .unwrap();
    a.add_child(p, "last_name", ElementKind::Column, DataType::varchar(40))
        .unwrap();
    let c = a.add_root("COI", ElementKind::Table, DataType::None);
    a.add_child(c, "member", ElementKind::Column, DataType::text())
        .unwrap();

    let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
    let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
    b.add_child(
        p2,
        "PersonIdentifier",
        ElementKind::XmlElement,
        DataType::Integer,
    )
    .unwrap();
    b.add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
        .unwrap();
    let c2 = b.add_root(
        "CommunityOfInterest",
        ElementKind::ComplexType,
        DataType::None,
    );
    b.add_child(c2, "MemberName", ElementKind::XmlElement, DataType::text())
        .unwrap();
    (a, b)
}

/// The hand-built fixture pins too, in both directions, under the shared
/// policies plus two tight ones sized to its handful of elements; its
/// store round-trips the oracle's index.
#[test]
fn csr_generation_matches_reference_on_fixture() {
    let (a, b) = fixture();
    let mut tight = policies();
    tight.extend([
        BlockingPolicy::TopK {
            k: 2,
            min_weight: 3.0,
        },
        BlockingPolicy::WeightedThreshold { min_weight: 2.0 },
    ]);
    assert_pinned_under(&a, &b, "fixture", &tight);
    assert_pinned_under(&b, &a, "fixture reversed", &tight);
    let engine = engine();
    let (pa, pb) = (engine.prepare(&a), engine.prepare(&b));
    assert_store_pinned(&pa, &pb);
    assert_store_pinned(&pb, &pa);
}

/// `schema` one level deeper: every `group` consecutive roots move under a
/// new root container named `{level}_{i}`.
fn deepened(schema: &Schema, group: usize, level: &str) -> Schema {
    fn copy(from: &Schema, id: ElementId, to: &mut Schema, parent: ElementId) {
        let e = from.element(id);
        let copied = to
            .add_child(parent, e.name.clone(), e.kind, e.datatype)
            .expect("parent exists");
        if let Some(doc) = &e.doc {
            to.set_doc(copied, doc.clone()).expect("element exists");
        }
        for &child in &e.children {
            copy(from, child, to, copied);
        }
    }
    let mut deep = Schema::new(schema.id, format!("{}_deep", schema.name), schema.format);
    for (i, roots) in schema.roots().chunks(group).enumerate() {
        let top = deep.add_root(format!("{level}_{i}"), ElementKind::Group, DataType::None);
        for &root in roots {
            copy(schema, root, &mut deep, top);
        }
    }
    deep
}

/// The parent closure walks the source tree one level at a time, and the
/// generated schemata are two levels deep: regroup them under extra
/// container levels (four levels on one side, three on the other) and pin
/// both directions. The new levels share no name across the sides, so
/// under the infinite threshold they hold pairs through the closure alone.
#[test]
fn deep_trees_pin_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(5, 0.5));
    let source = deepened(&deepened(&pair.source, 3, "department"), 2, "division");
    let target = deepened(&pair.target, 4, "region");
    assert_pinned(&source, &target, "four-level source");
    assert_pinned(&target, &source, "three-level source");
}

/// The full blocked pipeline carries the pinned candidate sets: the
/// `BlockedMatchResult` scores exactly the oracle's candidates at every pool
/// width, so blocked matrices stay byte-identical across thread counts.
#[test]
fn blocked_pipeline_candidates_pin_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(7, 0.06));
    let policy = BlockingPolicy::default();
    let serial = engine().with_threads(1);
    let ps = serial.prepare(&pair.source);
    let pt = serial.prepare(&pair.target);
    let weights = Overlaps::new(&ps, &pt);
    let expect = oracle(&pair.source, &pair.target, &ps, &pt, &weights, &policy);
    let baseline = serial.run_blocked(&pair.source, &pair.target, &policy);
    assert_eq!(pairs_of(&baseline.candidates), expect);
    for threads in [2usize, 8] {
        let engine = engine()
            .with_executor(Arc::new(Executor::new(threads)))
            .with_threads(threads);
        let run = engine.run_blocked(&pair.source, &pair.target, &policy);
        assert_eq!(
            pairs_of(&run.candidates),
            expect,
            "pipeline candidates diverged at {threads} threads"
        );
        assert_eq!(
            run.matrix.as_slice(),
            baseline.matrix.as_slice(),
            "blocked matrix diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CSR store of either side of a generated pair holds exactly the
    /// oracle's postings, weight bits, feature count and name postings.
    #[test]
    fn csr_store_round_trips_reference_postings_and_weights(
        seed in 0u64..10_000,
        scale_pct in 2u32..8,
    ) {
        let config = GeneratorConfig::paper_case_study(seed, f64::from(scale_pct) / 100.0);
        let pair = SchemaPair::generate(&config);
        let engine = engine();
        let (ps, pt) = (engine.prepare(&pair.source), engine.prepare(&pair.target));
        assert_store_pinned(&ps, &pt);
        assert_store_pinned(&pt, &ps);
    }
}

/// Each preparation's cached token index, built by its first blocked use —
/// a blocked candidate generation or a batch plan — is the standalone
/// build field for field: on the case-study pair, on the N=100 vocabulary
/// corpus and on an empty schema.
#[test]
fn cached_index_is_the_standalone_build() {
    fn assert_cached(prepared: &PreparedSchema, label: &str) {
        let cached = prepared
            .built_token_index()
            .unwrap_or_else(|| panic!("{label}: no cached index"));
        assert!(*cached == ElementTokenIndex::build(prepared), "{label}");
    }
    let exec = Executor::new(2);
    let engine = engine()
        .with_executor(Arc::new(Executor::new(2)))
        .with_threads(2);

    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(42, 1.0));
    let (ps, pt) = (engine.prepare(&pair.source), engine.prepare(&pair.target));
    let policy = BlockingPolicy::default();
    generate_candidates(
        &pair.source,
        &pair.target,
        &ps,
        &pt,
        None,
        &policy,
        Job::new(&exec, 2),
    );
    assert_cached(&ps, "case-study source");
    assert_cached(&pt, "case-study target");

    let corpus = sm_synth::SyntheticRepository::generate(&sm_synth::RepositoryConfig {
        seed: 2031,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    });
    let empty = Schema::new(SchemaId(9_999), "Empty", SchemaFormat::Generic);
    let refs: Vec<&Schema> = corpus.schemas.iter().chain([&empty]).collect();
    assert_eq!(refs.len(), 101);
    let batch = engine
        .batch()
        .with_plan_policy(PlanPolicy::OverlapThreshold { min_weight: 45.0 })
        .plan_all_pairs(&refs);
    for (slot, prepared) in batch.prepared().iter().enumerate() {
        assert_cached(prepared, &format!("corpus slot {slot}"));
    }
    assert!(batch.prepared()[100]
        .built_token_index()
        .unwrap()
        .is_empty());
}
