//! Pin: the flat CSR blocking index (`harmony_core::index`) is an
//! *execution* change, never a semantics change. The retained map-based
//! implementation (`harmony_core::index::reference`) is the oracle: the CSR
//! path — inline at one lane or fanned out across executor lanes — must
//! produce byte-identical `CandidateSet`s across seeds × policies × thread
//! counts,
//! and the CSR store must round-trip every posting list and every IDF
//! weight bit the reference index knows.

use harmony_core::exec::Executor;
use harmony_core::index::{
    generate_candidates, reference, BlockingPolicy, ElementTokenIndex, GovernedExec,
};
use harmony_core::prelude::*;
use proptest::prelude::*;
use sm_schema::{DataType, ElementId, ElementKind, Schema};
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::Normalizer;
use std::sync::Arc;

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

/// `generate_candidates` on one pair is byte-identical to the reference
/// under every policy, at executor widths 1 (the inline path), 2 and 8,
/// with per-pair index builds and with pre-built indices.
fn assert_pinned(source: &Schema, target: &Schema, label: &str) {
    let engine = engine();
    let ps = engine.prepare(source);
    let pt = engine.prepare(target);
    for policy in policies() {
        let expect = reference::generate_candidates(source, target, &ps, &pt, &policy);
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
                    &policy,
                    &exec,
                    threads,
                    GovernedExec::default(),
                );
                assert_eq!(
                    got,
                    expect,
                    "CSR diverged at {threads} lanes, prebuilt {} ({label}, {policy:?})",
                    prebuilt.is_some()
                );
            }
        }
    }
}

/// CSR candidate sets are byte-identical to the map-based reference across
/// seeds × policies × executor widths. Scale 0.06 fits the post-probe
/// passes in one chunk (they run inline); the scale-0.5 pair has more
/// source rows, and more containers on one tree level, than a chunk holds,
/// so row assembly and parent closure fan out across the lanes.
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
/// `BlockedRun` scores exactly the reference's candidates at every pool
/// width, so blocked matrices stay byte-identical across thread counts.
#[test]
fn blocked_pipeline_candidates_pin_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(7, 0.06));
    let policy = BlockingPolicy::default();
    let serial = engine().with_threads(1);
    let ps = serial.prepare(&pair.source);
    let pt = serial.prepare(&pair.target);
    let expect = reference::generate_candidates(&pair.source, &pair.target, &ps, &pt, &policy);
    let baseline = serial.run_blocked(&pair.source, &pair.target, &policy);
    assert_eq!(baseline.candidates, expect);
    for threads in [2usize, 8] {
        let engine = engine()
            .with_executor(Arc::new(Executor::new(threads)))
            .with_threads(threads);
        let run = engine.run_blocked(&pair.source, &pair.target, &policy);
        assert_eq!(
            run.candidates, expect,
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

    /// The CSR store round-trips every feature the reference index knows:
    /// same posting list, bit-identical IDF weight, same distinct-feature
    /// count (no phantom features), and the flattened exact-name table
    /// answers every element's name key identically.
    #[test]
    fn csr_store_round_trips_reference_postings_and_weights(
        seed in 0u64..10_000,
        scale_pct in 2u32..8,
    ) {
        let config = GeneratorConfig::paper_case_study(seed, f64::from(scale_pct) / 100.0);
        let pair = SchemaPair::generate(&config);
        let engine = engine();
        for schema in [&pair.source, &pair.target] {
            let prepared = engine.prepare(schema);
            let csr = ElementTokenIndex::build(&prepared);
            let mapped = reference::ReferenceTokenIndex::build(&prepared);
            prop_assert_eq!(csr.len(), mapped.len());
            let mut features = 0usize;
            for feat in mapped.feature_ids() {
                prop_assert_eq!(csr.postings_by_id(feat), mapped.postings_by_id(feat));
                prop_assert_eq!(
                    csr.weight_by_id(feat).to_bits(),
                    mapped.weight_by_id(feat).to_bits(),
                    "weight bits diverged for feature {:?}", feat
                );
                features += 1;
            }
            prop_assert_eq!(csr.feature_count(), features, "phantom or lost features");
            for idx in 0..prepared.len() {
                let ids = prepared.element(idx).name_ids.as_slice();
                prop_assert_eq!(csr.name_postings(ids), mapped.name_postings(ids));
            }
        }
    }
}
