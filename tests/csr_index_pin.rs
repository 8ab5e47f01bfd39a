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
        BlockingPolicy::WeightedThreshold { min_weight: 2.5 },
        BlockingPolicy::WeightedThreshold { min_weight: 8.0 },
        BlockingPolicy::Exhaustive,
    ]
}

/// CSR candidate sets are byte-identical to the map-based reference across
/// seeds × policies × executor widths (1 — the inline path — 2 and 8), with
/// per-pair index builds and with pre-built indices.
#[test]
fn csr_candidates_pin_to_reference_across_seeds_policies_threads() {
    for seed in [1u64, 29, 404] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.06));
        let engine = engine();
        let ps = engine.prepare(&pair.source);
        let pt = engine.prepare(&pair.target);
        for policy in policies() {
            let expect =
                reference::generate_candidates(&pair.source, &pair.target, &ps, &pt, &policy);
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                let indices = (
                    ElementTokenIndex::build_parallel(&ps, &exec, threads),
                    ElementTokenIndex::build_parallel(&pt, &exec, threads),
                );
                for prebuilt in [None, Some((&indices.0, &indices.1))] {
                    let got = generate_candidates(
                        &pair.source,
                        &pair.target,
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
                        "CSR diverged at {threads} lanes, prebuilt {} (seed {seed}, {policy:?})",
                        prebuilt.is_some()
                    );
                }
            }
        }
    }
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
