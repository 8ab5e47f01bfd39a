//! Pin: plan-stage overlap pruning is a *scheduling* change, never a
//! semantics change.
//!
//! The overlap estimator (`harmony_core::batch::OverlapEstimates`) computes
//! the IDF-weighted shared vocabulary weight of all N² pairs in one posting
//! walk. Its contract, pinned here across synthetic seeds:
//!
//! * the bound *equals* the true shared blocking-vocabulary weight;
//! * `PlanPolicy::OverlapThreshold` only partitions the pair list — every
//!   planned pair's selections are byte-identical to the exhaustive plan's,
//!   and the provable cut (`PlanPolicy::provable()`) never prunes a pair
//!   that would have selected anything;
//! * incremental N-way consolidation (`populate_planned` + `add_schema` +
//!   `populate_incremental`) reproduces the full replan's vocabulary, and
//!   under any `OverlapThreshold` cut keeps and prunes exactly the new
//!   pairs the replan does.

use harmony_core::index::idf_weight;
use harmony_core::prelude::*;
use proptest::prelude::*;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Two latent domains, so pairs span the full overlap spectrum.
fn population(seed: u64, per_domain: usize) -> Vec<Schema> {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 2,
        schemas_per_domain: per_domain,
        concepts_per_domain: 10,
        concept_coverage: 0.5,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    })
    .schemas
}

fn engine() -> MatchEngine {
    MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(2)
        .with_executor(Arc::new(Executor::new(2)))
}

/// Sorted tuples of one pair's selections, for byte-level comparison.
fn tuples(set: &MatchSet) -> Vec<(u32, u32, f64)> {
    let mut v: Vec<_> = set
        .all()
        .iter()
        .map(|c| (c.source.0, c.target.0, c.score.value()))
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The estimator's bound against the true shared vocabulary weight,
    /// recomputed per pair by brute force: they are equal, so the bound
    /// dominates it and pruning below a cut loses no pair above it.
    #[test]
    fn overlap_bound_dominates_true_shared_weight(seed in 0u64..300) {
        let schemas = population(seed, 3);
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        let prepared = batch.prepared();
        let n = prepared.len();

        let vocab: Vec<BTreeSet<_>> = prepared
            .iter()
            .map(|p| {
                (0..p.len())
                    .flat_map(|idx| p.block_features_of(idx).iter().copied())
                    .collect()
            })
            .collect();
        let mut df = std::collections::HashMap::new();
        for v in &vocab {
            for t in v {
                *df.entry(*t).or_insert(0usize) += 1;
            }
        }

        let exact = OverlapEstimates::from_prepared(prepared);
        for i in 0..n {
            for j in (i + 1)..n {
                let truth: f64 = vocab[i]
                    .intersection(&vocab[j])
                    .map(|t| idf_weight(n as f64, df[t] as f64))
                    .sum();
                prop_assert!(
                    (exact.bound(i, j) - truth).abs() < 1e-9,
                    "bound {} != true shared weight {truth} (pair {i},{j})",
                    exact.bound(i, j),
                );
            }
        }
    }

    /// `OverlapThreshold` planning never changes what an executed pair
    /// selects, and the provable cut never prunes a selecting pair — so
    /// its selections are byte-identical to the exhaustive plan's.
    #[test]
    fn overlap_threshold_selections_match_exhaustive(
        seed in 0u64..300,
        min_weight in 0.0f64..12.0,
    ) {
        let schemas = population(seed, 3);
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let selection = Selection::OneToOne { min: Confidence::new(0.5) };

        let reference = engine
            .batch()
            .plan_all_pairs(&refs)
            .run_select_only(&selection);
        let by_pair: std::collections::HashMap<(usize, usize), _> = reference
            .pairs
            .iter()
            .map(|p| ((p.left, p.right), tuples(&p.selected)))
            .collect();

        for policy in [
            PlanPolicy::provable(),
            PlanPolicy::OverlapThreshold { min_weight },
        ] {
            let batch = engine
                .batch()
                .with_plan_policy(policy)
                .plan_all_pairs(&refs);
            let pruned: Vec<(usize, usize)> = batch
                .pruned()
                .iter()
                .map(|r| (r.left, r.right))
                .collect();
            let result = batch.run_select_only(&selection);
            prop_assert_eq!(
                result.pairs.len() + pruned.len(),
                by_pair.len(),
                "plan must partition the pair list, not shrink it"
            );
            // Executed pairs: byte-identical selections.
            for p in &result.pairs {
                prop_assert_eq!(
                    &tuples(&p.selected),
                    &by_pair[&(p.left, p.right)],
                    "policy {:?} changed pair ({}, {})",
                    policy,
                    p.left,
                    p.right
                );
            }
            // The provable cut must not discard a selecting pair.
            if policy == PlanPolicy::provable() {
                for (l, r) in &pruned {
                    prop_assert!(
                        by_pair[&(*l, *r)].is_empty(),
                        "provable cut pruned selecting pair ({l}, {r})"
                    );
                }
            }
        }
    }

    /// Adding the N+1th schema to a planned consolidation reuses the
    /// standing result and reproduces the full replan's vocabulary.
    #[test]
    fn incremental_addone_matches_full_replan(seed in 0u64..300) {
        let schemas = population(seed, 3);
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let blocking = BlockingPolicy::default();
        let threshold = Confidence::new(0.5);
        let policy = PlanPolicy::provable();

        let mut full = NWayMatch::new(refs.clone());
        let all = full.populate_planned(&engine, &blocking, policy, threshold, "pin");

        let mut grown = NWayMatch::new(refs[..refs.len() - 1].to_vec());
        let first = grown.populate_planned(&engine, &blocking, policy, threshold, "pin");
        grown.add_schema(refs[refs.len() - 1]);
        let added = grown.populate_incremental(&engine, "pin");

        prop_assert_eq!(
            first.planned() + first.pruned + added.planned() + added.pruned,
            all.planned() + all.pruned,
            "incremental consolidation must cover exactly the replan's pairs"
        );
        prop_assert_eq!(
            grown.vocabulary(),
            full.vocabulary(),
            "incremental add-one diverged from the full replan"
        );
    }

    /// Under an `OverlapThreshold` cut above the provable one, the add-one
    /// step decides every new pair the way a full replan over all N+1
    /// schemata does: it executes exactly the replan's planned requests
    /// with `right ≥ base` and prunes exactly its pruned ones, because both
    /// weigh the new pairs at the final N.
    #[test]
    fn incremental_addone_overlap_threshold_decides_new_pairs_like_replan(
        seed in 0u64..300,
        min_weight in 1.0f64..30.0,
    ) {
        let schemas = population(seed, 3);
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let blocking = BlockingPolicy::default();
        let policy = PlanPolicy::OverlapThreshold { min_weight };
        let base = refs.len() - 1;

        let replan = engine
            .batch()
            .with_policy(blocking)
            .with_plan_policy(policy)
            .plan_all_pairs(&refs);
        let new_pairs = |requests: &[PairRequest]| -> Vec<(usize, usize)> {
            requests
                .iter()
                .filter(|r| r.right >= base)
                .map(|r| (r.left, r.right))
                .collect()
        };

        let mut grown = NWayMatch::new(refs[..base].to_vec());
        grown.populate_planned(&engine, &blocking, policy, Confidence::new(0.5), "pin");
        grown.add_schema(refs[base]);
        let added = grown.populate_incremental(&engine, "pin");
        let executed: Vec<(usize, usize)> =
            added.outcomes.iter().map(|o| (o.left, o.right)).collect();

        prop_assert_eq!(
            executed,
            new_pairs(replan.requests()),
            "add-one executed other new pairs than the replan plans (cut {})",
            min_weight
        );
        prop_assert_eq!(
            added.pruned,
            new_pairs(replan.pruned()).len(),
            "add-one pruned other new pairs than the replan prunes (cut {})",
            min_weight
        );
    }
}
