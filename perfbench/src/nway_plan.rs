//! `nway_plan`: an N-way vocabulary effort over N=100 schemata.
//!
//! The corpus is the scoped clustered one (10 latent domains × 10
//! schemata, concept-scoped attribute names). One generator thread runs
//! rounds. A round plans all 4,950 pairs under `OverlapThreshold{45}` (the
//! `query` class: "which pairs are worth matching"), then runs every
//! planned pair selection-only at 0.6 (plan + run is the `bulk` class).
//! Each planned pair is one small job of that run; its wall time, as the
//! run's own per-pair `StageTimings` report it, is one sample of the
//! `match` class. The plan layer and thousands of small pairs dominate:
//! Block and Score run per small pair, so they parallelise across pairs
//! rather than inside one. Cold set-ups and restarts of a registry of the
//! corpus run outside the loop.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use harmony_core::prelude::*;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;

use crate::common::{
    cache_deltas, digest_selection, exec_deltas, fnv, peak_rss_mb, Calibration, OpClasses, Outcome,
    Params, Rng, Samples,
};
use crate::ops::{repository_of, stage_timings, Restarts};
use crate::report::{finish_trace, obs_snapshot};
use crate::trace::Tracer;

/// Generator seed of the scoped clustered corpus.
pub const DATA_SEED: u64 = 2031;
/// Selection threshold of the N-way effort.
const THRESHOLD: f64 = 0.6;
/// The plan: prune pairs whose overlap bound is under 45.
const POLICY: PlanPolicy = PlanPolicy::OverlapThreshold { min_weight: 45.0 };
/// Cascade floor of every pair job.
const FLOOR: f64 = 0.30;
/// Cold set-ups and restarts outside the measured loop, half before it and
/// half after it, so their medians span two moments of the host. Each
/// takes ~10 ms; with 10 the restart median spread 10% across seeds.
const SIDE_RUNS: usize = 40;

fn corpus(seed: u64) -> SyntheticRepository {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    })
}

/// One cold set-up: a plan — preparation of all 100 schemata, the overlap
/// estimate, and the shared batch index — on a fresh feature cache.
fn cold_setup(t: &Tracer, nproc: usize, schemas: &[&Schema], setup: &mut Samples) -> MatchEngine {
    let engine = MatchEngine::new()
        .with_feature_cache(Arc::new(FeatureCache::new(Normalizer::new())))
        .with_threads(nproc)
        .with_score_floor(Some(FLOOR));
    let started = Instant::now();
    t.op("op.setup", |ctx| {
        t.child(ctx, "batch.plan", |_| {
            drop(
                engine
                    .batch()
                    .with_plan_policy(POLICY)
                    .plan_all_pairs(schemas),
            )
        })
    });
    setup.push(false, started);
    engine
}

/// Non-empty selections of a batch run, keyed by schema-slot pair.
fn keyed(result: &BatchSelectResult) -> HashMap<(usize, usize), u64> {
    result
        .pairs
        .iter()
        .filter(|p| !p.selected.is_empty())
        .map(|p| ((p.left, p.right), digest_selection(&p.selected)))
        .collect()
}

fn digest_plan(batch: &MatchBatch<'_, '_>) -> u64 {
    fnv(batch
        .requests()
        .iter()
        .map(|r| (r.left as u64) << 32 | r.right as u64))
}

fn digest_round(result: &BatchSelectResult) -> u64 {
    fnv(result.pairs.iter().flat_map(|p| {
        [
            (p.left as u64) << 32 | p.right as u64,
            digest_selection(&p.selected),
        ]
    }))
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let corpus = corpus(p.data_seed.unwrap_or(DATA_SEED));
    // The seed picks the order the schemata are handed to the planner in.
    let schemas: Vec<&Schema> = Rng::new(p.seed)
        .permutation(corpus.schemas.len())
        .into_iter()
        .map(|i| &corpus.schemas[i])
        .collect();
    let all_pairs = schemas.len() * (schemas.len() - 1) / 2;
    let selection = Selection::OneToOne {
        min: Confidence::new(THRESHOLD),
    };
    let tracer = Tracer::new(p.trace);
    let plain = Tracer::new(false);
    let exec = Executor::global();

    // Set-up: one cold plan. More cold plans, and restarts of a registry
    // of the corpus, run before and after the measured loop.
    let mut calibration = Calibration::new();
    let mut setup = Samples::default();
    let engine = cold_setup(&tracer, p.nproc, &schemas, &mut setup);
    let repo = repository_of(&corpus.schemas);
    let image = p
        .out_dir
        .join(format!("nway_plan-{}.img", std::process::id()));
    let mut restarts = Restarts::new(&repo, schemas[0], image);
    let side_half = |calibration: &mut Calibration,
                     setup: &mut Samples,
                     restarts: &mut Restarts,
                     out: &mut Outcome| {
        for _ in 0..SIDE_RUNS / 2 {
            calibration.sample();
            cold_setup(&tracer, p.nproc, &schemas, setup);
            restarts.once(&tracer, calibration, out);
        }
    };
    side_half(&mut calibration, &mut setup, &mut restarts, &mut out);

    // References: the exhaustive plan's selections, and the pruned plan's
    // own answers that every round must reproduce.
    let exhaustive = keyed(
        &engine
            .batch()
            .plan_all_pairs(&schemas)
            .run_select_only(&selection),
    );
    let reference_batch = engine
        .batch()
        .with_plan_policy(POLICY)
        .plan_all_pairs(&schemas);
    let plan_ref = digest_plan(&reference_batch);
    let reference = reference_batch.run_select_only(&selection);
    let round_ref = digest_round(&reference);
    let planned = keyed(&reference);
    let kept = exhaustive
        .iter()
        .filter(|(k, d)| planned.get(k) == Some(d))
        .count();
    let recall = if exhaustive.is_empty() {
        1.0
    } else {
        kept as f64 / exhaustive.len() as f64
    };
    out.e2e.insert("quality", recall);
    out.op(recall == 1.0);
    drop(reference_batch);

    let mut ops = OpClasses::default();
    let exec_before = exec.stats();
    let cache_before = engine.feature_cache().stats();
    let obs_before = obs_snapshot();
    let started = Instant::now();
    let traced = |n: usize| p.trace && n % 2 == 1;
    let mut rounds = 0usize;
    while p.measuring(started) {
        calibration.tick();
        let on = traced(rounds);
        let t = if on { &tracer } else { &plain };
        // A round is two operations: the plan (`query`), then the run of
        // every planned pair; `bulk` times both.
        let plan_start = Instant::now();
        let (batch, plan_ms) = t.op("op.query", |ctx| {
            t.child_ms(ctx, "batch.plan", || {
                engine
                    .batch()
                    .with_plan_policy(POLICY)
                    .plan_all_pairs(&schemas)
            })
        });
        ops.queries.push(on, plan_start);
        out.op(digest_plan(&batch) == plan_ref);
        let (result, run_ms) = t.op("op.bulk", |ctx| {
            t.child_ms(ctx, "batch.run", || batch.run_select_only(&selection))
        });
        ops.bulk.push(on, plan_start);
        for pair in &result.pairs {
            let job_ms = pair.timings.total().as_secs_f64() * 1e3;
            ops.matches.push_ms(on, plan_start, job_ms);
            if on {
                stage_timings(&mut out.layers, &pair.timings);
            }
        }
        if on {
            let l = &mut out.layers;
            l.push("batch.plan_ms", plan_ms);
            l.push(
                "batch.plan_estimate_ms",
                batch.plan_breakdown().estimate.as_secs_f64() * 1e3,
            );
            l.push(
                "batch.planned_fraction",
                batch.requests().len() as f64 / all_pairs as f64,
            );
            l.push("batch.run_ms", run_ms);
            l.push("batch.pairs_scored", result.pairs_scored() as f64);
            let t = &result.timings;
            let scored = (t.pairs_pruned + t.pairs_full).max(1);
            l.push(
                "batch.tier1_skip_rate",
                t.pairs_pruned as f64 / scored as f64,
            );
        }
        out.op(digest_round(&result) == round_ref);
        rounds += 1;
    }
    exec_deltas(&mut out.layers, exec_before, exec.stats());
    cache_deltas(
        &mut out.layers,
        cache_before,
        engine.feature_cache().stats(),
    );
    out.obs = obs_before.delta();
    // The N-way skip rate is the batch aggregate, not a per-pair median.
    let batch_skip = out.layers.value("batch.tier1_skip_rate");
    if batch_skip > 0.0 {
        out.layers.set("pipeline.tier1_skip_rate", batch_skip);
    }

    side_half(&mut calibration, &mut setup, &mut restarts, &mut out);
    let restart = restarts.finish(&mut out);
    out.latencies(&ops, &calibration);
    out.seconds("restart_s", &restart, &calibration);
    out.seconds("setup_s", &setup, &calibration);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!("rounds: {rounds}"));
    if p.trace {
        finish_trace(&tracer, &mut out, p, "nway_plan");
    }
    out
}
