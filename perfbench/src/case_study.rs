//! `case_study`: the paper's 1378×784 pair (§3.3), one analyst.
//!
//! One generator thread loops over sessions. A session is one blocked
//! match plus one-to-one selection (the `match` class), then a quarter of
//! the 92 concept increments — the concept's subtree against the whole
//! target, hits above the 0.30 floor (the `query` class) — so every four
//! sessions cover every concept once, in a seeded order. Every fourth
//! session also runs one dense (unblocked) match plus selection (the
//! `bulk` class). Block and Score do nearly all of the blocked match's
//! work and restricted scoring all of the increments'; admission control
//! and the registry never run inside the loop. Cold set-ups and restarts
//! of a registry holding the pair run outside it.

use std::sync::Arc;
use std::time::Instant;

use harmony_core::prelude::*;
use sm_schema::ElementId;
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::Normalizer;

use crate::common::{
    cache_deltas, digest_hits, digest_selection, exec_deltas, peak_rss_mb, Calibration, Layers,
    OpClasses, Outcome, Params, Rng, Samples,
};
use crate::ops::{pair_match, repository_of, Restarts};
use crate::report::{finish_trace, obs_snapshot};
use crate::trace::Tracer;

/// The paper's data seed for the case-study pair.
pub const DATA_SEED: u64 = 42;
/// Cascade floor and selection threshold (the operating threshold).
const FLOOR: f64 = 0.30;
/// Sessions per dense match.
const DENSE_EVERY: usize = 4;
/// Sessions per full pass over the concepts.
const SLICES: usize = 4;
/// Cold set-ups and restarts outside the measured loop, half before it and
/// half after it, so their medians span two moments of the host. Each
/// takes ~10–30 ms; with 10 the restart median spread 16% across seeds.
const SIDE_RUNS: usize = 40;

/// One cold set-up: an engine on a fresh feature cache, both schemata
/// prepared, and their token indices built.
fn cold_setup(
    t: &Tracer,
    nproc: usize,
    pair: &SchemaPair,
    setup: &mut Samples,
    layers: &mut Layers,
) -> MatchEngine {
    let engine = MatchEngine::new()
        .with_feature_cache(Arc::new(FeatureCache::new(Normalizer::new())))
        .with_threads(nproc)
        .with_score_floor(Some(FLOOR));
    let started = Instant::now();
    t.op("op.setup", |ctx| {
        for s in [&pair.source, &pair.target] {
            let (prepared, ms) = t.child_ms(ctx, "prepare.build", || engine.prepare(s));
            layers.push("prepare.build_ms", ms);
            t.child(ctx, "index.build", |_| {
                ElementTokenIndex::build_parallel(&prepared, engine.executor(), nproc)
            });
        }
    });
    setup.push(false, started);
    engine
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(
        p.data_seed.unwrap_or(DATA_SEED),
        1.0,
    ));
    let (source, target) = (&pair.source, &pair.target);
    let selection = Selection::OneToOne {
        min: Confidence::new(FLOOR),
    };
    let threshold = Confidence::new(FLOOR);
    let tracer = Tracer::new(p.trace);
    let plain = Tracer::new(false);
    let exec = Executor::global();

    // Set-up: cold preparation of both schemata plus their token indices.
    // More cold set-ups, and restarts of a registry holding the pair, run
    // before and after the measured loop.
    let mut calibration = Calibration::new();
    let mut setup = Samples::default();
    let engine = cold_setup(&tracer, p.nproc, &pair, &mut setup, &mut out.layers);
    let repo = repository_of(&[source.clone(), target.clone()]);
    let image = p
        .out_dir
        .join(format!("case_study-{}.img", std::process::id()));
    let mut restarts = Restarts::new(&repo, source, image);
    let side_half = |calibration: &mut Calibration,
                     setup: &mut Samples,
                     restarts: &mut Restarts,
                     out: &mut Outcome| {
        for _ in 0..SIDE_RUNS / 2 {
            calibration.sample();
            cold_setup(&tracer, p.nproc, &pair, setup, &mut out.layers);
            restarts.once(&tracer, calibration, out);
        }
    };
    side_half(&mut calibration, &mut setup, &mut restarts, &mut out);

    // Reference answers every timed op is checked against.
    let blocked = selection.apply(
        &engine
            .run_blocked(source, target, &BlockingPolicy::default())
            .matrix,
    );
    out.e2e
        .insert("quality", pair.truth.evaluate_all(&blocked).f1);
    let blocked_ref = digest_selection(&blocked);
    let dense_ref = digest_selection(&selection.apply(&engine.run(source, target).matrix));
    let summary = auto_summarize(source, pair.source_anchors.len());
    let targets = NodeFilter::All.select(target);
    let concepts: Vec<Vec<ElementId>> = summary
        .concepts
        .iter()
        .map(|c| NodeFilter::subtree(c.anchor).select(source))
        .collect();
    let context = engine.build_context(source, target);
    let increment_refs: Vec<u64> = concepts
        .iter()
        .map(|ids| {
            digest_hits(
                &engine
                    .run_restricted(&context, ids, &targets)
                    .above(threshold),
            )
        })
        .collect();

    let mut rng = Rng::new(p.seed);
    let order = rng.permutation(concepts.len());
    let slice = concepts.len().div_ceil(SLICES);
    let mut ops = OpClasses::default();
    let exec_before = exec.stats();
    let cache_before = engine.feature_cache().stats();
    let obs_before = obs_snapshot();
    let started = Instant::now();
    let traced = |n: usize| p.trace && n % 2 == 1;
    let mut session = 0usize;
    while p.measuring(started) {
        calibration.tick();
        let on = traced(session);
        let t = if on { &tracer } else { &plain };
        let op_start = Instant::now();
        let selected = t.op("op.match", |ctx| {
            pair_match(
                t,
                ctx,
                &engine,
                p.nproc,
                source,
                target,
                &selection,
                &mut out.layers,
            )
        });
        ops.matches.push(on, op_start);
        out.op(digest_selection(&selected) == blocked_ref);

        let lo = (session % SLICES * slice).min(order.len());
        let hi = (lo + slice).min(order.len());
        for (k, &c) in order[lo..hi].iter().enumerate() {
            calibration.tick();
            let on = traced(k);
            let t = if on { &tracer } else { &plain };
            let op_start = Instant::now();
            let hits = t.op("op.query", |ctx| {
                let (result, ms) = t.child_ms(ctx, "workflow.restricted", || {
                    engine.run_restricted(&context, &concepts[c], &targets)
                });
                if on {
                    out.layers.push(
                        "workflow.increment_ns_per_pair",
                        ms * 1e6 / result.pairs_considered.max(1) as f64,
                    );
                }
                t.child(ctx, "select.above", |_| result.above(threshold))
            });
            ops.queries.push(on, op_start);
            out.op(digest_hits(&hits) == increment_refs[c]);
        }

        if session % DENSE_EVERY == DENSE_EVERY - 1 {
            calibration.tick();
            let on = traced(session / DENSE_EVERY);
            let t = if on { &tracer } else { &plain };
            let op_start = Instant::now();
            let selected = t.op("op.bulk", |ctx| {
                let run = t.child(ctx, "pipeline.dense", |_| engine.run(source, target));
                if on {
                    out.layers.push(
                        "pipeline.dense_score_ms",
                        run.timings.score.as_secs_f64() * 1e3,
                    );
                }
                let (selected, ms) =
                    t.child_ms(ctx, "select.apply", || selection.apply(&run.matrix));
                if on {
                    out.layers.push("select.apply_ms", ms);
                }
                selected
            });
            ops.bulk.push(on, op_start);
            out.op(digest_selection(&selected) == dense_ref);
        }
        session += 1;
    }
    exec_deltas(&mut out.layers, exec_before, exec.stats());
    cache_deltas(
        &mut out.layers,
        cache_before,
        engine.feature_cache().stats(),
    );
    out.obs = obs_before.delta();

    side_half(&mut calibration, &mut setup, &mut restarts, &mut out);
    let restart = restarts.finish(&mut out);
    out.latencies(&ops, &calibration);
    out.seconds("restart_s", &restart, &calibration);
    out.seconds("setup_s", &setup, &calibration);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!("sessions: {session}"));
    if p.trace {
        finish_trace(&tracer, &mut out, p, "case_study");
    }
    out
}
