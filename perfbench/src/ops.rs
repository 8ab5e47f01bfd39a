//! Operations more than one workload runs: a schema-pair match with its
//! one-to-one selection, and a registry restart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use harmony_core::index::generate_candidates_with_exec;
use harmony_core::prelude::*;
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::Schema;

use crate::common::{digest_search, Calibration, Layers, Outcome, Samples};
use crate::trace::{Ctx, Tracer};

/// One blocked schema-pair match plus one-to-one selection.
///
/// Untraced, this is the single call a user makes. Traced, the same answer
/// is assembled from each layer's public call, each under its own span:
/// preparation (cache), per-schema index builds, the pair context, the
/// candidate probe at one lane and at `nproc` lanes, the blocked run over
/// the pre-built indices, and the selection. The blocked run builds the
/// context and probes again inside, so a traced match does more work than
/// an untraced one (see `trace.overhead.match`), and its layer spans are
/// not a breakdown of the untraced call.
#[allow(clippy::too_many_arguments)]
pub fn pair_match(
    t: &Tracer,
    ctx: Ctx,
    engine: &MatchEngine,
    nproc: usize,
    source: &Schema,
    target: &Schema,
    selection: &Selection,
    layers: &mut Layers,
) -> MatchSet {
    let policy = BlockingPolicy::default();
    if !t.on() {
        return selection.apply(&engine.run_blocked(source, target, &policy).matrix);
    }

    let exec = engine.executor();
    let ps = traced_prepare(t, ctx, engine, source, layers);
    let pt = traced_prepare(t, ctx, engine, target, layers);
    let (is, ms_s) = t.child_ms(ctx, "index.build", || {
        ElementTokenIndex::build_parallel(&ps, exec, nproc)
    });
    let (it, ms_t) = t.child_ms(ctx, "index.build", || {
        ElementTokenIndex::build_parallel(&pt, exec, nproc)
    });
    layers.push("index.build_ms", ms_s);
    layers.push("index.build_ms", ms_t);
    let ((), context_ms) = t.child_ms(ctx, "prepare.context", || {
        drop(engine.build_context(source, target));
    });
    layers.push("prepare.context_ms", context_ms);
    let mut probe_ms = 0.0;
    for (name, lanes) in [("index.probe.t1", 1), ("index.probe.t2", nproc)] {
        let (candidates, ms) = t.child_ms(ctx, name, || {
            generate_candidates_with_exec(source, target, &ps, &pt, &is, &it, &policy, exec, lanes)
        });
        layers.push(
            if lanes == 1 {
                "index.probe_ms.t1"
            } else {
                "index.probe_ms.t2"
            },
            ms,
        );
        layers.push("index.candidates", candidates.len() as f64);
        layers.push(
            "index.candidate_fraction",
            candidates.len() as f64 / (source.len() * target.len()).max(1) as f64,
        );
        // The blocked run probes at the engine's width, `nproc` lanes.
        probe_ms = ms;
    }
    let (run, run_ms) = t.child_ms(ctx, "pipeline.blocked", || {
        engine
            .pipeline()
            .run_blocked_prepared(source, target, &ps, &pt, Some((&is, &it)), &policy)
    });
    // The blocked run's wall time minus the context and the `nproc`-lane
    // probe timed just before it: Score + Merge + Propagate.
    layers.push(
        "pipeline.score_merge_propagate_ms",
        (run_ms - context_ms - probe_ms).max(0.0),
    );
    stage_timings(layers, &run.timings);
    let (selected, ms) = t.child_ms(ctx, "select.apply", || selection.apply(&run.matrix));
    layers.push("select.apply_ms", ms);
    selected
}

/// Fetch a preparation from the engine's cache; a call that had to build
/// (a cache miss) also counts as one `prepare.build_ms` sample.
fn traced_prepare(
    t: &Tracer,
    ctx: Ctx,
    engine: &MatchEngine,
    schema: &Schema,
    layers: &mut Layers,
) -> Arc<PreparedSchema> {
    let cache = engine.feature_cache();
    let misses = cache.stats().misses;
    let (prepared, ms) = t.child_ms(ctx, "prepare.cache", || engine.prepare(schema));
    if cache.stats().misses > misses {
        layers.push("prepare.build_ms", ms);
    }
    prepared
}

/// The library's own per-stage timings of a blocked run, as it reports them.
pub fn stage_timings(layers: &mut Layers, timings: &StageTimings) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    layers.push("pipeline.tier1_ms", ms(timings.score_tier1));
    layers.push("pipeline.tier2_ms", ms(timings.score_tier2));
    layers.push("pipeline.merge_ms", ms(timings.merge));
    layers.push("pipeline.propagate_ms", ms(timings.propagate));
    let scored = timings.pairs_pruned + timings.pairs_full;
    if scored > 0 {
        layers.push(
            "pipeline.tier1_skip_rate",
            timings.pairs_pruned as f64 / scored as f64,
        );
    }
}

/// A repository holding `schemas`, for workloads that have none.
pub fn repository_of(schemas: &[Schema]) -> MetadataRepository {
    let mut repo = MetadataRepository::new();
    for s in schemas {
        repo.register_schema(s.clone());
    }
    repo
}

/// Restarts of one repository: save its warm-start image, register its
/// schemata in a fresh repository, warm-start that from the image, and
/// answer one search, which must equal the running repository's answer.
pub struct Restarts<'a> {
    repo: &'a MetadataRepository,
    query: &'a Schema,
    image: PathBuf,
    reference: u64,
    /// Restart times; a reference sample precedes each restart.
    pub times: Samples,
}

impl<'a> Restarts<'a> {
    pub fn new(repo: &'a MetadataRepository, query: &'a Schema, image: PathBuf) -> Self {
        let reference = digest_search(&SchemaSearch::build(repo).query(query, 10));
        Restarts {
            repo,
            query,
            image,
            reference,
            times: Samples::default(),
        }
    }

    pub fn once(&mut self, t: &Tracer, calibration: &mut Calibration, out: &mut Outcome) {
        let (repo, image) = (self.repo, &self.image);
        let owned: Vec<Schema> = repo.schemas().cloned().collect();
        calibration.sample();
        let started = Instant::now();
        let answer = t.op("op.restart", |ctx| {
            let (saved, save_ms) = t.child_ms(ctx, "persist.save", || repo.save_registry(image));
            saved.ok()?;
            out.layers.push("persist.save_s", save_ms / 1e3);
            let fresh = t.child(ctx, "repo.register", |_| {
                let mut fresh = MetadataRepository::new();
                for s in owned {
                    fresh.register_schema(s);
                }
                fresh
            });
            let (loaded, load_ms) = t.child_ms(ctx, "persist.load", || fresh.warm_start(image));
            loaded.ok()?;
            out.layers.push("persist.load_s", load_ms / 1e3);
            Some(t.child(ctx, "search.query", |_| {
                SchemaSearch::build(&fresh).query(self.query, 10)
            }))
        });
        self.times.push(false, started);
        out.op(answer.is_some_and(|a| digest_search(&a) == self.reference));
    }

    /// Record the image size, remove the image, and hand back the times.
    pub fn finish(self, out: &mut Outcome) -> Samples {
        if let Ok(meta) = std::fs::metadata(&self.image) {
            out.layers
                .set("persist.image_mb", meta.len() as f64 / (1u64 << 20) as f64);
        }
        std::fs::remove_file(&self.image).ok();
        self.times
    }
}
