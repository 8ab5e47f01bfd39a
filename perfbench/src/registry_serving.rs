//! `registry_serving`: a registry of 2,048 synthetic schemata served
//! through one admission controller.
//!
//! Two generator threads (one when the host has one CPU, which then runs
//! the background rounds inline). The interactive thread runs a seeded
//! ~6:3:1 mix with a fixed think time: searches (`Search` class, the
//! `query` class here), point matches between registered schemata of one
//! domain (`PointMatch`, the `match` class), and registry writes — a
//! removal or a re-registration followed by a fresh `SchemaSearch::build`,
//! timed until the search snapshot reflects it. The background thread runs
//! 12-pair `Batch` rounds paced 10 ms apart (the `bulk` class). Writes
//! happen beside reads, admission control runs, and the registry is four
//! times the feature cache's 512-entry default, so the cache misses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use harmony_core::prelude::*;
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::{Schema, SchemaId};
use sm_synth::{RepositoryConfig, SyntheticRepository};

use crate::common::{
    cache_deltas, digest_search, digest_selection, exec_deltas, fnv, generator_threads,
    peak_rss_mb, Calibration, Layers, OpClasses, Outcome, Params, Rng, Samples,
};
use crate::ops::{pair_match, Restarts};
use crate::report::{finish_trace, obs_snapshot};
use crate::stats;
use crate::trace::{Ctx, Tracer};

/// Generator seed of the registry (the `blocking_baseline` formula for a
/// 2,048-schema tier).
pub const DATA_SEED: u64 = 1234 + SCHEMAS as u64;
const SCHEMAS: usize = 2048;
const FLOOR: f64 = 0.30;
const SETUPS: usize = 7;
const QUERY_POOL: usize = 256;
const POINT_POOL: usize = 128;
const BATCH_POOL: usize = 8;
const BATCH_PAIRS: usize = 12;
/// Interactive think time between operations.
const THINK: Duration = Duration::from_millis(1);
/// Idle gap the controller enforces after each background batch.
const PACING: Duration = Duration::from_millis(10);
/// On a one-CPU host: interactive ops per inline background round.
const INLINE_BATCH_EVERY: usize = 20;
/// Restarts per run, half before the loop and half after it, so their
/// median spans two moments of the host instead of one.
const RESTARTS: usize = 16;

fn population(seed: u64) -> SyntheticRepository {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: SCHEMAS / 8,
        schemas_per_domain: 8,
        concepts_per_domain: 20,
        concept_coverage: 0.5,
        attrs_per_concept: (4, 9),
        ..Default::default()
    })
}

fn engine(nproc: usize) -> MatchEngine {
    MatchEngine::new()
        .with_threads(nproc)
        .with_score_floor(Some(FLOOR))
}

/// One background batch: the distinct schemata it touches and its slot
/// pairs.
struct BatchJob {
    members: Vec<usize>,
    requests: Vec<(usize, usize)>,
}

/// What the serving threads share read-only.
struct World<'a> {
    schemas: &'a [Schema],
    ctl: AdmissionController,
    selection: Selection,
    nproc: usize,
    point_pairs: Vec<(usize, usize)>,
    point_refs: Vec<u64>,
    batches: Vec<BatchJob>,
    batch_refs: Vec<u64>,
}

/// Keeps background batches off the host while the interactive thread
/// times the host-speed reference, so the reference measures the host and
/// not the batch load whose effect on interactive latency is measured.
#[derive(Default)]
struct Quiet {
    /// Raised while the interactive thread waits to sample: the background
    /// thread starts no new round.
    pause: AtomicBool,
    /// Held by the background thread for each round and by the
    /// interactive thread for each reference sample.
    round: Mutex<()>,
}

impl Quiet {
    /// Wait for a running round to end and keep the next one from starting.
    fn hold(&self) -> MutexGuard<'_, ()> {
        self.pause.store(true, Ordering::SeqCst);
        let held = self.round.lock().unwrap_or_else(|e| e.into_inner());
        self.pause.store(false, Ordering::SeqCst);
        held
    }

    /// Wait out a pause, then hold the round lock for one round.
    fn round(&self) -> MutexGuard<'_, ()> {
        while self.pause.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        self.round.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Raises the background thread's stop flag when dropped, so a panic on
/// the interactive thread cannot leave the scope waiting on it forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One thread's share of the results.
#[derive(Default)]
struct Tally {
    samples: Samples,
    results: Vec<bool>,
    layers: Layers,
}

fn digest_batch(result: &BatchSelectResult) -> u64 {
    fnv(result.pairs.iter().map(|p| digest_selection(&p.selected)))
}

fn run_batch(w: &World<'_>, job: &BatchJob) -> BatchSelectResult {
    let e = engine(w.nproc);
    let refs: Vec<&Schema> = job.members.iter().map(|&i| &w.schemas[i]).collect();
    e.batch()
        .plan(&refs, job.requests.iter().copied())
        .run_select_only(&w.selection)
}

/// One background round through the controller.
fn batch_round(w: &World<'_>, t: &Tracer, k: usize, tally: &mut Tally, on: bool) {
    let job = &w.batches[k];
    let started = Instant::now();
    let answer = t.op("op.bulk", |ctx| {
        t.child(ctx, "serve.batch", |c| {
            w.ctl.submit(JobClass::Batch, 1, |grant| {
                t.child(c, "serve.run", |c| {
                    let e = grant.bind(engine(w.nproc));
                    let refs: Vec<&Schema> = job.members.iter().map(|&i| &w.schemas[i]).collect();
                    let (batch, plan_ms) = t.child_ms(c, "batch.plan", || {
                        e.batch().plan(&refs, job.requests.iter().copied())
                    });
                    let (result, run_ms) =
                        t.child_ms(c, "batch.run", || batch.run_select_only(&w.selection));
                    if on {
                        tally.layers.push("batch.plan_ms", plan_ms);
                        tally.layers.push("batch.run_ms", run_ms);
                        tally
                            .layers
                            .push("batch.pairs_scored", result.pairs_scored() as f64);
                    }
                    digest_batch(&result)
                })
            })
        })
    });
    tally.samples.push(on, started);
    tally.results.push(answer.ok() == Some(w.batch_refs[k]));
}

/// The point match class: prepare (a cache miss when the schema was
/// evicted) and match two registered schemata under the point lane budget.
fn point_op(w: &World<'_>, t: &Tracer, ctx: Ctx, k: usize, tally: &mut Tally) -> bool {
    let (a, b) = w.point_pairs[k];
    let answer = t.child(ctx, "serve.point", |c| {
        w.ctl.submit(JobClass::PointMatch, 5, |grant| {
            t.child(c, "serve.run", |c| {
                let e = grant.bind(engine(w.nproc));
                let selected = pair_match(
                    t,
                    c,
                    &e,
                    w.nproc,
                    &w.schemas[a],
                    &w.schemas[b],
                    &w.selection,
                    &mut tally.layers,
                );
                digest_selection(&selected)
            })
        })
    });
    answer.ok() == Some(w.point_refs[k])
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let pop = population(p.data_seed.unwrap_or(DATA_SEED));
    let schemas = &pop.schemas;
    let slot_of: HashMap<SchemaId, usize> =
        schemas.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let tracer = Tracer::new(p.trace);
    let plain = Tracer::new(false);
    let exec = Executor::global();
    let cache = FeatureCache::global();

    // Set-up: a cold registry — every schema prepared, the sharded index
    // built, and the search façade over it — from an empty feature cache.
    let mut calibration = Calibration::new();
    let mut setup = Samples::default();
    let mut registry = None;
    for _ in 0..SETUPS {
        drop(registry.take());
        calibration.sample();
        let owned: Vec<Schema> = schemas.to_vec();
        cache.clear();
        let started = Instant::now();
        let built = tracer.op("op.setup", |ctx| {
            let repo = tracer.child(ctx, "repo.register", |_| {
                let mut repo = MetadataRepository::new();
                for s in owned {
                    repo.register_schema(s);
                }
                repo
            });
            tracer.child(ctx, "repo.refresh", |_| drop(repo.token_index()));
            let search = tracer.child(ctx, "search.rebuild", |_| SchemaSearch::build(&repo));
            (repo, search)
        });
        setup.push(false, started);
        registry = Some(built);
    }
    let (mut repo, mut search) = registry.expect("SETUPS > 0");
    let image = p
        .out_dir
        .join(format!("registry_serving-{}.img", std::process::id()));
    let restart_half = |repo: &MetadataRepository, c: &mut Calibration, out: &mut Outcome| {
        let mut restarts = Restarts::new(repo, &schemas[0], image.clone());
        for _ in 0..RESTARTS / 2 {
            restarts.once(&tracer, c, out);
        }
        restarts.finish(out)
    };
    let mut restart = restart_half(&repo, &mut calibration, &mut out);

    // Seeded pools of operations and their reference answers.
    let mut rng = Rng::new(p.seed);
    let mut by_domain: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, d) in pop.domain_of.iter().enumerate() {
        by_domain.entry(*d).or_default().push(i);
    }
    let domains: Vec<&Vec<usize>> = {
        let mut v: Vec<_> = by_domain.iter().collect();
        v.sort_by_key(|(d, _)| **d);
        v.into_iter().map(|(_, m)| m).collect()
    };
    let same_domain_pair = |rng: &mut Rng| {
        let members = domains[rng.below(domains.len())];
        let a = rng.below(members.len());
        let b = (a + 1 + rng.below(members.len() - 1)) % members.len();
        (members[a], members[b])
    };
    let queries: Vec<usize> = (0..QUERY_POOL).map(|_| rng.below(schemas.len())).collect();
    let search_refs: Vec<u64> = queries
        .iter()
        .map(|&q| digest_search(&search.query(&schemas[q], 10)))
        .collect();
    // Quality over a fixed eighth of the registry, so it depends on the
    // data alone and not on the operation seed.
    let precision: Vec<f64> = (0..schemas.len())
        .step_by(8)
        .map(|q| {
            let hits = search.query(&schemas[q], 6);
            let others: Vec<usize> = hits
                .iter()
                .map(|h| slot_of[&h.schema_id])
                .filter(|&i| i != q)
                .take(5)
                .collect();
            let same = others
                .iter()
                .filter(|&&i| pop.domain_of[i] == pop.domain_of[q])
                .count();
            same as f64 / 5.0
        })
        .collect();
    out.e2e.insert(
        "quality",
        precision.iter().sum::<f64>() / precision.len() as f64,
    );
    let point_pairs: Vec<(usize, usize)> = (0..POINT_POOL)
        .map(|_| same_domain_pair(&mut rng))
        .collect();
    let batches: Vec<BatchJob> = (0..BATCH_POOL)
        .map(|_| {
            let mut members: Vec<usize> = Vec::new();
            let slot = |i: usize, members: &mut Vec<usize>| {
                members.iter().position(|&m| m == i).unwrap_or_else(|| {
                    members.push(i);
                    members.len() - 1
                })
            };
            let requests = (0..BATCH_PAIRS)
                .map(|_| {
                    let (a, b) = same_domain_pair(&mut rng);
                    (slot(a, &mut members), slot(b, &mut members))
                })
                .collect();
            BatchJob { members, requests }
        })
        .collect();
    let mut config = ServeConfig::for_pool(p.nproc);
    config.policy_mut(JobClass::Batch).pacing = Some(PACING);
    let mut world = World {
        schemas,
        ctl: AdmissionController::new(Arc::clone(exec), Arc::clone(cache), config),
        selection: Selection::OneToOne {
            min: Confidence::new(FLOOR),
        },
        nproc: p.nproc,
        point_pairs,
        point_refs: Vec::new(),
        batches,
        batch_refs: Vec::new(),
    };
    world.point_refs = world
        .point_pairs
        .iter()
        .map(|&(a, b)| {
            let m =
                engine(p.nproc).run_blocked(&schemas[a], &schemas[b], &BlockingPolicy::default());
            digest_selection(&world.selection.apply(&m.matrix))
        })
        .collect();
    world.batch_refs = world
        .batches
        .iter()
        .map(|job| digest_batch(&run_batch(&world, job)))
        .collect();

    let threads = generator_threads(2, p.nproc);
    let traced = |n: usize| p.trace && n % 2 == 1;
    let exec_before = exec.stats();
    let cache_before = cache.stats();
    let obs_before = obs_snapshot();
    let stop = AtomicBool::new(false);
    let quiet = Quiet::default();
    let started = Instant::now();
    let mut ops = OpClasses::default();
    let mut writes = Samples::default();
    let mut interactive = Tally::default();
    let mut max_pending = 0usize;
    let background = std::thread::scope(|scope| {
        let bg = (threads > 1).then(|| {
            let (world, tracer, plain, stop, quiet) = (&world, &tracer, &plain, &stop, &quiet);
            let mut rng = Rng::new(p.seed ^ 0xBA7C);
            scope.spawn(move || {
                let mut tally = Tally::default();
                let mut n = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let _round = quiet.round();
                    let on = traced(n);
                    let t = if on { tracer } else { plain };
                    batch_round(world, t, rng.below(world.batches.len()), &mut tally, on);
                    n += 1;
                }
                tally
            })
        });
        let _stop = StopOnDrop(&stop);

        let mut n = 0usize;
        while p.measuring(started) {
            calibration.tick_quiet(|| quiet.hold());
            let on = traced(n);
            let t = if on { &tracer } else { &plain };
            let roll = rng.unit();
            if roll < 0.6 {
                let k = rng.below(queries.len());
                let q = &schemas[queries[k]];
                let op_start = Instant::now();
                let answer = t.op("op.query", |ctx| {
                    t.child(ctx, "serve.search", |c| {
                        world.ctl.submit(JobClass::Search, 5, |grant| {
                            t.child(c, "serve.run", |c| {
                                t.child(c, "search.query", |_| {
                                    search.query_cancellable(q, 10, Some(grant.token()))
                                })
                            })
                        })
                    })
                });
                ops.queries.push(on, op_start);
                let ok = matches!(answer, Ok(Ok(hits)) if digest_search(&hits) == search_refs[k]);
                out.op(ok);
            } else if roll < 0.9 {
                let k = rng.below(world.point_pairs.len());
                let op_start = Instant::now();
                let ok = t.op("op.match", |ctx| {
                    point_op(&world, t, ctx, k, &mut interactive)
                });
                ops.matches.push(on, op_start);
                out.op(ok);
            } else {
                // Remove a pooled query schema, then put it back: each half
                // is one write, timed until a search snapshot reflects it.
                let k = rng.below(queries.len());
                let s = &schemas[queries[k]];
                for reinsert in [false, true] {
                    let copy = s.clone();
                    let op_start = Instant::now();
                    t.op("op.write", |ctx| {
                        let (_, ms) = t.child_ms(ctx, "repo.register", || {
                            if reinsert {
                                repo.register_schema(copy);
                            } else {
                                repo.remove_schema(s.id);
                            }
                        });
                        let (snap, refresh_ms) =
                            t.child_ms(ctx, "repo.refresh", || repo.token_index());
                        max_pending = max_pending.max(snap.pending_ops());
                        let (rebuilt, rebuild_ms) =
                            t.child_ms(ctx, "search.rebuild", || SchemaSearch::build(&repo));
                        search = rebuilt;
                        if on {
                            out.layers.push("repo.register_ms", ms);
                            out.layers.push("repo.refresh_ms", refresh_ms);
                            out.layers.push("search.rebuild_ms", rebuild_ms);
                        }
                    });
                    writes.push(on, op_start);
                    let hits = search.query(s, 10);
                    out.op(if reinsert {
                        digest_search(&hits) == search_refs[k]
                    } else {
                        hits.iter().all(|h| h.schema_id != s.id)
                    });
                }
            }
            n += 1;
            if threads == 1 && n.is_multiple_of(INLINE_BATCH_EVERY) {
                let k = rng.below(world.batches.len());
                batch_round(&world, t, k, &mut interactive, on);
            }
            std::thread::sleep(THINK);
        }
        stop.store(true, Ordering::Release);
        bg.map(|h| h.join().expect("background generator panicked"))
    });
    let measured = started.elapsed();
    exec_deltas(&mut out.layers, exec_before, exec.stats());
    cache_deltas(&mut out.layers, cache_before, cache.stats());
    out.obs = obs_before.delta();
    for (name, counter) in [
        ("serve.rejected", "serve.rejected"),
        ("serve.shed", "serve.shed"),
        ("serve.timeouts", "serve.timeouts"),
        ("serve.degraded", "serve.degraded"),
    ] {
        let v = out
            .obs
            .iter()
            .find(|(n, _)| *n == counter)
            .map_or(0, |(_, v)| *v);
        out.layers.set(name, v as f64);
    }
    out.layers.set("repo.pending_ops", max_pending as f64);
    let mut all_writes = writes.untraced_ms();
    all_writes.extend(&writes.traced_ms);
    if !all_writes.is_empty() {
        out.layers.set(
            "repo.write_visible_p90_ms",
            stats::percentile(&stats::sorted(&all_writes), 0.90),
        );
    }
    for tally in std::iter::once(interactive).chain(background) {
        for ok in tally.results {
            out.op(ok);
        }
        out.layers.merge(tally.layers);
        ops.bulk.extend(tally.samples);
    }

    drop((search, world));
    restart.extend(restart_half(&repo, &mut calibration, &mut out));
    out.latencies(&ops, &calibration);
    out.seconds("restart_s", &restart, &calibration);
    out.seconds("setup_s", &setup, &calibration);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "generator threads: {threads}, writes: {}, measured {:.1} s",
        all_writes.len(),
        measured.as_secs_f64()
    ));
    if p.trace {
        finish_trace(&tracer, &mut out, p, "registry_serving");
    }
    out
}
