//! Pin: admission control is an *execution* change, never a semantics
//! change — and cancellation is clean.
//!
//! Jobs that are cancelled or deadline-tripped mid-traffic must leave
//! every surviving job's result byte-identical to an uncontended
//! reference run: no partial cache entries bleeding into later prepares,
//! no poisoned executor, no lane budget leaked by an unwinding stage.

use harmony_core::prelude::*;
use harmony_core::serve::{
    AdmissionController, CancelReason, JobClass, JobToken, ServeConfig, ServeError,
};
use sm_schema::Schema;
use sm_synth::{GeneratorConfig, RepositoryConfig, SchemaPair, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::sync::Arc;
use std::time::Duration;

fn population(seed: u64, n: usize) -> Vec<Schema> {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 1,
        schemas_per_domain: n,
        concepts_per_domain: 12,
        concept_coverage: 0.6,
        attrs_per_concept: (3, 6),
        ..Default::default()
    })
    .schemas
}

/// An engine on the shared serving pool + cache. Engines are cheap (the
/// panel is rebuilt); the cache and executor are the shared state under
/// test.
fn engine(exec: &Arc<Executor>, cache: &Arc<FeatureCache>, threads: usize) -> MatchEngine {
    MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_feature_cache(Arc::clone(cache))
        .with_executor(Arc::clone(exec))
        .with_threads(threads)
}

#[test]
fn cancelled_jobs_leave_survivor_selections_byte_identical() {
    const THREADS: usize = 4;
    let schemas = population(23, 6);
    let pairs: Vec<(usize, usize)> = (0..schemas.len())
        .flat_map(|i| ((i + 1)..schemas.len()).map(move |j| (i, j)))
        .collect();
    let policy = BlockingPolicy::default();

    // Uncontended reference: each pair matched serially on a private
    // cache, no admission layer anywhere near it.
    let ref_exec = Arc::new(Executor::new(THREADS));
    let ref_cache = Arc::new(FeatureCache::new(Normalizer::new()));
    let ref_engine = engine(&ref_exec, &ref_cache, THREADS);
    let reference: Vec<Vec<f32>> = pairs
        .iter()
        .map(|&(i, j)| {
            ref_engine
                .run_blocked(&schemas[i], &schemas[j], &policy)
                .matrix
                .as_slice()
                .to_vec()
        })
        .collect();

    // Served run: every pair goes through the admission controller while
    // doomed jobs (pre-cancelled, zero-deadline) churn through the same
    // queues, cache, and lane budgets on sibling threads.
    let exec = Arc::new(Executor::new(THREADS));
    let cache = Arc::new(FeatureCache::new(Normalizer::new()));
    let ctl = Arc::new(AdmissionController::new(
        Arc::clone(&exec),
        Arc::clone(&cache),
        ServeConfig::for_pool(THREADS),
    ));

    let schemas = Arc::new(schemas);
    let doomed: Vec<_> = (0..6)
        .map(|k| {
            let ctl = Arc::clone(&ctl);
            let exec = Arc::clone(&exec);
            let cache = Arc::clone(&cache);
            let schemas = Arc::clone(&schemas);
            std::thread::spawn(move || {
                let token = if k % 2 == 0 {
                    let t = JobToken::new();
                    t.cancel();
                    t
                } else {
                    JobToken::deadline_in(Duration::ZERO)
                };
                let outcome = ctl.submit_with_token(
                    JobClass::Batch,
                    1,
                    token,
                    |grant: &harmony_core::serve::JobGrant| {
                        let e = grant.bind(engine(&exec, &cache, THREADS));
                        // First checkpoint inside the pipeline unwinds.
                        e.run_blocked(
                            &schemas[k % 5],
                            &schemas[k % 5 + 1],
                            &BlockingPolicy::default(),
                        )
                        .matrix
                        .as_slice()
                        .to_vec()
                    },
                );
                match outcome {
                    Err(ServeError::Cancelled { reason, .. }) => {
                        let expect = if k % 2 == 0 {
                            CancelReason::Cancelled
                        } else {
                            CancelReason::Deadline
                        };
                        assert_eq!(
                            reason, expect,
                            "doomed job {k} tripped for the wrong reason"
                        );
                    }
                    Err(other) => panic!("doomed job {k}: unexpected error {other}"),
                    Ok(_) => panic!("doomed job {k} ran to completion with a tripped token"),
                }
            })
        })
        .collect();

    let survivors: Vec<_> = pairs
        .iter()
        .map(|&(i, j)| {
            let ctl = Arc::clone(&ctl);
            let exec = Arc::clone(&exec);
            let cache = Arc::clone(&cache);
            let schemas = Arc::clone(&schemas);
            std::thread::spawn(move || {
                ctl.submit(JobClass::PointMatch, 5, |grant| {
                    let e = grant.bind(engine(&exec, &cache, THREADS));
                    e.run_blocked(&schemas[i], &schemas[j], &BlockingPolicy::default())
                        .matrix
                        .as_slice()
                        .to_vec()
                })
                .expect("survivor admitted and completed")
            })
        })
        .collect();

    for d in doomed {
        d.join().expect("doomed-job thread panicked");
    }
    let served: Vec<Vec<f32>> = survivors
        .into_iter()
        .map(|s| s.join().expect("survivor thread panicked"))
        .collect();

    for (idx, (got, want)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "pair {:?} diverged from the uncontended reference",
            pairs[idx]
        );
    }

    // The executor and cache survived every unwind: a fresh uncached pair
    // of schemata still matches, through the controller, on the same pool.
    let fresh = population(91, 2);
    let again = ctl
        .submit(JobClass::PointMatch, 5, |grant| {
            let e = grant.bind(engine(&exec, &cache, THREADS));
            e.run_blocked(&fresh[0], &fresh[1], &BlockingPolicy::default())
                .matrix
                .as_slice()
                .to_vec()
        })
        .expect("pool usable after cancellations");
    let check = ref_engine
        .run_blocked(&fresh[0], &fresh[1], &policy)
        .matrix
        .as_slice()
        .to_vec();
    assert_eq!(again, check, "post-cancellation run diverged");
}

#[test]
fn mid_run_cancellation_unwinds_without_poisoning_shared_state() {
    const THREADS: usize = 4;
    let schemas = Arc::new(population(37, 4));
    let exec = Arc::new(Executor::new(THREADS));
    let cache = Arc::new(FeatureCache::new(Normalizer::new()));
    let ctl = AdmissionController::new(
        Arc::clone(&exec),
        Arc::clone(&cache),
        ServeConfig::for_pool(THREADS),
    );

    // Cancel from a racing thread while the job is (likely) mid-pipeline;
    // whichever side wins, the outcome must be either a clean result or a
    // clean `Cancelled` — never a panic, never a poisoned pool.
    for round in 0..8u64 {
        let token = JobToken::new();
        let killer = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(round * 150));
                token.cancel();
            })
        };
        let outcome = ctl.submit_with_token(JobClass::PointMatch, 5, token, |grant| {
            let e = grant.bind(engine(&exec, &cache, THREADS));
            e.run_blocked(&schemas[0], &schemas[1], &BlockingPolicy::Exhaustive)
                .matrix
                .as_slice()
                .to_vec()
        });
        killer.join().unwrap();
        match outcome {
            Ok(matrix) => assert!(!matrix.is_empty()),
            Err(ServeError::Cancelled { reason, .. }) => {
                assert_eq!(reason, CancelReason::Cancelled)
            }
            Err(other) => panic!("round {round}: unexpected error {other}"),
        }
    }

    // Deterministic check after the churn: result equals a fresh engine's.
    let served = ctl
        .submit(JobClass::PointMatch, 5, |grant| {
            let e = grant.bind(engine(&exec, &cache, THREADS));
            e.run_blocked(&schemas[2], &schemas[3], &BlockingPolicy::default())
                .matrix
                .as_slice()
                .to_vec()
        })
        .unwrap();
    let reference = engine(
        &Arc::new(Executor::new(THREADS)),
        &Arc::new(FeatureCache::new(Normalizer::new())),
        THREADS,
    )
    .run_blocked(&schemas[2], &schemas[3], &BlockingPolicy::default())
    .matrix
    .as_slice()
    .to_vec();
    assert_eq!(served, reference);
}

/// The operations whose lane budget and job token the two pins below
/// check on a bound engine.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A restricted increment: the first schema's second root subtree
    /// against the whole second schema, on a context built beforehand.
    RestrictedIncrement,
    /// A blocked point match with per-pair index builds, on schemata of
    /// several 64-element chunks (a `population()` schema is one chunk,
    /// too small for an index build to fan out).
    BlockedMatch,
    /// A batch plan over four schemata (preparation and index builds), then
    /// its run.
    BatchPlanRun,
}

const OPS: [Op; 3] = [Op::RestrictedIncrement, Op::BlockedMatch, Op::BatchPlanRun];

impl Op {
    fn class(self) -> JobClass {
        match self {
            Op::BatchPlanRun => JobClass::Batch,
            Op::RestrictedIncrement | Op::BlockedMatch => JobClass::PointMatch,
        }
    }

    fn schemas(self, seed: u64) -> Vec<Schema> {
        match self {
            Op::RestrictedIncrement => population(seed, 2),
            Op::BlockedMatch => {
                let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.3));
                vec![pair.source, pair.target]
            }
            Op::BatchPlanRun => population(seed, 4),
        }
    }

    /// Set the operation up over `schemas` (the increment's context is
    /// built here, on the unbound `plain` engine), then hand `body` a
    /// closure that runs it on an engine and returns its scored pairs as
    /// `(source, target, score)`: the increment's element ids, a matrix's
    /// row and column.
    fn with<R>(
        self,
        schemas: &[Schema],
        plain: &MatchEngine,
        body: impl FnOnce(&dyn Fn(&MatchEngine) -> Vec<(usize, usize, f64)>) -> R,
    ) -> R {
        fn cells(m: &MatchMatrix) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
            let cols = m.cols();
            m.as_slice()
                .iter()
                .enumerate()
                .map(move |(i, &v)| (i / cols, i % cols, f64::from(v)))
        }
        match self {
            Op::RestrictedIncrement => {
                let ctx = plain.build_context(&schemas[0], &schemas[1]);
                let source_ids = NodeFilter::subtree(schemas[0].roots()[1]).select(&schemas[0]);
                let target_ids = NodeFilter::All.select(&schemas[1]);
                body(&|e| {
                    let pairs = e.run_restricted(&ctx, &source_ids, &target_ids).pairs;
                    assert!(!pairs.is_empty());
                    pairs
                        .iter()
                        .map(|&(s, t, c)| (s.index(), t.index(), c.value()))
                        .collect()
                })
            }
            Op::BlockedMatch => body(&|e| {
                cells(
                    &e.run_blocked(&schemas[0], &schemas[1], &BlockingPolicy::default())
                        .matrix,
                )
                .collect()
            }),
            Op::BatchPlanRun => {
                let refs: Vec<&Schema> = schemas.iter().collect();
                body(&|e| {
                    let run = e.batch().plan_all_pairs(&refs).run();
                    run.pairs
                        .iter()
                        .flat_map(|p| cells(&p.result.matrix))
                        .collect()
                })
            }
        }
    }
}

/// Every governed operation honours the job token: a token tripped before
/// submission cancels it at its first claim, before it prepares anything —
/// a batch plan included, whose schemata stay out of the cache.
#[test]
fn restricted_increment_with_tripped_token_is_cancelled() {
    const THREADS: usize = 4;
    for op in OPS {
        let schemas = op.schemas(61);
        let exec = Arc::new(Executor::new(THREADS));
        let cache = Arc::new(FeatureCache::new(Normalizer::new()));
        let ctl = AdmissionController::new(
            Arc::clone(&exec),
            Arc::clone(&cache),
            ServeConfig::for_pool(THREADS),
        );
        op.with(&schemas, &engine(&exec, &cache, THREADS), |run| {
            let entries = cache.stats().entries;
            let token = JobToken::new();
            token.cancel();
            let outcome = ctl.submit_with_token(op.class(), 5, token, |grant| {
                run(&grant.bind(engine(&exec, &cache, THREADS)))
            });
            match outcome {
                Err(ServeError::Cancelled { reason, .. }) => {
                    assert_eq!(reason, CancelReason::Cancelled, "{op:?}")
                }
                Err(other) => panic!("{op:?}: unexpected error {other}"),
                Ok(_) => panic!("{op:?} ran to completion with a tripped token"),
            }
            assert_eq!(
                cache.stats().entries,
                entries,
                "{op:?}: a cancelled operation prepared a schema"
            );
        });
    }
}

/// Every governed operation draws its helper lanes from the class budget:
/// at a zero budget it runs inline on the caller (no lane is offered to the
/// pool, the first blocked use's index builds and the batch plan included)
/// and returns scored pairs (ids and scores) identical to the unbudgeted
/// run. The unbudgeted reference runs on a cache of its own, so the
/// governed run finds its schemata neither prepared nor indexed and does
/// both itself.
#[test]
fn restricted_increment_under_zero_lane_budget_runs_inline_identically() {
    const THREADS: usize = 4;
    for op in OPS {
        let schemas = op.schemas(67);
        let exec = Arc::new(Executor::new(THREADS));
        let cache = Arc::new(FeatureCache::new(Normalizer::new()));
        let mut config = ServeConfig::for_pool(THREADS);
        config.policy_mut(op.class()).lane_fraction = 0.0;
        let ctl = AdmissionController::new(Arc::clone(&exec), Arc::clone(&cache), config);
        assert_eq!(ctl.budget(op.class()).width(), 0);

        let unbudgeted = engine(
            &exec,
            &Arc::new(FeatureCache::new(Normalizer::new())),
            THREADS,
        );
        op.with(&schemas, &engine(&exec, &cache, THREADS), |run| {
            let reference = run(&unbudgeted);
            let blocks = !matches!(op, Op::RestrictedIncrement);
            if blocks {
                assert_eq!(cache.stats().entries, 0, "{op:?}: the cache is cold");
            }
            let before = exec.stats();
            let served = ctl
                .submit(op.class(), 5, |grant| {
                    run(&grant.bind(engine(&exec, &cache, THREADS)))
                })
                .expect("operation admitted and completed");
            let after = exec.stats();
            assert_eq!(
                after.enqueued, before.enqueued,
                "{op:?}: a zero lane budget must not offer helper lanes to the pool"
            );
            assert!(after.inline_runs > before.inline_runs, "{op:?} ran inline");
            assert_eq!(served, reference, "{op:?}: budgeted run diverged");
            if blocks {
                for schema in &schemas {
                    let prepared = cache.prepare(schema);
                    assert!(
                        prepared.built_token_index().is_some(),
                        "{op:?}: the governed run indexed every schema"
                    );
                }
            }
        });
    }
}
