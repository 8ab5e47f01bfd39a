//! Observability pins: recording must never perturb match results, spans
//! must nest well-formedly per lane, concurrent executor lanes must all
//! land in the collected trace, and each pipeline stage's span must be its
//! `StageTimings` entry.
//!
//! The obs recorder is process-global state (per-thread rings + one counter
//! table), so every test here serializes on one mutex and resets the
//! recorder before measuring.

use harmony_core::index::BlockingPolicy;
use harmony_core::obs;
use harmony_core::prelude::*;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Recording enabled vs disabled must select byte-identical
/// correspondences from identical inputs.
#[test]
fn recording_does_not_perturb_selections() {
    let _g = lock();
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(7, 0.3));
    let engine = MatchEngine::new()
        .with_threads(2)
        .with_score_floor(Some(0.30))
        .with_executor(Arc::new(Executor::new(2)));
    let policy = BlockingPolicy::default();
    let selection = Selection::OneToOne {
        min: Confidence::new(0.30),
    };

    let mut selected = Vec::new();
    for enabled in [true, false] {
        obs::reset();
        obs::set_enabled(enabled);
        let r = engine.run_blocked(&pair.source, &pair.target, &policy);
        let mut pairs: Vec<(u32, u32, f64)> = selection
            .apply(&r.matrix)
            .all()
            .iter()
            .map(|c| (c.source.0, c.target.0, c.score.value()))
            .collect();
        pairs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        selected.push(pairs);
    }
    obs::set_enabled(true);
    assert!(!selected[0].is_empty(), "pin needs a non-trivial selection");
    assert_eq!(
        selected[0], selected[1],
        "recording toggled the selected correspondences"
    );
}

/// Spans recorded on one lane come from one thread's call stack, so any two
/// must be either disjoint in time or properly nested — checked with a
/// stack sweep over the collected events. Also pins that a 2-wide private
/// executor actually produces events from concurrent worker lanes, and that
/// the counters the run must bump are present and consistent.
#[test]
fn trace_is_well_formed_across_lanes() {
    let _g = lock();
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(7, 0.3));
    let exec = Arc::new(Executor::new(2));
    let engine = MatchEngine::new()
        .with_threads(2)
        .with_score_floor(Some(0.30))
        .with_executor(Arc::clone(&exec));
    obs::reset();
    obs::set_enabled(true);
    let r = engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
    let _ = Selection::OneToOne {
        min: Confidence::new(0.30),
    }
    .apply(&r.matrix);
    // A pool worker records an `exec.lane` span by construction, even on
    // one CPU: both items wait on one barrier, so lane 0 cannot claim the
    // second item before its own returns, and only a worker can run it.
    let barrier = Barrier::new(2);
    Job::new(&exec, 2).map([0, 1], |_, _| {
        barrier.wait();
    });

    let mut events = obs::collect();
    assert!(!events.is_empty(), "instrumented run recorded nothing");

    // Concurrent writers: the caller lane plus at least one pool worker.
    let mut lanes: Vec<usize> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(
        lanes.len() >= 2,
        "expected events from >= 2 lanes, got {lanes:?}"
    );
    assert!(
        events.iter().any(|e| e.thread.starts_with("sm-exec-")),
        "no events from executor worker threads"
    );

    // The stage spans the blocked pipeline must emit, each exactly once.
    for kind in [
        obs::SpanKind::StageBlock,
        obs::SpanKind::StageScore,
        obs::SpanKind::StagePropagate,
        obs::SpanKind::StageSelect,
    ] {
        assert_eq!(
            events.iter().filter(|e| e.kind == kind).count(),
            1,
            "stage span {} missing or duplicated",
            kind.name()
        );
    }

    // Block's post-probe passes: the serial child-rescue pass once, and at
    // least one row-assembly chunk and one closure level.
    let count = |kind| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(obs::SpanKind::BlockRescue), 1, "block.rescue");
    assert!(count(obs::SpanKind::BlockAssemble) >= 1, "block.assemble");
    assert!(count(obs::SpanKind::BlockClose) >= 1, "block.close");
    // Score's serial prologue: the context's tier-1 digests, built once
    // before the lanes start.
    assert_eq!(count(obs::SpanKind::ScoreDigests), 1, "score.digests");
    // Stage payloads: Prepare counts the pair corpus's documents (one per
    // element of either schema), Propagate the rows it blended (at most
    // one per source element, and some on this pair).
    let payload = |kind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.payload)
            .expect("stage span recorded")
    };
    assert_eq!(
        payload(obs::SpanKind::StagePrepare),
        (pair.source.len() + pair.target.len()) as u64,
        "stage.prepare payload"
    );
    let blended = payload(obs::SpanKind::StagePropagate);
    assert!(
        blended > 0 && blended <= pair.source.len() as u64,
        "stage.propagate payload {blended}"
    );

    // Well-formed nesting per lane: sweep events in start order keeping a
    // stack of open intervals; every event must fall entirely inside the
    // enclosing open one (ring eviction can drop a *parent*, which only
    // removes a containment check, never creates an overlap).
    events.sort_by_key(|e| (e.lane, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut stack: Vec<(usize, u64, u64, &str)> = Vec::new(); // (lane, start, end, kind)
    for e in &events {
        let end = e.ts_ns + e.dur_ns;
        while let Some(&(lane, _, open_end, _)) = stack.last() {
            if lane != e.lane || open_end <= e.ts_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, open_start, open_end, open_kind)) = stack.last() {
            assert!(
                e.ts_ns >= open_start && end <= open_end,
                "span {} [{}, {}) overlaps enclosing {} [{}, {}) on lane {}",
                e.kind.name(),
                e.ts_ns,
                end,
                open_kind,
                open_start,
                open_end,
                e.lane
            );
        }
        stack.push((e.lane, e.ts_ns, end, e.kind.name()));
    }

    // Counters: the cascade partition matches the run's scored pairs, and
    // the candidate probe touched every source row at least once.
    let pruned = obs::counter_value(obs::Counter::CascadePairsPruned);
    let full = obs::counter_value(obs::Counter::CascadePairsFull);
    assert_eq!(
        (pruned + full) as usize,
        r.pairs_scored,
        "cascade counters must partition the scored pairs"
    );
    assert!(obs::counter_value(obs::Counter::ProbeRows) >= pair.source.len() as u64);

    // The aggregate report carries every registered counter by name.
    let report = obs::TraceReport::from_events(&events);
    for c in obs::COUNTERS {
        assert!(
            report.counters.iter().any(|(name, _)| *name == c.name()),
            "counter {} missing from TraceReport",
            c.name()
        );
    }
    obs::set_enabled(true);
}

/// A cold prepare's `cache.build` span is accounted for by the build's own
/// passes: the element-chunk spans of both phases and the serial assembly
/// span. On one lane every pass runs on the calling thread, so the wall
/// time those spans leave uncovered is uninstrumented work; it must stay
/// under 10%. (On more lanes, wall-clock coverage also drops while the OS
/// hands a single CPU between lanes — `scripts/flake.sh` pins this test to
/// one — so there the test checks that every element is accounted for by
/// exactly one chunk span per phase, across lanes. It runs first, which
/// also gives this thread its span ring: the first span a thread records
/// allocates the ring, which is not build work.)
#[test]
fn cold_prepare_is_covered_by_its_chunk_spans() {
    let _g = lock();
    obs::set_enabled(true);
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(7, 0.3));
    let exec = Arc::new(Executor::new(2));
    for lanes in [2, 1] {
        let engine = MatchEngine::new()
            .with_feature_cache(Arc::new(harmony_core::prepare::FeatureCache::new(
                sm_text::normalize::Normalizer::new(),
            )))
            .with_threads(lanes)
            .with_executor(Arc::clone(&exec));
        obs::reset();
        let prepared = engine.prepare(&pair.source);
        let events = obs::collect();

        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(obs::SpanKind::CacheBuild), 1, "one cold build");
        assert_eq!(count(obs::SpanKind::PrepareAssemble), 1, "one serial tail");
        let chunked: u64 = events
            .iter()
            .filter(|e| e.kind == obs::SpanKind::PrepareChunk)
            .map(|e| e.payload)
            .sum();
        assert_eq!(
            chunked,
            2 * prepared.len() as u64,
            "{lanes} lanes: each phase's chunks cover every element once"
        );
        if lanes == 1 {
            let covered = obs::coverage(
                &events,
                obs::SpanKind::CacheBuild,
                &[obs::SpanKind::PrepareChunk, obs::SpanKind::PrepareAssemble],
            );
            assert!(
                covered[0] >= 0.9,
                "cache.build child-span coverage {:.3} below 0.9",
                covered[0]
            );
        }
    }
}

/// An engine on a private cold feature cache and a private 2-wide pool.
fn cold_engine() -> MatchEngine {
    MatchEngine::new()
        .with_feature_cache(Arc::new(harmony_core::prepare::FeatureCache::new(
            sm_text::normalize::Normalizer::new(),
        )))
        .with_threads(2)
        .with_score_floor(Some(0.30))
        .with_executor(Arc::new(Executor::new(2)))
}

/// Every `stage.*` span recorded since the last reset is exactly its
/// `StageTimings` entry, to the nanosecond (Score's span is the fused
/// window, `score + merge`), and each stage recorded one span (Select none
/// when the run selected nothing).
fn assert_spans_are_timings(name: &str, timings: &StageTimings) {
    let events = obs::collect();
    let stages = [
        (obs::SpanKind::StagePrepare, timings.prepare),
        (obs::SpanKind::StageBlock, timings.block),
        (obs::SpanKind::StageScore, timings.score + timings.merge),
        (obs::SpanKind::StagePropagate, timings.propagate),
        (obs::SpanKind::StageSelect, timings.select),
    ];
    for (kind, timing) in stages {
        let spans: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.dur_ns)
            .collect();
        if kind == obs::SpanKind::StageSelect && timing == Duration::ZERO {
            assert!(spans.is_empty(), "{name}: select span without a selection");
            continue;
        }
        assert_eq!(spans.len(), 1, "{name}: {} spans", kind.name());
        assert_eq!(
            u128::from(spans[0]),
            timing.as_nanos(),
            "{name}: {} span vs its StageTimings entry",
            kind.name()
        );
    }
    assert_eq!(
        timings.score,
        timings.score_tier1 + timings.score_tier2,
        "{name}: score is the sum of its tiers"
    );
}

/// Each pipeline stage is timed once, by its span: a dense run, a blocked
/// run on a cold cache, a dense run with selection, and a one-pair batch
/// with selection.
#[test]
fn stage_spans_equal_stage_timings() {
    let _g = lock();
    obs::set_enabled(true);
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(3, 0.1));
    let (source, target) = (&pair.source, &pair.target);
    let selection = Selection::OneToOne {
        min: Confidence::new(0.30),
    };
    let engine = cold_engine();

    obs::reset();
    let blocked = engine.run_blocked(source, target, &BlockingPolicy::default());
    assert_spans_are_timings("blocked run", &blocked.timings);

    obs::reset();
    let dense = engine.run(source, target);
    assert_spans_are_timings("dense run", &dense.timings);

    obs::reset();
    let (dense, _) = engine.pipeline().run_select(source, target, &selection);
    assert!(dense.timings.select > Duration::ZERO);
    assert_spans_are_timings("dense run_select", &dense.timings);

    let batch = engine.batch().plan(&[source, target], [(0, 1)]);
    obs::reset();
    let result = batch.run_select_only(&selection);
    assert_spans_are_timings("one-pair batch", &result.pairs[0].timings);
}

/// On a cold cache a blocked run's Prepare stage builds both schemata's
/// features: every `cache.build` span nests inside the run's one
/// `stage.prepare` span.
#[test]
fn cold_blocked_prepare_contains_its_cache_builds() {
    let _g = lock();
    obs::set_enabled(true);
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(5, 0.1));
    let engine = cold_engine();
    obs::reset();
    let r = engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
    let events = obs::collect();
    let prepare: Vec<&obs::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == obs::SpanKind::StagePrepare)
        .collect();
    assert_eq!(prepare.len(), 1, "one stage.prepare");
    let (start, end) = (prepare[0].ts_ns, prepare[0].ts_ns + prepare[0].dur_ns);
    assert_eq!(u128::from(prepare[0].dur_ns), r.timings.prepare.as_nanos());
    let builds: Vec<&obs::TraceEvent> = events
        .iter()
        .filter(|e| e.kind == obs::SpanKind::CacheBuild)
        .collect();
    assert_eq!(builds.len(), 2, "a cold run builds both schemata");
    for build in builds {
        assert!(
            build.ts_ns >= start && build.ts_ns + build.dur_ns <= end,
            "cache.build [{}, {}) outside stage.prepare [{start}, {end})",
            build.ts_ns,
            build.ts_ns + build.dur_ns
        );
    }
}

/// A run with instance data has its Prepare stage traced like any other.
#[test]
fn instance_run_records_one_prepare_span() {
    let _g = lock();
    obs::set_enabled(true);
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(5, 0.1));
    let none = sm_schema::InstanceData::empty();
    let engine = cold_engine();
    obs::reset();
    let r = engine.run_with_instances(&pair.source, &pair.target, &none, &none);
    let prepare: Vec<u64> = obs::collect()
        .iter()
        .filter(|e| e.kind == obs::SpanKind::StagePrepare)
        .map(|e| e.dur_ns)
        .collect();
    assert_eq!(prepare.len(), 1, "one stage.prepare");
    assert_eq!(u128::from(prepare[0]), r.timings.prepare.as_nanos());
}

/// A batch's Plan stage is timed once, by its `stage.plan` span, which is
/// `StageTimings::plan` to the nanosecond. Its index, estimate and schedule
/// parts are its only `plan.*` child spans, one each and inside it, each the
/// `PlanBreakdown` field of its name. A cold plan builds one index per schema, inside
/// `plan.index`; a warm plan builds none, and neither does any pair job of
/// the run.
#[test]
fn plan_spans_equal_the_plan_breakdown() {
    let _g = lock();
    obs::set_enabled(true);
    let corpus = sm_synth::SyntheticRepository::generate(&sm_synth::RepositoryConfig {
        seed: 11,
        domains: 2,
        schemas_per_domain: 4,
        concepts_per_domain: 10,
        concept_coverage: 0.5,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    });
    let refs: Vec<&sm_schema::Schema> = corpus.schemas.iter().collect();
    let selection = Selection::OneToOne {
        min: Confidence::new(0.30),
    };
    let engine = cold_engine();
    for (label, index_builds) in [("cold", refs.len()), ("warm", 0)] {
        obs::reset();
        let batch = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        let events = obs::collect();
        let of = |kind: obs::SpanKind| -> Vec<&obs::TraceEvent> {
            events.iter().filter(|e| e.kind == kind).collect()
        };
        let plan = of(obs::SpanKind::StagePlan);
        assert_eq!(plan.len(), 1, "{label}: one stage.plan");
        let (start, end) = (plan[0].ts_ns, plan[0].ts_ns + plan[0].dur_ns);
        assert_eq!(
            u128::from(plan[0].dur_ns),
            batch.plan_time().as_nanos(),
            "{label}"
        );
        let inside = |e: &obs::TraceEvent| e.ts_ns >= start && e.ts_ns + e.dur_ns <= end;
        let breakdown = batch.plan_breakdown();
        let mut children: Vec<&str> = events
            .iter()
            .map(|e| e.kind.name())
            .filter(|name| name.starts_with("plan."))
            .collect();
        children.sort_unstable();
        assert_eq!(
            children,
            ["plan.estimate", "plan.index", "plan.schedule"],
            "{label}: stage.plan's child spans"
        );
        for (kind, timing) in [
            (obs::SpanKind::PlanIndex, breakdown.index),
            (obs::SpanKind::PlanEstimate, breakdown.estimate),
            (obs::SpanKind::PlanSchedule, breakdown.schedule),
        ] {
            let spans = of(kind);
            assert!(
                inside(spans[0]),
                "{label}: {} outside stage.plan",
                kind.name()
            );
            assert_eq!(
                u128::from(spans[0].dur_ns),
                timing.as_nanos(),
                "{label}: {} span vs its PlanBreakdown field",
                kind.name()
            );
        }
        let index = of(obs::SpanKind::PlanIndex)[0];
        let builds = of(obs::SpanKind::IndexBuild);
        assert_eq!(builds.len(), index_builds, "{label}: index builds");
        assert!(builds.iter().all(|b| {
            b.ts_ns >= index.ts_ns && b.ts_ns + b.dur_ns <= index.ts_ns + index.dur_ns
        }));

        obs::reset();
        let run = batch.run_select_only(&selection);
        assert_eq!(run.timings.plan, batch.plan_time(), "{label}");
        assert!(
            obs::collect()
                .iter()
                .all(|e| e.kind != obs::SpanKind::IndexBuild),
            "{label}: a pair job built an index"
        );
    }
}

/// Two blocked matches racing to be the first blocked use of the same two
/// preparations build each one's token index once, and block identically;
/// a later match builds none.
#[test]
fn racing_first_uses_build_each_index_once() {
    let _g = lock();
    obs::set_enabled(true);
    let pair = sm_synth::SchemaPair::generate(&sm_synth::GeneratorConfig::paper_case_study(5, 0.1));
    let (source, target) = (&pair.source, &pair.target);
    let policy = BlockingPolicy::default();
    let engine = cold_engine();
    engine.prepare(source);
    engine.prepare(target);
    let count_builds = || {
        obs::collect()
            .iter()
            .filter(|e| e.kind == obs::SpanKind::IndexBuild)
            .count()
    };
    obs::reset();
    let barrier = Barrier::new(2);
    let runs: Vec<BlockedMatchResult> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.run_blocked(source, target, &policy)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(runs[0].candidates, runs[1].candidates);
    assert_eq!(runs[0].matrix.as_slice(), runs[1].matrix.as_slice());
    assert_eq!(count_builds(), 2, "one index.build per preparation");

    obs::reset();
    let later = engine.run_blocked(source, target, &policy);
    assert_eq!(later.candidates, runs[0].candidates);
    assert_eq!(count_builds(), 0, "a later use reads the cached indices");
}
