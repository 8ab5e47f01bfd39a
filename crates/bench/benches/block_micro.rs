//! Block-stage kernel micro-benches: index build, per-row probe, posting
//! lookup and full candidate generation, at half the paper's 1378×784
//! scale. These isolate the candidate-generation kernels so probe-level
//! regressions are visible without running the full `blocking_baseline`
//! bin.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use harmony_core::index::{generate_candidates, BlockingPolicy, ElementTokenIndex, ProbeScratch};
use harmony_core::prelude::*;
use sm_bench::case_study;

fn bench_index_build(c: &mut Criterion) {
    let pair = case_study(0.5);
    let engine = MatchEngine::new();
    let prepared = engine.prepare(&pair.source);
    let mut group = c.benchmark_group("block_index_build");
    group.throughput(Throughput::Elements(prepared.len() as u64));
    group.bench_function("csr", |b| {
        b.iter(|| ElementTokenIndex::build(&prepared));
    });
    group.finish();
}

fn bench_probe_rows(c: &mut Criterion) {
    let pair = case_study(0.5);
    let engine = MatchEngine::new();
    let ps = engine.prepare(&pair.source);
    let pt = engine.prepare(&pair.target);
    let index = ElementTokenIndex::build(&pt);
    let policy = BlockingPolicy::default();
    let mut scratch = ProbeScratch::new(pt.len());
    let mut group = c.benchmark_group("block_probe");
    group.throughput(Throughput::Elements(ps.len() as u64));
    // Every source row probed through the public per-row kernel, scratch
    // reused across rows exactly as the parallel lanes do.
    group.bench_function("rows_csr", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for idx in 0..ps.len() {
                kept += index
                    .probe_row(ps.block_features_of(idx), &policy, &mut scratch)
                    .len();
            }
            kept
        });
    });
    group.finish();
}

fn bench_posting_lookup(c: &mut Criterion) {
    let pair = case_study(0.5);
    let engine = MatchEngine::new();
    let ps = engine.prepare(&pair.source);
    let pt = engine.prepare(&pair.target);
    let csr = ElementTokenIndex::build(&pt);
    // The probe's lookup stream: every source element's features, in probe
    // order.
    let feats: Vec<_> = (0..ps.len())
        .flat_map(|idx| ps.block_features_of(idx).iter().copied())
        .collect();
    let mut group = c.benchmark_group("block_posting_lookup");
    group.throughput(Throughput::Elements(feats.len() as u64));
    group.bench_function("csr", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            let mut weight = 0.0f64;
            for &f in &feats {
                hits += csr.postings_by_id(f).len();
                weight += csr.weight_by_id(f);
            }
            (hits, weight)
        });
    });
    group.finish();
}

fn bench_generate(c: &mut Criterion) {
    let pair = case_study(0.5);
    let engine = MatchEngine::new();
    let ps = engine.prepare(&pair.source);
    let pt = engine.prepare(&pair.target);
    let policy = BlockingPolicy::default();
    let mut group = c.benchmark_group("block_generate");
    group.sample_size(20);
    group.bench_function("csr", |b| {
        b.iter(|| {
            generate_candidates(
                &pair.source,
                &pair.target,
                &ps,
                &pt,
                None,
                &policy,
                Job::new(engine.executor(), 1),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_probe_rows,
    bench_posting_lookup,
    bench_generate
);
criterion_main!(benches);
