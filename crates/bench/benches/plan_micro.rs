//! Plan-stage kernel micro-benches: the N² overlap-bound walk and the
//! cluster-first partition over its estimates, at the `nway_baseline` n100
//! tier's registry scale (100 schemata, 4,950 unordered pairs). These
//! isolate the planning kernels so estimator regressions are visible
//! without running the full `nway_baseline` bin.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use harmony_core::prelude::*;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::sync::Arc;

fn prepared_registry() -> Vec<Arc<PreparedSchema>> {
    let population = SyntheticRepository::generate(&RepositoryConfig {
        seed: 2031,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    });
    let schemas: Vec<&Schema> = population.schemas.iter().collect();
    let engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let batch = engine.batch().plan_all_pairs(&schemas);
    batch.prepared().to_vec()
}

fn bench_overlap_walk(c: &mut Criterion) {
    let prepared = prepared_registry();
    let n = prepared.len();
    let mut group = c.benchmark_group("plan_overlap_walk");
    group.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
    // The single posting walk that replaces per-pair vocabulary probes:
    // all N² bounds from one pass over the shared blocking vocabulary.
    group.bench_function("uncapped", |b| {
        b.iter(|| OverlapEstimates::from_prepared(&prepared));
    });
    group.bench_function("df_cap_32", |b| {
        b.iter(|| OverlapEstimates::from_prepared_capped(&prepared, 32));
    });
    group.finish();
}

fn bench_cluster_partition(c: &mut Criterion) {
    let prepared = prepared_registry();
    let n = prepared.len();
    let estimates = OverlapEstimates::from_prepared(&prepared);
    let mut group = c.benchmark_group("plan_cluster_partition");
    group.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
    group.bench_function("from_overlap", |b| {
        b.iter(|| ClusterPlan::from_overlap(&estimates, 0.8));
    });
    group.finish();
}

criterion_group!(benches, bench_overlap_walk, bench_cluster_partition);
criterion_main!(benches);
