//! The N-way expansion of §3.4: build a comprehensive vocabulary over five
//! schemata {S_A, S_C, S_D, S_E, S_F} — "for any non-empty subset … the terms
//! those schemata (and no others in that group) held in common" — i.e. all
//! 2^5 − 1 = 31 partition cells of Lesson #4.
//!
//! Run with: `cargo run --release --example nway_vocabulary`

use harmony_core::prelude::*;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};

fn main() {
    // Five schemata drawn from one domain pool so they genuinely overlap.
    let population = SyntheticRepository::generate(&RepositoryConfig {
        seed: 23,
        domains: 1,
        schemas_per_domain: 5,
        concepts_per_domain: 24,
        concept_coverage: 0.6,
        attrs_per_concept: (4, 8),
        ..Default::default()
    });
    let schemas: Vec<&Schema> = population.schemas.iter().collect();
    let names = ["S_A", "S_C", "S_D", "S_E", "S_F"];
    for (s, n) in schemas.iter().zip(names) {
        println!("{n}: {} elements", s.len());
    }

    // Pairwise matching is one planned batch — the production path for
    // every many-pair workload: the planner prepares and token-indexes each
    // of the five schemata exactly once, generates candidates per pair from
    // the preparations' own indices under the default blocking policy, and
    // executes all ten pairs concurrently on the persistent executor.
    let engine = MatchEngine::new();
    let threshold = Confidence::new(0.35);

    // The planner is also directly visible: inspect the Plan stage before
    // committing to execution.
    let batch = engine.batch().plan_all_pairs(&schemas);
    println!(
        "batch plan: {} schemata indexed once, {} pair requests, planned in {:?}",
        batch.prepared().len(),
        batch.requests().len(),
        batch.plan_time()
    );
    drop(batch);

    // `populate_pairwise` runs exactly that batch and closes the union-find.
    let mut nway = NWayMatch::new(schemas.clone());
    let outcomes = nway.populate_pairwise(&engine, threshold, "engine");
    let recorded: usize = outcomes.iter().map(|o| o.validated).sum();
    let scored: usize = outcomes.iter().map(|o| o.pairs_scored).sum();
    let considered: usize = outcomes.iter().map(|o| o.pairs_considered).sum();
    println!(
        "pairwise matches recorded: {recorded} ({scored} of {considered} cross-product pairs scored, {:.1}%)",
        100.0 * scored as f64 / considered.max(1) as f64
    );

    // The comprehensive vocabulary and its 2^N − 1 cells.
    let vocabulary = nway.vocabulary();
    println!(
        "\ncomprehensive vocabulary: {} terms over {} schemata ({} possible cells)\n",
        vocabulary.len(),
        vocabulary.n,
        (1 << vocabulary.n) - 1
    );

    let sizes = vocabulary.cell_sizes();
    let mut masks: Vec<u32> = (1..(1u32 << vocabulary.n)).collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    println!("{:<28} {:>6}", "subset (and no others)", "terms");
    for mask in masks {
        let count = sizes.get(&mask).copied().unwrap_or(0);
        if count > 0 {
            let label = vocabulary
                .mask_name(mask)
                .replace("D0_S0", "S_A")
                .replace("D0_S1", "S_C")
                .replace("D0_S2", "S_D")
                .replace("D0_S3", "S_E")
                .replace("D0_S4", "S_F");
            println!("{label:<28} {count:>6}");
        }
    }

    // Terms every schema shares — the seed of a community vocabulary.
    let all_mask = (1u32 << vocabulary.n) - 1;
    let universal = vocabulary.cell(all_mask);
    println!("\nterms shared by all five schemata: {}", universal.len());
    for t in universal.iter().take(10) {
        println!("  {}", t.name);
    }

    // The §2 emergency-response scenario: distill a minimal mediated schema
    // from everything at least three partners share.
    let mediated =
        vocabulary.mediated_schema(&schemas, sm_schema::SchemaId(99), "ExchangeSchema", 3);
    println!(
        "\nmediated exchange schema (terms shared by ≥3 partners): {} elements, {} concepts",
        mediated.len(),
        mediated.roots().len()
    );
    for &root in mediated.roots().iter().take(5) {
        let e = mediated.element(root);
        println!("  {} ({} fields)", e.name, e.children.len());
    }

    // Pairwise overlap fractions — the clustering distance of §5.
    println!("\npairwise overlap fractions:");
    print!("      ");
    for n in names {
        print!("{n:>7}");
    }
    println!();
    for (i, name) in names.iter().enumerate().take(vocabulary.n) {
        print!("{name:<6}");
        for j in 0..vocabulary.n {
            print!("{:>7.2}", vocabulary.overlap_fraction(i, j));
        }
        println!();
    }
}
