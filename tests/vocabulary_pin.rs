//! A match context's TF-IDF vectors come from merging its two
//! preparations' corpus vocabularies. They must equal, bit for bit, what
//! `Corpus::finalize` builds over the pair's documents (source elements,
//! then target elements): on the paper's case-study pair and on every
//! planned pair of the N=100 vocabulary effort.

use harmony_core::batch::PlanPolicy;
use harmony_core::context::MatchContext;
use harmony_core::prelude::*;
use harmony_core::prepare::PreparedSchema;
use sm_schema::Schema;
use sm_synth::{GeneratorConfig, RepositoryConfig, SchemaPair, SyntheticRepository};
use sm_text::tfidf::{Corpus, DocView};
use std::sync::Arc;

fn bits(doc: DocView<'_>) -> (Vec<(u32, u64)>, usize) {
    let weights = doc.weights().iter().map(|&(r, w)| (r, w.to_bits()));
    (weights.collect(), doc.token_count)
}

/// Every vector of the context over `(source, target)` is the reference
/// corpus's vector of the same document.
fn assert_context_is_reference(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
) {
    let ctx = MatchContext::from_prepared(source, target, prepared_source, prepared_target);
    let mut corpus = Corpus::with_arena(Arc::clone(prepared_source.arena()));
    for e in prepared_source
        .elements()
        .iter()
        .chain(prepared_target.elements())
    {
        corpus.add_document_ids(&e.corpus_ids);
    }
    let reference = corpus.finalize();
    let docs = source
        .ids()
        .map(|id| ctx.source_doc(id))
        .chain(target.ids().map(|id| ctx.target_doc(id)));
    let mut n = 0;
    for (i, doc) in docs.enumerate() {
        assert_eq!(
            bits(doc),
            bits(reference.vector(i)),
            "{} × {}: document {i}",
            source.name,
            target.name
        );
        n += 1;
    }
    assert_eq!(n, reference.len());
}

#[test]
fn case_study_vectors_are_the_joint_corpus() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(42, 1.0));
    let engine = MatchEngine::new();
    let (ps, pt) = (engine.prepare(&pair.source), engine.prepare(&pair.target));
    assert_context_is_reference(&pair.source, &pair.target, &ps, &pt);
}

#[test]
fn planned_n100_vectors_are_the_joint_corpus() {
    let corpus = SyntheticRepository::generate(&RepositoryConfig {
        seed: 2031,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    });
    let schemas: Vec<&Schema> = corpus.schemas.iter().collect();
    let engine = MatchEngine::new();
    let batch = engine
        .batch()
        .with_plan_policy(PlanPolicy::OverlapThreshold { min_weight: 45.0 })
        .plan_all_pairs(&schemas);
    assert!(
        batch.requests().len() > 1_000,
        "the plan keeps the planned pairs"
    );
    let prepared = batch.prepared();
    for r in batch.requests() {
        assert_context_is_reference(
            schemas[r.left],
            schemas[r.right],
            &prepared[r.left],
            &prepared[r.right],
        );
    }
}
