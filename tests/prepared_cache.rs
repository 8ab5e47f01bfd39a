//! Cross-crate contract of the `PreparedSchema` refactor: the shared feature
//! cache must be a pure optimization. Cached runs are byte-identical to cold
//! runs, and every consumer built from the cache agrees with one built from
//! scratch.

use harmony_core::index::BlockingPolicy;
use harmony_core::matrix::MatchMatrix;
use harmony_core::prelude::*;
use harmony_core::prepare::{FeatureCache, PreparedSchema};
use sm_enterprise::cluster::DistanceMatrix;
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::{DataType, Documentation, ElementId, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_synth::{GeneratorConfig, RepositoryConfig, SchemaPair, SyntheticRepository};
use sm_text::intern::{TokenArena, TokenId};
use sm_text::normalize::Normalizer;

fn case_pair() -> SchemaPair {
    SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.08))
}

fn population() -> SyntheticRepository {
    SyntheticRepository::generate(&RepositoryConfig {
        seed: 77,
        domains: 2,
        schemas_per_domain: 3,
        concepts_per_domain: 12,
        concept_coverage: 0.6,
        attrs_per_concept: (3, 6),
        ..Default::default()
    })
}

/// A second `engine.run` against cached schemata reproduces the cold run
/// bit for bit, while preparing nothing.
#[test]
fn cached_run_is_byte_identical_to_cold_run() {
    let pair = case_pair();
    // Private cache so concurrent tests' global-cache traffic is invisible.
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(4);

    let cold = engine.run(&pair.source, &pair.target);
    let stats_cold = engine.feature_cache().stats();
    assert_eq!(stats_cold.misses, 2, "cold run prepares both schemata");

    let cached = engine.run(&pair.source, &pair.target);
    let stats_cached = engine.feature_cache().stats();
    assert_eq!(stats_cached.misses, 2, "cached run prepares nothing new");
    assert!(stats_cached.hits >= stats_cold.hits + 2);

    assert_eq!(
        cold.matrix.as_slice(),
        cached.matrix.as_slice(),
        "feature cache must not change a single bit of the match matrix"
    );
}

/// Engines sharing one cache see each other's preparations.
#[test]
fn engines_share_an_explicit_cache() {
    let pair = case_pair();
    let cache = std::sync::Arc::new(FeatureCache::new(Normalizer::new()));
    let first = MatchEngine::new().with_feature_cache(std::sync::Arc::clone(&cache));
    let second = MatchEngine::new().with_feature_cache(std::sync::Arc::clone(&cache));

    let r1 = first.run(&pair.source, &pair.target);
    let misses_after_first = cache.stats().misses;
    let r2 = second.run(&pair.source, &pair.target);
    assert_eq!(
        cache.stats().misses,
        misses_after_first,
        "second engine re-prepares nothing"
    );
    assert_eq!(r1.matrix.as_slice(), r2.matrix.as_slice());
}

/// `SchemaSearch` built through the shared cache ranks exactly like one built
/// from preparations computed from scratch.
#[test]
fn schema_search_from_cache_agrees_with_scratch_preparation() {
    let pop = population();
    let mut repo = MetadataRepository::new();
    for s in &pop.schemas {
        repo.register_schema(s.clone());
    }
    let via_cache = SchemaSearch::build(&repo);

    // The ad-hoc path: a private cache, preparations built from scratch.
    let private = std::sync::Arc::new(FeatureCache::new(Normalizer::new()));
    let scratch = SchemaSearch::from_prepared(
        repo.schemas()
            .map(|s| private.prepare(s))
            .collect::<Vec<_>>(),
        std::sync::Arc::clone(&private),
    );

    assert_eq!(via_cache.len(), scratch.len());
    for query in repo.schemas() {
        let a = via_cache.query(query, 10);
        let b = scratch.query(query, 10);
        assert_eq!(a, b, "rankings diverged for query {}", query.name);
    }
}

/// N-way vocabulary driven through the cached pipeline equals the historical
/// ad-hoc loop (engine.run + one-to-one selection + validation) exactly.
#[test]
fn nway_from_cache_agrees_with_adhoc_loop() {
    let pop = population();
    let schemas: Vec<&Schema> = pop.schemas.iter().take(4).collect();
    let threshold = Confidence::new(0.35);

    let engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let mut cached = NWayMatch::new(schemas.clone());
    let outcomes = cached.populate_pairwise(&engine, threshold, "engine");
    assert_eq!(outcomes.len(), 4 * 3 / 2, "every unordered pair ran");
    let vocab_cached = cached.vocabulary();

    // Ad-hoc path: a fresh engine (fresh private cache) and the manual loop.
    let adhoc_engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let mut adhoc = NWayMatch::new(schemas.clone());
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let result = adhoc_engine.run(schemas[i], schemas[j]);
            let selected = Selection::OneToOne { min: threshold }.apply(&result.matrix);
            let mut validated = MatchSet::new();
            for c in selected.all() {
                validated.push(c.clone().validate("engine", MatchAnnotation::Equivalent));
            }
            adhoc.add_pairwise(i, j, &validated);
        }
    }
    let vocab_adhoc = adhoc.vocabulary();

    assert_eq!(vocab_cached.len(), vocab_adhoc.len());
    for (a, b) in vocab_cached.terms.iter().zip(&vocab_adhoc.terms) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.members, b.members);
    }
}

/// Clustering distances from the cache equal distances from scratch
/// preparations.
#[test]
fn distance_matrix_from_cache_agrees_with_scratch() {
    let pop = population();
    let refs: Vec<&Schema> = pop.schemas.iter().collect();
    let via_cache = DistanceMatrix::from_schemas(&refs);

    let normalizer = Normalizer::new();
    let prepared: Vec<std::sync::Arc<PreparedSchema>> = refs
        .iter()
        .map(|s| std::sync::Arc::new(PreparedSchema::build(s, &normalizer)))
        .collect();
    let scratch = DistanceMatrix::from_prepared(&prepared);

    assert_eq!(via_cache.ids(), scratch.ids());
    for i in 0..via_cache.len() {
        for j in 0..via_cache.len() {
            assert!(
                (via_cache.get(i, j) - scratch.get(i, j)).abs() < 1e-15,
                "distance ({i},{j}) diverged"
            );
        }
    }
}

/// The incremental workflow rides the same cache: a session after a full
/// match re-prepares nothing and still validates the same pairs.
#[test]
fn incremental_session_reuses_engine_cache() {
    let pair = case_pair();
    let engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let _warm = engine.run(&pair.source, &pair.target);
    let misses_after_run = engine.feature_cache().stats().misses;

    let summary = auto_summarize(&pair.source, 10);
    let mut oracle = NoisyOracle::perfect(pair.truth.pairs().clone());
    let mut session =
        IncrementalSession::new(&engine, &pair.source, &pair.target, Confidence::new(0.25));
    session.concept_at_a_time(&summary, &mut oracle);
    assert_eq!(
        engine.feature_cache().stats().misses,
        misses_after_run,
        "session construction must not re-run linguistic preprocessing"
    );
    assert!(!session.validated().is_empty());
}

/// A schema of `n` elements shaped like a binary heap — element `i`'s
/// parent is `(i - 1) / 2` — so at 64-element chunks parents and children
/// sit across chunk edges (element 64's parent is 31, element 63's
/// children are 127 and 128). Names repeat tokens across elements and
/// include a multibyte name, short raw names (acronym keys) and documented
/// elements, so every feature kind is exercised.
fn chunk_edge_schema(id: u32, n: usize) -> Schema {
    const WORDS: [&str; 12] = [
        "customer",
        "order",
        "line",
        "item",
        "ship",
        "date",
        "amount",
        "postal",
        "qty",
        "coi",
        "organisation",
        "größe",
    ];
    let mut s = Schema::new(SchemaId(id), format!("edge{n}"), SchemaFormat::Relational);
    for i in 0..n {
        let name = match i % 5 {
            0 => WORDS[i % WORDS.len()].to_string(),
            1 => format!(
                "{}_{}",
                WORDS[i % WORDS.len()],
                WORDS[(i * 7 + 3) % WORDS.len()]
            ),
            2 => format!("{}{}", WORDS[(i / 3) % WORDS.len()], i % 7),
            3 => format!("c{}", i % 13),
            _ => format!("{}Id", WORDS[(i * 5) % WORDS.len()]),
        };
        let e = if i == 0 {
            s.add_root(name, ElementKind::Table, DataType::None)
        } else {
            s.add_child(
                ElementId(((i - 1) / 2) as u32),
                name,
                ElementKind::Column,
                DataType::Date,
            )
            .expect("parent precedes child")
        };
        if i % 3 == 0 {
            let doc = format!(
                "the {} of the {}",
                WORDS[(i + 4) % WORDS.len()],
                WORDS[i % 5]
            );
            s.set_doc(e, Documentation::embedded(doc))
                .expect("element exists");
        }
    }
    s
}

/// Every feature of two preparations over one arena, field by field.
fn assert_same_preparation(a: &PreparedSchema, b: &PreparedSchema, what: &str) {
    assert_eq!(a.schema_id, b.schema_id, "{what}: schema id");
    assert_eq!(a.fingerprint, b.fingerprint, "{what}: fingerprint");
    assert_eq!(a.len(), b.len(), "{what}: element count");
    for i in 0..a.len() {
        assert_eq!(a.element(i), b.element(i), "{what}: element {i}");
        assert_eq!(
            a.block_features_of(i),
            b.block_features_of(i),
            "{what}: block features of {i}"
        );
    }
    assert_eq!(
        a.signature_ids(),
        b.signature_ids(),
        "{what}: signature ids"
    );
}

/// The element-chunked build equals the inline build at every lane count
/// when the arena already holds the schema's tokens: at sizes around the
/// 64-element chunk width (and the paper's 1378), the 1-, 2- and 4-lane
/// builds on a 4-wide pool, and a cache miss built on 2 lanes, reproduce
/// every `PreparedElement`, the signature ids and the blocking-feature CSR
/// bit for bit.
#[test]
fn chunked_build_equals_inline_build_on_one_arena() {
    let exec = Executor::new(4);
    let normalizer = Normalizer::new();
    let arena = std::sync::Arc::new(TokenArena::new());
    for (id, n) in [0usize, 1, 63, 64, 65, 129, 1378].into_iter().enumerate() {
        let schema = chunk_edge_schema(id as u32, n);
        let inline = PreparedSchema::build_with_arena(&schema, &normalizer, arena.clone());
        assert_eq!(inline.len(), n);
        for lanes in [1, 2, 4] {
            let chunked =
                PreparedSchema::build_parallel(&schema, &normalizer, arena.clone(), &exec, lanes);
            assert_same_preparation(&inline, &chunked, &format!("n = {n}, {lanes} lanes"));
        }
    }
    // Through the cache, on the process-wide arena it interns into.
    let cache = FeatureCache::new(Normalizer::new());
    let schema = chunk_edge_schema(99, 1378);
    let inline = PreparedSchema::build(&schema, &normalizer);
    let cached = cache.get_or_prepare_on(&schema, Job::new(&exec, 2));
    assert_same_preparation(&inline, &cached, "cache miss on 2 lanes");
}

/// On a cold arena the chunked build's ids follow the lanes' interning
/// order, but they resolve to the inline build's strings, and a blocked
/// match over 2-lane preparations on one fresh arena is bit-identical to
/// one over inline preparations on another.
#[test]
fn chunked_build_on_a_fresh_arena_resolves_to_the_inline_strings() {
    let exec = Executor::new(2);
    let normalizer = Normalizer::new();
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.25));
    let inline_arena = std::sync::Arc::new(TokenArena::new());
    let chunked_arena = std::sync::Arc::new(TokenArena::new());
    let prepare = |schema: &Schema| {
        (
            std::sync::Arc::new(PreparedSchema::build_with_arena(
                schema,
                &normalizer,
                inline_arena.clone(),
            )),
            std::sync::Arc::new(PreparedSchema::build_parallel(
                schema,
                &normalizer,
                chunked_arena.clone(),
                &exec,
                2,
            )),
        )
    };
    let (source_inline, source_chunked) = prepare(&pair.source);
    let (target_inline, target_chunked) = prepare(&pair.target);
    assert!(pair.source.len() > 64, "the pair must span several chunks");

    for (inline, chunked) in [
        (&source_inline, &source_chunked),
        (&target_inline, &target_chunked),
    ] {
        let text = |p: &PreparedSchema, ids: &[TokenId]| p.arena().resolve_all(ids);
        let set = |p: &PreparedSchema, ids: &[TokenId]| {
            let mut strings = text(p, ids);
            strings.sort();
            strings
        };
        for i in 0..inline.len() {
            let (a, b) = (inline.element(i), chunked.element(i));
            assert_eq!(a.name_bag, b.name_bag, "element {i}: name bag");
            assert_eq!(text(inline, &a.name_ids), text(chunked, &b.name_ids));
            assert_eq!(text(inline, &a.corpus_ids), text(chunked, &b.corpus_ids));
            assert_eq!(set(inline, &a.name_set), set(chunked, &b.name_set));
            assert_eq!(set(inline, &a.parent_set), set(chunked, &b.parent_set));
            assert_eq!(set(inline, &a.children_set), set(chunked, &b.children_set));
            assert_eq!(
                (a.parent_len, a.children_len),
                (b.parent_len, b.children_len)
            );
            assert_eq!(
                text(inline, &[a.raw_name_id, a.acronym_id]),
                text(chunked, &[b.raw_name_id, b.acronym_id])
            );
            // Lexically ordered in both: the resolved lists are equal as
            // sequences.
            assert_eq!(
                text(inline, inline.block_features_of(i)),
                text(chunked, chunked.block_features_of(i)),
                "element {i}: block features"
            );
        }
        assert_eq!(
            text(inline, inline.signature_ids()),
            text(chunked, chunked.signature_ids())
        );
    }

    let engine = MatchEngine::new()
        .with_threads(2)
        .with_score_floor(Some(0.30));
    let policy = BlockingPolicy::default();
    let run = |ps, pt| {
        engine
            .pipeline()
            .run_blocked_prepared(&pair.source, &pair.target, ps, pt, None, &policy)
            .matrix
    };
    let inline = run(&source_inline, &target_inline);
    let chunked = run(&source_chunked, &target_chunked);
    let bits = |m: &MatchMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&inline),
        bits(&chunked),
        "blocked matrices over fresh arenas diverged"
    );
}

/// `schema` rebuilt with the same ids, names, docs and parents, so its
/// fingerprint is unchanged, but with every fifth leaf's data type and
/// every seventh element's container role switched.
fn retyped(schema: &Schema) -> Schema {
    let mut out = Schema::new(schema.id, schema.name.clone(), schema.format);
    for e in schema.elements() {
        let i = e.id.index();
        let datatype = match (i % 5, e.datatype) {
            (0, DataType::Date) => DataType::Integer,
            (0, _) if e.is_leaf() => DataType::Date,
            (_, t) => t,
        };
        let kind = match (i % 7, e.kind.is_container_like()) {
            (0, true) => ElementKind::XmlElement,
            (0, false) => ElementKind::Table,
            (_, _) => e.kind,
        };
        let id = match e.parent {
            None => out.add_root(e.name.clone(), kind, datatype),
            Some(p) => out
                .add_child(p, e.name.clone(), kind, datatype)
                .expect("parent precedes child"),
        };
        assert_eq!(id, e.id);
        if let Some(doc) = &e.doc {
            out.set_doc(id, doc.clone()).expect("element exists");
        }
    }
    out
}

/// Types and kinds are read from the `Schema`, never from its cached
/// preparation: a preparation's fingerprint covers names, docs and parents
/// only, so an engine whose cache holds the original schemata serves their
/// preparations to retyped copies, and its cascade-on blocked and dense
/// runs over the copies must equal a fresh engine's bit for bit.
#[test]
fn retyped_schemata_reuse_the_cached_preparation_and_score_as_fresh() {
    let pair = case_pair();
    let (source, target) = (retyped(&pair.source), retyped(&pair.target));
    assert_eq!(
        harmony_core::prepare::schema_fingerprint(&source),
        harmony_core::prepare::schema_fingerprint(&pair.source)
    );
    let engine = || {
        MatchEngine::new()
            .with_normalizer(Normalizer::new())
            .with_threads(2)
            .with_score_floor(Some(0.30))
    };
    let policy = BlockingPolicy::default();
    let bits = |m: &MatchMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let runs = |engine: &MatchEngine, s: &Schema, t: &Schema| {
        [
            bits(&engine.run_blocked(s, t, &policy).matrix),
            bits(&engine.run(s, t).matrix),
        ]
    };

    let warm = engine();
    assert!(warm.cascade_active());
    let original = runs(&warm, &pair.source, &pair.target);
    let misses = warm.feature_cache().stats().misses;
    let cached = runs(&warm, &source, &target);
    assert_eq!(
        warm.feature_cache().stats().misses,
        misses,
        "the retyped schemata are served the original preparations"
    );
    let fresh = runs(&engine(), &source, &target);
    assert_eq!(cached, fresh, "a cached preparation carried types or kinds");
    for (cached, original) in cached.iter().zip(&original) {
        assert_ne!(cached, original, "the edit must change some score");
    }
}
