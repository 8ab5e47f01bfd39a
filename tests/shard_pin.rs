//! Pin: the sharded, incrementally-maintained repository index
//! (`sm_enterprise::shard`) answers exactly what its module docs define
//! over the live schemata. The oracle is a brute-force scan of the live
//! signatures that restates that law; it shares no code with the index.
//! Any interleaving of insert / remove / replace ops — with or without
//! forced per-op compaction, at any shard count, at any executor width —
//! must yield the oracle's token weights, total weights, postings and
//! probe accumulations bit for bit, and its pairwise intersection counts
//! and shared tokens, and therefore the same search rankings. Warm-start serialization must round-trip to the same bits.

use harmony_core::exec::Executor;
use harmony_core::prepare::{FeatureCache, PreparedSchema};
use proptest::prelude::*;
use sm_enterprise::shard::{ShardConfig, ShardedRepositoryIndex};
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::{DataType, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::intern::TokenId;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The brute-force oracle. Its law is restated from the module docs of
// `sm_enterprise::shard`, not imported.
// ---------------------------------------------------------------------------

/// Smoothed IDF weight of a token held by `df` of `n` live schemata.
fn idf(n: usize, df: usize) -> f64 {
    ((n as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
}

/// The live schemata's signatures (lexicographic token order), listed in
/// the index's live-slot order: rank `r` is the `r`-th live slot.
struct Oracle {
    ids: Vec<SchemaId>,
    sigs: Vec<Vec<TokenId>>,
}

impl Oracle {
    /// The oracle over `live`. The index supplies only the rank order; the
    /// signatures come from the caller's own preparations, and the index's
    /// live set must be exactly theirs.
    fn new(index: &ShardedRepositoryIndex, live: &[Arc<PreparedSchema>]) -> Self {
        let ids: Vec<SchemaId> = index
            .live_slots()
            .iter()
            .map(|&slot| index.id_at(slot))
            .collect();
        let mut expect: Vec<SchemaId> = live.iter().map(|p| p.schema_id).collect();
        let mut got = ids.clone();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect, "live schema set diverged");
        let sigs = ids
            .iter()
            .map(|&id| {
                let p = live.iter().find(|p| p.schema_id == id).expect("live id");
                p.signature_ids().to_vec()
            })
            .collect();
        Oracle { ids, sigs }
    }

    fn df(&self, t: TokenId) -> usize {
        self.sigs.iter().filter(|sig| sig.contains(&t)).count()
    }

    /// `n` counts the live schemata, and is at least 1.
    fn weight(&self, t: TokenId) -> f64 {
        idf(self.ids.len().max(1), self.df(t))
    }

    /// Signature weights summed in signature order.
    fn total_weight(&self, rank: usize) -> f64 {
        self.sigs[rank].iter().map(|&t| self.weight(t)).sum()
    }

    /// `(rank, shared weight)` of every live schema holding a query token:
    /// the weights of the query tokens it holds, summed in query order.
    fn accumulate(&self, query: &[TokenId]) -> Vec<(usize, f64)> {
        let mut hits = Vec::new();
        for (rank, sig) in self.sigs.iter().enumerate() {
            let mut shared = None;
            for t in query.iter().filter(|t| sig.contains(t)) {
                *shared.get_or_insert(0.0) += self.weight(*t);
            }
            hits.extend(shared.map(|w| (rank, w)));
        }
        hits
    }

    /// Ranks of the live schemata holding `t`, ascending.
    fn postings(&self, t: TokenId) -> Vec<u32> {
        (0..self.sigs.len() as u32)
            .filter(|&rank| self.sigs[rank as usize].contains(&t))
            .collect()
    }

    /// `|sigᵢ ∩ sigⱼ|` for every pair of ranks, row-major, diagonal zero.
    fn intersections(&self) -> Vec<u32> {
        let n = self.sigs.len();
        let mut counts = vec![0u32; n * n];
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let shared = self.sigs[i].iter().filter(|t| self.sigs[j].contains(t));
                counts[i * n + j] = shared.count() as u32;
            }
        }
        counts
    }

    /// Tokens every member holds, in signature order; empty when a member
    /// is not live.
    fn shared_tokens(&self, members: &[SchemaId]) -> Vec<TokenId> {
        let Some(sigs) = members
            .iter()
            .map(|id| Some(&self.sigs[self.ids.iter().position(|x| x == id)?]))
            .collect::<Option<Vec<_>>>()
        else {
            return Vec::new();
        };
        let Some(first) = sigs.first() else {
            return Vec::new();
        };
        first
            .iter()
            .filter(|t| sigs.iter().all(|sig| sig.contains(t)))
            .copied()
            .collect()
    }
}

/// Assert `index` answers exactly what the oracle over `live` defines: for
/// every token of the live and query vocabularies (unseen ones included),
/// its weight bits and live postings; every live schema's signature and
/// total-weight bits; the probe of every query and live signature, bit for
/// bit; pairwise intersection counts; and shared tokens of member sets.
fn assert_pinned(
    index: &ShardedRepositoryIndex,
    live: &[Arc<PreparedSchema>],
    queries: &[Arc<PreparedSchema>],
) {
    let oracle = Oracle::new(index, live);
    let slots = index.live_slots();
    assert_eq!(index.len(), oracle.ids.len());
    let at = |ranks: Vec<u32>| -> Vec<u32> { ranks.iter().map(|&r| slots[r as usize]).collect() };

    let probes: Vec<&[TokenId]> = oracle
        .sigs
        .iter()
        .map(Vec::as_slice)
        .chain(queries.iter().map(|q| q.signature_ids()))
        .collect();
    let mut vocabulary: Vec<TokenId> = probes.iter().flat_map(|p| p.iter().copied()).collect();
    vocabulary.sort_unstable();
    vocabulary.dedup();
    for &t in &vocabulary {
        assert_eq!(
            index.weight_by_id(t).to_bits(),
            oracle.weight(t).to_bits(),
            "weight of token {t:?} diverged"
        );
        assert_eq!(index.postings_by_id(t), at(oracle.postings(t)));
    }
    for (rank, &slot) in slots.iter().enumerate() {
        assert_eq!(
            index.signature(slot),
            index.arena().resolve_all(&oracle.sigs[rank]).as_slice()
        );
        assert_eq!(
            index.total_weight(slot).to_bits(),
            oracle.total_weight(rank).to_bits(),
            "total weight of {} diverged",
            oracle.ids[rank]
        );
    }
    for probe in probes {
        let got: Vec<(u32, u64)> = index
            .accumulate_ids(probe)
            .into_iter()
            .map(|(slot, w)| (slot, w.to_bits()))
            .collect();
        let want: Vec<(u32, u64)> = oracle
            .accumulate(probe)
            .into_iter()
            .map(|(rank, w)| (slots[rank], w.to_bits()))
            .collect();
        assert_eq!(got, want, "probe accumulations diverged");
    }

    assert_eq!(index.pairwise_intersections(), oracle.intersections());
    let unknown = SchemaId(u32::MAX);
    let mut member_sets: Vec<Vec<SchemaId>> = oracle.ids.windows(2).map(<[_]>::to_vec).collect();
    member_sets.push(oracle.ids.clone());
    member_sets.extend(oracle.ids.first().map(|&id| vec![id, id]));
    member_sets.extend(oracle.ids.first().map(|&id| vec![id, unknown]));
    for members in member_sets {
        assert_eq!(
            index.shared_tokens(&members),
            index.arena().resolve_all(&oracle.shared_tokens(&members)),
            "shared tokens of {members:?} diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A small synthetic registry population with overlapping vocabulary.
fn pool(seed: u64) -> Vec<Schema> {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 3,
        schemas_per_domain: 4,
        concepts_per_domain: 8,
        concept_coverage: 0.5,
        ..Default::default()
    })
    .schemas
}

fn prepare(schemas: &[Schema]) -> Vec<Arc<PreparedSchema>> {
    let cache = FeatureCache::global();
    schemas.iter().map(|s| cache.prepare(s)).collect()
}

/// A content-mutated version of a schema (same id, different fingerprint) —
/// the "registry re-posts a new version" op.
fn variant(schema: &Schema) -> Schema {
    let mut v = schema.clone();
    let root = v.roots()[0];
    v.add_child(
        root,
        "revision_marker_field",
        ElementKind::Column,
        DataType::text(),
    )
    .expect("root exists");
    v
}

/// One `Root` container holding one column per word.
fn schema(id: u32, words: &[&str]) -> Schema {
    let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
    let r = s.add_root("Root", ElementKind::Group, DataType::None);
    for w in words {
        s.add_child(r, *w, ElementKind::Column, DataType::text())
            .unwrap();
    }
    s
}

/// Four hand-sized schemata: three share `vin`, two share `blood`, and
/// every one holds the `root` container token.
fn world() -> Vec<Schema> {
    vec![
        schema(0, &["vin", "make", "model"]),
        schema(1, &["vin", "engine"]),
        schema(2, &["patient", "blood"]),
        schema(3, &["vin", "blood", "cargo"]),
    ]
}

/// Tiny thresholds so every maintenance op triggers compaction paths.
fn eager() -> ShardConfig {
    ShardConfig {
        shards: 3,
        min_compact_ops: 1,
        compact_fraction: 0.0,
    }
}

/// Apply one encoded op to the snapshot chain, mirroring it into `live`.
fn apply_op(
    index: ShardedRepositoryIndex,
    op: u8,
    schemas: &[Schema],
    live: &mut BTreeMap<u32, Schema>,
) -> ShardedRepositoryIndex {
    let cache = FeatureCache::global();
    let target = &schemas[usize::from(op >> 2) % schemas.len()];
    let mut next = index.begin_update();
    match op % 3 {
        0 => {
            next.upsert_in_place(&cache.prepare(target));
            live.insert(target.id.0, target.clone());
        }
        1 => {
            next.remove_in_place(target.id);
            live.remove(&target.id.0);
        }
        _ => {
            let v = variant(target);
            next.upsert_in_place(&cache.prepare(&v));
            live.insert(v.id.0, v);
        }
    }
    next
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of insert / remove / replace, at several shard
    /// counts, with default and per-op ("eager") compaction, answers what
    /// the oracle over the live set defines.
    #[test]
    fn interleavings_pin_to_full_rebuild(
        seed in 0u64..3,
        ops in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let schemas = pool(seed);
        let initial = prepare(&schemas[..6]);
        let queries = prepare(&schemas[6..10]);
        for shards in [1usize, 3, 8] {
            for (min_compact_ops, compact_fraction) in [(64usize, 0.25f64), (1, 0.0)] {
                let config = ShardConfig { shards, min_compact_ops, compact_fraction };
                let mut index = ShardedRepositoryIndex::build(&initial, config);
                let mut live: BTreeMap<u32, Schema> =
                    schemas[..6].iter().map(|s| (s.id.0, s.clone())).collect();
                for &op in &ops {
                    index = apply_op(index, op, &schemas, &mut live);
                }
                let live: Vec<Schema> = live.into_values().collect();
                let live = prepare(&live);
                prop_assert_eq!(index.len(), live.len());
                assert_pinned(&index, &live, &queries);
                // One terminal full compaction is score-invisible too.
                let mut compacted = index.begin_update();
                compacted.compact_all();
                prop_assert_eq!(compacted.pending_ops(), 0);
                assert_pinned(&compacted, &live, &queries);
            }
        }
    }
}

/// A fresh build answers what the oracle defines at every shard count —
/// plus hand-checked anchors on the tiny world: postings are ascending
/// slots, rare tokens outweigh common ones and unseen tokens weigh most, a
/// probe visits only schemata sharing a query token, and shared tokens
/// need every member.
#[test]
fn full_build_matches_oracle_bitwise() {
    let prepared = prepare(&world());
    for shards in [1usize, 2, 3, 8, 64] {
        let idx = ShardedRepositoryIndex::build(
            &prepared,
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        );
        assert_eq!(idx.shard_count(), shards);
        assert_pinned(&idx, &prepared, &prepared);

        assert_eq!(idx.postings("vin"), vec![0, 1, 3]);
        assert_eq!(idx.postings("patient"), vec![2]);
        assert!(idx.postings("absent").is_empty());
        assert_eq!(idx.slot(SchemaId(1)), Some(1));
        assert_eq!(idx.slot(SchemaId(9)), None);

        assert!(idx.weight("patient") > idx.weight("vin"));
        assert!(idx.weight("never-indexed") > idx.weight("patient"));

        // "engin" is the stemmed form of "engine", held by slot 1 only.
        let hits = idx.accumulate(["engin", "vin"]);
        assert_eq!(hits.iter().map(|&(s, _)| s).collect::<Vec<_>>(), [0, 1, 3]);
        assert!(
            hits[1].1 > hits[0].1,
            "slot 1 shares vin + engin, slot 0 vin"
        );

        let both = idx.shared_tokens(&[SchemaId(0), SchemaId(1)]);
        assert!(both.contains(&"vin".to_string()));
        assert!(!both.contains(&"make".to_string()));
        let unrelated = idx.shared_tokens(&[SchemaId(0), SchemaId(2)]);
        assert!(unrelated.iter().all(|t| t == "root"));
        assert!(idx.shared_tokens(&[SchemaId(0), SchemaId(99)]).is_empty());
    }
}

/// Inserts, a removal and a no-op removal of an unknown id answer what the
/// oracle over the live set defines, at the default compaction trigger
/// and with compaction forced on every op. The removed schema vanishes
/// from postings and shared tokens.
#[test]
fn maintenance_pins_to_oracle() {
    let prepared = prepare(&world());
    for config in [ShardConfig::default(), eager()] {
        let mut idx = ShardedRepositoryIndex::build(&prepared[..2], config);
        for p in &prepared[2..] {
            let mut next = idx.begin_update();
            next.upsert_in_place(p);
            idx = next;
        }
        assert_pinned(&idx, &prepared, &prepared);
        assert!(idx
            .shared_tokens(&[SchemaId(0), SchemaId(1)])
            .contains(&"vin".to_string()));

        let mut next = idx.begin_update();
        assert!(next.remove_in_place(SchemaId(1)));
        assert!(!next.remove_in_place(SchemaId(99)));
        idx = next;
        let live = [0usize, 2, 3].map(|i| Arc::clone(&prepared[i]));
        assert_eq!(idx.len(), 3);
        assert_pinned(&idx, &live, &prepared);

        assert_eq!(idx.slot(SchemaId(1)), None);
        assert!(idx.postings("engin").is_empty());
        assert!(idx.shared_tokens(&[SchemaId(0), SchemaId(1)]).is_empty());
        // Live ranks: 0 → schema 0, 1 → schema 2, 2 → schema 3. Schemata 0
        // and 3 share "vin", 0 and 2 only the "root" container token.
        let inter = idx.pairwise_intersections();
        assert!(inter[1] < inter[2]);
    }
}

/// Executor width never changes the built index: at every lane count it
/// answers what the oracle defines, as the inline build does.
#[test]
fn build_parallel_is_width_invariant() {
    let schemas = pool(7);
    let prepared = prepare(&schemas);
    let queries = &prepared[..4];
    for shards in [1usize, 3, 8] {
        let config = ShardConfig {
            shards,
            ..Default::default()
        };
        assert_pinned(
            &ShardedRepositoryIndex::build(&prepared, config),
            &prepared,
            queries,
        );
        for width in [1usize, 2, 4, 8] {
            let exec = Executor::global();
            let par = ShardedRepositoryIndex::build_parallel(&prepared, exec, width, config);
            assert_pinned(&par, &prepared, queries);
        }
    }
}

/// Warm-start round trip: save → load → rebuild answers queries with the
/// exact same hits, scores (bitwise), and shared tokens as the original
/// repository — and reuses every preparation.
#[test]
fn warm_start_round_trip_pins_search_results() {
    let schemas = pool(11);
    let mut repo = MetadataRepository::new();
    for s in &schemas {
        repo.register_schema(s.clone());
    }
    let cold_search = SchemaSearch::build(&repo);
    let queries: Vec<Schema> = pool(12).into_iter().take(4).collect();
    let cold_hits: Vec<_> = queries.iter().map(|q| cold_search.query(q, 10)).collect();

    let path = std::env::temp_dir().join(format!("sm_shard_pin_{}.bin", std::process::id()));
    repo.save_registry(&path).expect("save");

    let mut warm_repo = MetadataRepository::new();
    for s in &schemas {
        warm_repo.register_schema(s.clone());
    }
    let reused = warm_repo.warm_start(&path).expect("warm start");
    std::fs::remove_file(&path).ok();
    assert_eq!(reused, schemas.len(), "every preparation must be reused");

    let warm_search = SchemaSearch::build(&warm_repo);
    for (q, cold) in queries.iter().zip(&cold_hits) {
        let warm = warm_search.query(q, 10);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(cold) {
            assert_eq!(w.schema_id, c.schema_id);
            assert_eq!(w.score.to_bits(), c.score.to_bits(), "score bits diverged");
            assert_eq!(w.shared_tokens, c.shared_tokens);
        }
    }
}

/// Incremental maintenance through the repository façade (register /
/// remove / re-register) tracks a from-scratch rebuild of the same
/// registry state.
#[test]
fn repository_incremental_refresh_pins_to_rebuild() {
    let schemas = pool(23);
    let mut repo = MetadataRepository::new();
    for s in &schemas[..8] {
        repo.register_schema(s.clone());
    }
    let first = repo.token_index();
    assert_eq!(first.len(), 8);

    // Mutate: remove two, replace one, add two.
    repo.remove_schema(schemas[1].id);
    repo.remove_schema(schemas[4].id);
    repo.register_schema(variant(&schemas[2]));
    repo.register_schema(schemas[8].clone());
    repo.register_schema(schemas[9].clone());
    let incremental = repo.token_index();
    assert_eq!(incremental.len(), 8);

    // Oracle: a fresh repository registered straight into the final state.
    let mut fresh = MetadataRepository::new();
    for s in &schemas[..8] {
        if s.id == schemas[1].id || s.id == schemas[4].id {
            continue;
        }
        if s.id == schemas[2].id {
            fresh.register_schema(variant(s));
        } else {
            fresh.register_schema(s.clone());
        }
    }
    fresh.register_schema(schemas[8].clone());
    fresh.register_schema(schemas[9].clone());

    let inc_search = SchemaSearch::build(&repo);
    let fresh_search = SchemaSearch::build(&fresh);
    for q in &schemas[10..12] {
        let a = inc_search.query(q, 10);
        let b = fresh_search.query(q, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schema_id, y.schema_id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.shared_tokens, y.shared_tokens);
        }
    }
    // And the same index snapshot is shared until the next mutation.
    assert!(Arc::ptr_eq(&repo.token_index(), &repo.token_index()));
}
