//! Query-by-schema search.
//!
//! §2: *"A powerful way to search the MDR would be to simply use one's target
//! schema as the 'query term.' Using schema matching technology, the system
//! would rank the available schemata."* Running the full match engine against
//! thousands of registry schemata is wasteful; search instead uses a cheap
//! vocabulary signature (normalized name tokens weighted by rarity across the
//! repository) — the "characterize overlap approximately but quickly" of §5.
//!
//! Retrieval runs against the repository-level [`ShardedRepositoryIndex`]:
//! the query's tokens are looked up in per-shard posting lists, so only
//! schemata sharing at least one token are ever visited — no per-candidate
//! signature intersection, no per-query IDF weight table (weights derive
//! from live document frequencies maintained by the index). Shared-token
//! details are materialized only for the top-`limit` hits that are actually
//! returned.
//!
//! Signatures come from the shared [`PreparedSchema`] feature cache
//! ([`FeatureCache::global`]), so the index never re-tokenizes a schema the
//! match engine (or clustering, or COI proposal) has already prepared — and
//! vice versa.

use crate::repository::MetadataRepository;
use crate::shard::{ShardConfig, ShardedRepositoryIndex};
use harmony_core::prepare::{FeatureCache, PreparedSchema};
use sm_schema::{Schema, SchemaId};
use sm_text::intern::TokenId;
use std::collections::HashSet;
use std::sync::Arc;

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The matching schema.
    pub schema_id: SchemaId,
    /// Relevance in `[0,1]` (weighted token overlap).
    pub score: f64,
    /// Tokens shared with the query (up to a display cap), most
    /// discriminating first.
    pub shared_tokens: Vec<String>,
}

/// One ranked fragment (sub-schema) result — see
/// [`SchemaSearch::query_fragments`].
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentHit {
    /// Root element of the fragment within the candidate schema.
    pub root: sm_schema::ElementId,
    /// Fraction of the fragment's (weighted) vocabulary shared with the
    /// query, in `[0,1]`.
    pub score: f64,
    /// Tokens shared with the query, most discriminating first.
    pub shared_tokens: Vec<String>,
}

/// A search façade over a repository's token index.
pub struct SchemaSearch {
    /// The sharded inverted index snapshot queries run against.
    index: Arc<ShardedRepositoryIndex>,
    /// The cache queries are prepared through — always the one whose
    /// normalizer produced the indexed signatures, so index-side and
    /// query-side tokenization can never diverge.
    cache: Arc<FeatureCache>,
}

impl SchemaSearch {
    /// Build the search façade over a repository's maintained token index
    /// (see [`MetadataRepository::token_index`]); queries are prepared
    /// through the shared global feature cache that built it.
    pub fn build(repo: &MetadataRepository) -> Self {
        SchemaSearch {
            index: repo.token_index(),
            cache: Arc::clone(FeatureCache::global()),
        }
    }

    /// Build a free-standing index from already-prepared schemata. `cache`
    /// must be the cache (and therefore normalizer configuration) that
    /// produced them; queries are prepared through the same cache.
    pub fn from_prepared(
        prepared: impl IntoIterator<Item = Arc<PreparedSchema>>,
        cache: Arc<FeatureCache>,
    ) -> Self {
        let prepared: Vec<Arc<PreparedSchema>> = prepared.into_iter().collect();
        let exec = harmony_core::exec::Executor::global();
        SchemaSearch {
            index: Arc::new(ShardedRepositoryIndex::build_parallel(
                &prepared,
                exec,
                exec.threads(),
                ShardConfig::default(),
            )),
            cache,
        }
    }

    /// The underlying token index snapshot.
    pub fn index(&self) -> &Arc<ShardedRepositoryIndex> {
        &self.index
    }

    /// Number of indexed schemata.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Rank indexed schemata by relevance to `query`, best first. Schemata
    /// with zero shared vocabulary are never visited, let alone returned.
    /// `query` itself is skipped if it is one of the indexed schemata
    /// (searching for *other* relevant schemata).
    pub fn query(&self, query: &Schema, limit: usize) -> Vec<SearchHit> {
        self.query_cancellable(query, limit, None)
            .expect("no token, cannot cancel")
    }

    /// [`Self::query`] with a serving-layer cancellation token, checked at
    /// the three phase boundaries (prepare / accumulate+score / materialize)
    /// so a shed or deadline-tripped search stops without unwinding —
    /// repository searches read immutable snapshots, so a `Result` return
    /// is cheaper than the panic-based unwind the pipeline stages need.
    pub fn query_cancellable(
        &self,
        query: &Schema,
        limit: usize,
        token: Option<&harmony_core::serve::JobToken>,
    ) -> Result<Vec<SearchHit>, harmony_core::serve::CancelReason> {
        let check = |t: Option<&harmony_core::serve::JobToken>| match t {
            Some(t) => match t.state() {
                Some(reason) => Err(reason),
                None => Ok(()),
            },
            None => Ok(()),
        };
        check(token)?;
        let _span = harmony_core::obs::span(
            harmony_core::obs::SpanKind::RepoQuery,
            self.index.len() as u64,
        );
        let prepared = self.cache.prepare(query);
        check(token)?;
        // Interned query signature, lexicographically ordered by resolved
        // string — the deterministic weight-summation order.
        let q_ids = prepared.signature_ids();
        if q_ids.is_empty() {
            return Ok(Vec::new());
        }
        let q_weight: f64 = q_ids.iter().map(|&t| self.index.weight_by_id(t)).sum();

        // Posting-list accumulation, then weighted-Jaccard scoring of the
        // touched slots only. All integer-keyed: no string hashing per
        // query.
        let mut hits: Vec<(u32, f64)> = self
            .index
            .accumulate_ids(q_ids)
            .into_iter()
            .filter(|&(slot, _)| self.index.id_at(slot) != query.id)
            .map(|(slot, shared_weight)| {
                let score =
                    shared_weight / (q_weight + self.index.total_weight(slot) - shared_weight);
                (slot, score)
            })
            .collect();
        hits.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then(self.index.id_at(a.0).cmp(&self.index.id_at(b.0)))
        });
        hits.truncate(limit);
        check(token)?;

        // Shared-token details only for the hits actually returned.
        let q_set: HashSet<TokenId> = q_ids.iter().copied().collect();
        Ok(hits
            .into_iter()
            .map(|(slot, score)| SearchHit {
                schema_id: self.index.id_at(slot),
                score,
                shared_tokens: self.shared_token_sample(&q_set, slot),
            })
            .collect())
    }

    /// Up to 8 tokens shared between the query signature and a slot,
    /// most discriminating first (weight desc, token asc). A slot's ids are
    /// in lexical token order and the sort is stable, so ties keep it; only
    /// the tokens kept are resolved.
    fn shared_token_sample(&self, q_set: &HashSet<TokenId>, slot: u32) -> Vec<String> {
        let mut shared: Vec<(TokenId, f64)> = self
            .index
            .signature_ids(slot)
            .iter()
            .filter(|id| q_set.contains(id))
            .map(|&id| (id, self.index.weight_by_id(id)))
            .collect();
        shared.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let kept: Vec<TokenId> = shared.iter().take(8).map(|&(id, _)| id).collect();
        self.index.arena().resolve_all(&kept)
    }

    /// Fragment search — §5's "a more sophisticated one could return
    /// relevant schema fragments": for one candidate schema, rank its
    /// depth-1 subtrees (tables / top-level types) by weighted token overlap
    /// with the query. Returns (fragment root, score, shared tokens).
    pub fn query_fragments(
        &self,
        query: &Schema,
        candidate: &Schema,
        limit: usize,
    ) -> Vec<FragmentHit> {
        let _span = harmony_core::obs::span(
            harmony_core::obs::SpanKind::RepoQuery,
            self.index.len() as u64,
        );
        let prepared_query = self.cache.prepare(query);
        let q_ids = prepared_query.signature_ids();
        if q_ids.is_empty() {
            return Vec::new();
        }
        let q_set: HashSet<TokenId> = q_ids.iter().copied().collect();
        let prepared_candidate = self.cache.prepare(candidate);
        let arena = prepared_candidate.arena();
        // Per-query scratch, reused across fragments (the per-fragment
        // allocate-sort-drop pattern this replaces dominated multi-root
        // candidates; cf. `index::ProbeScratch` on the blocked path).
        let mut sig: Vec<TokenId> = Vec::new();
        let mut shared: Vec<(String, f64)> = Vec::new();
        let mut hits: Vec<FragmentHit> = Vec::new();
        for &root in candidate.roots().iter() {
            // Distinct fragment vocabulary, lexicographically ordered so
            // the fragment-weight sum keeps the deterministic historical
            // order.
            sig.clear();
            sig.extend(candidate.subtree(root).flat_map(|e| {
                prepared_candidate
                    .element(e.id.index())
                    .name_set
                    .iter()
                    .copied()
            }));
            sig.sort_unstable();
            sig.dedup();
            arena.sort_lexical(&mut sig);
            // Weights come from the index's live df table — no per-query
            // weight table.
            shared.clear();
            shared.extend(
                sig.iter()
                    .filter(|id| q_set.contains(id))
                    .map(|&id| (arena.resolve(id).to_string(), self.index.weight_by_id(id))),
            );
            if shared.is_empty() {
                continue;
            }
            shared.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            let shared_weight: f64 = shared.iter().map(|(_, w)| w).sum();
            let frag_weight: f64 = sig.iter().map(|&id| self.index.weight_by_id(id)).sum();
            hits.push(FragmentHit {
                root,
                score: shared_weight / frag_weight.max(1e-12),
                shared_tokens: shared.drain(..).take(8).map(|(t, _)| t).collect(),
            });
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite")
                .then(a.root.cmp(&b.root))
        });
        hits.truncate(limit);
        hits
    }

    /// Mean reciprocal rank of `relevant` schemata for a query — the search-
    /// quality metric reported in EXPERIMENTS.md (experiment F4).
    pub fn mrr(&self, query: &Schema, relevant: &HashSet<SchemaId>) -> f64 {
        let hits = self.query(query, self.len());
        for (rank, hit) in hits.iter().enumerate() {
            if relevant.contains(&hit.schema_id) {
                return 1.0 / (rank + 1) as f64;
            }
        }
        0.0
    }

    /// Precision@k for a query.
    pub fn precision_at_k(&self, query: &Schema, relevant: &HashSet<SchemaId>, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let hits = self.query(query, k);
        if hits.is_empty() {
            return 0.0;
        }
        let rel = hits
            .iter()
            .filter(|h| relevant.contains(&h.schema_id))
            .count();
        rel as f64 / k.min(self.len().saturating_sub(1)).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    /// Reference weighted sum in sorted-token order — the historical
    /// string-path computation the interned query path must reproduce.
    fn weighted_sum<S>(tokens: &HashSet<S>, weight: &impl Fn(&str) -> f64) -> f64
    where
        S: AsRef<str> + std::hash::Hash + Eq,
    {
        let mut sorted: Vec<&str> = tokens.iter().map(|t| t.as_ref()).collect();
        sorted.sort_unstable();
        sorted.into_iter().map(weight).sum()
    }

    fn schema(id: u32, tables: &[(&str, &[&str])]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        for (t, cols) in tables {
            let tid = s.add_root(*t, ElementKind::Table, DataType::None);
            for c in *cols {
                s.add_child(tid, *c, ElementKind::Column, DataType::text())
                    .unwrap();
            }
        }
        s
    }

    fn repo() -> MetadataRepository {
        let mut r = MetadataRepository::new();
        r.register_schema(schema(
            1,
            &[("Vehicle", &["vin", "make", "model"]), ("Wheel", &["size"])],
        ));
        r.register_schema(schema(
            2,
            &[
                ("VehicleType", &["vin", "manufacturer"]),
                ("Engine", &["power"]),
            ],
        ));
        r.register_schema(schema(3, &[("Patient", &["blood_type", "admission_date"])]));
        r
    }

    fn vehicle_query() -> Schema {
        schema(99, &[("vehicle_record", &["vin", "model_name"])])
    }

    #[test]
    fn relevant_schemata_rank_above_irrelevant() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let hits = search.query(&vehicle_query(), 10);
        assert!(!hits.is_empty());
        assert!(
            hits[0].schema_id == SchemaId(1) || hits[0].schema_id == SchemaId(2),
            "vehicle schema first, got {:?}",
            hits[0]
        );
        // Patient schema shares no vehicle vocabulary → absent or last.
        let patient_rank = hits.iter().position(|h| h.schema_id == SchemaId(3));
        assert!(patient_rank.is_none(), "patient schema must not match");
    }

    #[test]
    fn shared_tokens_reported() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let hits = search.query(&vehicle_query(), 10);
        assert!(hits[0]
            .shared_tokens
            .iter()
            .any(|t| t == "vin" || t == "vehicl"));
    }

    #[test]
    fn query_excludes_itself() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let this = r.schema(SchemaId(1)).unwrap();
        let hits = search.query(this, 10);
        assert!(hits.iter().all(|h| h.schema_id != SchemaId(1)));
    }

    #[test]
    fn empty_query_and_empty_index() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let empty = Schema::new(SchemaId(50), "empty", SchemaFormat::Generic);
        assert!(search.query(&empty, 10).is_empty());
        let empty_repo = MetadataRepository::new();
        let s2 = SchemaSearch::build(&empty_repo);
        assert!(s2.is_empty());
        assert!(s2.query(&vehicle_query(), 10).is_empty());
    }

    #[test]
    fn limit_respected() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        assert!(search.query(&vehicle_query(), 1).len() <= 1);
    }

    #[test]
    fn cancellable_query_honors_token_without_unwinding() {
        use harmony_core::serve::{CancelReason, JobToken};
        let r = repo();
        let search = SchemaSearch::build(&r);
        let live = JobToken::new();
        let hits = search
            .query_cancellable(&vehicle_query(), 10, Some(&live))
            .expect("untripped token completes");
        assert_eq!(hits, search.query(&vehicle_query(), 10));

        let tripped = JobToken::new();
        tripped.cancel();
        assert_eq!(
            search.query_cancellable(&vehicle_query(), 10, Some(&tripped)),
            Err(CancelReason::Cancelled)
        );
        let expired = JobToken::deadline_in(std::time::Duration::ZERO);
        assert_eq!(
            search.query_cancellable(&vehicle_query(), 10, Some(&expired)),
            Err(CancelReason::Deadline)
        );
    }

    #[test]
    fn mrr_and_precision() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let relevant: HashSet<SchemaId> = [SchemaId(1), SchemaId(2)].into_iter().collect();
        let mrr = search.mrr(&vehicle_query(), &relevant);
        assert_eq!(mrr, 1.0, "a relevant schema ranks first");
        let p2 = search.precision_at_k(&vehicle_query(), &relevant, 2);
        assert!(p2 > 0.99, "both top-2 are relevant: {p2}");
        let none: HashSet<SchemaId> = HashSet::new();
        assert_eq!(search.mrr(&vehicle_query(), &none), 0.0);
    }

    #[test]
    fn fragment_search_ranks_relevant_subtrees() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let candidate = r.schema(SchemaId(1)).unwrap(); // Vehicle + Wheel
        let hits = search.query_fragments(&vehicle_query(), candidate, 10);
        assert!(!hits.is_empty());
        // The Vehicle subtree shares vin/model tokens; Wheel shares nothing.
        let top = candidate.element(hits[0].root);
        assert_eq!(top.name, "Vehicle");
        assert!(hits
            .iter()
            .all(|h| candidate.element(h.root).name != "Wheel"));
        assert!(hits[0].score > 0.0 && hits[0].score <= 1.0);
        assert!(!hits[0].shared_tokens.is_empty());
    }

    #[test]
    fn fragment_search_empty_query_or_disjoint_candidate() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let empty = Schema::new(SchemaId(60), "empty", SchemaFormat::Generic);
        let candidate = r.schema(SchemaId(1)).unwrap();
        assert!(search.query_fragments(&empty, candidate, 5).is_empty());
        let patient = r.schema(SchemaId(3)).unwrap();
        assert!(search
            .query_fragments(&vehicle_query(), patient, 5)
            .is_empty());
    }

    #[test]
    fn rare_tokens_dominate_ranking() {
        let mut r = MetadataRepository::new();
        // "identifier" everywhere; "vin" only in schema 1.
        r.register_schema(schema(1, &[("A", &["identifier", "vin"])]));
        r.register_schema(schema(2, &[("B", &["identifier", "blood"])]));
        r.register_schema(schema(3, &[("C", &["identifier", "cargo"])]));
        let search = SchemaSearch::build(&r);
        let q = schema(99, &[("Q", &["identifier", "vin"])]);
        let hits = search.query(&q, 10);
        assert_eq!(hits[0].schema_id, SchemaId(1));
        assert!(hits[0].score > hits[1].score);
    }

    /// The frozen weight table must reproduce the historical per-query IDF
    /// weighting exactly: the weighted-Jaccard score of a hit equals a
    /// from-scratch computation over the same signatures.
    #[test]
    fn frozen_weights_match_direct_weighted_jaccard() {
        let r = repo();
        let search = SchemaSearch::build(&r);
        let q = vehicle_query();
        let hits = search.query(&q, 10);
        let index = search.index();
        let q_sig = FeatureCache::global().prepare(&q);
        for hit in hits {
            let slot = index.slot(hit.schema_id).unwrap();
            let cand: HashSet<std::sync::Arc<str>> = index
                .arena()
                .resolve_shared(index.signature_ids(slot))
                .into_iter()
                .collect();
            let weight = |t: &str| index.weight(t);
            let shared: f64 = {
                let mut ts: Vec<&str> = q_sig
                    .signature()
                    .intersection(&cand)
                    .map(|t| &**t)
                    .collect();
                ts.sort_unstable();
                ts.into_iter().map(weight).sum()
            };
            let qw = weighted_sum(q_sig.signature(), &weight);
            let cw = weighted_sum(&cand, &weight);
            let expect = shared / (qw + cw - shared);
            assert!(
                (hit.score - expect).abs() < 1e-12,
                "{} vs {expect}",
                hit.score
            );
        }
    }
}
