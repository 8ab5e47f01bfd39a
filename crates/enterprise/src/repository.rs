//! The enterprise metadata repository.
//!
//! §5: *"A schema (metadata) repository is an appropriate context in which to
//! cluster schemata, to summarize them, to search for match candidates and to
//! store resulting match information. … these [commercial tools] ignore the
//! importance of schema matches as knowledge artifacts."* Matches here are
//! first-class records with **context tags** (a match good enough for search
//! may be too imprecise for business intelligence) and **provenance** (who
//! asserted it, trust queries).

use crate::shard::{ShardConfig, ShardedRepositoryIndex};
use harmony_core::batch::prepare_schemas_global;
use harmony_core::confidence::Confidence;
use harmony_core::correspondence::{MatchAnnotation, MatchSet, MatchStatus};
use harmony_core::engine::MatchEngine;
use harmony_core::obs;
use harmony_core::prepare::{schema_fingerprint, FeatureCache, PreparedSchema};
use harmony_core::select::Selection;
use harmony_core::swap::SnapCell;
use serde::{Deserialize, Serialize};
use sm_schema::{ElementId, Schema, SchemaId, SchemaPath};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The intended consumption context of a stored match — §5's observation
/// that "matches are context-dependent". Ordered by the precision the
/// context demands (search tolerates noise; BI does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MatchContextTag {
    /// Discovery / search: recall over precision.
    Search,
    /// Project planning: moderate precision.
    Planning,
    /// Integration engineering: high precision.
    Integration,
    /// Business intelligence: only fully trusted matches.
    BusinessIntelligence,
}

impl MatchContextTag {
    /// Is a match recorded for `self` trustworthy enough for `required`?
    /// (A BI-grade match serves search; not vice versa.)
    pub fn satisfies(self, required: MatchContextTag) -> bool {
        self >= required
    }
}

/// A stored match artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchRecord {
    /// Source schema.
    pub source_id: SchemaId,
    /// Target schema.
    pub target_id: SchemaId,
    /// The correspondences.
    pub matches: MatchSet,
    /// Consumption context the match was produced for.
    pub context: MatchContextTag,
    /// Who produced the record (tool run, engineer, team).
    pub created_by: String,
    /// Logical creation timestamp (repository-assigned, monotonically
    /// increasing).
    pub created_at: u64,
    /// Free-text notes.
    pub notes: String,
}

/// One provenance assertion: who said `source ≈ target`, in which record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Index of the record in the repository.
    pub record_index: usize,
    /// Who asserted the correspondence (per-correspondence, e.g. the
    /// validating engineer).
    pub asserted_by: String,
    /// The record's creator (tool/team).
    pub record_created_by: String,
    /// The record's context tag.
    pub context: MatchContextTag,
    /// Validation status of the assertion.
    pub status: MatchStatus,
    /// Logical timestamp of the record.
    pub created_at: u64,
}

/// Dense slot assignment for the schemata a batch references: schemas are
/// registered on first sight and the slot list feeds
/// [`harmony_core::batch::BatchPlanner::plan`]. Shared by the bulk match
/// paths here and in [`crate::coi`].
#[derive(Default)]
pub(crate) struct SlotMap<'a> {
    schemas: Vec<&'a Schema>,
    slot_of: HashMap<SchemaId, usize>,
}

impl<'a> SlotMap<'a> {
    pub(crate) fn new() -> Self {
        SlotMap::default()
    }

    /// The slot of `schema`, registering it on first sight.
    pub(crate) fn slot_for(&mut self, schema: &'a Schema) -> usize {
        let schemas = &mut self.schemas;
        *self.slot_of.entry(schema.id).or_insert_with(|| {
            schemas.push(schema);
            schemas.len() - 1
        })
    }

    /// The slot of an already-registered schema id.
    pub(crate) fn slot_of(&self, id: SchemaId) -> usize {
        self.slot_of[&id]
    }

    /// The registered schemata, in slot order.
    pub(crate) fn schemas(&self) -> &[&'a Schema] {
        &self.schemas
    }
}

/// The maintained sharded index: a lock-free snapshot for readers plus the
/// coalesced refresh rendezvous for the (rare) thread that has to apply
/// pending maintenance.
///
/// Readers ([`MetadataRepository::token_index`]) take the published snapshot
/// without any lock when it is current. When it is stale, exactly one caller
/// refreshes — incrementally applying the touched ids to the previous
/// snapshot — while racing callers wait on the condvar and share the result
/// (the `FeatureCache::prepare` coalescing discipline; the historical
/// `Mutex<Option<Arc<_>>>` cache let racing callers both rebuild).
#[derive(Debug, Default)]
struct IndexCell {
    snap: SnapCell<ShardedRepositoryIndex>,
    state: Mutex<IndexState>,
    refreshed: Condvar,
    /// Bumped on every registry mutation (registration or removal).
    version: AtomicU64,
    /// The mutation version the published snapshot reflects.
    applied: AtomicU64,
}

#[derive(Debug, Default)]
struct IndexState {
    /// Ids mutated since the last applied refresh, in first-touch order
    /// (the deterministic order maintenance ops are applied in).
    touched: Vec<SchemaId>,
    /// Membership mirror of `touched` (bulk registration would otherwise
    /// pay a linear scan per mutation).
    touched_set: HashSet<SchemaId>,
    /// A refresh is in flight; waiters block on `refreshed`.
    refreshing: bool,
}

impl IndexCell {
    fn note_mutation(&self, id: SchemaId) {
        let mut st = self.state.lock().expect("index state poisoned");
        if st.touched_set.insert(id) {
            st.touched.push(id);
        }
        drop(st);
        self.version.fetch_add(1, Ordering::SeqCst);
    }
}

/// Resets the in-flight flag (and wakes waiters) even when a refresh
/// unwinds, so a panicking build never wedges later readers.
struct RefreshGuard<'a> {
    cell: &'a IndexCell,
}

impl Drop for RefreshGuard<'_> {
    fn drop(&mut self) {
        let mut st = self
            .cell
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        st.refreshing = false;
        drop(st);
        self.cell.refreshed.notify_all();
    }
}

/// An in-memory enterprise metadata repository.
#[derive(Debug, Default)]
pub struct MetadataRepository {
    schemas: HashMap<SchemaId, Schema>,
    insertion_order: Vec<SchemaId>,
    /// Content fingerprint of each registered schema, computed once at
    /// registration (schemata are immutable while registered — mutation is
    /// re-registration). Warm-start matching consumes these instead of
    /// re-hashing every schema's full content inside its timed window.
    fingerprints: HashMap<SchemaId, u64>,
    records: Vec<MatchRecord>,
    clock: u64,
    /// Shard/compaction knobs of the maintained index.
    shard_config: ShardConfig,
    /// The maintained sharded token index (see [`IndexCell`]).
    index: IndexCell,
}

impl MetadataRepository {
    /// Empty repository.
    pub fn new() -> Self {
        MetadataRepository::default()
    }

    /// Empty repository with explicit index shard/compaction knobs.
    pub fn with_shard_config(config: ShardConfig) -> Self {
        MetadataRepository {
            shard_config: config,
            ..MetadataRepository::default()
        }
    }

    /// The maintained index's shard/compaction configuration.
    pub fn shard_config(&self) -> ShardConfig {
        self.shard_config
    }

    /// Register a schema. Replaces any previous schema with the same id
    /// (returning it), mirroring registry re-posts of new versions.
    ///
    /// The write path is O(1): the mutation is recorded and folded into the
    /// maintained index *incrementally* on the next [`Self::token_index`]
    /// (delta log + tombstone, no full rebuild) — re-registering unchanged
    /// content is a fingerprint-checked no-op there.
    pub fn register_schema(&mut self, schema: Schema) -> Option<Schema> {
        let id = schema.id;
        self.fingerprints.insert(id, schema_fingerprint(&schema));
        let prev = self.schemas.insert(id, schema);
        if prev.is_none() {
            self.insertion_order.push(id);
        }
        self.index.note_mutation(id);
        prev
    }

    /// Remove a schema from the registry, returning it (or `None` when the
    /// id is unknown). The maintained index tombstones the schema on the
    /// next refresh; stored match records referencing it are kept — they
    /// remain knowledge artifacts about past registry states.
    pub fn remove_schema(&mut self, id: SchemaId) -> Option<Schema> {
        let prev = self.schemas.remove(&id)?;
        self.fingerprints.remove(&id);
        self.insertion_order.retain(|&x| x != id);
        self.index.note_mutation(id);
        Some(prev)
    }

    /// Fetch a schema.
    pub fn schema(&self, id: SchemaId) -> Option<&Schema> {
        self.schemas.get(&id)
    }

    /// All schemata in registration order.
    pub fn schemas(&self) -> impl Iterator<Item = &Schema> {
        self.insertion_order
            .iter()
            .filter_map(move |id| self.schemas.get(id))
    }

    /// Number of registered schemata.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Prepared linguistic features of a registered schema, served from the
    /// process-wide [`FeatureCache`]. Repeated calls — and every other
    /// consumer of the cache (match engine, search, clustering, COI) — share
    /// one preparation per schema content.
    pub fn prepared(&self, id: SchemaId) -> Option<Arc<PreparedSchema>> {
        self.schema(id).map(|s| FeatureCache::global().prepare(s))
    }

    /// Warm the feature cache for every registered schema (e.g. before a
    /// batch of repository-wide searches); returns the preparations in
    /// registration order. Runs as a bulk prepare on the process-wide
    /// executor — cold registries preprocess concurrently, and racing
    /// consumers coalesce on the cache's in-flight build slots.
    pub fn prepare_all(&self) -> Vec<Arc<PreparedSchema>> {
        let schemas: Vec<&Schema> = self.schemas().collect();
        prepare_schemas_global(&schemas)
    }

    /// Bulk match-and-record: execute every requested schema pair as one
    /// planned batch (shared preparation + token index, all pairs
    /// concurrent on the executor — see [`harmony_core::batch`]), select
    /// one-to-one correspondences above `threshold`, auto-validate them as
    /// `created_by`, and store one [`MatchRecord`] per pair under
    /// `context`. Returns the new record indices in request order.
    ///
    /// This is the production path for populating a registry's match
    /// knowledge — the per-pair `engine.run(..)` + `record_match(..)` loop
    /// it replaces repaid preparation and indexing once per pair.
    pub fn match_and_record_all(
        &mut self,
        engine: &MatchEngine,
        requests: &[(SchemaId, SchemaId)],
        threshold: Confidence,
        context: MatchContextTag,
        created_by: &str,
        notes: &str,
    ) -> Result<Vec<usize>, String> {
        // Resolve ids to slots over exactly the schemata the requests name
        // (deduplicated) — planning over the whole registry would prepare
        // and index every registered schema for possibly one pair of real
        // work. Unknown ids fail here, before any matching runs.
        let mut slots = SlotMap::new();
        let mut slot_requests = Vec::with_capacity(requests.len());
        for &(source, target) in requests {
            for id in [source, target] {
                let schema = self
                    .schema(id)
                    .ok_or_else(|| format!("schema {id} not registered"))?;
                slots.slot_for(schema);
            }
            slot_requests.push((slots.slot_of(source), slots.slot_of(target)));
        }

        let selection = Selection::OneToOne { min: threshold };
        let batch = engine.batch().plan(slots.schemas(), slot_requests);
        // Selection-only execution: recording never reads scores, so
        // per-pair matrices drop inside the batch jobs.
        let result = batch.run_select_only(&selection);
        drop(batch);

        let mut indices = Vec::with_capacity(result.pairs.len());
        // Results come back in request order; zipping states that invariant
        // instead of relying on positional indexing.
        for (pair, &(source_id, target_id)) in result.pairs.iter().zip(requests) {
            let validated =
                MatchSet::validated_from(&pair.selected, created_by, MatchAnnotation::Equivalent);
            indices.push(
                self.record_match(source_id, target_id, validated, context, created_by, notes)?,
            );
        }
        Ok(indices)
    }

    /// The repository-level token index over all registered schemata —
    /// the retrieval structure behind [`crate::search::SchemaSearch`],
    /// [`crate::cluster::DistanceMatrix::from_repository`], and COI
    /// proposal.
    ///
    /// Reads are lock-free once the index is current: the published
    /// snapshot is taken from a [`SnapCell`], so concurrent query traffic
    /// never serializes on a writer's lock. After mutations, the first
    /// caller folds the accumulated delta into the index *incrementally*
    /// (shard-local delta logs + tombstones, no full rebuild) and publishes
    /// a new snapshot; racing callers coalesce on that one refresh instead
    /// of each rebuilding — mirroring `FeatureCache::prepare`.
    pub fn token_index(&self) -> Arc<ShardedRepositoryIndex> {
        let target = self.index.version.load(Ordering::SeqCst);
        if self.index.applied.load(Ordering::SeqCst) == target {
            if let Some(snap) = self.index.snap.read() {
                // Snapshot is current: fingerprints always match the live
                // schemata because `applied` only advances when a refresh
                // folded every noted mutation; verify in debug builds.
                debug_assert!(
                    self.schemas().all(|s| {
                        snap.slot(s.id)
                            .is_some_and(|slot| snap.fingerprint(slot) == schema_fingerprint(s))
                    }) && snap.len() == self.schemas.len()
                );
                return snap;
            }
        }
        self.refresh_index(target)
    }

    /// Slow path of [`Self::token_index`]: coalesce racing refreshers onto
    /// one incremental fold-and-publish.
    fn refresh_index(&self, target: u64) -> Arc<ShardedRepositoryIndex> {
        let mut st = self.index.state.lock().expect("index state poisoned");
        loop {
            // Someone else may have refreshed (or be refreshing) past our
            // target; wait them out and re-check rather than re-folding.
            if self.index.applied.load(Ordering::SeqCst) >= target {
                if let Some(snap) = self.index.snap.read() {
                    return snap;
                }
            }
            if !st.refreshing {
                break;
            }
            st = self.index.refreshed.wait(st).expect("index state poisoned");
        }
        st.refreshing = true;
        let touched = std::mem::take(&mut st.touched);
        st.touched_set.clear();
        // Pin the version *before* folding: mutations need `&mut self`, so
        // none can race this `&self` refresh, but the protocol stays honest
        // if that ever changes.
        let version = self.index.version.load(Ordering::SeqCst);
        drop(st);
        let _guard = RefreshGuard { cell: &self.index };
        let next = self.rebuild_or_apply(&touched);
        self.index.snap.publish(Arc::clone(&next));
        self.index.applied.store(version, Ordering::SeqCst);
        obs::add(obs::Counter::RepoSnapshots, 1);
        next
    }

    /// Fold `touched` schema ids into the current snapshot as delta
    /// upserts/tombstones, or rebuild from scratch when there is no usable
    /// base (first build, or more ids touched than the base holds).
    fn rebuild_or_apply(&self, touched: &[SchemaId]) -> Arc<ShardedRepositoryIndex> {
        let base = self.index.snap.read();
        if let Some(base) = base {
            if !base.is_empty() && !touched.is_empty() && touched.len() < base.len() {
                let cache = FeatureCache::global();
                let mut next = base.begin_update();
                for &id in touched {
                    match self.schemas.get(&id) {
                        Some(schema) => next.upsert_in_place(&cache.prepare(schema)),
                        None => {
                            next.remove_in_place(id);
                        }
                    }
                }
                // Compactions skipped while the memory governor held the
                // pressure flag catch up here, on the next refresh after
                // pressure clears.
                next.compact_pending();
                return Arc::new(next);
            }
        }
        let exec = harmony_core::exec::Executor::global();
        Arc::new(ShardedRepositoryIndex::build_parallel(
            &self.prepare_all(),
            exec,
            exec.threads(),
            self.shard_config,
        ))
    }

    /// Serialize every registered schema's prepared features plus the index
    /// configuration to `path` — the warm-start image consumed by
    /// [`Self::warm_start`]. Written from the current index snapshot (it is
    /// refreshed first), so the image always matches the registry state.
    pub fn save_registry(&self, path: &Path) -> std::io::Result<()> {
        let index = self.token_index();
        let prepared: Vec<Arc<PreparedSchema>> = index
            .live_slots()
            .into_iter()
            .map(|slot| {
                Arc::clone(
                    index
                        .prepared(slot)
                        .expect("live slots retain their preparation"),
                )
            })
            .collect();
        crate::persist::save_registry(path, &prepared, index.config())
    }

    /// Load a warm-start image saved by [`Self::save_registry`] and publish
    /// it as the current index snapshot, skipping linguistic re-preparation
    /// of every schema whose registered content still matches the image.
    /// Returns how many preparations were reused. Schemata present in the
    /// registry are required; image entries for unregistered ids are
    /// ignored.
    pub fn warm_start(&self, path: &Path) -> std::io::Result<usize> {
        let _span = obs::span(obs::SpanKind::RepoWarmLoad, 0);

        let loaded = crate::persist::load_registry(path)?;

        let mut by_fingerprint: HashMap<u64, Arc<PreparedSchema>> =
            HashMap::with_capacity(loaded.prepared.len());
        for p in loaded.prepared {
            by_fingerprint.insert(p.fingerprint, p);
        }
        let cache = FeatureCache::global();
        let mut reused = 0usize;
        let prepared: Vec<Arc<PreparedSchema>> = self
            .insertion_order
            .iter()
            .map(|id| {
                let schema = &self.schemas[id];
                let fp = self.fingerprints[id];
                match by_fingerprint.get(&fp) {
                    Some(p) if p.schema_id == schema.id => {
                        reused += 1;
                        Arc::clone(p)
                    }
                    _ => cache.prepare(schema),
                }
            })
            .collect();
        // One bulk admission (single cache lock + one eviction sweep)
        // instead of 10⁴ per-schema admits each running an O(capacity)
        // LRU scan against an already-full cache.
        cache.admit_all(&prepared);

        let exec = harmony_core::exec::Executor::global();
        let config = ShardConfig {
            shards: loaded.shard_count,
            ..self.shard_config
        };
        let index = Arc::new(ShardedRepositoryIndex::build_parallel(
            &prepared,
            exec,
            exec.threads(),
            config,
        ));
        // Publish under the state lock so we don't clobber (or get
        // clobbered by) a concurrent refresh mid-fold.
        let mut st = self.index.state.lock().expect("index state poisoned");
        while st.refreshing {
            st = self.index.refreshed.wait(st).expect("index state poisoned");
        }
        st.touched.clear();
        st.touched_set.clear();
        let version = self.index.version.load(Ordering::SeqCst);
        self.index.snap.publish(index);
        self.index.applied.store(version, Ordering::SeqCst);
        obs::add(obs::Counter::RepoSnapshots, 1);
        Ok(reused)
    }

    /// Store a match artifact; returns its record index. Both schemata must
    /// be registered first (matches against unregistered schemata would be
    /// dangling knowledge).
    pub fn record_match(
        &mut self,
        source_id: SchemaId,
        target_id: SchemaId,
        matches: MatchSet,
        context: MatchContextTag,
        created_by: impl Into<String>,
        notes: impl Into<String>,
    ) -> Result<usize, String> {
        if !self.schemas.contains_key(&source_id) {
            return Err(format!("source schema {source_id} not registered"));
        }
        if !self.schemas.contains_key(&target_id) {
            return Err(format!("target schema {target_id} not registered"));
        }
        self.clock += 1;
        self.records.push(MatchRecord {
            source_id,
            target_id,
            matches,
            context,
            created_by: created_by.into(),
            created_at: self.clock,
            notes: notes.into(),
        });
        Ok(self.records.len() - 1)
    }

    /// All match records.
    pub fn records(&self) -> &[MatchRecord] {
        &self.records
    }

    /// Records between two schemata (either orientation).
    pub fn records_between(&self, a: SchemaId, b: SchemaId) -> Vec<(usize, &MatchRecord)> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                (r.source_id == a && r.target_id == b) || (r.source_id == b && r.target_id == a)
            })
            .collect()
    }

    /// Records suitable for a required context (record context ≥ required).
    pub fn records_for_context(&self, required: MatchContextTag) -> Vec<(usize, &MatchRecord)> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.context.satisfies(required))
            .collect()
    }

    /// Provenance query — §5's "who said that X is the same as Y, and should
    /// I trust that assertion in my application?". Returns every assertion
    /// linking the two elements across all records, newest first.
    pub fn who_said(
        &self,
        source_schema: SchemaId,
        source: ElementId,
        target_schema: SchemaId,
        target: ElementId,
    ) -> Vec<Provenance> {
        let mut out: Vec<Provenance> = Vec::new();
        for (idx, r) in self.records.iter().enumerate() {
            let forward = r.source_id == source_schema && r.target_id == target_schema;
            let backward = r.source_id == target_schema && r.target_id == source_schema;
            if !forward && !backward {
                continue;
            }
            for c in r.matches.all() {
                let hit = if forward {
                    c.source == source && c.target == target
                } else {
                    c.source == target && c.target == source
                };
                if hit {
                    out.push(Provenance {
                        record_index: idx,
                        asserted_by: c.asserted_by.clone(),
                        record_created_by: r.created_by.clone(),
                        context: r.context,
                        status: c.status,
                        created_at: r.created_at,
                    });
                }
            }
        }
        out.sort_by_key(|p| std::cmp::Reverse(p.created_at));
        out
    }

    /// CIO concept lookup (§2 "Enterprise information asset awareness"):
    /// which schemata contain an element whose name mentions `concept`?
    /// Returns (schema id, matching element paths).
    pub fn schemas_mentioning(&self, concept: &str) -> Vec<(SchemaId, Vec<SchemaPath>)> {
        let needle: Vec<String> = sm_text::tokenize_identifier(concept)
            .iter()
            .map(|t| sm_text::porter_stem(t))
            .collect();
        if needle.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for schema in self.schemas() {
            let mut paths = Vec::new();
            for e in schema.elements() {
                let tokens: Vec<String> = sm_text::tokenize_identifier(&e.name)
                    .iter()
                    .map(|t| sm_text::porter_stem(t))
                    .collect();
                if needle.iter().all(|n| tokens.contains(n)) {
                    paths.push(schema.path(e.id));
                }
            }
            if !paths.is_empty() {
                out.push((schema.id, paths));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::confidence::Confidence;
    use harmony_core::correspondence::{Correspondence, MatchAnnotation};
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    fn schema(id: u32, roots: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        for r in roots {
            let t = s.add_root(*r, ElementKind::Table, DataType::None);
            s.add_child(t, format!("{r}_id"), ElementKind::Column, DataType::Integer)
                .unwrap();
        }
        s
    }

    fn match_set(validated_by: &str) -> MatchSet {
        let mut m = MatchSet::new();
        m.push(
            Correspondence::candidate(ElementId(0), ElementId(0), Confidence::new(0.9))
                .validate(validated_by, MatchAnnotation::Equivalent),
        );
        m
    }

    #[test]
    fn register_and_fetch() {
        let mut repo = MetadataRepository::new();
        assert!(repo.register_schema(schema(1, &["Person"])).is_none());
        assert!(repo.register_schema(schema(2, &["Vehicle"])).is_none());
        assert_eq!(repo.schema_count(), 2);
        assert!(repo.schema(SchemaId(1)).is_some());
        assert!(repo.schema(SchemaId(9)).is_none());
        // Re-registration replaces and returns the old version.
        let old = repo.register_schema(schema(1, &["PersonV2"]));
        assert!(old.is_some());
        assert_eq!(repo.schema_count(), 2);
        assert_eq!(repo.schemas().count(), 2);
    }

    #[test]
    fn record_match_requires_registered_schemas() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["A"]));
        let err = repo
            .record_match(
                SchemaId(1),
                SchemaId(2),
                MatchSet::new(),
                MatchContextTag::Search,
                "tool",
                "",
            )
            .unwrap_err();
        assert!(err.contains("not registered"));
        repo.register_schema(schema(2, &["B"]));
        let idx = repo
            .record_match(
                SchemaId(1),
                SchemaId(2),
                MatchSet::new(),
                MatchContextTag::Search,
                "tool",
                "",
            )
            .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn context_tags_order_by_required_precision() {
        use MatchContextTag::*;
        assert!(BusinessIntelligence.satisfies(Search));
        assert!(Integration.satisfies(Planning));
        assert!(!Search.satisfies(Integration));
        assert!(Planning.satisfies(Planning));
    }

    #[test]
    fn records_for_context_filters() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["A"]));
        repo.register_schema(schema(2, &["B"]));
        repo.record_match(
            SchemaId(1),
            SchemaId(2),
            MatchSet::new(),
            MatchContextTag::Search,
            "t",
            "",
        )
        .unwrap();
        repo.record_match(
            SchemaId(1),
            SchemaId(2),
            MatchSet::new(),
            MatchContextTag::Integration,
            "t",
            "",
        )
        .unwrap();
        assert_eq!(repo.records_for_context(MatchContextTag::Search).len(), 2);
        assert_eq!(repo.records_for_context(MatchContextTag::Planning).len(), 1);
        assert_eq!(
            repo.records_for_context(MatchContextTag::BusinessIntelligence)
                .len(),
            0
        );
    }

    #[test]
    fn who_said_returns_provenance_newest_first() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["A"]));
        repo.register_schema(schema(2, &["B"]));
        repo.record_match(
            SchemaId(1),
            SchemaId(2),
            match_set("alice"),
            MatchContextTag::Planning,
            "team-1",
            "",
        )
        .unwrap();
        repo.record_match(
            SchemaId(1),
            SchemaId(2),
            match_set("bob"),
            MatchContextTag::Integration,
            "team-2",
            "",
        )
        .unwrap();
        let prov = repo.who_said(SchemaId(1), ElementId(0), SchemaId(2), ElementId(0));
        assert_eq!(prov.len(), 2);
        assert_eq!(prov[0].asserted_by, "bob", "newest first");
        assert_eq!(prov[1].asserted_by, "alice");
        assert_eq!(prov[0].context, MatchContextTag::Integration);
        // Reverse orientation finds the same assertions.
        let rev = repo.who_said(SchemaId(2), ElementId(0), SchemaId(1), ElementId(0));
        assert_eq!(rev.len(), 2);
        // Unknown pair: empty.
        assert!(repo
            .who_said(SchemaId(1), ElementId(5), SchemaId(2), ElementId(5))
            .is_empty());
    }

    #[test]
    fn records_between_is_orientation_agnostic() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["A"]));
        repo.register_schema(schema(2, &["B"]));
        repo.record_match(
            SchemaId(2),
            SchemaId(1),
            MatchSet::new(),
            MatchContextTag::Search,
            "t",
            "",
        )
        .unwrap();
        assert_eq!(repo.records_between(SchemaId(1), SchemaId(2)).len(), 1);
    }

    #[test]
    fn token_index_is_cached_and_invalidated_by_registration() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["Person"]));
        let i1 = repo.token_index();
        let i2 = repo.token_index();
        assert!(Arc::ptr_eq(&i1, &i2), "stable registry reuses the index");
        assert_eq!(i1.len(), 1);
        assert!(!i1.postings("person").is_empty());

        repo.register_schema(schema(2, &["Vehicle"]));
        let i3 = repo.token_index();
        assert!(!Arc::ptr_eq(&i1, &i3), "registration invalidates the index");
        assert_eq!(i3.len(), 2);
        assert!(!i3.postings("vehicl").is_empty());

        // Re-registering changed content re-indexes it.
        repo.register_schema(schema(1, &["PersonV2", "Address"]));
        let i4 = repo.token_index();
        assert!(!i4.postings("address").is_empty());
        assert_eq!(i4.len(), 2, "replaced, not duplicated");
    }

    #[test]
    fn match_and_record_all_batches_and_stores() {
        let mut repo = MetadataRepository::new();
        repo.register_schema(schema(1, &["Person", "Vehicle"]));
        repo.register_schema(schema(2, &["Person", "Weapon"]));
        repo.register_schema(schema(3, &["Vehicle", "Facility"]));
        let engine = MatchEngine::new();
        let threshold = Confidence::new(0.3);
        let requests = [
            (SchemaId(1), SchemaId(2)),
            (SchemaId(1), SchemaId(3)),
            (SchemaId(2), SchemaId(3)),
        ];
        let indices = repo
            .match_and_record_all(
                &engine,
                &requests,
                threshold,
                MatchContextTag::Planning,
                "batch-tool",
                "bulk",
            )
            .expect("all schemata registered");
        assert_eq!(indices, vec![0, 1, 2]);
        // Each record matches the standalone blocked run + selection.
        for (idx, &(source_id, target_id)) in indices.iter().zip(&requests) {
            let r = &repo.records()[*idx];
            assert_eq!((r.source_id, r.target_id), (source_id, target_id));
            assert_eq!(r.context, MatchContextTag::Planning);
            let standalone = engine.run_blocked(
                repo.schema(source_id).unwrap(),
                repo.schema(target_id).unwrap(),
                &harmony_core::index::BlockingPolicy::default(),
            );
            let expected = Selection::OneToOne { min: threshold }.apply(&standalone.matrix);
            assert_eq!(r.matches.len(), expected.len());
            assert!(r.matches.validated().count() == r.matches.len());
        }
        // Shared tables collide across schemata, so some record is non-empty.
        assert!(repo.records().iter().any(|r| !r.matches.is_empty()));
        // Unknown ids fail fast without recording anything.
        let before = repo.records().len();
        let err = repo
            .match_and_record_all(
                &engine,
                &[(SchemaId(1), SchemaId(99))],
                threshold,
                MatchContextTag::Search,
                "t",
                "",
            )
            .unwrap_err();
        assert!(err.contains("not registered"));
        assert_eq!(repo.records().len(), before);
    }

    #[test]
    fn cio_concept_lookup() {
        let mut repo = MetadataRepository::new();
        let mut s1 = schema(1, &["Patient"]);
        let t = s1.roots()[0];
        s1.add_child(
            t,
            "blood_test_result",
            ElementKind::Column,
            DataType::text(),
        )
        .unwrap();
        repo.register_schema(s1);
        repo.register_schema(schema(2, &["Vehicle"]));
        let hits = repo.schemas_mentioning("BloodTest");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, SchemaId(1));
        assert_eq!(hits[0].1[0].to_string(), "Patient/blood_test_result");
        // Stemmed matching: plural query still hits.
        assert_eq!(repo.schemas_mentioning("blood tests").len(), 1);
        assert!(repo.schemas_mentioning("dialysis").is_empty());
        assert!(repo.schemas_mentioning("").is_empty());
    }
}
