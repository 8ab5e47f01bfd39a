//! The repository-level token index: sharded and incrementally maintained.
//!
//! §5's registry scenarios — query-by-schema search, overlap clustering,
//! COI proposal — all reduce to questions about shared vocabulary between
//! schemata. [`ShardedRepositoryIndex`] inverts the registry once: token →
//! ascending posting list of schema slots, with IDF weights over the live
//! schemata. Searching touches only the posting lists of the query's
//! tokens (schemata sharing no vocabulary are never visited), pairwise
//! intersection counts come from walking each posting list once, and
//! all-member shared vocabulary is a posting-list membership test.
//!
//! ## What the index answers
//!
//! Over the live (registered, not removed) schemata, with `n` their count
//! (at least 1) and `df(t)` the number of live signatures holding token `t`:
//!
//! * a token weighs `idf_weight(n, df(t))` =
//!   `ln((n + 1) / (df(t) + 1)) + 1`; a token no live schema holds weighs
//!   `idf_weight(n, 0)`;
//! * a schema's total weight sums its signature's token weights in the
//!   signature's lexicographic order;
//! * a probe ([`ShardedRepositoryIndex::accumulate_ids`]) returns, for every
//!   live schema holding at least one query token, the weights of the query
//!   tokens it holds summed in query order, slots ascending.
//!
//! Float addition is not associative, so the summation orders are part of
//! the contract. `tests/shard_pin.rs` checks every one of these quantities
//! bit for bit against a brute-force scan of the live signatures, through
//! any interleaving of inserts, removals, replacements and compactions.
//!
//! ## Layout and maintenance
//!
//! A monolithic index would throw the whole structure away on every
//! registration and rebuild all of it on the next read — seconds per
//! registration at the paper's repository scale (10^4–10^6 schemata).
//! This one makes maintenance incremental:
//!
//! * **Token-range shards.** The interned token-id space is dealt out to
//!   shards in blocks of 64 consecutive ids (block-cyclic, so shards stay
//!   balanced regardless of intern order). Each shard is an independent flat
//!   CSR postings store, built in parallel on the global `Executor` and
//!   compacted independently. A token routes to exactly one shard, so
//!   shard-local document frequency *is* global document frequency — IDF
//!   weights need no cross-shard reconciliation.
//! * **Delta maintenance.** Inserting a schema appends its slot to the
//!   touched shards' delta logs (`token → added slots`); removing one flips
//!   a global tombstone bit and bumps per-token drop counts. Probes consult
//!   base CSR and delta log side by side, skipping tombstoned slots. No full
//!   rebuild happens on the write path.
//! * **Size-triggered compaction.** When a shard's accumulated delta +
//!   tombstone ops outgrow a fraction of its base postings, that one shard
//!   folds its live postings back into a fresh flat CSR and clears its logs.
//!   Compaction only re-arranges storage — which slots are live and every
//!   per-token live df are unchanged — so it is invisible to scores.
//!
//! Three properties keep the answers above exact under maintenance:
//!
//! 1. Weights are the pure function `idf_weight(n_live, df_live)`; `n_live`
//!    and each token's live df are maintained exactly (tombstones decrement
//!    df), not approximated.
//! 2. Probes iterate *query tokens* in their given (lexicographic) order and
//!    route each token to its shard — never shard-major — so each slot's
//!    shared-weight sum adds its `f64`s in query order.
//! 3. Per-schema total weights sum `signature_ids` in lexicographic order,
//!    computed lazily per snapshot (they depend on `n_live`, which moves
//!    with every maintenance op).
//!
//! Slot numbers are physical (append-only, holes where tombstones sit) and
//! differ from a fresh build's registration-order slots, but no score
//! depends on slot numbering and search tie-breaks on `SchemaId`.
//!
//! Snapshots are immutable: writers [`ShardedRepositoryIndex::begin_update`]
//! a cheap copy-on-write clone (shard bases are `Arc`-shared), apply ops in
//! place, and publish the result through a
//! [`harmony_core::swap::SnapCell`] — see
//! [`crate::repository::MetadataRepository::token_index`].

use harmony_core::exec::{chunks, Executor, Job};
use harmony_core::index::idf_weight;
use harmony_core::obs;
use harmony_core::prepare::PreparedSchema;
use sm_schema::SchemaId;
use sm_text::intern::{TokenArena, TokenId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Token-id block width (log2) of the block-cyclic shard routing: 64
/// consecutive interned ids land on one shard, the next 64 on the next.
const TOKEN_BLOCK_BITS: u32 = 6;

/// Schemata per parallel build chunk (signature resolution dominates a
/// build, so chunks stay small enough to balance).
const BUILD_CHUNK_SCHEMAS: usize = 16;

/// Shard-count and compaction-trigger knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of token-range shards (≥ 1). Fixed at build; scores are
    /// identical at any count, so this only tunes parallelism and
    /// compaction granularity.
    pub shards: usize,
    /// Minimum delta + tombstone ops before a shard is even considered for
    /// compaction (keeps tiny indices from compacting on every op).
    pub min_compact_ops: usize,
    /// Compact a shard once its pending ops exceed this fraction of its
    /// base postings.
    pub compact_fraction: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            min_compact_ops: 64,
            compact_fraction: 0.25,
        }
    }
}

/// One indexed schema slot. Slots are append-only: removal tombstones a
/// slot (`alive = false`, preparation dropped) and the number is never
/// reused, so delta-log postings stay ascending forever.
#[derive(Debug, Clone)]
struct SlotEntry {
    id: SchemaId,
    fingerprint: u64,
    alive: bool,
    /// Resolved signature, lexicographic (display + shared-token reports).
    signatures: Arc<[String]>,
    /// The slot's preparation — the source of `signature_ids` and what
    /// warm-start serialization persists. `None` once tombstoned.
    prepared: Option<Arc<PreparedSchema>>,
}

/// A shard's immutable base: flat CSR over the shard's token subset.
/// `Arc`-shared between snapshots so copy-on-write clones are O(delta).
#[derive(Debug)]
struct ShardBase {
    /// Distinct token ids, ascending.
    tokens: Vec<TokenId>,
    /// `offsets[t]..offsets[t+1]` slices `postings` for `tokens[t]`.
    offsets: Vec<u32>,
    /// Ascending slots per token (may include tombstoned slots until the
    /// next compaction).
    postings: Vec<u32>,
}

impl ShardBase {
    fn empty() -> Self {
        ShardBase {
            tokens: Vec::new(),
            offsets: vec![0],
            postings: Vec::new(),
        }
    }

    /// Assemble from `(token << 32) | slot` pairs, sorted ascending.
    fn from_sorted_pairs(pairs: &[u64]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let mut base = ShardBase::empty();
        base.postings.reserve(pairs.len());
        let mut i = 0usize;
        while i < pairs.len() {
            let token = (pairs[i] >> 32) as u32;
            while i < pairs.len() && (pairs[i] >> 32) as u32 == token {
                base.postings.push((pairs[i] & 0xffff_ffff) as u32);
                i += 1;
            }
            base.tokens.push(TokenId(token));
            base.offsets.push(base.postings.len() as u32);
        }
        base
    }

    /// Posting slice of a token, `None` when absent from the base.
    #[inline]
    fn posting(&self, t: TokenId) -> Option<&[u32]> {
        let k = self.tokens.binary_search(&t).ok()?;
        Some(&self.postings[self.offsets[k] as usize..self.offsets[k + 1] as usize])
    }
}

/// One token-range shard: `Arc`-shared base CSR plus this snapshot's delta
/// log and tombstone counts.
#[derive(Debug, Clone)]
struct Shard {
    base: Arc<ShardBase>,
    /// Slots appended since the last compaction, ascending per token (slot
    /// numbers grow monotonically, so pushes keep order).
    delta: HashMap<TokenId, Vec<u32>>,
    /// Per-token count of tombstoned slots still present in base ∪ delta —
    /// `live df = base df + delta df − drop df`, O(1) per token.
    df_drop: HashMap<TokenId, u32>,
    /// Maintenance ops (delta pushes + tombstone bumps) since the last
    /// compaction — the compaction trigger.
    pending_ops: usize,
}

impl Shard {
    fn empty() -> Self {
        Shard {
            base: Arc::new(ShardBase::empty()),
            delta: HashMap::new(),
            df_drop: HashMap::new(),
            pending_ops: 0,
        }
    }

    /// Live document frequency of a token in this shard (= globally, since
    /// a token routes to exactly one shard).
    #[inline]
    fn live_df(&self, t: TokenId) -> u32 {
        let base = self.posting_len(t);
        let added = self.delta.get(&t).map_or(0, |v| v.len() as u32);
        let dropped = self.df_drop.get(&t).copied().unwrap_or(0);
        base + added - dropped
    }

    #[inline]
    fn posting_len(&self, t: TokenId) -> u32 {
        self.base.posting(t).map_or(0, |p| p.len() as u32)
    }
}

/// The sharded repository index: token postings and IDF weights over the
/// live schemata, with in-place maintenance. See the module docs for what
/// it answers, its layout, and why maintenance keeps the answers exact.
#[derive(Debug)]
pub struct ShardedRepositoryIndex {
    arena: Arc<TokenArena>,
    config: ShardConfig,
    slots: Vec<SlotEntry>,
    /// id → live slot.
    slot_of: HashMap<SchemaId, u32>,
    /// Live slot count (`n` of the IDF formula).
    live: u32,
    shards: Vec<Shard>,
    /// Lazy per-slot total signature weight. Depends on `n_live`, which
    /// changes with every maintenance op, so each snapshot memoizes its own
    /// totals on first use instead of eagerly recomputing all of them.
    total_weights: Vec<OnceLock<f64>>,
}

impl ShardedRepositoryIndex {
    /// Build over prepared schemata in slot order, inline on the caller.
    ///
    /// # Panics
    /// Panics when the preparations do not share one token arena, or when
    /// two preparations carry the same schema id.
    pub fn build(prepared: &[Arc<PreparedSchema>], config: ShardConfig) -> Self {
        Self::build_on(prepared, Job::inline(), config)
    }

    /// [`Self::build`] with schema chunks and per-shard CSR assembly fanned
    /// out across up to `parallelism` executor lanes. Bit-identical to the
    /// inline build at every lane count: chunk outputs merge in slot order
    /// and each shard sorts the same pair multiset.
    pub fn build_parallel(
        prepared: &[Arc<PreparedSchema>],
        exec: &Executor,
        parallelism: usize,
        config: ShardConfig,
    ) -> Self {
        Self::build_on(prepared, Job::new(exec, parallelism), config)
    }

    fn build_on(prepared: &[Arc<PreparedSchema>], job: Job<'_>, config: ShardConfig) -> Self {
        obs::add(obs::Counter::RepoIndexBuilds, 1);
        let _span = obs::span(obs::SpanKind::RepoIndexBuild, prepared.len() as u64);
        let shard_count = config.shards.max(1);
        let arena = prepared
            .first()
            .map(|p| Arc::clone(p.arena()))
            .unwrap_or_else(|| Arc::clone(TokenArena::global()));
        for p in prepared {
            assert!(
                Arc::ptr_eq(p.arena(), &arena),
                "all indexed preparations must share one token arena"
            );
        }

        // Parallel phase 1: per schema chunk, resolve display signatures and
        // emit per-shard packed `(token << 32) | slot` pairs. Chunk outputs
        // stitch in slot order, as the fan-out returns them in item order.
        struct ChunkOut {
            pairs: Vec<Vec<u64>>,
            signatures: Vec<Arc<[String]>>,
        }
        let route = |t: TokenId| -> usize { ((t.0 >> TOKEN_BLOCK_BITS) as usize) % shard_count };
        let outs = job.map(chunks(prepared.len(), BUILD_CHUNK_SCHEMAS), |_, range| {
            let mut out = ChunkOut {
                pairs: vec![Vec::new(); shard_count],
                signatures: Vec::with_capacity(range.len()),
            };
            for slot in range {
                let sig = prepared[slot].signature_ids();
                for &t in sig {
                    out.pairs[route(t)].push((u64::from(t.0) << 32) | slot as u64);
                }
                out.signatures.push(arena.resolve_all(sig).into());
            }
            out
        });
        let mut shard_pairs: Vec<Vec<u64>> = vec![Vec::new(); shard_count];
        let mut signatures: Vec<Arc<[String]>> = Vec::with_capacity(prepared.len());
        for out in outs {
            for (s, pairs) in out.pairs.into_iter().enumerate() {
                shard_pairs[s].extend(pairs);
            }
            signatures.extend(out.signatures);
        }

        // Parallel phase 2: sort each shard's pairs and lay out its CSR.
        // Each shard sorts one fixed multiset, so the result is identical at
        // any lane count or assignment.
        let shards = job.map(shard_pairs, |_, mut pairs| {
            let _span = obs::span(obs::SpanKind::RepoShardBuild, pairs.len() as u64);
            obs::add(obs::Counter::RepoShardBuilds, 1);
            pairs.sort_unstable();
            Shard {
                base: Arc::new(ShardBase::from_sorted_pairs(&pairs)),
                ..Shard::empty()
            }
        });

        let slots: Vec<SlotEntry> = prepared
            .iter()
            .zip(signatures)
            .map(|(p, signatures)| SlotEntry {
                id: p.schema_id,
                fingerprint: p.fingerprint,
                alive: true,
                signatures,
                prepared: Some(Arc::clone(p)),
            })
            .collect();
        let mut slot_of = HashMap::with_capacity(slots.len());
        for (slot, entry) in slots.iter().enumerate() {
            let prev = slot_of.insert(entry.id, slot as u32);
            assert!(prev.is_none(), "duplicate schema id {} in build", entry.id);
        }
        let total_weights = (0..slots.len()).map(|_| OnceLock::new()).collect();
        ShardedRepositoryIndex {
            arena,
            config,
            live: slots.len() as u32,
            slots,
            slot_of,
            shards,
            total_weights,
        }
    }

    // -- introspection ------------------------------------------------------

    /// The shard/compaction configuration.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Number of token-range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of *live* (non-tombstoned) schemata.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True when no live schema is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of physical slots, tombstones included.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Pending (uncompacted) delta + tombstone ops, summed over shards.
    pub fn pending_ops(&self) -> usize {
        self.shards.iter().map(|s| s.pending_ops).sum()
    }

    /// Schema id at a physical slot (defined for tombstoned slots too).
    pub fn id_at(&self, slot: u32) -> SchemaId {
        self.slots[slot as usize].id
    }

    /// Live slot of a schema id.
    pub fn slot(&self, id: SchemaId) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// Is the slot live (not tombstoned)?
    pub fn is_live(&self, slot: u32) -> bool {
        self.slots[slot as usize].alive
    }

    /// Ascending physical slots of the live schemata.
    pub fn live_slots(&self) -> Vec<u32> {
        (0..self.slots.len() as u32)
            .filter(|&s| self.slots[s as usize].alive)
            .collect()
    }

    /// Content fingerprint a slot was indexed under.
    pub fn fingerprint(&self, slot: u32) -> u64 {
        self.slots[slot as usize].fingerprint
    }

    /// Resolved signature of a slot, lexicographic.
    pub fn signature(&self, slot: u32) -> &[String] {
        &self.slots[slot as usize].signatures
    }

    /// Interned signature of a slot, lexicographically ordered by resolved
    /// string (empty for tombstoned slots).
    pub fn signature_ids(&self, slot: u32) -> &[TokenId] {
        self.slots[slot as usize]
            .prepared
            .as_ref()
            .map_or(&[], |p| p.signature_ids())
    }

    /// The preparation a live slot was indexed from (`None` once
    /// tombstoned) — retained so warm-start serialization and downstream
    /// operators reuse it instead of re-preparing.
    pub fn prepared(&self, slot: u32) -> Option<&Arc<PreparedSchema>> {
        self.slots[slot as usize].prepared.as_ref()
    }

    /// The arena this index's token ids point into.
    pub fn arena(&self) -> &Arc<TokenArena> {
        &self.arena
    }

    // -- weights ------------------------------------------------------------

    #[inline]
    fn n_live(&self) -> f64 {
        self.live.max(1) as f64
    }

    #[inline]
    fn route(&self, t: TokenId) -> usize {
        ((t.0 >> TOKEN_BLOCK_BITS) as usize) % self.shards.len()
    }

    /// IDF weight of an interned token over the live schemata — the same
    /// `idf_weight(n, df)` a from-scratch rebuild would freeze (`df = 0`
    /// weight for tokens in no live schema).
    pub fn weight_by_id(&self, token: TokenId) -> f64 {
        let df = self.shards[self.route(token)].live_df(token);
        idf_weight(self.n_live(), f64::from(df))
    }

    /// IDF weight of a token (`df = 0` weight for unseen tokens).
    pub fn weight(&self, token: &str) -> f64 {
        self.arena.lookup(token).map_or_else(
            || idf_weight(self.n_live(), 0.0),
            |id| self.weight_by_id(id),
        )
    }

    /// Total signature weight of a live slot, summed in the signature's
    /// lexicographic order. Memoized per snapshot (first caller computes;
    /// the `OnceLock` makes racing readers agree).
    pub fn total_weight(&self, slot: u32) -> f64 {
        *self.total_weights[slot as usize].get_or_init(|| {
            self.signature_ids(slot)
                .iter()
                .map(|&t| self.weight_by_id(t))
                .sum()
        })
    }

    // -- probes -------------------------------------------------------------

    /// Accumulate the shared signature weight between a query signature and
    /// every live schema, visiting only posting lists of the query's tokens.
    /// Returns `(physical slot, shared_weight)` for every live schema
    /// sharing at least one token, slots ascending. `query_tokens` must be
    /// in lexicographic resolved-string order — each token routes to its
    /// shard O(1), so the per-slot addition order stays the query-token
    /// order.
    pub fn accumulate_ids(&self, query_tokens: &[TokenId]) -> Vec<(u32, f64)> {
        let n = self.n_live();
        let mut acc: Vec<f64> = vec![0.0; self.slots.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut postings_touched = 0u64;
        for &t in query_tokens {
            let shard = &self.shards[self.route(t)];
            let df = shard.live_df(t);
            if df == 0 {
                continue;
            }
            let w = idf_weight(n, f64::from(df));
            let mut visit = |slot: u32| {
                postings_touched += 1;
                if !self.slots[slot as usize].alive {
                    return;
                }
                if acc[slot as usize] == 0.0 {
                    touched.push(slot);
                }
                acc[slot as usize] += w;
            };
            if let Some(posting) = shard.base.posting(t) {
                posting.iter().copied().for_each(&mut visit);
            }
            if let Some(delta) = shard.delta.get(&t) {
                delta.iter().copied().for_each(&mut visit);
            }
        }
        obs::add(obs::Counter::RepoProbeRows, 1);
        obs::add(obs::Counter::RepoPostings, postings_touched);
        touched.sort_unstable();
        touched
            .into_iter()
            .map(|slot| (slot, acc[slot as usize]))
            .collect()
    }

    /// String-keyed [`Self::accumulate_ids`] (inspection and tests).
    pub fn accumulate<'q>(
        &self,
        query_tokens: impl IntoIterator<Item = &'q str>,
    ) -> Vec<(u32, f64)> {
        let ids: Vec<TokenId> = query_tokens
            .into_iter()
            .filter_map(|t| self.arena.lookup(t))
            .collect();
        self.accumulate_ids(&ids)
    }

    /// Live posting slots of an interned token, ascending (base ∪ delta,
    /// tombstones skipped, materialized).
    pub fn postings_by_id(&self, token: TokenId) -> Vec<u32> {
        let shard = &self.shards[self.route(token)];
        let mut out = Vec::new();
        if let Some(posting) = shard.base.posting(token) {
            out.extend(posting.iter().filter(|&&s| self.slots[s as usize].alive));
        }
        if let Some(delta) = shard.delta.get(&token) {
            out.extend(delta.iter().filter(|&&s| self.slots[s as usize].alive));
        }
        out.sort_unstable();
        out
    }

    /// Live posting slots of a token, ascending.
    pub fn postings(&self, token: &str) -> Vec<u32> {
        self.arena
            .lookup(token)
            .map_or_else(Vec::new, |id| self.postings_by_id(id))
    }

    /// Does the token's posting (base ∪ delta) contain this live slot?
    fn posting_contains(&self, token: TokenId, slot: u32) -> bool {
        let shard = &self.shards[self.route(token)];
        if let Some(posting) = shard.base.posting(token) {
            if posting.binary_search(&slot).is_ok() {
                return true;
            }
        }
        shard
            .delta
            .get(&token)
            .is_some_and(|d| d.binary_search(&slot).is_ok())
    }

    /// Pairwise signature-intersection counts over the live schemata, as a
    /// dense row-major `n×n` symmetric matrix (diagonal zero) in
    /// [`Self::live_slots`] order. Counts are integers, so shards are walked
    /// independently and their contributions summed — order-free.
    pub fn pairwise_intersections(&self) -> Vec<u32> {
        let live = self.live_slots();
        let n = live.len();
        // Physical slot → dense live rank.
        let mut rank = vec![u32::MAX; self.slots.len()];
        for (r, &s) in live.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        let mut inter = vec![0u32; n * n];
        let mut row: Vec<u32> = Vec::new();
        for shard in &self.shards {
            let mut count = |row: &[u32]| {
                for (i, &a) in row.iter().enumerate() {
                    for &b in &row[i + 1..] {
                        inter[a as usize * n + b as usize] += 1;
                        inter[b as usize * n + a as usize] += 1;
                    }
                }
            };
            for (k, w) in shard.base.offsets.windows(2).enumerate() {
                let token = shard.base.tokens[k];
                let posting = &shard.base.postings[w[0] as usize..w[1] as usize];
                row.clear();
                row.extend(
                    posting
                        .iter()
                        .filter(|&&s| rank[s as usize] != u32::MAX)
                        .map(|&s| rank[s as usize]),
                );
                // Delta postings of the same token join the same row.
                if let Some(delta) = shard.delta.get(&token) {
                    row.extend(
                        delta
                            .iter()
                            .filter(|&&s| rank[s as usize] != u32::MAX)
                            .map(|&s| rank[s as usize]),
                    );
                }
                count(&row);
            }
            // Tokens that exist only in the delta log.
            for (t, delta) in &shard.delta {
                if shard.base.posting(*t).is_some() {
                    continue;
                }
                row.clear();
                row.extend(
                    delta
                        .iter()
                        .filter(|&&s| rank[s as usize] != u32::MAX)
                        .map(|&s| rank[s as usize]),
                );
                count(&row);
            }
        }
        inter
    }

    /// Tokens present in *every* given live schema, sorted lexicographically
    /// (walks the smallest member's signature; unknown ids yield empty).
    pub fn shared_tokens(&self, members: &[SchemaId]) -> Vec<String> {
        let Some(mut slots) = members
            .iter()
            .map(|&id| self.slot(id))
            .collect::<Option<Vec<u32>>>()
        else {
            return Vec::new();
        };
        slots.sort_unstable();
        slots.dedup();
        let Some(&smallest) = slots.iter().min_by_key(|&&s| self.signature_ids(s).len()) else {
            return Vec::new();
        };
        let kept: Vec<TokenId> = self
            .signature_ids(smallest)
            .iter()
            .filter(|&&t| {
                self.shards[self.route(t)].live_df(t) as usize >= slots.len()
                    && slots.iter().all(|&s| self.posting_contains(t, s))
            })
            .copied()
            .collect();
        self.arena.resolve_all(&kept)
    }

    // -- maintenance --------------------------------------------------------

    /// Copy-on-write clone for a maintenance pass: shard bases are shared,
    /// delta logs and slot tables are copied, and the total-weight memo is
    /// reset (every op changes `n_live`, invalidating all totals).
    pub fn begin_update(&self) -> Self {
        ShardedRepositoryIndex {
            arena: Arc::clone(&self.arena),
            config: self.config,
            slots: self.slots.clone(),
            slot_of: self.slot_of.clone(),
            live: self.live,
            shards: self.shards.clone(),
            total_weights: (0..self.slots.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Insert or replace a schema in place. A re-registration with an
    /// unchanged fingerprint is a no-op; a changed one tombstones the old
    /// slot and appends a new one. Call on a [`Self::begin_update`] clone —
    /// published snapshots are immutable.
    pub fn upsert_in_place(&mut self, prepared: &Arc<PreparedSchema>) {
        assert!(
            Arc::ptr_eq(prepared.arena(), &self.arena),
            "preparation must share the index arena"
        );
        if let Some(slot) = self.slot(prepared.schema_id) {
            if self.slots[slot as usize].fingerprint == prepared.fingerprint {
                return;
            }
            self.remove_in_place(prepared.schema_id);
        }
        let slot = self.slots.len() as u32;
        let sig = prepared.signature_ids();
        self.slots.push(SlotEntry {
            id: prepared.schema_id,
            fingerprint: prepared.fingerprint,
            alive: true,
            signatures: self.arena.resolve_all(sig).into(),
            prepared: Some(Arc::clone(prepared)),
        });
        self.total_weights.push(OnceLock::new());
        self.slot_of.insert(prepared.schema_id, slot);
        self.live += 1;
        for &t in prepared.signature_ids() {
            let s = self.route(t);
            let shard = &mut self.shards[s];
            shard.delta.entry(t).or_default().push(slot);
            shard.pending_ops += 1;
        }
        obs::add(obs::Counter::RepoDeltaOps, sig.len() as u64);
        self.maybe_compact();
    }

    /// Tombstone a schema in place; returns false when the id is not live.
    /// Call on a [`Self::begin_update`] clone.
    pub fn remove_in_place(&mut self, id: SchemaId) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        let entry = &mut self.slots[slot as usize];
        entry.alive = false;
        let prepared = entry.prepared.take().expect("live slot has preparation");
        let sig = prepared.signature_ids();
        for &t in sig {
            let s = self.route(t);
            let shard = &mut self.shards[s];
            *shard.df_drop.entry(t).or_default() += 1;
            shard.pending_ops += 1;
        }
        self.live -= 1;
        obs::add(obs::Counter::RepoDeltaOps, sig.len() as u64);
        self.maybe_compact();
        true
    }

    /// Compact every shard whose pending ops crossed its size trigger.
    /// Deferred wholesale while the process is under memory pressure — a
    /// compaction transiently doubles a shard's posting storage, which is
    /// exactly what the governor is trying to avoid; the delta logs stay
    /// correct (just slower to probe) and [`Self::compact_pending`] catches
    /// up once pressure clears.
    fn maybe_compact(&mut self) {
        if harmony_core::serve::memory_pressure() {
            obs::add(obs::Counter::RepoCompactionsDeferred, 1);
            return;
        }
        for s in 0..self.shards.len() {
            let shard = &self.shards[s];
            let threshold = (self.config.min_compact_ops.max(1))
                .max((shard.base.postings.len() as f64 * self.config.compact_fraction) as usize);
            if shard.pending_ops > threshold {
                self.compact_shard(s);
            }
        }
    }

    /// Catch-up entry point for compactions deferred under memory
    /// pressure: re-runs the normal trigger check (no-op while pressure
    /// persists or no shard is over threshold).
    pub fn compact_pending(&mut self) {
        self.maybe_compact();
    }

    /// Force-compact every shard with pending ops (bench/serialization
    /// hygiene; scores are unchanged by construction).
    pub fn compact_all(&mut self) {
        for s in 0..self.shards.len() {
            if self.shards[s].pending_ops > 0 {
                self.compact_shard(s);
            }
        }
    }

    /// Fold one shard's live postings (base minus tombstones, plus delta)
    /// into a fresh flat CSR and clear its logs. Which slots are live and
    /// every per-token live df are unchanged, so probes and weights — and
    /// therefore scores — cannot observe a compaction.
    fn compact_shard(&mut self, s: usize) {
        let slots = &self.slots;
        let shard = &mut self.shards[s];
        let _span = obs::span(
            obs::SpanKind::RepoCompact,
            (shard.base.postings.len() + shard.pending_ops) as u64,
        );
        obs::add(obs::Counter::RepoCompactions, 1);
        obs::add(obs::Counter::RepoShardBuilds, 1);
        let mut pairs: Vec<u64> = Vec::with_capacity(shard.base.postings.len() + shard.delta.len());
        for (k, w) in shard.base.offsets.windows(2).enumerate() {
            let t = shard.base.tokens[k];
            for &slot in &shard.base.postings[w[0] as usize..w[1] as usize] {
                if slots[slot as usize].alive {
                    pairs.push((u64::from(t.0) << 32) | u64::from(slot));
                }
            }
        }
        for (&t, delta) in &shard.delta {
            for &slot in delta {
                if slots[slot as usize].alive {
                    pairs.push((u64::from(t.0) << 32) | u64::from(slot));
                }
            }
        }
        pairs.sort_unstable();
        shard.base = Arc::new(ShardBase::from_sorted_pairs(&pairs));
        shard.delta.clear();
        shard.df_drop.clear();
        shard.pending_ops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::prepare::FeatureCache;
    use sm_schema::{DataType, ElementKind, Schema, SchemaFormat};
    use sm_text::normalize::Normalizer;

    fn schema(id: u32, words: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root("Root", ElementKind::Group, DataType::None);
        for w in words {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    fn prepare(schemas: &[Schema]) -> Vec<Arc<PreparedSchema>> {
        let cache = FeatureCache::new(Normalizer::new());
        schemas.iter().map(|s| cache.prepare(s)).collect()
    }

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

    /// A fresh one-shard build: every token in one CSR store, no deltas.
    fn monolithic(prepared: &[Arc<PreparedSchema>]) -> ShardedRepositoryIndex {
        ShardedRepositoryIndex::build(
            prepared,
            ShardConfig {
                shards: 1,
                ..ShardConfig::default()
            },
        )
    }

    /// The live schemata left by `maintained`: schemata 0, 2 and 3.
    fn live_after_maintenance(prepared: &[Arc<PreparedSchema>]) -> Vec<Arc<PreparedSchema>> {
        [0usize, 2, 3]
            .iter()
            .map(|&i| Arc::clone(&prepared[i]))
            .collect()
    }

    /// Builds the first two schemata, inserts the rest one update at a
    /// time, then removes schema 1.
    fn maintained(prepared: &[Arc<PreparedSchema>], config: ShardConfig) -> ShardedRepositoryIndex {
        let mut idx = ShardedRepositoryIndex::build(&prepared[..2], config);
        for p in &prepared[2..] {
            let mut next = idx.begin_update();
            next.upsert_in_place(p);
            idx = next;
        }
        let mut next = idx.begin_update();
        assert!(next.remove_in_place(SchemaId(1)));
        assert!(!next.remove_in_place(SchemaId(99)));
        next
    }

    /// Token-range sharding is invisible: at any shard count, signatures,
    /// totals, probe sums and weights equal the one-shard build's bit for
    /// bit.
    #[test]
    fn full_build_matches_monolithic_bitwise() {
        let prepared = prepare(&world());
        let mono = monolithic(&prepared);
        for shards in [2usize, 3, 8, 64] {
            let sharded = ShardedRepositoryIndex::build(
                &prepared,
                ShardConfig {
                    shards,
                    ..ShardConfig::default()
                },
            );
            assert_eq!(sharded.len(), mono.len());
            assert_eq!(sharded.shard_count(), shards);
            for slot in 0..mono.len() as u32 {
                assert_eq!(sharded.signature(slot), mono.signature(slot));
                assert_eq!(
                    sharded.total_weight(slot).to_bits(),
                    mono.total_weight(slot).to_bits(),
                    "totals must be byte-identical"
                );
            }
            let q = prepared[3].signature_ids();
            let a = sharded.accumulate_ids(q);
            let b = mono.accumulate_ids(q);
            assert_eq!(a.len(), b.len());
            for ((s1, w1), (s2, w2)) in a.iter().zip(&b) {
                assert_eq!(s1, s2);
                assert_eq!(w1.to_bits(), w2.to_bits());
            }
            for t in ["vin", "blood", "unseen-token"] {
                assert_eq!(sharded.weight(t).to_bits(), mono.weight(t).to_bits());
            }
        }
    }

    /// Incremental inserts + removals agree with a from-scratch build over
    /// the live set — including with compaction forced on every op.
    #[test]
    fn delta_maintenance_matches_rebuild() {
        let prepared = prepare(&world());
        let rebuilt = monolithic(&live_after_maintenance(&prepared));
        for config in [ShardConfig::default(), eager()] {
            let idx = maintained(&prepared, config);
            assert_eq!(idx.len(), 3);
            let q = prepared[1].signature_ids();
            let a = idx.accumulate_ids(q);
            let b = rebuilt.accumulate_ids(q);
            assert_eq!(a.len(), b.len(), "config {config:?}");
            for (&(s1, w1), &(s2, w2)) in a.iter().zip(&b) {
                assert_eq!(idx.id_at(s1), rebuilt.id_at(s2));
                assert_eq!(w1.to_bits(), w2.to_bits(), "config {config:?}");
                assert_eq!(
                    idx.total_weight(s1).to_bits(),
                    rebuilt.total_weight(s2).to_bits()
                );
            }
            // Tombstoned schema is invisible.
            assert_eq!(idx.slot(SchemaId(1)), None);
            assert!(idx.postings("engin").is_empty());
        }
    }

    /// Shared tokens see removals, and pairwise counts over the live slots
    /// equal a fresh one-shard build's.
    #[test]
    fn shared_tokens_and_intersections_over_live_set() {
        let prepared = prepare(&world());
        let mut idx = ShardedRepositoryIndex::build(&prepared, eager());
        let shared = idx.shared_tokens(&[SchemaId(0), SchemaId(1)]);
        assert!(shared.contains(&"vin".to_string()));
        let mut next = idx.begin_update();
        next.remove_in_place(SchemaId(1));
        idx = next;
        assert!(idx.shared_tokens(&[SchemaId(0), SchemaId(1)]).is_empty());
        let rebuilt = monolithic(&live_after_maintenance(&prepared));
        assert_eq!(
            idx.pairwise_intersections(),
            rebuilt.pairwise_intersections()
        );
    }

    #[test]
    fn unchanged_upsert_is_a_noop_and_changed_replaces() {
        let prepared = prepare(&world());
        let idx = ShardedRepositoryIndex::build(&prepared, ShardConfig::default());
        let mut next = idx.begin_update();
        next.upsert_in_place(&prepared[0]);
        assert_eq!(next.slot_count(), idx.slot_count(), "no-op re-register");

        let changed = prepare(&[schema(0, &["vin", "make", "model", "plate"])]);
        let mut next = idx.begin_update();
        next.upsert_in_place(&changed[0]);
        assert_eq!(next.len(), 4, "replaced, not duplicated");
        assert_eq!(next.slot_count(), 5, "old slot tombstoned, new appended");
        assert!(!next.postings("plate").is_empty());
    }

    #[test]
    fn compaction_reclaims_tombstones() {
        let prepared = prepare(&world());
        let mut idx = ShardedRepositoryIndex::build(&prepared, ShardConfig::default());
        let before: usize = idx.shards.iter().map(|s| s.base.postings.len()).sum();
        let mut next = idx.begin_update();
        next.remove_in_place(SchemaId(0));
        assert!(next.pending_ops() > 0);
        next.compact_all();
        assert_eq!(next.pending_ops(), 0);
        let after: usize = next.shards.iter().map(|s| s.base.postings.len()).sum();
        assert!(after < before, "dead postings dropped: {after} < {before}");
        idx = next;
        assert_eq!(idx.len(), 3);
        // Re-inserting after compaction appends a fresh slot.
        let mut next = idx.begin_update();
        next.upsert_in_place(&prepared[0]);
        assert_eq!(next.len(), 4);
        assert_eq!(next.postings("vin").len(), 3);
    }

    /// Parallel build equals the inline build exactly.
    #[test]
    fn parallel_build_is_deterministic() {
        let schemas: Vec<Schema> = (0..40)
            .map(|i| {
                schema(
                    i,
                    &[
                        ["alpha", "beta", "gamma", "delta"][i as usize % 4],
                        ["vin", "blood", "cargo"][i as usize % 3],
                    ],
                )
            })
            .collect();
        let prepared = prepare(&schemas);
        let inline = ShardedRepositoryIndex::build(&prepared, ShardConfig::default());
        let exec = Executor::global();
        let par = ShardedRepositoryIndex::build_parallel(
            &prepared,
            exec,
            exec.threads(),
            ShardConfig::default(),
        );
        for slot in 0..inline.slot_count() as u32 {
            assert_eq!(
                inline.total_weight(slot).to_bits(),
                par.total_weight(slot).to_bits()
            );
        }
        let q = prepared[0].signature_ids();
        let a = inline.accumulate_ids(q);
        let b = par.accumulate_ids(q);
        assert_eq!(a.len(), b.len());
        for ((s1, w1), (s2, w2)) in a.iter().zip(&b) {
            assert_eq!(s1, s2);
            assert_eq!(w1.to_bits(), w2.to_bits());
        }
    }
}
