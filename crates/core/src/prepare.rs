//! Per-schema linguistic preparation — the shared feature cache.
//!
//! Historically every layer of the system re-ran linguistic preprocessing for
//! itself: `MatchContext` normalized both schemata per match run, and the
//! enterprise operators (`SchemaSearch`, `cluster`, `coi`, `feasibility`)
//! each owned a private `Normalizer` and re-tokenized every element name they
//! looked at. For the paper's §5 repository scenario — matching one query
//! schema against *thousands* of registry schemata — that preprocessing
//! dominates, and it is pure per-schema work: nothing about it depends on the
//! opposing schema.
//!
//! [`PreparedSchema`] captures exactly that per-schema work (normalized,
//! abbreviation-expanded, stemmed name and documentation tokens, the raw
//! name, parent/child context, the per-element TF-IDF documents, and the
//! schema-level name-token signature), computed once and shared by every
//! consumer. Every feature is held once, as [`TokenId`]s interned into the
//! schema's [`TokenArena`] plus the multiplicity counts the voters weigh
//! evidence by; the name tokens alone also keep their text, which
//! Jaro-Winkler reads. [`FeatureCache`] memoizes prepared schemata by
//! content fingerprint, so repeated matching against a repository amortizes
//! preprocessing across runs; [`FeatureCache::global`] is the process-wide
//! instance behind `MatchEngine::new()` and the enterprise layer. Only the
//! pairwise TF-IDF corpus (whose IDF weights depend on the *joint*
//! vocabulary of a match problem) remains per-pair; see
//! [`crate::context::MatchContext`].

use crate::cascade::Columns;
use crate::exec::{chunks, Executor, Job};
use crate::index::{ElementTokenIndex, CHUNK_ELEMENTS};
use sm_schema::{Schema, SchemaId};
use sm_text::intern::{to_sorted_set, TokenArena, TokenId};
use sm_text::normalize::{Normalizer, TokenBag};
use sm_text::soundex::{soundex, soundex_key};
use sm_text::tfidf::Vocabulary;
use sm_text::tokenize::acronym_of;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The default normalizer shared by every process path that does not
/// configure its own (`MatchEngine::with_normalizer` being the exception).
/// This is the single `Normalizer::new()` call in the production code paths.
pub fn default_normalizer() -> &'static Normalizer {
    static DEFAULT: OnceLock<Normalizer> = OnceLock::new();
    DEFAULT.get_or_init(Normalizer::new)
}

/// Content fingerprint of everything [`PreparedSchema`] derives its features
/// from: identity, element names, documentation, and tree shape. Two schemata
/// with equal fingerprints prepare identically (FNV-1a; collisions are
/// vanishingly unlikely at repository scale and would only cost a stale cache
/// hit between deliberately colliding schemata).
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(&schema.id.0.to_le_bytes());
    eat(schema.name.as_bytes());
    eat(&(schema.len() as u64).to_le_bytes());
    for e in schema.elements() {
        eat(e.name.as_bytes());
        eat(e.doc_text().as_bytes());
        let parent = e.parent.map_or(u32::MAX, |p| p.0);
        eat(&parent.to_le_bytes());
    }
    h
}

/// Longest raw name emitted as an acronym blocking feature. Acronyms in the
/// wild are short; indexing long raw names as "acronyms" would only add
/// noise pairs.
pub(crate) const MAX_ACRONYM_LEN: usize = 6;

/// Precomputed linguistic features of one element, independent of any
/// opposing schema.
///
/// Features are `u32` [`TokenId`]s into the schema's [`TokenArena`], plus
/// the token counts with multiplicity that the voters weigh evidence by —
/// the voter hot loop never hashes or compares a `String`. Reports and
/// tests read the text back through the arena. The one string list is
/// [`Self::name_bag`]: Monge-Elkan Jaro-Winkler reads those tokens' text on
/// every memo miss, and resolving them through the arena's lock per pair
/// would be a slower second path.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedElement {
    /// Normalized name tokens, aligned with [`Self::name_ids`].
    pub name_bag: TokenBag,
    /// The normalized name tokens, interned, in normalization order
    /// (sequence equality ⇔ exact-name equality).
    pub name_ids: Vec<TokenId>,
    /// Sorted, deduplicated set form of [`Self::name_ids`] (merge-walk
    /// Jaccards and membership tests).
    pub name_set: Vec<TokenId>,
    /// Sorted, deduplicated interned parent-name tokens (empty for roots).
    pub parent_set: Vec<TokenId>,
    /// Number of parent-name tokens, with multiplicity (path-voter
    /// evidence).
    pub parent_len: u32,
    /// Sorted, deduplicated interned name tokens of the element's children.
    pub children_set: Vec<TokenId>,
    /// Number of children-name tokens over all children, with multiplicity
    /// (structure-voter evidence).
    pub children_len: u32,
    /// The element's TF-IDF document, interned: name tokens then
    /// documentation tokens, in normalization order — the input to its
    /// schema's corpus vocabulary ([`PreparedSchema::vocabulary`]). The
    /// documentation ids are [`Self::doc_ids`].
    pub corpus_ids: Vec<TokenId>,
    /// The raw lowercased name, interned whole (acronym-voter equality in
    /// one integer compare).
    pub raw_name_id: TokenId,
    /// The raw lowercased name decoded to chars once (edit-distance voters
    /// run on slices instead of re-collecting per pair). Shared: warm-start
    /// reconstruction memoizes one decode per distinct raw name and every
    /// element holding that name clones the `Arc`.
    pub raw_chars: Arc<[char]>,
    /// The acronym of [`Self::name_ids`], interned (`community_of_interest`
    /// → `coi`).
    pub acronym_id: TokenId,
    /// Packed Soundex key of the raw name (`None` when it has no ASCII
    /// letters).
    pub raw_soundex: Option<u32>,
    /// The element's blocking features (name + doc tokens, `s:`-prefixed
    /// Soundex keys, `a:`-prefixed acronym keys), interned, deduplicated,
    /// sorted lexicographically by resolved string — the exact order the
    /// historical string-keyed blocking index accumulated IDF weights in,
    /// so candidate generation stays bit-for-bit reproducible.
    pub block_features: Vec<TokenId>,
}

impl PreparedElement {
    /// The documentation tokens, interned, in normalization order.
    pub fn doc_ids(&self) -> &[TokenId] {
        &self.corpus_ids[self.name_ids.len()..]
    }

    /// Is the raw lowercased name at least two bytes long? The acronym
    /// voter's gate, shared with the cascade's digest build. Counted from
    /// [`Self::raw_chars`]: two chars are at least two bytes, and one char
    /// is when it is multibyte.
    #[inline]
    pub fn raw_name_spans_two_bytes(&self) -> bool {
        self.raw_chars.len() >= 2 || self.raw_chars.first().is_some_and(|c| c.len_utf8() >= 2)
    }
}

/// A per-element count as a `u32` field (prepared elements, cascade
/// digests). Counts are lengths of in-memory collections of ids, chars and
/// terms, which the `u32` ids and offsets elsewhere in the engine already
/// bound.
pub(crate) fn count(n: usize) -> u32 {
    u32::try_from(n).expect("per-element counts fit in u32")
}

/// All per-schema linguistic preprocessing, computed once and reused by the
/// match pipeline, n-way matching, incremental sessions, and the enterprise
/// search / clustering / COI operators.
#[derive(Debug)]
pub struct PreparedSchema {
    /// Identity of the prepared schema.
    pub schema_id: SchemaId,
    /// Fingerprint of the schema content this preparation reflects.
    pub fingerprint: u64,
    /// The arena all interned ids in this preparation point into.
    arena: Arc<TokenArena>,
    /// Individually shared so match contexts can reference element features
    /// without deep-cloning them per run.
    elements: Vec<Arc<PreparedElement>>,
    /// Distinct normalized name tokens over the whole schema — the cheap
    /// vocabulary signature used by search, clustering, COI proposal, and
    /// feasibility grading. `Arc<str>` keyed (shared with the arena), but
    /// hashes and compares as `str`, so `contains("tok")` works unchanged.
    /// Materialized lazily from [`Self::signature_ids`] on first use: the
    /// sharded index keeps its own per-slot signatures, so most preparations
    /// at repository scale never ask for this set — eagerly hashing it was a
    /// measurable slice of warm-start reconstruction.
    signature: OnceLock<HashSet<Arc<str>>>,
    /// The signature, interned and sorted lexicographically by resolved
    /// string — the order repository-index weight totals are summed in.
    signature_ids: Vec<TokenId>,
    /// Flat CSR view of every element's `block_features`:
    /// `block_feature_offsets[i]..[i+1]` slices `block_feature_ids` for
    /// element `i`. The blocking index build and probe walk this one
    /// contiguous arena instead of chasing per-element `Vec`s.
    block_feature_offsets: Vec<u32>,
    block_feature_ids: Vec<TokenId>,
    /// The score cascade's tier-1 columns, built by the first cascade pass
    /// of a match context over this preparation and shared with every one.
    pub(crate) columns: Arc<OnceLock<Columns>>,
    /// The blocking index over the elements, built by the first blocked
    /// use ([`Self::token_index`]) and read by every later one.
    token_index: OnceLock<ElementTokenIndex>,
    /// The corpus vocabulary of the elements' TF-IDF documents, built by
    /// the first match context over this preparation
    /// ([`Self::vocabulary`]) and merged by every one.
    vocabulary: OnceLock<Vocabulary>,
}

/// Phase 1 of [`PreparedSchema::build_chunked`] for one element chunk:
/// the interned ids of the chunk's normalized names. (Phase 1 hands the
/// name bags themselves to phase 2 of the same chunk, which moves them into
/// its elements.)
struct NameChunk {
    /// Interned name tokens, element after element.
    ids: Vec<TokenId>,
    /// `offsets[i]..offsets[i + 1]` slices `ids` for the chunk's `i`-th
    /// element.
    offsets: Vec<u32>,
}

impl PreparedSchema {
    /// Run the full normalization pipeline once per element, interning
    /// through the process-wide [`TokenArena`], inline on the calling
    /// thread.
    pub fn build(schema: &Schema, normalizer: &Normalizer) -> Self {
        Self::build_with_arena(schema, normalizer, Arc::clone(TokenArena::global()))
    }

    /// [`Self::build`] against an explicit arena (private caches, tests).
    pub fn build_with_arena(
        schema: &Schema,
        normalizer: &Normalizer,
        arena: Arc<TokenArena>,
    ) -> Self {
        Self::build_chunked(
            schema,
            schema_fingerprint(schema),
            normalizer,
            arena,
            Job::inline(),
        )
    }

    /// [`Self::build_with_arena`] with element chunks fanned out across up
    /// to `parallelism` lanes of `exec`.
    ///
    /// On an arena that already holds every token of the schema (a warm
    /// arena), every id, set and CSR is bit-identical to the inline build
    /// at every lane count. On a cold arena, ids are handed out in the
    /// order the lanes happen to intern tokens — exactly as they already
    /// are across schemata prepared concurrently by
    /// [`crate::batch::prepare_schemas`] — so the ids may differ from an
    /// inline build's while resolving to the same strings: every lexical
    /// order, set and match score is unchanged.
    pub fn build_parallel(
        schema: &Schema,
        normalizer: &Normalizer,
        arena: Arc<TokenArena>,
        exec: &Executor,
        parallelism: usize,
    ) -> Self {
        Self::build_chunked(
            schema,
            schema_fingerprint(schema),
            normalizer,
            arena,
            Job::new(exec, parallelism),
        )
    }

    /// The one build body, in element chunks of the blocking index's width
    /// mapped over `job`'s lanes (inline for one chunk or one lane, helper
    /// lanes claimed against the job's budget, its token checked before
    /// every chunk). `fingerprint` is `schema`'s [`schema_fingerprint`], which
    /// the feature cache has already computed as its key.
    ///
    /// Phase 1 normalizes and interns each element's name; phase 2
    /// assembles each [`PreparedElement`], reading parent and child name
    /// ids from phase 1 across chunk edges. Chunks concatenate in element
    /// order. The serial tail derives the signature (phase-1 ids only) and
    /// the blocking-feature CSR.
    pub(crate) fn build_chunked(
        schema: &Schema,
        fingerprint: u64,
        normalizer: &Normalizer,
        arena: Arc<TokenArena>,
        job: Job<'_>,
    ) -> Self {
        let source = schema.elements();
        let n = source.len();
        let phase1 = job.map(chunks(n, CHUNK_ELEMENTS), |_, range| {
            let _span = crate::obs::span(crate::obs::SpanKind::PrepareChunk, range.len() as u64);
            let mut bags = Vec::with_capacity(range.len());
            let mut ids = Vec::new();
            let mut offsets = Vec::with_capacity(range.len() + 1);
            offsets.push(0);
            for e in &source[range] {
                let bag = normalizer.name(&e.name);
                ids.extend(bag.tokens.iter().map(|t| arena.intern(t)));
                offsets.push(count(ids.len()));
                bags.push(bag);
            }
            (bags, NameChunk { ids, offsets })
        });
        let (bags, names): (Vec<Vec<TokenBag>>, Vec<NameChunk>) = phase1.into_iter().unzip();
        let name_ids_of = |idx: usize| -> &[TokenId] {
            let chunk = &names[idx / CHUNK_ELEMENTS];
            let at = idx % CHUNK_ELEMENTS;
            &chunk.ids[chunk.offsets[at] as usize..chunk.offsets[at + 1] as usize]
        };

        let phase2 = bags.into_iter().zip(chunks(n, CHUNK_ELEMENTS));
        let built = job.map(phase2, |_, (bags, range)| {
            let _span = crate::obs::span(crate::obs::SpanKind::PrepareChunk, range.len() as u64);
            range
                .zip(bags)
                .map(|(idx, name_bag)| {
                    let e = &source[idx];
                    let name_ids = name_ids_of(idx).to_vec();
                    let parent_ids: &[TokenId] = e.parent.map_or(&[], |p| name_ids_of(p.index()));
                    let mut children_ids = Vec::new();
                    for &c in &e.children {
                        children_ids.extend_from_slice(name_ids_of(c.index()));
                    }
                    let children_len = count(children_ids.len());
                    let mut corpus_ids = name_ids.clone();
                    corpus_ids.extend(arena.intern_all(&normalizer.prose(e.doc_text()).tokens));
                    let raw = e.name.to_lowercase();

                    // Blocking features: distinct corpus tokens plus
                    // prefixed Soundex / acronym keys, interned and ordered
                    // by resolved string — exactly the feature set (and IDF
                    // accumulation order) of the historical string-keyed
                    // blocking index.
                    let mut block_features: Vec<TokenId> = corpus_ids.clone();
                    for t in &name_bag.tokens {
                        let code = soundex(t);
                        if !code.is_empty() {
                            block_features.push(arena.intern(&format!("s:{code}")));
                        }
                    }
                    let acronym = acronym_of(&name_bag.tokens);
                    if name_bag.len() >= 2 {
                        block_features.push(arena.intern(&format!("a:{acronym}")));
                    }
                    if (2..=MAX_ACRONYM_LEN).contains(&raw.len()) {
                        block_features.push(arena.intern(&format!("a:{raw}")));
                    }
                    block_features = to_sorted_set(block_features);
                    arena.sort_lexical(&mut block_features);

                    Arc::new(PreparedElement {
                        name_set: to_sorted_set(name_ids.clone()),
                        name_ids,
                        raw_name_id: arena.intern(&raw),
                        raw_chars: raw.chars().collect(),
                        acronym_id: arena.intern(&acronym),
                        raw_soundex: soundex_key(&raw),
                        parent_set: to_sorted_set(parent_ids.to_vec()),
                        parent_len: count(parent_ids.len()),
                        children_set: to_sorted_set(children_ids),
                        children_len,
                        corpus_ids,
                        block_features,
                        name_bag,
                    })
                })
                .collect::<Vec<_>>()
        });

        let _assemble = crate::obs::span(crate::obs::SpanKind::PrepareAssemble, n as u64);
        let mut elements = Vec::with_capacity(n);
        for chunk in built {
            elements.extend(chunk);
        }
        let mut signature_ids =
            to_sorted_set(names.iter().flat_map(|c| c.ids.iter().copied()).collect());
        arena.sort_lexical(&mut signature_ids);
        Self::from_prepared_elements_presorted(
            schema.id,
            fingerprint,
            elements,
            signature_ids,
            arena,
        )
    }

    /// Number of prepared elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the schema had no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Features of the element at dense index `idx`.
    #[inline]
    pub fn element(&self, idx: usize) -> &PreparedElement {
        &self.elements[idx]
    }

    /// All prepared elements, in element-id order.
    pub fn elements(&self) -> &[Arc<PreparedElement>] {
        &self.elements
    }

    /// The blocking features of element `idx` as a slice of the schema's
    /// flat feature arena — identical content to
    /// [`PreparedElement::block_features`], but contiguous across elements
    /// so the index build and probe stream one allocation.
    #[inline]
    pub fn block_features_of(&self, idx: usize) -> &[TokenId] {
        &self.block_feature_ids
            [self.block_feature_offsets[idx] as usize..self.block_feature_offsets[idx + 1] as usize]
    }

    /// The schema's normalized name-token signature (distinct tokens).
    /// Materialized from [`Self::signature_ids`] on first call (the ids are
    /// the distinct interned name tokens, so resolving them reproduces the
    /// distinct token strings exactly); subsequent calls are free.
    pub fn signature(&self) -> &HashSet<Arc<str>> {
        self.signature.get_or_init(|| {
            self.arena
                .resolve_shared(&self.signature_ids)
                .into_iter()
                .collect()
        })
    }

    /// The signature as interned ids, sorted lexicographically by resolved
    /// string (deterministic weight-sum order for repository indices).
    pub fn signature_ids(&self) -> &[TokenId] {
        &self.signature_ids
    }

    /// The arena every interned id of this preparation points into.
    pub fn arena(&self) -> &Arc<TokenArena> {
        &self.arena
    }

    /// The blocking index over this preparation's elements. The first call
    /// builds it on `job`'s lanes, under its lane budget and token; a build
    /// the token cancels unwinds and leaves no index behind, and callers
    /// racing the first build wait for it, so each preparation is indexed
    /// once. Later calls read the same index.
    pub fn token_index(&self, job: Job<'_>) -> &ElementTokenIndex {
        self.token_index
            .get_or_init(|| ElementTokenIndex::build_on(self, job))
    }

    /// The blocking index, if a use has built it yet.
    pub fn built_token_index(&self) -> Option<&ElementTokenIndex> {
        self.token_index.get()
    }

    /// The corpus vocabulary of the elements' TF-IDF documents
    /// ([`PreparedElement::corpus_ids`], in element order): the
    /// per-schema half of every pair corpus this preparation takes part
    /// in. The first call builds it; callers racing that build wait for
    /// it, so each preparation builds one.
    pub fn vocabulary(&self) -> &Vocabulary {
        self.vocabulary.get_or_init(|| {
            let _span = crate::obs::span(
                crate::obs::SpanKind::PrepareVocabulary,
                self.elements.len() as u64,
            );
            Vocabulary::build(&self.arena, self.elements.iter().map(|e| &e.corpus_ids[..]))
        })
    }

    /// Estimated resident-heap footprint of this preparation in bytes.
    ///
    /// Deliberately an estimate: `Vec` spare capacity, allocator headers,
    /// and the process-shared [`TokenArena`] (whose strings outlive any one
    /// preparation) are out of scope. What matters for the cache's byte
    /// budget is that entries are priced roughly and *consistently*, so a
    /// 3000-element AUTOSAR release costs ~100× a 30-element form schema.
    /// The score cascade's columns, the blocking index and the corpus
    /// vocabulary count whether or not they are built yet.
    pub fn estimate_bytes(&self) -> usize {
        use std::mem::size_of;
        let id = size_of::<TokenId>();
        let mut bytes = size_of::<PreparedSchema>()
            + self.block_feature_offsets.len() * size_of::<u32>()
            + self.block_feature_ids.len() * id
            + self.signature_ids.len() * id;
        let mut corpus_tokens = 0;
        for e in &self.elements {
            corpus_tokens += e.corpus_ids.len();
            bytes += size_of::<PreparedElement>() + size_of::<Arc<PreparedElement>>();
            bytes += e.raw_chars.len() * size_of::<char>();
            // The name bag holds `Arc<str>` handles; the string bodies are
            // shared process-wide, so price the handles only.
            bytes += e.name_bag.tokens.len() * size_of::<Arc<str>>();
            bytes += (e.name_ids.len()
                + e.name_set.len()
                + e.parent_set.len()
                + e.children_set.len()
                + e.corpus_ids.len()
                + e.block_features.len())
                * id;
        }
        bytes
            + Columns::estimate_bytes(&self.elements)
            + ElementTokenIndex::estimate_bytes(self)
            + Vocabulary::estimate_bytes(self.elements.len(), corpus_tokens)
    }

    /// Does this preparation still reflect `schema`'s current content?
    pub fn is_current_for(&self, schema: &Schema) -> bool {
        self.schema_id == schema.id && self.fingerprint == schema_fingerprint(schema)
    }

    /// Assemble a preparation from built elements plus its signature ids:
    /// the distinct name-token ids, already sorted lexicographically by
    /// resolved string. Both [`Self::build`] and the warm-start loader end
    /// here; only the flat blocking-feature CSR is derived (the score
    /// cascade's columns, the blocking index and the corpus vocabulary are
    /// built on first use).
    /// The warm-start image carries each schema's signature in that order
    /// (lexical *string* order is process-independent, unlike the ids
    /// themselves), so the loader skips a per-schema dedup pass and
    /// string-compare sort — at registry scale those were the dominant
    /// cost of schema assembly.
    pub fn from_prepared_elements_presorted(
        schema_id: SchemaId,
        fingerprint: u64,
        elements: Vec<Arc<PreparedElement>>,
        signature_ids: Vec<TokenId>,
        arena: Arc<TokenArena>,
    ) -> Self {
        debug_assert_eq!(
            {
                let mut expect = to_sorted_set(
                    elements
                        .iter()
                        .flat_map(|e| e.name_ids.iter().copied())
                        .collect(),
                );
                arena.sort_lexical(&mut expect);
                expect
            },
            signature_ids,
            "supplied signature ids must be the lexically-sorted distinct name tokens"
        );
        let mut block_feature_offsets: Vec<u32> = Vec::with_capacity(elements.len() + 1);
        block_feature_offsets.push(0);
        let mut block_feature_ids: Vec<TokenId> =
            Vec::with_capacity(elements.iter().map(|e| e.block_features.len()).sum());
        for e in &elements {
            block_feature_ids.extend_from_slice(&e.block_features);
            block_feature_offsets.push(block_feature_ids.len() as u32);
        }
        PreparedSchema {
            schema_id,
            fingerprint,
            arena,
            columns: Arc::default(),
            elements,
            signature: OnceLock::new(),
            signature_ids,
            block_feature_offsets,
            block_feature_ids,
            token_index: OnceLock::new(),
            vocabulary: OnceLock::new(),
        }
    }
}

/// Hit/miss counters of a [`FeatureCache`], counted whether or not obs
/// recording is on (observability for benches and regression tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to build a [`PreparedSchema`].
    pub misses: usize,
    /// Entries displaced by the LRU capacity bound since creation.
    pub evictions: usize,
    /// Lookups that waited on another thread's build of the same content
    /// (a waiter the build serves also counts as a hit).
    pub coalesced: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident (sum of
    /// [`PreparedSchema::estimate_bytes`] over entries).
    pub resident_bytes: usize,
}

/// A memoizing store of [`PreparedSchema`]s, keyed by content fingerprint.
///
/// One cache serves one [`Normalizer`] configuration (fingerprints do not
/// encode normalizer options, so mixing normalizers in one cache would serve
/// wrong features). Eviction is LRU — hits refresh an entry's recency, so a
/// stream of one-off schemata (ad-hoc search queries, say) cannot flush a
/// hot repository working set the way FIFO would. The default capacity is
/// generous: at repository scale a prepared schema is a few hundred KB, so
/// hundreds of resident schemata cost tens of MB.
pub struct FeatureCache {
    normalizer: Normalizer,
    /// The arena preparations intern through. Every cache shares the
    /// process-wide arena by default, so ids are exchangeable across caches
    /// (different normalizer configurations merely intern different token
    /// strings into the one table).
    arena: Arc<TokenArena>,
    inner: Mutex<CacheInner>,
    capacity: usize,
    /// Optional estimated-byte ceiling: the eviction sweep also runs while
    /// resident bytes exceed it (always keeping at least one entry, so a
    /// single over-budget schema still caches).
    byte_budget: Option<usize>,
    /// Hits, misses and evictions (see [`CacheStats`]): each counted once,
    /// here, and summed by obs into its `cache.*` counters.
    counters: crate::obs::CounterBlock,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<u64, CacheEntry>,
    /// Monotonic recency clock; bumped on every hit and insert.
    tick: u64,
    /// Sum of `bytes` over `map` (see [`PreparedSchema::estimate_bytes`]).
    resident_bytes: usize,
    /// Fingerprints currently being prepared by some thread; racing callers
    /// wait on the slot instead of preparing the same content twice.
    building: HashMap<u64, Arc<BuildSlot>>,
}

struct CacheEntry {
    prepared: Arc<PreparedSchema>,
    last_used: u64,
    /// Estimated footprint, priced once at insertion.
    bytes: usize,
}

/// Rendezvous for one in-flight preparation.
struct BuildSlot {
    state: Mutex<BuildState>,
    done: Condvar,
}

enum BuildState {
    Pending,
    Ready(Arc<PreparedSchema>),
    /// The building thread unwound; waiters retry (and typically become the
    /// builder themselves).
    Failed,
}

/// What `get_or_prepare_on`'s rendezvous decided for the calling thread.
enum Waiter {
    Wait(Arc<BuildSlot>),
    Build(Arc<BuildSlot>),
}

/// Publishes a build's outcome to its slot; marks the slot `Failed` (so
/// waiters retry rather than hang) if the build unwinds before
/// [`BuildGuard::publish`] runs.
struct BuildGuard<'a> {
    cache: &'a FeatureCache,
    slot: &'a Arc<BuildSlot>,
    fp: u64,
    published: bool,
}

impl BuildGuard<'_> {
    fn publish(mut self, prepared: Arc<PreparedSchema>) {
        self.cache.insert_prepared(self.fp, &prepared);
        *self.slot.state.lock().expect("build slot poisoned") = BuildState::Ready(prepared);
        self.slot.done.notify_all();
        self.published = true;
    }
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let mut inner = self.cache.inner.lock().expect("feature cache poisoned");
        inner.building.remove(&self.fp);
        drop(inner);
        *self.slot.state.lock().expect("build slot poisoned") = BuildState::Failed;
        self.slot.done.notify_all();
    }
}

impl FeatureCache {
    /// Default number of resident prepared schemata.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// A cache for the given normalizer configuration.
    pub fn new(normalizer: Normalizer) -> Self {
        Self::with_capacity(normalizer, Self::DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` prepared schemata (≥ 1).
    pub fn with_capacity(normalizer: Normalizer, capacity: usize) -> Self {
        Self::with_limits(normalizer, capacity, None)
    }

    /// A cache bounded by entry count *and* (optionally) estimated resident
    /// bytes: the LRU sweep also evicts while the byte total exceeds
    /// `byte_budget`, keeping at least one entry. The serving layer's
    /// memory governor additionally calls [`Self::evict_to_bytes`] to shrink
    /// any cache (budgeted or not) under process-RSS pressure.
    pub fn with_limits(
        normalizer: Normalizer,
        capacity: usize,
        byte_budget: Option<usize>,
    ) -> Self {
        FeatureCache {
            normalizer,
            arena: Arc::clone(TokenArena::global()),
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            byte_budget,
            counters: crate::obs::CounterBlock::new(),
        }
    }

    /// The process-wide cache over the default normalizer. `MatchEngine::new`
    /// and the enterprise operators all share it, so a schema prepared by any
    /// of them is prepared for all of them.
    pub fn global() -> &'static Arc<FeatureCache> {
        static GLOBAL: OnceLock<Arc<FeatureCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(FeatureCache::new(default_normalizer().clone())))
    }

    /// The normalizer this cache prepares with.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The arena this cache's preparations intern through.
    pub fn arena(&self) -> &Arc<TokenArena> {
        &self.arena
    }

    /// Fetch (or build and memoize) the preparation of `schema`. Keyed by
    /// content fingerprint, so mutated or replaced schemata never see stale
    /// features. Contention-safe: when several threads (batch jobs,
    /// concurrent engines) ask for the same fingerprint at once, exactly one
    /// builds while the others wait on the in-flight slot and share the
    /// result — the same content is never prepared twice. Waiters count as
    /// `hits` (they were served without building); only the building thread
    /// records a `miss`. A miss builds inline on the calling thread.
    pub fn prepare(&self, schema: &Schema) -> Arc<PreparedSchema> {
        self.get_or_prepare_on(schema, Job::inline())
    }

    /// [`Self::prepare`] whose miss is built on the caller's lanes:
    /// element chunks are mapped over `job`, so helper lanes are claimed
    /// against its budget and its token is checked before every chunk (see
    /// [`PreparedSchema::build_parallel`] for the id contract). A build
    /// that unwinds — a tripped token included — leaves no entry, and
    /// every waiter on it retries.
    pub fn get_or_prepare_on(&self, schema: &Schema, job: Job<'_>) -> Arc<PreparedSchema> {
        let fp = schema_fingerprint(schema);
        loop {
            // Fast path / rendezvous decision under one short lock.
            let slot = {
                let mut inner = self.inner.lock().expect("feature cache poisoned");
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(entry) = inner.map.get_mut(&fp) {
                    entry.last_used = tick;
                    self.counters.add(crate::obs::Counter::CacheHits, 1);
                    return Arc::clone(&entry.prepared);
                }
                match inner.building.get(&fp) {
                    Some(slot) => Waiter::Wait(Arc::clone(slot)),
                    None => {
                        let slot = Arc::new(BuildSlot {
                            state: Mutex::new(BuildState::Pending),
                            done: Condvar::new(),
                        });
                        inner.building.insert(fp, Arc::clone(&slot));
                        Waiter::Build(slot)
                    }
                }
            };

            match slot {
                Waiter::Wait(slot) => {
                    // The whole rendezvous is a coalesced wait: this thread
                    // is blocked on someone else's build.
                    self.counters.add(crate::obs::Counter::CacheCoalesced, 1);
                    let _wait = crate::obs::span(crate::obs::SpanKind::CacheWait, fp);
                    let mut state = slot.state.lock().expect("build slot poisoned");
                    loop {
                        match &*state {
                            BuildState::Pending => {
                                state = slot.done.wait(state).expect("build slot poisoned");
                            }
                            BuildState::Ready(prepared) => {
                                self.counters.add(crate::obs::Counter::CacheHits, 1);
                                return Arc::clone(prepared);
                            }
                            // Builder unwound; retry from the top (this
                            // thread will usually claim the build).
                            BuildState::Failed => break,
                        }
                    }
                }
                Waiter::Build(slot) => {
                    // Build outside the cache lock: preparation is the
                    // expensive part. The guard publishes `Failed` (and
                    // unregisters the slot) if the build unwinds, so
                    // waiters never hang.
                    let guard = BuildGuard {
                        cache: self,
                        slot: &slot,
                        fp,
                        published: false,
                    };
                    self.counters.add(crate::obs::Counter::CacheMisses, 1);
                    let (prepared, _) = crate::obs::timed(
                        crate::obs::SpanKind::CacheBuild,
                        |_| fp,
                        || {
                            Arc::new(PreparedSchema::build_chunked(
                                schema,
                                fp,
                                &self.normalizer,
                                Arc::clone(&self.arena),
                                job,
                            ))
                        },
                    );
                    guard.publish(Arc::clone(&prepared));
                    return prepared;
                }
            }
        }
    }

    /// Insert a finished preparation and run the LRU eviction sweep. Called
    /// with the cache lock *not* held.
    fn insert_prepared(&self, fp: u64, prepared: &Arc<PreparedSchema>) {
        let bytes = prepared.estimate_bytes();
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let std::collections::hash_map::Entry::Vacant(slot) = inner.map.entry(fp) {
            slot.insert(CacheEntry {
                prepared: Arc::clone(prepared),
                last_used: tick,
                bytes,
            });
            inner.resident_bytes += bytes;
        }
        inner.building.remove(&fp);
        self.sweep_locked(&mut inner, self.capacity, self.byte_budget);
        crate::obs::gauge_max(
            crate::obs::Counter::CacheResidentBytes,
            inner.resident_bytes as u64,
        );
    }

    /// LRU-evict while over `capacity` entries or over `byte_budget`
    /// estimated bytes (never below one resident entry). Caller holds the
    /// lock.
    fn sweep_locked(&self, inner: &mut CacheInner, capacity: usize, byte_budget: Option<usize>) {
        loop {
            let over_count = inner.map.len() > capacity;
            let over_bytes = byte_budget
                .is_some_and(|budget| inner.resident_bytes > budget && inner.map.len() > 1);
            if !over_count && !over_bytes {
                break;
            }
            // O(n) scan, but only on eviction — hits stay O(1).
            let Some(evict) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&fp, _)| fp)
            else {
                break;
            };
            if let Some(entry) = inner.map.remove(&evict) {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(entry.bytes);
            }
            self.counters.add(crate::obs::Counter::CacheEvictions, 1);
        }
    }

    /// Evict least-recently-used entries until estimated resident bytes
    /// drop to `target` (or one entry remains) — the memory governor's
    /// pressure response. Counters move exactly as for capacity evictions.
    pub fn evict_to_bytes(&self, target: usize) {
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        self.sweep_locked(&mut inner, self.capacity, Some(target));
    }

    /// Admit an externally-built preparation (e.g. one reconstructed from a
    /// warm-start image) so subsequent [`Self::prepare`] calls for the same
    /// content hit instead of rebuilding. The preparation must intern through this cache's arena —
    /// ids from a foreign arena would corrupt every consumer.
    pub fn admit(&self, prepared: Arc<PreparedSchema>) {
        assert!(
            Arc::ptr_eq(prepared.arena(), &self.arena),
            "admitted preparation must use the cache's arena"
        );
        let fp = prepared.fingerprint;
        self.insert_prepared(fp, &prepared);
    }

    /// Bulk [`Self::admit`]: one lock acquisition and one eviction sweep
    /// for the whole batch. Admitting a registry-scale warm-start load
    /// entry-by-entry runs an O(capacity) LRU scan per entry against an
    /// already-full cache; here overflow is resolved once, keeping the
    /// most recently admitted `capacity` entries (later in `prepared` =
    /// more recent, matching per-entry admission order).
    pub fn admit_all(&self, prepared: &[Arc<PreparedSchema>]) {
        for p in prepared {
            assert!(
                Arc::ptr_eq(p.arena(), &self.arena),
                "admitted preparation must use the cache's arena"
            );
        }
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        for p in prepared {
            inner.tick += 1;
            let tick = inner.tick;
            let bytes = p.estimate_bytes();
            let mut added = 0usize;
            inner
                .map
                .entry(p.fingerprint)
                .or_insert_with(|| {
                    added = bytes;
                    CacheEntry {
                        prepared: Arc::clone(p),
                        last_used: tick,
                        bytes,
                    }
                })
                .last_used = tick;
            inner.resident_bytes += added;
            inner.building.remove(&p.fingerprint);
        }
        if inner.map.len() > self.capacity {
            let excess = inner.map.len() - self.capacity;
            let mut ticks: Vec<u64> = inner.map.values().map(|e| e.last_used).collect();
            ticks.sort_unstable();
            let cutoff = ticks[excess - 1];
            let mut freed = 0usize;
            inner.map.retain(|_, e| {
                let keep = e.last_used > cutoff;
                if !keep {
                    freed += e.bytes;
                }
                keep
            });
            inner.resident_bytes = inner.resident_bytes.saturating_sub(freed);
            self.counters
                .add(crate::obs::Counter::CacheEvictions, excess as u64);
        }
        // Survivors of the count sweep may still exceed the byte budget.
        self.sweep_locked(&mut inner, self.capacity, self.byte_budget);
        crate::obs::gauge_max(
            crate::obs::Counter::CacheResidentBytes,
            inner.resident_bytes as u64,
        );
    }

    /// Drop every resident entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        inner.map.clear();
        inner.resident_bytes = 0;
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("feature cache poisoned");
        let count = |c| self.counters.get(c) as usize;
        CacheStats {
            hits: count(crate::obs::Counter::CacheHits),
            misses: count(crate::obs::Counter::CacheMisses),
            evictions: count(crate::obs::Counter::CacheEvictions),
            coalesced: count(crate::obs::Counter::CacheCoalesced),
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
        }
    }
}

impl std::fmt::Debug for FeatureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FeatureCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, Documentation, ElementKind, SchemaFormat};

    fn schema(id: u32) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Relational);
        let t = s.add_root("Person", ElementKind::Table, DataType::None);
        let c = s
            .add_child(t, "birth_dt", ElementKind::Column, DataType::Date)
            .unwrap();
        s.set_doc(c, Documentation::embedded("date of birth"))
            .unwrap();
        s
    }

    #[test]
    fn prepared_features_match_direct_normalization() {
        let s = schema(1);
        let n = Normalizer::new();
        let p = PreparedSchema::build(&s, &n);
        let arena = p.arena();
        let resolved = |ids: &[TokenId]| arena.resolve_shared(ids);
        assert_eq!(p.len(), s.len());
        let col = s.find_by_name("birth_dt").unwrap();
        let root = s.find_by_name("Person").unwrap();
        let e = p.element(col.index());
        let person = n.name("Person").tokens;
        assert_eq!(e.name_bag, n.name("birth_dt"));
        assert_eq!(resolved(&e.name_ids), n.name("birth_dt").tokens);
        assert_eq!(&*arena.resolve(e.raw_name_id), "birth_dt");
        assert_eq!(resolved(e.doc_ids()), n.prose("date of birth").tokens);
        // Parent and children features are the parent's and the children's
        // name tokens, counted with multiplicity.
        assert_eq!(arena.resolve_shared(&e.parent_set), person);
        assert_eq!(e.parent_len as usize, person.len());
        let table = p.element(root.index());
        assert!(table.parent_set.is_empty() && table.parent_len == 0);
        assert_eq!(table.children_set, e.name_set);
        assert_eq!(table.children_len as usize, e.name_ids.len());
        // Corpus document is name tokens then doc tokens.
        let mut expect = n.name("birth_dt").tokens;
        expect.extend(n.prose("date of birth").tokens);
        assert_eq!(resolved(&e.corpus_ids), expect);
    }

    #[test]
    fn interned_fields_mirror_string_fields() {
        let s = schema(1);
        let p = PreparedSchema::build(&s, &Normalizer::new());
        let arena = p.arena();
        for e in p.elements() {
            assert_eq!(arena.resolve_shared(&e.name_ids), e.name_bag.tokens);
            let raw: String = e.raw_chars.iter().collect();
            assert_eq!(*arena.resolve(e.raw_name_id), raw);
            assert_eq!(
                &*arena.resolve(e.acronym_id),
                sm_text::tokenize::acronym_of(&e.name_bag.tokens)
            );
            assert_eq!(e.raw_name_spans_two_bytes(), raw.len() >= 2);
            // Sets are sorted, deduped views of the corresponding lists.
            assert_eq!(e.name_set, to_sorted_set(e.name_ids.clone()));
            assert!(e.block_features.windows(2).all(|w| w[0] != w[1]));
            // Block features are sorted by resolved string.
            let resolved = arena.resolve_all(&e.block_features);
            let mut sorted = resolved.clone();
            sorted.sort();
            assert_eq!(resolved, sorted);
        }
        for i in 0..p.len() {
            assert_eq!(p.block_features_of(i), p.element(i).block_features);
        }
        // Signature ids resolve to the signature set, lexicographically.
        let resolved: HashSet<String> = arena.resolve_all(p.signature_ids()).into_iter().collect();
        let signature: HashSet<String> = p.signature().iter().map(|t| t.to_string()).collect();
        assert_eq!(resolved, signature);
    }

    #[test]
    fn signature_is_distinct_name_tokens() {
        let s = schema(1);
        let p = PreparedSchema::build(&s, &Normalizer::new());
        assert!(p.signature().contains("birth"));
        assert!(p.signature().contains("person"));
        // Doc-only vocabulary is not part of the name signature.
        assert!(!p.signature().contains("of"));
    }

    #[test]
    fn fingerprint_tracks_content_not_just_identity() {
        let mut a = schema(1);
        let b = schema(1);
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&b));
        let p = PreparedSchema::build(&a, &Normalizer::new());
        assert!(p.is_current_for(&b));
        let t = a.find_by_name("Person").unwrap();
        a.add_child(t, "last_name", ElementKind::Column, DataType::text())
            .unwrap();
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&b));
        assert!(!p.is_current_for(&a));
    }

    #[test]
    fn cache_hits_on_equal_content_and_rebuilds_on_change() {
        let cache = FeatureCache::new(Normalizer::new());
        let mut s = schema(7);
        let p1 = cache.prepare(&s);
        let p2 = cache.prepare(&s);
        assert!(Arc::ptr_eq(&p1, &p2), "second prepare is a cache hit");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        let t = s.find_by_name("Person").unwrap();
        s.add_child(t, "ssn", ElementKind::Column, DataType::text())
            .unwrap();
        let p3 = cache.prepare(&s);
        assert!(!Arc::ptr_eq(&p1, &p3), "mutated schema re-prepares");
        assert_eq!(p3.len(), s.len());
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        let cache = FeatureCache::with_capacity(Normalizer::new(), 2);
        let a = schema(1);
        let b = schema(2);
        let c = schema(3);
        cache.prepare(&a);
        cache.prepare(&b);
        // Touch `a` so `b` is the least recently used entry.
        cache.prepare(&a);
        cache.prepare(&c);
        assert_eq!(cache.stats().entries, 2);
        // `a` stayed hot; `b` was evicted.
        let misses_before = cache.stats().misses;
        cache.prepare(&a);
        assert_eq!(cache.stats().misses, misses_before, "hot entry survived");
        cache.prepare(&b);
        assert_eq!(cache.stats().misses, misses_before + 1, "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 2, "both displacements counted");
    }

    #[test]
    fn cache_byte_budget_evicts_lru_but_keeps_one_entry() {
        let one = schema(1);
        let probe = FeatureCache::new(Normalizer::new());
        let per_entry = probe.prepare(&one).estimate_bytes();
        assert!(per_entry > 0, "footprint estimate must be non-trivial");

        // Budget fits roughly two entries; the third insert must evict.
        let cache = FeatureCache::with_limits(Normalizer::new(), 64, Some(per_entry * 5 / 2));
        cache.prepare(&one);
        cache.prepare(&schema(2));
        let resident_two = cache.stats().resident_bytes;
        assert!(
            resident_two >= 2 * per_entry * 9 / 10,
            "two entries resident"
        );
        cache.prepare(&schema(3));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "byte budget displaced the LRU entry");
        assert!(
            stats.resident_bytes < resident_two + per_entry,
            "resident bytes bounded by the budget sweep"
        );
        // `one` was the least recently used entry; re-preparing it misses.
        let misses_before = cache.stats().misses;
        cache.prepare(&one);
        assert_eq!(cache.stats().misses, misses_before + 1);

        // Even an absurdly small budget keeps the newest entry resident.
        let tiny = FeatureCache::with_limits(Normalizer::new(), 64, Some(1));
        tiny.prepare(&schema(4));
        assert_eq!(tiny.stats().entries, 1, "never evicts below one entry");
    }

    #[test]
    fn evict_to_bytes_sheds_down_to_target() {
        let cache = FeatureCache::new(Normalizer::new());
        for id in 0..4 {
            cache.prepare(&schema(id));
        }
        let before = cache.stats();
        assert_eq!(before.entries, 4);
        cache.evict_to_bytes(before.resident_bytes / 2);
        let after = cache.stats();
        assert!(after.entries < before.entries, "pressure eviction ran");
        assert!(
            after.resident_bytes <= before.resident_bytes / 2 || after.entries == 1,
            "resident bytes reach the target unless a single entry remains"
        );
        // Accounting stays consistent: draining to zero keeps one entry.
        cache.evict_to_bytes(0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn admitted_preparations_serve_prepare_without_building() {
        let cache = FeatureCache::new(Normalizer::new());
        let s = schema(41);
        let built = Arc::new(PreparedSchema::build_with_arena(
            &s,
            cache.normalizer(),
            Arc::clone(cache.arena()),
        ));
        cache.admit(Arc::clone(&built));
        let served = cache.prepare(&s);
        assert!(Arc::ptr_eq(&built, &served), "admit must preempt a rebuild");
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn global_cache_is_shared() {
        let g1 = FeatureCache::global();
        let g2 = FeatureCache::global();
        assert!(Arc::ptr_eq(g1, g2));
    }

    #[test]
    fn racing_get_or_prepare_builds_once() {
        let cache = Arc::new(FeatureCache::new(Normalizer::new()));
        let s = schema(99);
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let s = s.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.prepare(&s)
                })
            })
            .collect();
        let prepared: Vec<Arc<PreparedSchema>> = handles
            .into_iter()
            .map(|h| h.join().expect("prepare thread panicked"))
            .collect();
        for p in &prepared[1..] {
            assert!(
                Arc::ptr_eq(&prepared[0], p),
                "racing callers must share one preparation"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the fingerprint was built exactly once");
        assert_eq!(stats.hits, 7, "waiters and late arrivals count as hits");
    }

    /// The cache prices a preparation's corpus vocabulary before it is
    /// built, at what the vocabulary's own estimate says: building it
    /// changes no price, and the estimate is its exact heap when no term
    /// repeats.
    #[test]
    fn estimate_bytes_prices_the_vocabulary_built_or_not() {
        let n = Normalizer::new();
        let mut distinct = Schema::new(SchemaId(5), "D", SchemaFormat::Generic);
        let t = distinct.add_root("person", ElementKind::Table, DataType::None);
        distinct
            .add_child(t, "birth_dt", ElementKind::Column, DataType::Date)
            .unwrap();
        for (s, exact) in [(schema(1), false), (distinct, true)] {
            let p = PreparedSchema::build(&s, &n);
            let tokens = p.elements().iter().map(|e| e.corpus_ids.len()).sum();
            let priced = Vocabulary::estimate_bytes(p.len(), tokens);
            let before = p.estimate_bytes();
            let built = p.vocabulary().heap_bytes();
            assert_eq!(p.estimate_bytes(), before, "{}", s.name);
            assert!(built <= priced, "{}: {built} vs {priced}", s.name);
            assert_eq!(built == priced, exact, "{}: {built} vs {priced}", s.name);
        }
    }

    /// A heap-shaped schema of `n` elements (element `i`'s parent is
    /// `(i - 1) / 2`) with recurring name tokens — many 64-element chunks.
    fn heap_schema(id: u32, n: usize) -> Schema {
        const WORDS: [&str; 8] = [
            "person", "birth", "date", "order", "amount", "ship", "code", "line",
        ];
        let mut s = Schema::new(SchemaId(id), format!("H{n}"), SchemaFormat::Relational);
        for i in 0..n {
            let name = format!("{}_{}{}", WORDS[i % 8], WORDS[(i / 8) % 8], i % 11);
            if i == 0 {
                s.add_root(name, ElementKind::Table, DataType::None);
            } else {
                let parent = sm_schema::ElementId(((i - 1) / 2) as u32);
                let e = s
                    .add_child(parent, name, ElementKind::Column, DataType::Date)
                    .unwrap();
                s.set_doc(
                    e,
                    Documentation::embedded(format!("the {} of it", WORDS[i % 5])),
                )
                .unwrap();
            }
        }
        s
    }

    /// A cold prepare under a lane budget with no helper lanes enqueues no
    /// helper on the pool, and builds what an unbudgeted 2-lane prepare
    /// (which does fan out) builds.
    #[test]
    fn prepare_under_an_empty_lane_budget_enqueues_nothing() {
        let exec = Arc::new(Executor::new(2));
        let schema = heap_schema(7, 1378);
        let engine = || {
            crate::engine::MatchEngine::new()
                .with_feature_cache(Arc::new(FeatureCache::new(Normalizer::new())))
                .with_executor(Arc::clone(&exec))
                .with_threads(2)
        };
        let before = exec.stats().enqueued;
        let starved = engine()
            .with_lane_budget(Arc::new(crate::exec::LaneBudget::new(0)))
            .prepare(&schema);
        assert_eq!(
            exec.stats().enqueued,
            before,
            "a zero budget must run inline"
        );
        let free = engine().prepare(&schema);
        assert!(
            exec.stats().enqueued > before,
            "an unbudgeted prepare fans out"
        );
        assert_eq!(starved.elements(), free.elements());
        assert_eq!(starved.signature_ids(), free.signature_ids());
    }

    /// A job token tripped between a cold build's chunks unwinds the
    /// build: the cache keeps no entry and no slot, a caller waiting on the
    /// in-flight build is not left blocked (it builds for itself), and the
    /// next prepare equals a fresh build.
    #[test]
    fn cancelled_prepare_leaves_no_entry_and_no_blocked_waiter() {
        use crate::serve::{CancelUnwind, JobToken};
        use std::time::{Duration, Instant};
        crate::serve::install_cancel_hook();
        let exec = Arc::new(Executor::new(2));
        let schema = heap_schema(8, 1378);
        let fresh = PreparedSchema::build(&schema, &Normalizer::new());
        let same = |p: &PreparedSchema| {
            p.elements() == fresh.elements() && p.signature_ids() == fresh.signature_ids()
        };
        for with_waiter in [false, true] {
            let mut cancelled = false;
            for _ in 0..20 {
                let cache = Arc::new(FeatureCache::new(Normalizer::new()));
                let token = JobToken::new();
                let engine = || {
                    crate::engine::MatchEngine::new()
                        .with_feature_cache(Arc::clone(&cache))
                        .with_executor(Arc::clone(&exec))
                        .with_threads(2)
                };
                let tokened = engine().with_job_token(token.clone());
                let before = exec.stats().enqueued;
                let until = Instant::now() + Duration::from_secs(10);
                // The build's first chunk fan-out has started once it
                // enqueued its helper.
                let started = || exec.stats().enqueued > before || Instant::now() > until;
                let waiting = || {
                    let inner = cache.inner.lock().unwrap();
                    inner
                        .building
                        .values()
                        .any(|slot| Arc::strong_count(slot) > 2)
                        || Instant::now() > until
                };
                let (outcome, waited) = std::thread::scope(|scope| {
                    let waiter = with_waiter.then(|| {
                        scope.spawn(|| {
                            while !started() {
                                std::thread::yield_now();
                            }
                            cache.prepare(&schema)
                        })
                    });
                    scope.spawn(|| {
                        while !started() || (with_waiter && !waiting()) {
                            std::thread::yield_now();
                        }
                        token.cancel();
                    });
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        tokened.prepare(&schema)
                    }));
                    let waited = waiter.map(|w| w.join().expect("waiter panicked"));
                    (outcome, waited)
                });
                let Err(payload) = outcome else { continue };
                assert!(payload.downcast_ref::<CancelUnwind>().is_some());
                cancelled = true;
                assert!(
                    cache.inner.lock().unwrap().building.is_empty(),
                    "slot left behind"
                );
                match waited {
                    // The waiter retried and built for itself.
                    Some(prepared) => {
                        assert!(same(&prepared));
                        assert_eq!(cache.stats().misses, 2);
                        assert!(Arc::ptr_eq(&prepared, &engine().prepare(&schema)));
                    }
                    None => {
                        assert_eq!(cache.stats().entries, 0, "a cancelled build was cached");
                        assert!(same(&engine().prepare(&schema)));
                        assert_eq!(cache.stats().misses, 2);
                    }
                }
                break;
            }
            assert!(
                cancelled,
                "no build was cancelled mid-run (waiter: {with_waiter})"
            );
        }
    }
}
