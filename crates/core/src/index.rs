//! Token-blocking index: sparse candidate generation for the match pipeline.
//!
//! The dense pipeline scores every `|S1| × |S2|` pair — ~10^6 voter-panel
//! invocations at the paper's 1378×784 scale, 98%+ of the hot path's wall
//! clock. But true correspondences almost always share *some* cheap lexical
//! evidence: a normalized name token, a documentation token, a phonetic
//! (Soundex) key, or an acronym. This module exploits that with the standard
//! blocking technique of the schema/entity-matching literature the paper
//! builds on:
//!
//! 1. build an [`ElementTokenIndex`] — an inverted index from features of
//!    one schema's [`PreparedSchema`] (name + documentation tokens, Soundex
//!    keys of name tokens, acronym keys) to posting lists of element
//!    indices, IDF-weighted so rare features count for more;
//! 2. probe it with the other schema's elements, accumulating per-pair
//!    feature-overlap weights over the posting lists;
//! 3. let a [`BlockingPolicy`] turn the weights into a [`CandidateSet`] — a
//!    sparse row-major (CSR) pair set the pipeline then scores instead of
//!    the full cross product.
//!
//! # Layout: flat CSR, weights precomputed
//!
//! The index is a *flat* compressed-sparse-row store: one sorted feature-id
//! table, one contiguous postings arena sliced by CSR offsets, and one
//! parallel `f64` table of **IDF weights computed once at build** — a probe
//! does a binary search over contiguous `u32`s and reads its weight next to
//! the posting slice, instead of hashing a `TokenId` into a
//! `HashMap<TokenId, Vec<u32>>` and recomputing `ln((n+1)/(df+1))+1` per
//! feature per probing element. The exact-name table is flattened the same
//! way (sorted distinct name-token sequences + CSR postings). Weights are
//! per-feature functions of `(n, df)` only, so precomputation changes no
//! bit of any accumulated overlap: each probe row adds the same `f64`
//! values in the same feature order as summing the law directly.
//! `tests/csr_index_pin.rs` pins every candidate set, posting list and
//! weight bit against a brute-force oracle that restates the policy below
//! over all `(s, t)` pairs.
//!
//! # One index per preparation
//!
//! An index is a pure function of its [`PreparedSchema`]: its IDF weights
//! read only that schema's element count and document frequencies. So each
//! preparation holds its own index, built by its first blocked use
//! ([`PreparedSchema::token_index`]) and read by every later one — a
//! point match, a batch pair job or the batch planner's overlap estimate —
//! for as long as the feature cache keeps the preparation.
//!
//! # Parallelism
//!
//! Index build and probing both map their chunks over a caller's
//! [`crate::exec::Job`] ([`generate_candidates`] /
//! [`ElementTokenIndex::build_on`]; at width 1, or through
//! [`ElementTokenIndex::build`], the same code runs inline), so they run on
//! the persistent executor under the caller's lane budget and job token.
//! Build fans element chunks out to lanes and merges their
//! `(feature, element)` pair lists in deterministic chunk order; probing
//! fans chunks of *both* directions out through one claim queue, so the
//! source→target and target→source probes execute as concurrent lanes and
//! each lane reuses one accumulator/scratch block across every element it
//! claims. The passes after the probe run on the same lanes in row chunks
//! (see below). Results are assembled in element order, so the candidate
//! set is bit-identical at every lane count.
//!
//! Candidate generation runs in both directions (source→target and
//! target→source) and the results are unioned, so an element with an
//! unusually generic vocabulary on one side can still be rescued by the
//! other side's view of it. Finally the set is closed under parenthood:
//! **parents of a candidate pair are candidates themselves**, which keeps
//! the Propagate stage semantics-preserving (a candidate's structural blend
//! reads its parents' *scored* base value, never an unscored zero) and
//! implicitly recovers container pairs whose own names disagree but whose
//! children overlap — exactly the pairs the `StructureVoter` exists for.
//! After the probe, the union, rescue and closure passes are row-native.
//! Each probe chunk hands its pairs over bucketed by source row chunk, so
//! one row-assembly chunk per lane claim merges its rows' forward and
//! backward pairs, exact-name postings and child-rescue columns through a
//! column bitset into one flat arena — sorted and deduplicated without a
//! sort. The parent closure then runs one source tree level at a time,
//! deepest first, with the rows of a level fanned out across the lanes.
//! Only the order-dependent child-rescue selection runs serially.

use crate::exec::{chunks, Executor, Job};
use crate::prepare::PreparedSchema;
use sm_schema::{Element, ElementId, Schema};
use sm_text::intern::TokenId;
use std::ops::Range;

/// Smoothed IDF weight of a feature present in `df` of `n` documents — the
/// same shape the repository search index uses, so "rare ⇒ discriminating"
/// means the same thing at both element and schema granularity. Public so
/// the batch planner's overlap estimator and the enterprise repository
/// index weigh schema-level tokens with the identical formula; note
/// `idf_weight(n, df) >= 1.0` whenever `df <= n`, which is what lets a
/// zero overlap bound mean "zero shared tokens" exactly.
pub fn idf_weight(n: f64, df: f64) -> f64 {
    ((n + 1.0) / (df + 1.0)).ln() + 1.0
}

/// How aggressively to prune the candidate space. All policies operate on
/// the IDF-weighted feature overlap of a probing element `e` with an
/// opposite element `o`: the sum, in `e`'s feature order, of
/// [`idf_weight`]`(n, df)` over each of `e`'s blocking features that `o`
/// also holds, where `n` is the size of `o`'s side and `df` the number of
/// its elements holding the feature. Only opposites sharing at least one
/// feature are considered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockingPolicy {
    /// Keep, for every element, its `k` best-overlapping opposites (both
    /// directions, unioned), plus *every* pair whose overlap weight reaches
    /// `min_weight` — so dense neighborhoods are capped at `k` while pairs
    /// with strong shared evidence are never dropped by the cap. Opposites
    /// rank by weight descending, ties by element index ascending.
    TopK {
        /// Candidates kept per element (per direction).
        k: usize,
        /// Overlap weight at which a pair is kept even beyond `k`.
        min_weight: f64,
    },
    /// Keep every pair whose accumulated overlap weight reaches
    /// `min_weight`, with no per-element cap.
    WeightedThreshold {
        /// Minimum overlap weight for a pair to become a candidate.
        min_weight: f64,
    },
    /// Every pair is a candidate — the fallback that makes `run_blocked`
    /// reproduce the dense pipeline byte for byte.
    Exhaustive,
}

impl Default for BlockingPolicy {
    /// The default operating point: top-24 per element, with pairs kept
    /// beyond the cap only on a genuinely rare feature collision (smoothed
    /// IDF weight 6 ≈ one feature shared by < 1% of elements; ubiquitous
    /// boilerplate tokens weigh ≈ 1 each and never add up to it). Tuned on
    /// the synthetic paper-scale workload: 100% of dense above-threshold
    /// pairs survive while a few percent of the cross product is scored.
    fn default() -> Self {
        BlockingPolicy::TopK {
            k: 24,
            min_weight: 6.0,
        }
    }
}

/// A sparse set of candidate `(source element, target element)` pairs in
/// CSR (row-major) layout: for each source row, a sorted slice of target
/// column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    rows: usize,
    cols: usize,
    /// `offsets[r]..offsets[r+1]` indexes `targets` for row `r`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CandidateSet {
    /// A set with no candidates at all.
    fn empty(rows: usize, cols: usize) -> Self {
        CandidateSet {
            rows,
            cols,
            offsets: vec![0; rows + 1],
            targets: Vec::new(),
        }
    }

    /// The complete cross product (every pair a candidate).
    pub fn exhaustive(rows: usize, cols: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets = Vec::with_capacity(rows * cols);
        offsets.push(0);
        for _ in 0..rows {
            targets.extend(0..cols as u32);
            offsets.push(targets.len());
        }
        CandidateSet {
            rows,
            cols,
            offsets,
            targets,
        }
    }

    /// The rectangle `source_ids × target_ids`, closed under parenthood
    /// like every blocked candidate set, so Propagate blends each of its
    /// pairs with a scored parent base. Ids may repeat and come in any
    /// order; the set holds each pair once.
    pub fn rectangle(
        source: &Schema,
        target: &Schema,
        source_ids: &[ElementId],
        target_ids: &[ElementId],
    ) -> Self {
        let sorted = |ids: &[ElementId]| {
            let mut ids: Vec<u32> = ids.iter().map(|id| id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let (rows, cols) = (sorted(source_ids), sorted(target_ids));
        let mut arena = RowArena::with_rows(rows.len());
        for _ in &rows {
            arena.push_row(&cols);
        }
        let mut store = RowStore::new(source.len());
        store.install(arena, rows.iter().map(|&s| s as usize));
        close_over_parents(
            source,
            target,
            &mut store,
            rows.iter().map(|&s| s as usize),
            Job::inline(),
        );
        store.into_candidates(target.len())
    }

    /// Number of source rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of candidate pairs.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no pair survived blocking.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Candidate target columns of one source row (sorted ascending).
    ///
    /// This slice is the unit of work for the sparse Score stage: the
    /// pipeline hands it to the score cascade's tier-1 row kernel (or the
    /// reference per-pair loop) together with the row's matrix slice, so
    /// the CSR layout is consumed directly with no per-pair indirection.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.targets[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Is `(r, c)` a candidate pair?
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.rows && self.row(r).binary_search(&(c as u32)).is_ok()
    }

    /// Fraction of the cross product that survived blocking (1.0 for the
    /// exhaustive policy; 0.0 for a degenerate empty problem).
    pub fn density(&self) -> f64 {
        let full = self.rows * self.cols;
        if full == 0 {
            0.0
        } else {
            self.len() as f64 / full as f64
        }
    }
}

/// Elements per build/probe chunk: small enough that lanes load-balance,
/// large enough that per-chunk bookkeeping (one queue claim, one result
/// push) is noise next to the posting walks inside. `PreparedSchema`'s
/// chunked build uses the same width.
pub(crate) const CHUNK_ELEMENTS: usize = 64;

/// Rows per parent-closure chunk. A closure row merges all of its
/// children's rows, so one costs about as much as a chunk of its children;
/// a smaller chunk spreads a tree level of a few dozen containers across
/// the lanes.
const CLOSE_CHUNK_ROWS: usize = 16;

/// Reusable sets of column indices, one bit per column per set: inserts
/// land in any order, and [`Self::drain`] visits a set's members in
/// ascending order while emptying it — a merge and dedup of any number of
/// column lists without a sort.
#[derive(Debug)]
struct ColumnSets {
    /// Words per set.
    stride: usize,
    words: Vec<u64>,
}

impl ColumnSets {
    fn new(sets: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        ColumnSets {
            stride,
            words: vec![0; sets * stride],
        }
    }

    #[inline]
    fn insert(&mut self, set: usize, col: u32) {
        self.words[set * self.stride + col as usize / 64] |= 1 << (col % 64);
    }

    /// Visit every member of `set` in ascending order and empty it. Only
    /// the words of columns below `limit` are walked; every member must lie
    /// below it.
    #[inline]
    fn drain(&mut self, set: usize, limit: usize, mut visit: impl FnMut(u32)) {
        let base = set * self.stride;
        for (at, word) in self.words[base..base + limit.div_ceil(64)]
            .iter_mut()
            .enumerate()
        {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit((at * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// Sorted, deduplicated candidate columns of a run of rows in one flat
/// arena (`offsets[i]..offsets[i + 1]` slices `cols` for the `i`-th row):
/// one allocation pair per chunk of rows, none per row.
struct RowArena {
    offsets: Vec<usize>,
    cols: Vec<u32>,
}

impl RowArena {
    fn with_rows(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        RowArena {
            offsets,
            cols: Vec::new(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.offsets[i]..self.offsets[i + 1]]
    }

    fn push_row(&mut self, cols: &[u32]) {
        self.cols.extend_from_slice(cols);
        self.offsets.push(self.cols.len());
    }

    /// Append the members of `sets[set]` as the next row, emptying it.
    fn push_drained(&mut self, sets: &mut ColumnSets, set: usize) {
        let limit = sets.stride * 64;
        sets.drain(set, limit, |col| self.cols.push(col));
        self.offsets.push(self.cols.len());
    }
}

/// Every source row's candidate columns, held in [`RowArena`]s: `at[r]`
/// names the arena and slot of row `r`, so a closure level replaces rows by
/// installing one new arena instead of moving the others.
struct RowStore {
    arenas: Vec<RowArena>,
    /// `(arena, slot)` per source row; `arena == u32::MAX` for rows that
    /// hold no pairs.
    at: Vec<(u32, u32)>,
}

impl RowStore {
    fn new(rows: usize) -> Self {
        RowStore {
            arenas: Vec::new(),
            at: vec![(u32::MAX, 0); rows],
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        match self.at[r] {
            (u32::MAX, _) => &[],
            (arena, slot) => self.arenas[arena as usize].row(slot as usize),
        }
    }

    /// Make `arena`'s rows, in order, the current rows `rows`.
    fn install(&mut self, arena: RowArena, rows: impl IntoIterator<Item = usize>) {
        let id = self.arenas.len() as u32;
        for (slot, r) in rows.into_iter().enumerate() {
            self.at[r] = (id, slot as u32);
        }
        self.arenas.push(arena);
    }

    fn into_candidates(self, cols: usize) -> CandidateSet {
        let rows = self.at.len();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets = Vec::with_capacity(self.arenas.iter().map(|a| a.cols.len()).sum());
        offsets.push(0);
        for r in 0..rows {
            targets.extend_from_slice(self.row(r));
            offsets.push(targets.len());
        }
        CandidateSet {
            rows,
            cols,
            offsets,
            targets,
        }
    }
}

/// Inverted index from lexical features to posting lists of element indices,
/// built over one side's [`PreparedSchema`] — flat CSR layout with the IDF
/// weight table precomputed at build (see the module docs). Its feature
/// ids point into the preparation's arena ([`PreparedSchema::arena`]).
///
/// Features per element are the preparation's interned
/// [`crate::prepare::PreparedElement::block_features`] (building the index
/// re-tokenizes nothing and allocates no strings):
/// * distinct normalized name + documentation tokens (`corpus_ids`);
/// * `s:`-prefixed Soundex keys of the name tokens, so misspellings and
///   convention drift (`organisation`/`organization`) still collide;
/// * `a:`-prefixed acronym keys: every short raw name, and the acronym of
///   every multi-token name (`coi` ↔ `community_of_interest`).
#[derive(Debug, PartialEq)]
pub struct ElementTokenIndex {
    /// Distinct feature ids, ascending — the binary-search probe table.
    features: Vec<TokenId>,
    /// `offsets[f]..offsets[f+1]` slices `postings` for `features[f]`.
    offsets: Vec<u32>,
    /// Contiguous posting arena: ascending element indices per feature.
    postings: Vec<u32>,
    /// Precomputed IDF weight of `features[f]` (`idf_weight(len, df)`,
    /// computed once here instead of per probe per feature).
    weights: Vec<f64>,
    /// Flattened exact-name table: `name_key_offsets[k]..[k+1]` slices
    /// `name_tokens` into the `k`-th distinct normalized-name token
    /// sequence; keys ascend in `TokenId`-lexicographic sequence order.
    name_key_offsets: Vec<u32>,
    name_tokens: Vec<TokenId>,
    /// `name_post_offsets[k]..[k+1]` slices `name_posts`: ascending element
    /// indices bearing the `k`-th name key. Backs the exact-name rescue;
    /// building it here means a batch pays it once per schema.
    name_post_offsets: Vec<u32>,
    name_posts: Vec<u32>,
    /// Number of indexed elements.
    len: usize,
}

impl ElementTokenIndex {
    /// Index every element of a prepared schema by its interned blocking
    /// features, inline on the calling thread.
    pub fn build(prepared: &PreparedSchema) -> Self {
        Self::build_on(prepared, Job::inline())
    }

    /// [`Self::build_on`] over up to `parallelism` lanes of `exec`,
    /// unbudgeted and uncancellable.
    pub fn build_parallel(prepared: &PreparedSchema, exec: &Executor, parallelism: usize) -> Self {
        Self::build_on(prepared, Job::new(exec, parallelism))
    }

    /// [`Self::build`] with element chunks fanned out over `job`'s lanes.
    /// The per-chunk `(feature, element)` pair lists are merged in chunk
    /// order before the sort that lays out the CSR arena, so the result is
    /// bit-identical to the inline build at every lane count.
    pub fn build_on(prepared: &PreparedSchema, job: Job<'_>) -> Self {
        let n = prepared.len();
        let _span = crate::obs::span(crate::obs::SpanKind::IndexBuild, n as u64);

        // Phase 1 (parallel): per element chunk, emit packed
        // `(feature << 32) | element` pairs. Chunks merge in chunk order,
        // i.e. element order — deterministic at any lane count.
        let chunk_pairs = job.map(chunks(n, CHUNK_ELEMENTS), |_, range| {
            let mut out: Vec<u64> = Vec::new();
            for idx in range {
                for &feat in prepared.block_features_of(idx) {
                    out.push((u64::from(feat.0) << 32) | idx as u64);
                }
            }
            out
        });
        let mut pairs: Vec<u64> = Vec::with_capacity(chunk_pairs.iter().map(Vec::len).sum());
        for c in chunk_pairs {
            pairs.extend(c);
        }
        // Feature-major, element-ascending: exactly the CSR layout order.
        // Features are distinct per element, so there are no duplicates.
        pairs.sort_unstable();
        let mut features: Vec<TokenId> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut postings: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut weights: Vec<f64> = Vec::new();
        for run in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
            features.push(TokenId((run[0] >> 32) as u32));
            postings.extend(run.iter().map(|&pair| pair as u32));
            offsets.push(postings.len() as u32);
            weights.push(idf_weight(n as f64, run.len() as f64));
        }

        // Phase 2 (serial; cheap next to the postings sort): the flattened
        // exact-name table. Elements sort by (name sequence, element), so
        // groups are contiguous and each group's postings ascend.
        let mut named: Vec<u32> = (0..n as u32)
            .filter(|&idx| !prepared.element(idx as usize).name_ids.is_empty())
            .collect();
        named.sort_unstable_by(|&a, &b| {
            prepared
                .element(a as usize)
                .name_ids
                .cmp(&prepared.element(b as usize).name_ids)
                .then(a.cmp(&b))
        });
        let mut name_key_offsets: Vec<u32> = vec![0];
        let mut name_tokens: Vec<TokenId> = Vec::new();
        let mut name_post_offsets: Vec<u32> = vec![0];
        let mut name_posts: Vec<u32> = Vec::with_capacity(named.len());
        let mut j = 0usize;
        while j < named.len() {
            let key = prepared.element(named[j] as usize).name_ids.as_slice();
            name_tokens.extend_from_slice(key);
            name_key_offsets.push(name_tokens.len() as u32);
            while j < named.len() && prepared.element(named[j] as usize).name_ids == key {
                name_posts.push(named[j]);
                j += 1;
            }
            name_post_offsets.push(name_posts.len() as u32);
        }

        ElementTokenIndex {
            features,
            offsets,
            postings,
            weights,
            name_key_offsets,
            name_tokens,
            name_post_offsets,
            name_posts,
            len: n,
        }
    }

    /// Slot of a feature in the sorted table, if indexed.
    #[inline]
    fn feature_slot(&self, feature: TokenId) -> Option<usize> {
        self.features.binary_search(&feature).ok()
    }

    /// Posting slice and precomputed IDF weight of a feature — the probe
    /// loop's single lookup (`None` when the feature is absent).
    #[inline]
    pub fn probe_feature(&self, feature: TokenId) -> Option<(&[u32], f64)> {
        let slot = self.feature_slot(feature)?;
        let range = self.offsets[slot] as usize..self.offsets[slot + 1] as usize;
        Some((&self.postings[range], self.weights[slot]))
    }

    /// The `k`-th distinct name key (sorted ascending by token sequence).
    #[inline]
    fn name_key(&self, k: usize) -> &[TokenId] {
        &self.name_tokens[self.name_key_offsets[k] as usize..self.name_key_offsets[k + 1] as usize]
    }

    /// Elements whose full normalized name equals `name_ids` (empty when
    /// none, or when `name_ids` is empty).
    pub fn name_postings(&self, name_ids: &[TokenId]) -> &[u32] {
        if name_ids.is_empty() {
            return &[];
        }
        let n_keys = self.name_key_offsets.len() - 1;
        let at = {
            let (mut lo, mut hi) = (0usize, n_keys);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.name_key(mid) < name_ids {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        if at < n_keys && self.name_key(at) == name_ids {
            &self.name_posts
                [self.name_post_offsets[at] as usize..self.name_post_offsets[at + 1] as usize]
        } else {
            &[]
        }
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// The distinct feature ids, ascending: the union of every element's
    /// blocking features.
    pub(crate) fn features(&self) -> &[TokenId] {
        &self.features
    }

    /// Heap bytes of `prepared`'s index, priced without building it: every
    /// feature and every name counted as distinct, so the price bounds the
    /// built index's bytes from above and equals them when no two elements
    /// share a feature or a name.
    pub(crate) fn estimate_bytes(prepared: &PreparedSchema) -> usize {
        use std::mem::size_of;
        let (mut features, mut names, mut name_tokens) = (0, 0, 0);
        for e in prepared.elements() {
            features += e.block_features.len();
            if !e.name_ids.is_empty() {
                names += 1;
                name_tokens += e.name_ids.len();
            }
        }
        let id = size_of::<TokenId>();
        let pos = size_of::<u32>();
        features * (id + pos + pos + size_of::<f64>())
            + pos
            + 2 * (names + 1) * pos
            + name_tokens * id
            + names * pos
    }

    /// Posting list of an interned feature (empty when absent).
    pub fn postings_by_id(&self, feature: TokenId) -> &[u32] {
        self.probe_feature(feature)
            .map_or(&[], |(posting, _)| posting)
    }

    /// IDF weight of an interned feature under this index's document
    /// frequency — the precomputed table entry, or the `df = 0` weight for
    /// features absent from every indexed element.
    pub fn weight_by_id(&self, feature: TokenId) -> f64 {
        self.feature_slot(feature).map_or_else(
            || idf_weight(self.len as f64, 0.0),
            |slot| self.weights[slot],
        )
    }

    /// Probe one element's features under `policy`, returning its kept
    /// `(candidate, overlap weight)` list — the per-row kernel of candidate
    /// generation, exposed for probe micro-benches and custom drivers. The
    /// result lives in `scratch` and is overwritten by the next call;
    /// `scratch` must have been sized for at least [`Self::len`] candidates.
    pub fn probe_row<'s>(
        &self,
        feats: &[TokenId],
        policy: &BlockingPolicy,
        scratch: &'s mut ProbeScratch,
    ) -> &'s [(u32, f64)] {
        assert!(scratch.acc.len() >= self.len, "scratch smaller than index");
        probe_element(feats, self, policy, scratch);
        &scratch.kept
    }
}

/// Build the token index of every preparation in `prepared` that holds
/// none yet ([`PreparedSchema::token_index`]), side by side on `job`'s
/// lanes, each build fanning its own element chunks out too.
pub(crate) fn ensure_token_indices<'p>(
    prepared: impl IntoIterator<Item = &'p PreparedSchema>,
    job: Job<'_>,
) {
    let cold: Vec<&PreparedSchema> = prepared
        .into_iter()
        .filter(|p| p.built_token_index().is_none())
        .collect();
    job.map(cold, |_, p| {
        p.token_index(job);
    });
}

/// One probe chunk's kept pairs as `(source, target)`, grouped by source
/// row chunk: `buckets[c]..buckets[c + 1]` slices `pairs` for the source
/// rows of chunk `c` (`c * CHUNK_ELEMENTS..`), in probe order within a
/// bucket.
struct ProbedChunk {
    buckets: Vec<usize>,
    pairs: Vec<(u32, u32)>,
    /// Child-rescue candidates the chunk found.
    strong: Vec<(u32, u32, f64)>,
}

impl ProbedChunk {
    /// Counting-sort `kept` into `buckets` source row chunks.
    fn bucketed(kept: &[(u32, u32)], buckets: usize, strong: Vec<(u32, u32, f64)>) -> Self {
        let mut offsets = vec![0usize; buckets + 1];
        for &(s, _) in kept {
            offsets[s as usize / CHUNK_ELEMENTS + 1] += 1;
        }
        for b in 0..buckets {
            offsets[b + 1] += offsets[b];
        }
        let mut next = offsets.clone();
        let mut pairs = vec![(0, 0); kept.len()];
        for &pair in kept {
            let b = pair.0 as usize / CHUNK_ELEMENTS;
            pairs[next[b]] = pair;
            next[b] += 1;
        }
        ProbedChunk {
            buckets: offsets,
            pairs,
            strong,
        }
    }

    #[inline]
    fn bucket(&self, c: usize) -> &[(u32, u32)] {
        &self.pairs[self.buckets[c]..self.buckets[c + 1]]
    }
}

/// Lane-owned probe scratch, reused across every element the lane claims —
/// no per-pair (or per-element) allocation churn. Public so callers (and
/// the probe micro-benches) can drive [`ElementTokenIndex::probe_row`]
/// without paying an allocation per row.
#[derive(Debug)]
pub struct ProbeScratch {
    /// Per-candidate accumulated overlap weight (zeroed as `touched`
    /// drains).
    acc: Vec<f64>,
    /// Candidates touched by the current element.
    touched: ColumnSets,
    /// Touched candidates below the policy's weight bound, in column order:
    /// the top-k policy's selection pool when too few clear the bound.
    weak: Vec<(u32, f64)>,
    /// The current element's kept candidates, in column order, before they
    /// join the chunk output.
    kept: Vec<(u32, f64)>,
    /// Rows probed through this scratch since the last flush — accumulated
    /// locally so the posting hot loop never touches a process-wide atomic.
    rows_probed: u64,
    /// Posting-list entries walked since the last flush.
    postings_touched: u64,
}

impl ProbeScratch {
    /// Scratch able to probe any index of at most `max_candidates` elements.
    pub fn new(max_candidates: usize) -> Self {
        ProbeScratch {
            acc: vec![0.0; max_candidates],
            touched: ColumnSets::new(1, max_candidates),
            weak: Vec::new(),
            kept: Vec::new(),
            rows_probed: 0,
            postings_touched: 0,
        }
    }

    /// Flush the locally accumulated probe counters into the process-wide
    /// [`crate::obs`] registry (`probe.rows` / `probe.postings`) and zero
    /// them. Dropping the scratch flushes too, which is how the pipeline's
    /// probe pass flushes once per lane; custom `probe_row` drivers may
    /// call it at whatever granularity they like.
    pub fn flush_probe_counters(&mut self) {
        crate::obs::add(crate::obs::Counter::ProbeRows, self.rows_probed);
        crate::obs::add(crate::obs::Counter::ProbePostings, self.postings_touched);
        self.rows_probed = 0;
        self.postings_touched = 0;
    }
}

impl Drop for ProbeScratch {
    fn drop(&mut self) {
        self.flush_probe_counters();
    }
}

/// Probe one element's features against `index`, applying `policy` into
/// `scratch.kept` (column order). Each candidate's weight sums the IDF
/// weights of the shared features in the probing element's feature order,
/// read from the precomputed table. The selection takes a cheaper route
/// to the policy's kept set (threshold first, see below).
fn probe_element(
    feats: &[TokenId],
    index: &ElementTokenIndex,
    policy: &BlockingPolicy,
    scratch: &mut ProbeScratch,
) {
    scratch.rows_probed += 1;
    let n = index.len();
    let acc = &mut scratch.acc;
    let touched = &mut scratch.touched;
    for &feat in feats {
        let Some((posting, w)) = index.probe_feature(feat) else {
            continue;
        };
        scratch.postings_touched += posting.len() as u64;
        for &t in posting {
            acc[t as usize] += w;
            touched.insert(0, t);
        }
    }
    let kept = &mut scratch.kept;
    let weak = &mut scratch.weak;
    kept.clear();
    weak.clear();
    // A threshold policy is a top-0 policy.
    let (k, min_weight) = match *policy {
        BlockingPolicy::Exhaustive => {
            kept.extend((0..n as u32).map(|t| (t, acc[t as usize])));
            acc[..n].fill(0.0);
            touched.drain(0, n, |_| {});
            return;
        }
        BlockingPolicy::WeightedThreshold { min_weight } => (0, min_weight),
        BlockingPolicy::TopK { k, min_weight } => (k, min_weight),
    };
    // Threshold first. Every touched candidate at or above `min_weight` is
    // kept, and any of them outranks every weaker one, so when at least k
    // clear the bound they already hold the top k and no ranking happens.
    // The drain walks the touched bits in column order, so `kept` comes out
    // sorted.
    touched.drain(0, n, |t| {
        let w = std::mem::take(&mut acc[t as usize]);
        if w >= min_weight {
            kept.push((t, w));
        } else if k > 0 {
            weak.push((t, w));
        }
    });
    if kept.len() < k && !weak.is_empty() {
        // The remaining `k - strong` slots go to the best weak candidates
        // under the policy's total order: weight desc, column asc.
        let slots = k - kept.len();
        if weak.len() > slots {
            weak.select_nth_unstable_by(slots - 1, |a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite overlap weight")
                    .then(a.0.cmp(&b.0))
            });
            weak.truncate(slots);
        }
        kept.extend_from_slice(weak);
        kept.sort_unstable_by_key(|&(t, _)| t);
    }
}

/// Both probe directions — source elements against `target_index` and
/// target elements against `source_index` — as the chunks of one
/// [`Job::map_with`], so the directions run as concurrent executor lanes
/// and a lane finishing one direction's chunks immediately steals the
/// other's. Each lane owns one [`ProbeScratch`], reused across all its
/// claims. Chunk outputs come back in chunk order (forward chunks first),
/// whichever lane produced them: bit-identical at any lane count.
///
/// Every chunk hands its kept pairs over bucketed by source row chunk (see
/// [`ProbedChunk`]), so the row assembly reads both directions without a
/// global transpose. The lanes also collect the child-rescue candidates:
/// kept pairs of two containers (`containers` flags source, then target,
/// elements with children) that overlap by at least
/// [`CHILD_RESCUE_WEIGHT`], as `(source, target, weight)`.
fn probe_sides(
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    source_index: &ElementTokenIndex,
    target_index: &ElementTokenIndex,
    containers: [&[bool]; 2],
    policy: &BlockingPolicy,
    job: Job<'_>,
) -> (Vec<ProbedChunk>, Vec<(u32, u32, f64)>) {
    let rows = prepared_source.len();
    let cols = prepared_target.len();
    let buckets = rows.div_ceil(CHUNK_ELEMENTS);
    struct ChunkDesc {
        /// 0 = forward (source→target index), 1 = backward.
        dir: usize,
        range: Range<usize>,
    }
    let descs: Vec<ChunkDesc> = chunks(rows, CHUNK_ELEMENTS)
        .map(|range| ChunkDesc { dir: 0, range })
        .chain(chunks(cols, CHUNK_ELEMENTS).map(|range| ChunkDesc { dir: 1, range }))
        .collect();

    let run_chunk = |desc: &ChunkDesc, scratch: &mut ProbeScratch| -> ProbedChunk {
        let _chunk = crate::obs::span(crate::obs::SpanKind::ProbeChunk, desc.range.len() as u64);
        let (from, index, [from_containers, to_containers]) = if desc.dir == 0 {
            (prepared_source, target_index, containers)
        } else {
            (
                prepared_target,
                source_index,
                [containers[1], containers[0]],
            )
        };
        let mut kept: Vec<(u32, u32)> = Vec::new();
        let mut strong: Vec<(u32, u32, f64)> = Vec::new();
        for idx in desc.range.clone() {
            probe_element(from.block_features_of(idx), index, policy, scratch);
            let from_container = from_containers[idx];
            for &(other, w) in &scratch.kept {
                let pair = if desc.dir == 0 {
                    (idx as u32, other)
                } else {
                    (other, idx as u32)
                };
                kept.push(pair);
                if from_container && w >= CHILD_RESCUE_WEIGHT && to_containers[other as usize] {
                    strong.push((pair.0, pair.1, w));
                }
            }
        }
        ProbedChunk::bucketed(&kept, buckets, strong)
    };

    let outs = job.map_with(
        &descs,
        || ProbeScratch::new(rows.max(cols)),
        |scratch, _, desc| run_chunk(desc, scratch),
    );
    let strong = outs
        .iter()
        .flat_map(|out| out.strong.iter().copied())
        .collect();
    (outs, strong)
}

/// Overlap weight at which a candidate *container* pair also enqueues its
/// children's cross product. Structural propagation can lift a child pair
/// above the operating threshold on its parents' strength alone, so a child
/// whose own vocabulary shares nothing must still be scored when its
/// parents collide hard (`organization.width` ↔ `ORGANIZATION/WEIGHT`). The
/// bound keeps the rescue from exploding: only strongly-overlapping
/// container pairs (a rare-token name collision, not generic-vocabulary
/// noise) fan out to their children.
const CHILD_RESCUE_WEIGHT: f64 = 5.0;

/// Per container, at most this many strongest partners fan out to children.
/// A container has essentially one true counterpart; rescuing its few best
/// collisions covers propagation lift while keeping the fan-out linear in
/// the number of containers instead of quadratic.
const CHILD_RESCUE_PARTNERS: usize = 3;

/// [`generate_candidates`] over pre-built indices, without serving-layer
/// controls.
#[allow(clippy::too_many_arguments)]
pub fn generate_candidates_with_exec(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    source_index: &ElementTokenIndex,
    target_index: &ElementTokenIndex,
    policy: &BlockingPolicy,
    exec: &Executor,
    parallelism: usize,
) -> CandidateSet {
    generate_candidates(
        source,
        target,
        prepared_source,
        prepared_target,
        Some((source_index, target_index)),
        policy,
        Job::new(exec, parallelism),
    )
}

/// Generate the candidate pair set for matching `source` against `target`
/// under `policy`.
///
/// `indices`, when given, are pre-built token indices over exactly
/// `prepared_source` / `prepared_target`. Without them each preparation's
/// own index is read ([`PreparedSchema::token_index`]); a preparation that
/// holds none yet builds it here, once for every later use. Index
/// construction is deterministic per schema, so sharing one build across
/// pairs and calls changes no bit of the result.
///
/// Index builds, both probe directions, the row assembly and each parent
/// closure level fan out over `job`'s lanes; at width 1 (or with a single
/// chunk) they run inline on the caller. Helper lanes are drawn from the
/// job's lane budget and its token is checked at every chunk claim (see
/// [`Job`]). The candidate set is bit-identical at every lane count and
/// under every budget.
///
/// Both directions are probed and unioned, then the set is closed
/// structurally:
/// * **exact-name rescue** — two elements whose normalized name token
///   sequences are equal (the `exact-name` voter's own equality test, so
///   `NM`/`name` and `Id`/`identifier` collide after abbreviation
///   expansion) are always candidates. Exact name equality is the
///   strongest single voter signal, but a ubiquitous name (`identifier`,
///   `name`) carries so little IDF weight that the top-k cap can drop the
///   true counterpart in a dense neighborhood of look-alikes; a sorted-key
///   join on the interned token sequences recovers exactly those pairs at
///   `O((rows + cols) log keys + collisions)` cost;
/// * **child rescue** — a candidate pair of containers whose overlap weight
///   reaches [`CHILD_RESCUE_WEIGHT`] adds its children's cross product, so
///   pairs that only clear the operating threshold through their parents'
///   propagation blend are still scored;
/// * **parent closure** (transitive) — for every candidate `(s, t)` whose
///   elements both have parents, `(parent(s), parent(t))` is added, up to
///   the roots, keeping the Propagate stage's base reads scored.
pub fn generate_candidates(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
    policy: &BlockingPolicy,
    job: Job<'_>,
) -> CandidateSet {
    let rows = prepared_source.len();
    let cols = prepared_target.len();
    debug_assert_eq!(rows, source.len());
    debug_assert_eq!(cols, target.len());
    if let Some((source_index, target_index)) = indices {
        // Hard checks (cheap next to the probe): a stale or swapped index
        // would otherwise produce a plausible-but-wrong candidate set in
        // release.
        assert_eq!(
            source_index.len(),
            rows,
            "source index does not match the prepared source schema"
        );
        assert_eq!(
            target_index.len(),
            cols,
            "target index does not match the prepared target schema"
        );
    }
    if rows == 0 || cols == 0 {
        return CandidateSet::empty(rows, cols);
    }
    if matches!(policy, BlockingPolicy::Exhaustive) {
        return CandidateSet::exhaustive(rows, cols);
    }
    let (source_index, target_index) = indices.unwrap_or_else(|| {
        ensure_token_indices([prepared_source, prepared_target], job);
        (
            prepared_source.token_index(job),
            prepared_target.token_index(job),
        )
    });

    let containers = |schema: &Schema| -> Vec<bool> {
        schema
            .elements()
            .iter()
            .map(|e| !e.children.is_empty())
            .collect()
    };
    let (source_containers, target_containers) = (containers(source), containers(target));
    // Both probe directions (concurrent lanes under an executor). Features
    // come pre-interned from the preparations, so probing allocates no
    // strings.
    let (probed, strong) = probe_sides(
        prepared_source,
        prepared_target,
        source_index,
        target_index,
        [&source_containers, &target_containers],
        policy,
        job,
    );
    let rescue = {
        let _span = crate::obs::span(crate::obs::SpanKind::BlockRescue, strong.len() as u64);
        child_rescue(source, target, &strong)
    };

    // Row assembly, in row chunks on the lanes: each source row's forward
    // and backward probe pairs, exact-name postings and child-rescue
    // columns merged into one sorted row of the chunk's arena.
    let arenas = job.map(chunks(rows, CHUNK_ELEMENTS), |chunk, range| {
        let _span = crate::obs::span(crate::obs::SpanKind::BlockAssemble, range.len() as u64);
        let mut sets = ColumnSets::new(range.len(), cols);
        for probe in &probed {
            for &(s, t) in probe.bucket(chunk) {
                sets.insert(s as usize - range.start, t);
            }
        }
        let mut arena = RowArena::with_rows(range.len());
        let mut at = rescue.partition_point(|&(s, _)| (s as usize) < range.start);
        for (set, s) in range.enumerate() {
            // Exact-name rescue: equal normalized name-token sequences (the
            // exact-name voter's equality test) are always candidates.
            // Empty bags excepted — the voter is neutral on those. The name
            // table lives on the prebuilt index, so a batch pays it once
            // per schema.
            for &t in target_index.name_postings(&prepared_source.element(s).name_ids) {
                sets.insert(set, t);
            }
            while at < rescue.len() && rescue[at].0 as usize == s {
                for ct in &target.elements()[rescue[at].1 as usize].children {
                    sets.insert(set, ct.0);
                }
                at += 1;
            }
            arena.push_drained(&mut sets, set);
        }
        arena
    });
    let mut store = RowStore::new(rows);
    for (arena, range) in arenas.into_iter().zip(chunks(rows, CHUNK_ELEMENTS)) {
        store.install(arena, range);
    }
    close_over_parents(source, target, &mut store, 0..rows, job);
    store.into_candidates(cols)
}

/// The child-rescue selection over the probes' strong container pairs:
/// strongest first (weight desc, then pair asc), each container fanning
/// out to at most [`CHILD_RESCUE_PARTNERS`] partners. An accepted pair
/// `(s, t)` adds the cross product of their children, returned as
/// `(child of s, t)` entries sorted by source row; the row assembly expands
/// `t` into its children. Serial: the fan-out caps make the greedy pass
/// order-dependent.
///
/// The probes collect only pairs where *both* elements have children. A
/// childless pair could never fan out, and skipping it moves no fan-out
/// cap, so leaving it out is invisible to the result while shrinking the
/// weight-sorted buffer from "most kept pairs" to the container collisions.
fn child_rescue(source: &Schema, target: &Schema, strong: &[(u32, u32, f64)]) -> Vec<(u32, u32)> {
    // Integer sort keys: the weights are positive, where an `f64`'s bit
    // pattern orders like its value, so `!bits` orders weight descending.
    // Both directions may report a pair; keep its strongest weight.
    let mut keys: Vec<u128> = strong
        .iter()
        .map(|&(s, t, w)| {
            debug_assert!(w > 0.0);
            u128::from(s) << 96 | u128::from(t) << 64 | u128::from(!w.to_bits())
        })
        .collect();
    keys.sort_unstable();
    keys.dedup_by_key(|key| *key >> 64);
    // Strongest first, then pair ascending.
    for key in &mut keys {
        *key = key.rotate_right(64);
    }
    keys.sort_unstable();
    let mut source_fanout = vec![0usize; source.len()];
    let mut target_fanout = vec![0usize; target.len()];
    let mut rescue: Vec<(u32, u32)> = Vec::new();
    for key in keys {
        let (s, t) = ((key >> 32) as u32 as usize, key as u32 as usize);
        if source_fanout[s] >= CHILD_RESCUE_PARTNERS || target_fanout[t] >= CHILD_RESCUE_PARTNERS {
            continue;
        }
        source_fanout[s] += 1;
        target_fanout[t] += 1;
        rescue.extend(
            source.elements()[s]
                .children
                .iter()
                .map(|cs| (cs.0, t as u32)),
        );
    }
    rescue.sort_unstable();
    rescue
}

/// Record `r`'s parent (if any) in `levels`, indexed by the parent's
/// source depth: it is a row the closure must visit.
fn mark_parent(levels: &mut Vec<Vec<u32>>, elements: &[Element], r: usize) {
    if let Some(p) = elements[r].parent {
        let depth = usize::from(elements[p.index()].depth);
        debug_assert_eq!(depth + 1, usize::from(elements[r].depth));
        if levels.len() <= depth {
            levels.resize_with(depth + 1, Vec::new);
        }
        levels[depth].push(p.0);
    }
}

/// Close the rows of `store` under parenthood: for every pair `(s, t)`
/// whose elements both have parents, `(parent(s), parent(t))` joins the
/// set, transitively up to the roots. This keeps the Propagate stage's
/// base reads scored. `seeds` lists every row that may hold pairs.
///
/// A row gains pairs only from its children's rows, so the pass walks the
/// source tree one depth level at a time, deepest first: row `p` becomes
/// its own columns plus `parent(t)` for every `t` of each child row. Rows
/// of one level are independent, so each level fans out across the lanes
/// in row chunks. Only ancestors of rows holding pairs are visited, so the
/// cost follows the pairs, not the size of the source schema.
fn close_over_parents(
    source: &Schema,
    target: &Schema,
    store: &mut RowStore,
    seeds: impl IntoIterator<Item = usize>,
    job: Job<'_>,
) {
    let (elements, targets, cols) = (source.elements(), target.elements(), target.len());
    // levels[d]: rows at source depth d with a child row that holds pairs.
    let mut levels: Vec<Vec<u32>> = Vec::new();
    for r in seeds {
        if !store.row(r).is_empty() {
            mark_parent(&mut levels, elements, r);
        }
    }
    while let Some(mut level) = levels.pop() {
        if level.is_empty() {
            continue;
        }
        level.sort_unstable();
        level.dedup();
        let _span = crate::obs::span(crate::obs::SpanKind::BlockClose, level.len() as u64);
        let current = &*store;
        let arenas = job.map(level.chunks(CLOSE_CHUNK_ROWS), |_, rows| {
            let mut sets = ColumnSets::new(1, cols);
            let mut arena = RowArena::with_rows(rows.len());
            for &p in rows {
                for &t in current.row(p as usize) {
                    sets.insert(0, t);
                }
                for child in &elements[p as usize].children {
                    for &t in current.row(child.index()) {
                        if let Some(pt) = targets[t as usize].parent {
                            sets.insert(0, pt.0);
                        }
                    }
                }
                arena.push_drained(&mut sets, 0);
            }
            arena
        });
        for (arena, rows) in arenas.into_iter().zip(level.chunks(CLOSE_CHUNK_ROWS)) {
            for (slot, &p) in rows.iter().enumerate() {
                if !arena.row(slot).is_empty() {
                    mark_parent(&mut levels, elements, p as usize);
                }
            }
            store.install(arena, rows.iter().map(|&p| p as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::default_normalizer;
    use sm_schema::{DataType, Documentation, ElementKind, SchemaFormat, SchemaId};
    use sm_text::soundex::soundex;

    fn prepared(s: &Schema) -> PreparedSchema {
        PreparedSchema::build(s, default_normalizer())
    }

    /// Heap bytes of the built tables.
    fn heap_bytes(index: &ElementTokenIndex) -> usize {
        use std::mem::size_of_val;
        size_of_val(&index.features[..])
            + size_of_val(&index.offsets[..])
            + size_of_val(&index.postings[..])
            + size_of_val(&index.weights[..])
            + size_of_val(&index.name_key_offsets[..])
            + size_of_val(&index.name_tokens[..])
            + size_of_val(&index.name_post_offsets[..])
            + size_of_val(&index.name_posts[..])
    }

    /// Candidate generation at parallelism 1 over the preparations' own
    /// indices.
    fn inline_candidates(
        a: &Schema,
        b: &Schema,
        pa: &PreparedSchema,
        pb: &PreparedSchema,
        policy: &BlockingPolicy,
    ) -> CandidateSet {
        generate_candidates(a, b, pa, pb, None, policy, Job::inline())
    }

    fn fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let p = a.add_root("Person", ElementKind::Table, DataType::None);
        let pid = a
            .add_child(p, "person_id", ElementKind::Column, DataType::Integer)
            .unwrap();
        a.set_doc(pid, Documentation::embedded("unique person identifier"))
            .unwrap();
        a.add_child(p, "last_name", ElementKind::Column, DataType::varchar(40))
            .unwrap();
        let c = a.add_root("COI", ElementKind::Table, DataType::None);
        a.add_child(c, "member", ElementKind::Column, DataType::text())
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        b.add_child(
            p2,
            "PersonIdentifier",
            ElementKind::XmlElement,
            DataType::Integer,
        )
        .unwrap();
        b.add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        let c2 = b.add_root(
            "CommunityOfInterest",
            ElementKind::ComplexType,
            DataType::None,
        );
        b.add_child(c2, "MemberName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    #[test]
    fn index_posts_name_doc_soundex_and_acronym_features() {
        let (a, _) = fixture();
        let pa = prepared(&a);
        let index = ElementTokenIndex::build(&pa);
        let postings = |feature: &str| index.postings_by_id(pa.arena().intern(feature));
        assert_eq!(index.len(), a.len());
        let person = a.find_by_name("person_id").unwrap();
        // Name token posting.
        assert!(postings("person").contains(&(person.0)));
        // Doc token posting ("unique" survives prose normalization).
        assert!(postings("uniqu").contains(&(person.0)));
        // Soundex key of a name token.
        assert!(!postings(&format!("s:{}", soundex("person"))).is_empty());
        // Short raw name indexed as an acronym key.
        let coi = a.find_by_name("COI").unwrap();
        assert!(postings("a:coi").contains(&(coi.0)));
    }

    /// The CSR store mirrors the index's definition on the fixture: each
    /// feature posts the ascending elements holding it and weighs
    /// `idf_weight(n, df)` to the bit, no feature is phantom, and each
    /// element's exact name posts its namesakes.
    #[test]
    fn csr_index_mirrors_reference_postings_and_weights() {
        let (a, b) = fixture();
        for s in [&a, &b] {
            let p = prepared(s);
            let csr = ElementTokenIndex::build(&p);
            let n = p.len();
            let mut features: Vec<TokenId> = (0..n)
                .flat_map(|idx| p.block_features_of(idx).iter().copied())
                .collect();
            features.sort_unstable();
            features.dedup();
            for &feat in &features {
                let holders: Vec<u32> = (0..n as u32)
                    .filter(|&idx| p.block_features_of(idx as usize).contains(&feat))
                    .collect();
                assert_eq!(csr.postings_by_id(feat), holders.as_slice());
                assert_eq!(
                    csr.weight_by_id(feat).to_bits(),
                    idf_weight(n as f64, holders.len() as f64).to_bits()
                );
            }
            assert_eq!(csr.feature_count(), features.len());
            for idx in 0..n {
                let name = p.element(idx).name_ids.as_slice();
                let namesakes: Vec<u32> = (0..n as u32)
                    .filter(|&e| !name.is_empty() && p.element(e as usize).name_ids == name)
                    .collect();
                assert_eq!(csr.name_postings(name), namesakes.as_slice());
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_inline_build() {
        let (a, _) = fixture();
        let pa = prepared(&a);
        let exec = Executor::new(4);
        let inline = ElementTokenIndex::build(&pa);
        let parallel = ElementTokenIndex::build_parallel(&pa, &exec, 4);
        assert_eq!(inline, parallel);
    }

    /// The price of an unbuilt index bounds the built index's heap bytes,
    /// and equals them when no two elements share a feature or a name: a
    /// one-element schema, and an empty one.
    #[test]
    fn estimate_bytes_prices_the_built_index() {
        let (a, b) = fixture();
        let mut one = Schema::new(SchemaId(3), "One", SchemaFormat::Generic);
        one.add_root("person_id", ElementKind::Column, DataType::Integer);
        let empty = Schema::new(SchemaId(4), "E", SchemaFormat::Generic);
        for (s, exact) in [(&a, false), (&b, false), (&one, true), (&empty, true)] {
            let p = prepared(s);
            let price = ElementTokenIndex::estimate_bytes(&p);
            let heap = heap_bytes(&ElementTokenIndex::build(&p));
            if exact {
                assert_eq!(price, heap, "{}", s.name);
            } else {
                assert!(
                    heap <= price && price < 2 * heap,
                    "{}: {heap} vs {price}",
                    s.name
                );
            }
        }
    }

    /// A first use the job token cancels unwinds out of the build and
    /// leaves the preparation without an index, whether it is the
    /// preparation's own call or a blocked run's; a later use builds the
    /// index the standalone build does, and the run's candidates with it.
    #[test]
    fn cancelled_first_use_leaves_no_index_and_a_later_use_builds_it() {
        crate::serve::install_cancel_hook();
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let exec = Executor::new(2);
        let token = crate::serve::JobToken::new();
        token.cancel();
        let doomed = Job::new(&exec, 2).with_token(Some(&token));
        let policy = BlockingPolicy::default();
        let unwound = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("a tripped token cancels the first use");
            assert!(payload
                .downcast_ref::<crate::serve::CancelUnwind>()
                .is_some());
        };
        unwound(&|| {
            pa.token_index(doomed);
        });
        unwound(&|| {
            generate_candidates(&a, &b, &pa, &pb, None, &policy, doomed);
        });
        assert!(pa.built_token_index().is_none());
        assert!(pb.built_token_index().is_none());

        let got = generate_candidates(&a, &b, &pa, &pb, None, &policy, Job::new(&exec, 2));
        let (ia, ib) = (ElementTokenIndex::build(&pa), ElementTokenIndex::build(&pb));
        assert_eq!(pa.built_token_index(), Some(&ia));
        assert_eq!(pb.built_token_index(), Some(&ib));
        let built = generate_candidates(&a, &b, &pa, &pb, Some((&ia, &ib)), &policy, Job::inline());
        assert_eq!(got, built);
    }

    #[test]
    fn rare_features_outweigh_common_ones() {
        let (a, _) = fixture();
        let pa = prepared(&a);
        let index = ElementTokenIndex::build(&pa);
        let weight = |feature: &str| index.weight_by_id(pa.arena().intern(feature));
        // "person" appears in two elements, "member" in one.
        assert!(weight("member") > weight("person"));
        assert!(weight("absent-token") > weight("member"));
    }

    #[test]
    fn default_policy_finds_true_pairs_and_prunes() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = inline_candidates(&a, &b, &pa, &pb, &BlockingPolicy::default());
        let pid = a.find_by_name("person_id").unwrap();
        let pid2 = b.find_by_name("PersonIdentifier").unwrap();
        assert!(cands.contains(pid.index(), pid2.index()));
        let ln = a.find_by_name("last_name").unwrap();
        let ln2 = b.find_by_name("LastName").unwrap();
        assert!(cands.contains(ln.index(), ln2.index()));
        assert!(cands.len() <= a.len() * b.len());
    }

    #[test]
    fn acronym_key_blocks_coi_to_community_of_interest() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        // A tight threshold policy: only strong shared evidence survives;
        // the acronym key must be enough to rescue COI.
        let cands = inline_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::TopK {
                k: 1,
                min_weight: f64::INFINITY,
            },
        );
        let coi = a.find_by_name("COI").unwrap();
        let full = b.find_by_name("CommunityOfInterest").unwrap();
        assert!(cands.contains(coi.index(), full.index()));
    }

    #[test]
    fn exact_name_pairs_survive_any_cap() {
        // Dozens of elements all sharing the ubiquitous "identifier" token:
        // the IDF weight of the collision is tiny and the top-k cap is 1,
        // but the one *exactly equal* name must still be a candidate.
        let mut a = Schema::new(SchemaId(1), "A", SchemaFormat::Generic);
        let ra = a.add_root("Root", ElementKind::Group, DataType::None);
        a.add_child(ra, "identifier", ElementKind::Column, DataType::Integer)
            .unwrap();
        for i in 0..30 {
            a.add_child(
                ra,
                format!("thing_{i}_identifier"),
                ElementKind::Column,
                DataType::Integer,
            )
            .unwrap();
        }
        let mut b = Schema::new(SchemaId(2), "B", SchemaFormat::Generic);
        let rb = b.add_root("Base", ElementKind::Group, DataType::None);
        let target = b
            .add_child(rb, "identifier", ElementKind::Column, DataType::Integer)
            .unwrap();
        for i in 0..30 {
            b.add_child(
                rb,
                format!("item_{i}_identifier"),
                ElementKind::Column,
                DataType::Integer,
            )
            .unwrap();
        }
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = inline_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::TopK {
                k: 1,
                min_weight: f64::INFINITY,
            },
        );
        let source = a.find_by_name("identifier").unwrap();
        assert!(
            cands.contains(source.index(), target.index()),
            "exact-name pair must survive the cap"
        );
    }

    #[test]
    fn parents_of_candidates_are_candidates() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = inline_candidates(&a, &b, &pa, &pb, &BlockingPolicy::default());
        for s in 0..cands.rows() {
            for &t in cands.row(s) {
                let ps = a.elements()[s].parent;
                let pt = b.elements()[t as usize].parent;
                if let (Some(ps), Some(pt)) = (ps, pt) {
                    assert!(
                        cands.contains(ps.index(), pt.index()),
                        "parent of candidate ({s},{t}) missing"
                    );
                }
            }
        }
    }

    #[test]
    fn rectangle_is_the_id_product_closed_under_parenthood() {
        let (a, b) = fixture();
        let pid = a.find_by_name("person_id").unwrap();
        let member = a.find_by_name("member").unwrap();
        let last = b.find_by_name("LastName").unwrap();
        // Repeated ids collapse; both leaves' parent pairs join the set.
        let cands = CandidateSet::rectangle(&a, &b, &[member, pid, pid], &[last]);
        let got: Vec<(usize, usize)> = (0..cands.rows())
            .flat_map(|s| cands.row(s).iter().map(move |&t| (s, t as usize)))
            .collect();
        let parent = |s: &Schema, id: ElementId| s.element(id).parent.unwrap().index();
        let mut want = vec![
            (pid.index(), last.index()),
            (member.index(), last.index()),
            (parent(&a, pid), parent(&b, last)),
            (parent(&a, member), parent(&b, last)),
        ];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn exhaustive_policy_is_the_full_cross_product() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = inline_candidates(&a, &b, &pa, &pb, &BlockingPolicy::Exhaustive);
        assert_eq!(cands.len(), a.len() * b.len());
        assert!((cands.density() - 1.0).abs() < 1e-12);
        for s in 0..a.len() {
            assert_eq!(cands.row(s).len(), b.len());
        }
    }

    #[test]
    fn weighted_threshold_at_infinity_keeps_exactly_the_name_rescue_closure() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = inline_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::WeightedThreshold {
                min_weight: f64::INFINITY,
            },
        );
        // Probing keeps nothing at infinite weight; the candidate set is
        // exactly the exact-name rescue (equal normalized name tokens, e.g.
        // "last_name" ≡ "LastName") closed under parenthood.
        let mut expected: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for s in 0..a.len() {
            for t in 0..b.len() {
                if !pa.element(s).name_ids.is_empty()
                    && pa.element(s).name_ids == pb.element(t).name_ids
                {
                    let (mut sp, mut tp) = (Some(s), Some(t));
                    while let (Some(cs), Some(ct)) = (sp, tp) {
                        expected.insert((cs, ct));
                        sp = a.elements()[cs].parent.map(|p| p.index());
                        tp = b.elements()[ct].parent.map(|p| p.index());
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(usize, usize)> = (0..cands.rows())
            .flat_map(|s| cands.row(s).iter().map(move |&t| (s, t as usize)))
            .collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "fixture has exact-name pairs");
        assert!(cands.density() < 1.0, "still prunes almost everything");
    }

    /// On the fixture, in both directions and under each policy, pre-built
    /// indices and executor lanes yield the inline per-pair generation's
    /// set.
    #[test]
    fn csr_generation_matches_reference_on_fixture() {
        let (a, b) = fixture();
        let exec = Executor::new(3);
        for (s, t) in [(&a, &b), (&b, &a)] {
            let (ps, pt) = (prepared(s), prepared(t));
            let (is, it) = (ElementTokenIndex::build(&ps), ElementTokenIndex::build(&pt));
            for policy in [
                BlockingPolicy::default(),
                BlockingPolicy::TopK {
                    k: 2,
                    min_weight: 3.0,
                },
                BlockingPolicy::WeightedThreshold { min_weight: 2.0 },
                BlockingPolicy::Exhaustive,
            ] {
                let expect = inline_candidates(s, t, &ps, &pt, &policy);
                for indices in [None, Some((&is, &it))] {
                    let parallel =
                        generate_candidates(s, t, &ps, &pt, indices, &policy, Job::new(&exec, 3));
                    assert_eq!(parallel, expect, "CSR diverged under {policy:?}");
                }
            }
        }
    }

    #[test]
    fn top_k_ties_at_the_kth_weight_break_by_column() {
        // The probing element `shared_alpha` overlaps its exact namesake
        // most and four `shared_*` targets equally on `shared`, so with
        // k = 3 two of the four tied targets fit, chosen by column. The
        // other `shared_*` sources outrank `shared_alpha` in every tied
        // target's backward probe (same weight, lower column), so the
        // backward union adds nothing to its row.
        let mut a = Schema::new(SchemaId(1), "A", SchemaFormat::Generic);
        let ra = a.add_root("Root", ElementKind::Group, DataType::None);
        for name in [
            "shared_p",
            "shared_q",
            "shared_r",
            "shared_s",
            "shared_alpha",
        ] {
            a.add_child(ra, name, ElementKind::Column, DataType::Integer)
                .unwrap();
        }
        let mut b = Schema::new(SchemaId(2), "B", SchemaFormat::Generic);
        let rb = b.add_root("Base", ElementKind::Group, DataType::None);
        let mut tied = Vec::new();
        for name in ["shared_one", "shared_two", "shared_three", "shared_four"] {
            tied.push(
                b.add_child(rb, name, ElementKind::Column, DataType::Integer)
                    .unwrap(),
            );
        }
        let namesake = b
            .add_child(rb, "shared_alpha", ElementKind::Column, DataType::Integer)
            .unwrap();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let alpha = a.find_by_name("shared_alpha").unwrap();
        let index = ElementTokenIndex::build(&pb);
        let mut scratch = ProbeScratch::new(b.len());
        let exec = Executor::new(3);
        let every = BlockingPolicy::WeightedThreshold { min_weight: 0.0 };
        let touched = index
            .probe_row(pa.block_features_of(alpha.index()), &every, &mut scratch)
            .to_vec();
        let weight = |t: ElementId| touched.iter().find(|&&(c, _)| c == t.0).unwrap().1;
        let tie = weight(tied[0]);
        assert!(tied.iter().all(|&t| weight(t).to_bits() == tie.to_bits()));
        assert!(weight(namesake) > tie);

        // Threshold above everything (rank alone), and a threshold only the
        // namesake clears (one strong candidate, two weak slots).
        for min_weight in [f64::INFINITY, weight(namesake)] {
            let policy = BlockingPolicy::TopK { k: 3, min_weight };
            let kept: Vec<u32> = index
                .probe_row(pa.block_features_of(alpha.index()), &policy, &mut scratch)
                .iter()
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(kept, vec![tied[0].0, tied[1].0, namesake.0]);
            let inline = inline_candidates(&a, &b, &pa, &pb, &policy);
            let parallel = generate_candidates(&a, &b, &pa, &pb, None, &policy, Job::new(&exec, 3));
            assert_eq!(parallel, inline, "parallel generation diverged");
            assert_eq!(inline.row(alpha.index()), kept.as_slice());
        }
    }

    #[test]
    fn empty_sides_are_safe() {
        let (a, _) = fixture();
        let empty = Schema::new(SchemaId(9), "E", SchemaFormat::Generic);
        let (pa, pe) = (prepared(&a), prepared(&empty));
        let cands = inline_candidates(&a, &empty, &pa, &pe, &BlockingPolicy::default());
        assert!(cands.is_empty());
        assert_eq!(cands.rows(), a.len());
        assert_eq!(cands.cols(), 0);
    }
}
