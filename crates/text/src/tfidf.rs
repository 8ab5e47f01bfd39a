//! TF-IDF vector-space model over documentation text.
//!
//! Harmony's documentation voter compares the documentation of a source and
//! target element. Raw token overlap over-weights ubiquitous words ("code",
//! "number"); TF-IDF down-weights them using corpus statistics gathered from
//! *both* schemata being matched.
//!
//! ## Interned representation
//!
//! Terms are interned through a [`TokenArena`] on the way in, and everything
//! downstream moves integers: a document vector ([`DocView`]) is a sorted
//! `(rank, weight)` slice where `rank` is a corpus-local dense index.
//! Cosine is then a branch-light merge walk over `u32`s — no hashing, no
//! string compares in the pair loop.
//!
//! ## Assembly
//!
//! A corpus is assembled from [`Vocabulary`]s, one per group of documents.
//! The match engine keeps one per prepared schema and merges the two of a
//! match pair, so the per-schema work is done once, however many pairs the
//! schema takes part in.
//!
//! [`Vocabulary::build`] makes three passes over its documents:
//!
//! 1. every token gets a dense local term index from an open-addressed
//!    table over the documents' own ids (sized by the distinct terms they
//!    hold, not by the arena), and document frequencies are counted per
//!    local term;
//! 2. only the distinct terms are sorted by string, giving each term its
//!    local rank;
//! 3. each document's few local ranks are sorted, and every run of one
//!    rank becomes a `(local rank, tf)` pair.
//!
//! [`Vocabulary::merge`] then assembles the corpus of two vocabularies'
//! documents, the left one's first, in one linear pass over the two term
//! lists. Equal ids are the same term, whose document frequency is the sum
//! of the two sides'; unequal ids are ordered by string, under one arena
//! read lock. Each side's local ranks map to corpus ranks in order, so every
//! document's runs stay sorted: the merge needs no hash table, no
//! vocabulary sort and no per-document sort. The weights of every document
//! go into one flat buffer ([`DocVectors`]). [`Corpus::finalize`] is the
//! one-sided case: the vocabulary of all its documents merged with an empty
//! one.
//!
//! Ranks are assigned in *lexicographic order of the resolved term strings*,
//! not in id order. This matters for determinism and for byte-compatibility
//! with the historical string-keyed implementation: float addition is not
//! associative, and each document's norm (like the cosine dot product) is
//! summed in rank order, which this ordering makes identical to the
//! historical string-sorted summation. Identical documents therefore
//! produce bit-identical vectors and cosines across runs, across the
//! string→id migration, and whichever way the documents were split into
//! vocabularies.

use crate::intern::{TokenArena, TokenId};
use std::cmp::Ordering;
use std::sync::Arc;

/// A term-frequency/inverse-document-frequency corpus.
///
/// Build it by [`Corpus::add_document`]-ing every element's token bag, then
/// [`Corpus::finalize`] to compute IDF weights and obtain the document
/// vectors.
#[derive(Debug)]
pub struct Corpus {
    arena: Arc<TokenArena>,
    /// Every document's token ids, back to back.
    ids: Vec<TokenId>,
    /// Document `d` is `ids[ends[d - 1]..ends[d]]` (from 0 for `d = 0`).
    ends: Vec<usize>,
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new()
    }
}

/// A sparse, L2-normalized TF-IDF vector for one document, owned: what
/// [`FinalizedCorpus::vectorize`] returns for a document outside the corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocVector {
    /// Sorted `(rank, weight)` pairs (see [`DocView::weights`]).
    weights: Vec<(u32, f64)>,
    /// Number of raw tokens in the source document (evidence size).
    pub token_count: usize,
}

/// A sparse, L2-normalized TF-IDF vector for one document, borrowed from
/// the [`DocVectors`] of its corpus or from a [`DocVector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocView<'a> {
    weights: &'a [(u32, f64)],
    /// Number of raw tokens in the source document (evidence size).
    pub token_count: usize,
}

/// Every document vector of one corpus in one flat buffer, in document
/// order.
#[derive(Debug)]
pub struct DocVectors {
    /// Every document's `(rank, weight)` pairs, back to back.
    weights: Vec<(u32, f64)>,
    /// Document `d`'s pairs are `weights[bounds[d]..bounds[d + 1]]`.
    bounds: Vec<u32>,
    /// Raw tokens per document.
    tokens: Vec<u32>,
}

/// The corpus statistics of one group of documents, ready to be merged with
/// another group's into a pair corpus ([`Vocabulary::merge`]; see the module
/// docs).
#[derive(Debug, Default)]
pub struct Vocabulary {
    /// The distinct terms, in lexical string order: local rank `r` is
    /// `terms[r]`.
    terms: Vec<TokenId>,
    /// Documents holding each term, by local rank.
    df: Vec<u32>,
    /// Every document's `(local rank, tf)` runs, ranks ascending, back to
    /// back.
    runs: Vec<(u32, u32)>,
    /// Per document: the end of its runs in `runs`, and its raw token count.
    docs: Vec<(u32, u32)>,
}

/// A per-corpus count or offset as `u32`: the ranks and offsets of a
/// corpus's vectors are `u32`s.
fn count(n: usize) -> u32 {
    u32::try_from(n).expect("corpus counts fit in u32")
}

/// Smoothed IDF of a term in `df` of `n` documents; never negative, never
/// zero.
fn idf_weight(n: f64, df: u32) -> f64 {
    ((n + 1.0) / (f64::from(df) + 1.0)).ln() + 1.0
}

/// The TF-IDF weight of a term `tf` times in a document.
fn tf_idf(tf: u32, idf: f64) -> f64 {
    (1.0 + f64::from(tf).ln()) * idf
}

/// Sort `ranks`; every run of one rank is a `(rank, tf)` pair.
fn rank_runs(ranks: &mut [u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    ranks.sort_unstable();
    ranks
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], count(run.len())))
}

/// L2-normalize in slice order (callers sort first for determinism).
fn normalize(weights: &mut [(u32, f64)]) {
    let norm = weights.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if norm > 0.0 {
        for (_, w) in weights.iter_mut() {
            *w /= norm;
        }
    }
}

impl Corpus {
    /// Empty corpus interning through the process-wide [`TokenArena`].
    pub fn new() -> Self {
        Corpus::with_arena(Arc::clone(TokenArena::global()))
    }

    /// Empty corpus interning through an explicit arena.
    pub fn with_arena(arena: Arc<TokenArena>) -> Self {
        Corpus {
            arena,
            ids: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Add a document given its (already normalized) tokens. Returns the
    /// document's index, which [`FinalizedCorpus::vector`] accepts after
    /// [`Corpus::finalize`] (which consumes the corpus, so the index set is
    /// fixed by construction).
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) -> usize {
        let ids: Vec<TokenId> = tokens
            .iter()
            .map(|t| self.arena.intern(t.as_ref()))
            .collect();
        self.add_document_ids(&ids)
    }

    /// Add a document given already-interned tokens (ids must come from this
    /// corpus's arena).
    pub fn add_document_ids(&mut self, ids: &[TokenId]) -> usize {
        self.ids.extend_from_slice(ids);
        self.ends.push(self.ids.len());
        self.ends.len() - 1
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no documents were added.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Freeze the corpus and compute per-document TF-IDF vectors: the
    /// vocabulary of every document, merged with an empty one.
    pub fn finalize(self) -> FinalizedCorpus {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let documents = starts
            .zip(self.ends.iter().copied())
            .map(|(start, end)| &self.ids[start..end]);
        Vocabulary::build(&self.arena, documents).merge(&Vocabulary::default(), &self.arena)
    }
}

impl Vocabulary {
    /// The vocabulary of `documents`, whose ids point into `arena` (see the
    /// module docs for the three passes).
    pub fn build<'d>(
        arena: &TokenArena,
        documents: impl IntoIterator<Item = &'d [TokenId]>,
    ) -> Self {
        // Pass 1: a local term index per token, and df per local term (a
        // term counts once per document: `last_doc` remembers where it
        // was last counted).
        let mut table = TermTable::default();
        let mut local: Vec<u32> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let mut local_df: Vec<u32> = Vec::new();
        let mut last_doc: Vec<usize> = Vec::new();
        for (d, document) in documents.into_iter().enumerate() {
            for &id in document {
                let l = table.get_or_insert(id, count(local_df.len()));
                if l as usize == local_df.len() {
                    local_df.push(0);
                    last_doc.push(usize::MAX);
                }
                if last_doc[l as usize] != d {
                    last_doc[l as usize] = d;
                    local_df[l as usize] += 1;
                }
                local.push(l);
            }
            ends.push(local.len());
        }

        // Pass 2: local ranks in lexicographic string order — the one sort
        // that keeps every later float summation (norms, dots in `cosine`)
        // byte-identical to the historical string-keyed implementation.
        let mut terms = table.keys();
        arena.sort_lexical(&mut terms);
        let mut rank_of_local = vec![0u32; terms.len()];
        let df = terms
            .iter()
            .enumerate()
            .map(|(rank, &id)| {
                let l = table.get(id).expect("every sorted term is in the table") as usize;
                rank_of_local[l] = count(rank);
                local_df[l]
            })
            .collect();

        // Pass 3: each document's ranks, sorted; a run of one rank is that
        // term's tf.
        let mut runs = Vec::with_capacity(local.len());
        let mut docs = Vec::with_capacity(ends.len());
        let mut ranks: Vec<u32> = Vec::new();
        let mut start = 0;
        for end in ends {
            ranks.clear();
            ranks.extend(local[start..end].iter().map(|&l| rank_of_local[l as usize]));
            runs.extend(rank_runs(&mut ranks));
            docs.push((count(runs.len()), count(end - start)));
            start = end;
        }
        Vocabulary {
            terms,
            df,
            runs,
            docs,
        }
    }

    /// Heap bytes of the vocabulary's contents.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.terms[..])
            + std::mem::size_of_val(&self.df[..])
            + std::mem::size_of_val(&self.runs[..])
            + std::mem::size_of_val(&self.docs[..])
    }

    /// [`Self::heap_bytes`] of the vocabulary of `documents` documents
    /// holding `tokens` tokens in all, before it is built: an upper bound,
    /// exact when no term occurs twice (each token is then its own term and
    /// its own run).
    pub fn estimate_bytes(documents: usize, tokens: usize) -> usize {
        use std::mem::size_of;
        tokens * (size_of::<TokenId>() + size_of::<u32>() + size_of::<(u32, u32)>())
            + documents * size_of::<(u32, u32)>()
    }

    /// The corpus of `self`'s documents followed by `other`'s, both built
    /// over `arena`, bit for bit the [`Corpus::finalize`] of those documents
    /// (see the module docs).
    pub fn merge(&self, other: &Vocabulary, arena: &Arc<TokenArena>) -> FinalizedCorpus {
        let n = (self.docs.len() + other.docs.len()).max(1) as f64;
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let mut idf = Vec::with_capacity(terms.capacity());
        let mut left_rank = Vec::with_capacity(self.terms.len());
        let mut right_rank = Vec::with_capacity(other.terms.len());
        let (left, right) = (&self.terms, &other.terms);
        arena.with_lexical_order(|lexical| {
            let (mut i, mut j) = (0, 0);
            loop {
                let order = match (left.get(i), right.get(j)) {
                    (Some(a), Some(b)) if a == b => Ordering::Equal,
                    (Some(&a), Some(&b)) => lexical(a, b),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => break,
                };
                let rank = count(terms.len());
                let df = match order {
                    Ordering::Less => {
                        left_rank.push(rank);
                        terms.push(left[i]);
                        i += 1;
                        self.df[i - 1]
                    }
                    Ordering::Greater => {
                        right_rank.push(rank);
                        terms.push(right[j]);
                        j += 1;
                        other.df[j - 1]
                    }
                    Ordering::Equal => {
                        left_rank.push(rank);
                        right_rank.push(rank);
                        terms.push(left[i]);
                        i += 1;
                        j += 1;
                        self.df[i - 1] + other.df[j - 1]
                    }
                };
                idf.push(idf_weight(n, df));
            }
        });

        let documents = self.docs.len() + other.docs.len();
        let mut vectors = DocVectors {
            weights: Vec::with_capacity(self.runs.len() + other.runs.len()),
            bounds: Vec::with_capacity(documents + 1),
            tokens: Vec::with_capacity(documents),
        };
        vectors.bounds.push(0);
        for (side, ranks) in [(self, &left_rank), (other, &right_rank)] {
            let mut start = 0;
            for &(end, tokens) in &side.docs {
                let from = vectors.weights.len();
                vectors
                    .weights
                    .extend(side.runs[start..end as usize].iter().map(|&(local, tf)| {
                        let rank = ranks[local as usize];
                        (rank, tf_idf(tf, idf[rank as usize]))
                    }));
                normalize(&mut vectors.weights[from..]);
                vectors.bounds.push(count(vectors.weights.len()));
                vectors.tokens.push(tokens);
                start = end as usize;
            }
        }
        FinalizedCorpus {
            arena: Arc::clone(arena),
            terms,
            idf,
            vectors,
        }
    }
}

/// An open-addressed `TokenId → u32` table with linear probing, sized by
/// the distinct ids it holds (it doubles at half load), so a vocabulary
/// over a few hundred terms never touches memory proportional to the
/// arena. Keys are arena-assigned ids (dense, in first-intern order), not
/// values input can choose, so a multiplicative hash spreads them.
#[derive(Debug, Clone)]
struct TermTable {
    /// `(id, value)` slots, a power of two of them; `EMPTY` ids are free.
    slots: Vec<(u32, u32)>,
    /// `32 − log2(slots.len())`: Fibonacci hashing keeps the top bits.
    shift: u32,
    len: usize,
}

impl Default for TermTable {
    fn default() -> Self {
        TermTable::with_slots(64)
    }
}

impl TermTable {
    const EMPTY: u32 = u32::MAX;

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        TermTable {
            slots: vec![(Self::EMPTY, 0); slots],
            shift: 32 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// The slot `id` occupies, or the free slot where it belongs.
    #[inline]
    fn slot(&self, id: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (id.wrapping_mul(0x9E37_79B9) >> self.shift) as usize;
        while self.slots[i].0 != id && self.slots[i].0 != Self::EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The value of `id`, inserting `value` when absent.
    #[inline]
    fn get_or_insert(&mut self, id: TokenId, value: u32) -> u32 {
        assert_ne!(id.0, Self::EMPTY, "token id collides with the empty slot");
        let i = self.slot(id.0);
        if self.slots[i].0 == id.0 {
            return self.slots[i].1;
        }
        self.slots[i] = (id.0, value);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let mut grown = TermTable::with_slots(self.slots.len() * 2);
            for &(key, v) in self.slots.iter().filter(|&&(key, _)| key != Self::EMPTY) {
                let j = grown.slot(key);
                grown.slots[j] = (key, v);
            }
            grown.len = self.len;
            *self = grown;
        }
        value
    }

    /// The value of `id`, if present.
    #[inline]
    fn get(&self, id: TokenId) -> Option<u32> {
        let slot = self.slots[self.slot(id.0)];
        (slot.0 == id.0).then_some(slot.1)
    }

    /// Every key, in slot order.
    fn keys(&self) -> Vec<TokenId> {
        self.slots
            .iter()
            .filter(|&&(key, _)| key != Self::EMPTY)
            .map(|&(key, _)| TokenId(key))
            .collect()
    }
}

/// A finalized corpus: its terms with their IDF, and its document vectors.
#[derive(Debug)]
pub struct FinalizedCorpus {
    arena: Arc<TokenArena>,
    /// The terms in rank order, which is lexical string order.
    terms: Vec<TokenId>,
    /// IDF per rank.
    idf: Vec<f64>,
    vectors: DocVectors,
}

impl FinalizedCorpus {
    /// The vector of document `index` (as returned by `add_document`).
    pub fn vector(&self, index: usize) -> DocView<'_> {
        self.vectors.get(index)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the corpus contains no documents.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Number of distinct terms across the corpus.
    pub fn vocab_len(&self) -> usize {
        self.terms.len()
    }

    /// The ranks of interned terms, `None` for a term outside the corpus.
    fn ranks(&self, ids: &[TokenId]) -> Vec<Option<u32>> {
        self.arena.with_lexical_order(|lexical| {
            ids.iter()
                .map(|&id| {
                    let rank = self.terms.binary_search_by(|&term| lexical(term, id));
                    rank.ok().map(count)
                })
                .collect()
        })
    }

    /// IDF of a term (`None` for unseen terms).
    pub fn idf(&self, term: &str) -> Option<f64> {
        let id = self.arena.lookup(term)?;
        self.ranks(&[id])[0].map(|rank| self.idf[rank as usize])
    }

    /// Vectorize an out-of-corpus document against the frozen IDF table.
    /// Unseen terms receive the maximum default IDF (they are maximally
    /// discriminating within this corpus) and the pseudo-rank
    /// `vocab_len + token_id` — a stable function of the *term*, so two
    /// separately vectorized documents agree on unseen terms exactly as the
    /// string-keyed implementation did (shared unseen term ⇒ shared rank;
    /// distinct unseen terms can never collide, in this call or across
    /// calls) while staying above every in-corpus rank. Query tokens are
    /// interned into the corpus's arena on the way in, the same append-only
    /// codebook growth `add_document` exhibits.
    pub fn vectorize<S: AsRef<str>>(&self, tokens: &[S]) -> DocVector {
        let default_idf = self.idf.iter().fold(1.0_f64, |acc, &v| acc.max(v));
        let vocab_len = count(self.idf.len());
        let ids = self.arena.intern_all(tokens);
        let mut ranks: Vec<u32> = self
            .ranks(&ids)
            .into_iter()
            .zip(&ids)
            .map(|(rank, id)| {
                rank.unwrap_or_else(|| {
                    vocab_len
                        .checked_add(id.0)
                        .expect("pseudo-rank overflows u32")
                })
            })
            .collect();
        // Deterministic summation order, as in the corpus's own vectors
        // (unseen pseudo-ranks order by token id rather than
        // lexicographically — deterministic, merely a different fixed order
        // for the norm sum).
        let mut weights: Vec<(u32, f64)> = rank_runs(&mut ranks)
            .map(|(rank, tf)| {
                let idf = self.idf.get(rank as usize).copied();
                (rank, tf_idf(tf, idf.unwrap_or(default_idf)))
            })
            .collect();
        normalize(&mut weights);
        DocVector {
            weights,
            token_count: tokens.len(),
        }
    }

    /// The document vectors alone, for a holder that needs no IDF lookups.
    pub fn into_vectors(self) -> DocVectors {
        self.vectors
    }
}

impl DocVectors {
    /// The vector of document `index`.
    #[inline]
    pub fn get(&self, index: usize) -> DocView<'_> {
        DocView {
            weights: &self.weights[self.bounds[index] as usize..self.bounds[index + 1] as usize],
            token_count: self.tokens[index] as usize,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when there are no documents.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

impl DocVector {
    /// The vector as a [`DocView`].
    pub fn view(&self) -> DocView<'_> {
        DocView {
            weights: &self.weights,
            token_count: self.token_count,
        }
    }
}

impl<'a> DocView<'a> {
    /// Cosine similarity with another vector, in `[0, 1]` (vectors are
    /// non-negative). Empty vectors have similarity 0 with everything. Both
    /// vectors must come from the same corpus (ranks are corpus-local).
    pub fn cosine(self, other: DocView<'_>) -> f64 {
        // Sorted-merge dot product over sparse vectors — a pure integer
        // merge walk; rank order is string order, so the summation order
        // matches the historical string-keyed implementation exactly.
        let (a, b) = (self.weights, other.weights);
        let (mut i, mut j) = (0usize, 0usize);
        let mut dot = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        dot.clamp(0.0, 1.0)
    }

    /// Append the prefix sums of the squared weights in *descending* weight
    /// order to `out`: `term_count() + 1` entries, entry `i` the sum of the
    /// `i` largest squared weights (entry 0 is 0). By Cauchy-Schwarz, the
    /// dot product of two vectors that can share at most `k` terms is
    /// bounded by `sqrt(prefix_a[k] * prefix_b[k])` — the cap the score
    /// cascade combines with the corpus-id signature bound to skip
    /// documentation cosines that provably cannot matter. Appending lets a
    /// match context keep every element's prefix in one flat buffer.
    pub fn append_top_squared_prefix(self, out: &mut Vec<f64>) {
        let start = out.len();
        out.push(0.0);
        out.extend(self.weights.iter().map(|&(_, w)| w * w));
        let sq = &mut out[start + 1..];
        sq.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
        let mut acc = 0.0;
        for w in sq {
            acc += *w;
            *w = acc;
        }
    }

    /// The sorted `(corpus rank, weight)` pairs; weights L2-normalize to 1
    /// unless empty. Ranks order terms lexicographically within the corpus
    /// that produced the vector; vectors from different corpora are not
    /// comparable.
    pub fn weights(self) -> &'a [(u32, f64)] {
        self.weights
    }

    /// Number of distinct terms.
    pub fn term_count(self) -> usize {
        self.weights.len()
    }

    /// True when the vector has no terms.
    pub fn is_empty(self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn identical_documents_have_cosine_one() {
        let mut c = Corpus::new();
        let a = c.add_document(&toks("date event began"));
        let b = c.add_document(&toks("date event began"));
        c.add_document(&toks("vehicle wheel size"));
        let f = c.finalize();
        assert!((f.vector(a).cosine(f.vector(b)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_documents_have_cosine_zero() {
        let mut c = Corpus::new();
        let a = c.add_document(&toks("date event"));
        let b = c.add_document(&toks("vehicle wheel"));
        let f = c.finalize();
        assert_eq!(f.vector(a).cosine(f.vector(b)), 0.0);
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let mut c = Corpus::new();
        // "code" appears everywhere; "latitude" in two documents only.
        let q = c.add_document(&toks("latitude code"));
        let rare_match = c.add_document(&toks("latitude code"));
        let common_match = c.add_document(&toks("code status"));
        for _ in 0..20 {
            c.add_document(&toks("code something"));
        }
        let f = c.finalize();
        let to_rare = f.vector(q).cosine(f.vector(rare_match));
        let to_common = f.vector(q).cosine(f.vector(common_match));
        assert!(
            to_rare > to_common,
            "rare-term match {to_rare} should beat common-term match {to_common}"
        );
    }

    #[test]
    fn empty_document_is_orthogonal() {
        let mut c = Corpus::new();
        let e = c.add_document::<&str>(&[]);
        let a = c.add_document(&toks("date"));
        let f = c.finalize();
        assert_eq!(f.vector(e).cosine(f.vector(a)), 0.0);
        assert!(f.vector(e).is_empty());
        assert_eq!(f.vector(e).token_count, 0);
    }

    #[test]
    fn vectorize_out_of_corpus() {
        let mut c = Corpus::new();
        let a = c.add_document(&toks("date event began"));
        let f = c.finalize();
        let v = f.vectorize(&toks("date event"));
        assert!(v.view().cosine(f.vector(a)) > 0.5);
        // Unseen terms get max IDF, not a panic.
        let w = f.vectorize(&toks("zebra"));
        assert_eq!(w.view().term_count(), 1);
        assert_eq!(w.view().cosine(f.vector(a)), 0.0);
    }

    #[test]
    fn separately_vectorized_documents_agree_on_unseen_terms() {
        let mut c = Corpus::new();
        c.add_document(&toks("date event began"));
        let f = c.finalize();
        // Distinct unseen terms must never collide, within or across calls.
        let zebra = f.vectorize(&toks("zebra"));
        let yak = f.vectorize(&toks("yak"));
        assert_eq!(
            zebra.view().cosine(yak.view()),
            0.0,
            "distinct unseen terms collided"
        );
        // A shared unseen term must still match across calls, as the
        // string-keyed implementation guaranteed.
        let zebra2 = f.vectorize(&toks("zebra stripe"));
        assert!(
            zebra.view().cosine(zebra2.view()) > 0.0,
            "shared unseen term lost"
        );
        // Mixed seen + unseen keeps seen overlap intact.
        let q1 = f.vectorize(&toks("date quagga"));
        let q2 = f.vectorize(&toks("date okapi"));
        let both = q1.view().cosine(q2.view());
        assert!(
            both > 0.0 && both < 1.0,
            "seen-term overlap mangled: {both}"
        );
    }

    #[test]
    fn cosine_bounded_and_symmetric() {
        let mut c = Corpus::new();
        let a = c.add_document(&toks("alpha beta gamma beta"));
        let b = c.add_document(&toks("beta delta"));
        let f = c.finalize();
        let ab = f.vector(a).cosine(f.vector(b));
        let ba = f.vector(b).cosine(f.vector(a));
        assert!((0.0..=1.0).contains(&ab));
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn token_count_tracks_evidence() {
        let mut c = Corpus::new();
        let a = c.add_document(&toks("a b c a"));
        let f = c.finalize();
        assert_eq!(f.vector(a).token_count, 4);
        assert_eq!(f.vector(a).term_count(), 3);
    }

    #[test]
    fn appended_squared_prefix_bounds_cosine() {
        let mut c = Corpus::new();
        let docs = [
            toks("date event began code"),
            toks("date event"),
            toks("vehicle wheel code code size"),
            toks(""),
        ];
        let idx: Vec<usize> = docs.iter().map(|d| c.add_document(d)).collect();
        let f = c.finalize();
        for &i in &idx {
            for &j in &idx {
                let (a, b) = (f.vector(i), f.vector(j));
                let (mut pa, mut pb) = (vec![7.0], vec![7.0]);
                a.append_top_squared_prefix(&mut pa);
                b.append_top_squared_prefix(&mut pb);
                // Appending keeps what was already there.
                let (pa, pb) = (&pa[1..], &pb[1..]);
                assert_eq!(pa.len(), a.term_count() + 1);
                // With k = min(term counts) shared terms allowed, the
                // Cauchy-Schwarz cap must dominate the true cosine.
                let k = a.term_count().min(b.term_count());
                let cap = (pa[k] * pb[k]).sqrt();
                assert!(
                    cap >= a.cosine(b) - 1e-12,
                    "cap {cap} under-estimates cosine {} for docs {i},{j}",
                    a.cosine(b)
                );
                // Zero shared terms caps the dot at exactly zero.
                assert_eq!((pa[0] * pb[0]).sqrt(), 0.0);
            }
        }
    }

    #[test]
    fn idf_lookup() {
        let mut c = Corpus::new();
        c.add_document(&toks("common rare"));
        c.add_document(&toks("common"));
        let f = c.finalize();
        assert!(f.idf("rare").unwrap() > f.idf("common").unwrap());
        assert!(f.idf("zz-never-interned-term").is_none());
    }

    #[test]
    fn interned_documents_match_string_documents() {
        // The id path and the string path must build identical corpora.
        let arena = Arc::new(TokenArena::new());
        let mut by_string = Corpus::with_arena(Arc::clone(&arena));
        let mut by_id = Corpus::with_arena(Arc::clone(&arena));
        let docs = ["date event began", "event location", "date event"];
        for d in docs {
            by_string.add_document(&toks(d));
            let ids = arena.intern_all(&toks(d));
            by_id.add_document_ids(&ids);
        }
        let fs = by_string.finalize();
        let fi = by_id.finalize();
        for i in 0..docs.len() {
            assert_eq!(fs.vector(i), fi.vector(i));
            for j in 0..docs.len() {
                assert_eq!(
                    fs.vector(i).cosine(fs.vector(j)),
                    fi.vector(i).cosine(fi.vector(j)),
                );
            }
        }
    }

    #[test]
    fn ranks_follow_string_order_regardless_of_intern_order() {
        // Intern in reverse-lexicographic order; ranks must still sort the
        // vocabulary lexicographically (the byte-compat invariant).
        let arena = Arc::new(TokenArena::new());
        arena.intern("zulu");
        arena.intern("alpha");
        let mut c = Corpus::with_arena(Arc::clone(&arena));
        let d = c.add_document(&["zulu", "alpha"]);
        let f = c.finalize();
        let v = f.vector(d);
        // Both terms have identical weight here; the rank of "alpha" (0)
        // must precede the rank of "zulu" (1).
        assert_eq!(v.weights.len(), 2);
        assert!(v.weights[0].0 < v.weights[1].0);
        assert_eq!(f.vocab_len(), 2);
    }
}
