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
//! downstream moves integers: a [`DocVector`] is a sorted `(rank, weight)`
//! slice where `rank` is a corpus-local dense index. Cosine is then a
//! branch-light merge walk over `u32`s — no hashing, no string compares in
//! the pair loop.
//!
//! Assembly builds no `HashMap` either. [`Corpus`] appends every
//! document's ids to one flat buffer. [`Corpus::finalize`] then makes three
//! passes:
//!
//! 1. every token gets a dense local term index from an open-addressed
//!    table over the corpus's own ids (sized by the distinct terms it
//!    holds, not by the arena), and document frequencies are counted per
//!    local term;
//! 2. only the joint vocabulary is sorted by string, giving each term its
//!    rank;
//! 3. each document's few ranks are sorted, and every run of one rank
//!    becomes a `(rank, tf)` pair and then a weight.
//!
//! Ranks are assigned in *lexicographic order of the resolved term strings*,
//! not in id order. This matters for determinism and for byte-compatibility
//! with the historical string-keyed implementation: float addition is not
//! associative, and the norm in [`Corpus::finalize`] (like the cosine dot
//! product) is summed in rank order, which this ordering makes identical to
//! the historical string-sorted summation. Identical documents therefore
//! produce bit-identical vectors and cosines across runs *and* across the
//! string→id migration.

use crate::intern::{TokenArena, TokenId};
use std::sync::Arc;

/// A term-frequency/inverse-document-frequency corpus.
///
/// Build it by [`Corpus::add_document`]-ing every element's token bag, then
/// [`Corpus::finalize`] to compute IDF weights and obtain [`DocVector`]s.
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

/// A sparse, L2-normalized TF-IDF vector for one document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocVector {
    /// Sorted `(corpus rank, weight)` pairs; weights L2-normalize to 1
    /// unless empty. Ranks order terms lexicographically within the corpus
    /// that produced the vector; vectors from different corpora are not
    /// comparable.
    weights: Vec<(u32, f64)>,
    /// Number of raw tokens in the source document (evidence size).
    pub token_count: usize,
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
    /// corpus's arena). This is the allocation-free path the match context
    /// uses: prepared schemata intern once, every per-pair corpus reuses the
    /// ids.
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

    /// Freeze the corpus and compute per-document TF-IDF vectors.
    pub fn finalize(self) -> FinalizedCorpus {
        let docs = self.ends.len();
        let n = docs.max(1) as f64;
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let spans: Vec<(usize, usize)> = starts.zip(self.ends.iter().copied()).collect();

        // Pass 1: a local term index per token, and df per local term (a
        // term counts once per document: `last_doc` remembers where it
        // was last counted).
        let mut terms = TermTable::default();
        let mut local: Vec<u32> = Vec::with_capacity(self.ids.len());
        let mut df: Vec<u32> = Vec::new();
        let mut last_doc: Vec<usize> = Vec::new();
        for (d, &(start, end)) in spans.iter().enumerate() {
            for &id in &self.ids[start..end] {
                let l = terms.get_or_insert(id, df.len() as u32);
                if l as usize == df.len() {
                    df.push(0);
                    last_doc.push(usize::MAX);
                }
                if last_doc[l as usize] != d {
                    last_doc[l as usize] = d;
                    df[l as usize] += 1;
                }
                local.push(l);
            }
        }

        // Pass 2: corpus-local ranks in lexicographic string order — the
        // one sort that keeps every later float summation (norms here,
        // dots in `cosine`) byte-identical to the historical string-keyed
        // implementation. The table's values become ranks.
        let mut vocab = terms.keys();
        self.arena.sort_lexical(&mut vocab);
        let mut rank_of_local = vec![0u32; vocab.len()];
        let mut idf = Vec::with_capacity(vocab.len());
        for (rank, &id) in vocab.iter().enumerate() {
            let l = terms.set(id, rank as u32);
            rank_of_local[l as usize] = rank as u32;
            // Smoothed IDF; never negative, never zero.
            idf.push(((n + 1.0) / (f64::from(df[l as usize]) + 1.0)).ln() + 1.0);
        }

        // Pass 3: each document's ranks, sorted; a run of one rank is that
        // term's tf. Weights come out in rank order, which is string order,
        // so the norm sums exactly as the historical implementation did.
        let mut ranks: Vec<u32> = Vec::new();
        let vectors = spans
            .iter()
            .map(|&(start, end)| {
                ranks.clear();
                ranks.extend(local[start..end].iter().map(|&l| rank_of_local[l as usize]));
                let weights = rank_runs(&mut ranks, |rank| idf[rank as usize]);
                DocVector {
                    weights,
                    token_count: end - start,
                }
            })
            .collect();
        FinalizedCorpus {
            table: IdfTable {
                arena: self.arena,
                docs,
                rank_of: terms,
                idf,
            },
            vectors,
        }
    }
}

/// Sort `ranks` and turn every run of one rank into its TF-IDF weight
/// `(1 + ln tf) · idf(rank)`, L2-normalized in rank order.
fn rank_runs(ranks: &mut [u32], idf: impl Fn(u32) -> f64) -> Vec<(u32, f64)> {
    ranks.sort_unstable();
    // Exact capacity: the vector lives as long as the match context.
    let terms = 1 + ranks.windows(2).filter(|w| w[0] != w[1]).count();
    let mut weights: Vec<(u32, f64)> = Vec::with_capacity(terms.min(ranks.len()));
    weights.extend(ranks.chunk_by(|a, b| a == b).map(|run| {
        let tf = u32::try_from(run.len()).expect("term frequency fits u32");
        (run[0], (1.0 + f64::from(tf).ln()) * idf(run[0]))
    }));
    normalize(&mut weights);
    weights
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

/// An open-addressed `TokenId → u32` table with linear probing, sized by
/// the distinct ids it holds (it doubles at half load), so a corpus over a
/// few hundred terms never touches memory proportional to the arena. Keys
/// are arena-assigned ids (dense, in first-intern order), not values input
/// can choose, so a multiplicative hash spreads them.
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

    /// Replace the value of a present `id`, returning the old one.
    fn set(&mut self, id: TokenId, value: u32) -> u32 {
        let i = self.slot(id.0);
        debug_assert_eq!(self.slots[i].0, id.0, "set on an absent id");
        std::mem::replace(&mut self.slots[i].1, value)
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

/// The frozen statistics of a finalized corpus — document count, ranks and
/// IDF per term — without its document vectors: what a holder that moved
/// the vectors out ([`FinalizedCorpus::into_parts`]) keeps to vectorize
/// further documents.
#[derive(Debug)]
pub struct IdfTable {
    arena: Arc<TokenArena>,
    /// Number of documents the corpus held.
    docs: usize,
    /// term id → rank.
    rank_of: TermTable,
    /// IDF per rank.
    idf: Vec<f64>,
}

impl IdfTable {
    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs
    }

    /// True when the corpus contained no documents.
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// Number of distinct terms across the corpus.
    pub fn vocab_len(&self) -> usize {
        self.idf.len()
    }

    /// IDF of a term (`None` for unseen terms).
    pub fn idf(&self, term: &str) -> Option<f64> {
        let id = self.arena.lookup(term)?;
        self.rank_of.get(id).map(|rank| self.idf[rank as usize])
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
        let vocab_len = u32::try_from(self.idf.len()).expect("vocab fits u32");
        let mut ranks: Vec<u32> = tokens
            .iter()
            .map(|t| {
                let id = self.arena.intern(t.as_ref());
                self.rank_of.get(id).unwrap_or_else(|| {
                    vocab_len
                        .checked_add(id.0)
                        .expect("pseudo-rank overflows u32")
                })
            })
            .collect();
        // Deterministic summation order, as in `Corpus::finalize` (unseen
        // pseudo-ranks order by token id rather than lexicographically —
        // deterministic, merely a different fixed order for the norm sum).
        let weights = rank_runs(&mut ranks, |rank| {
            self.idf.get(rank as usize).copied().unwrap_or(default_idf)
        });
        DocVector {
            weights,
            token_count: tokens.len(),
        }
    }
}

/// A finalized corpus: IDF table plus per-document vectors.
#[derive(Debug)]
pub struct FinalizedCorpus {
    table: IdfTable,
    vectors: Vec<DocVector>,
}

impl FinalizedCorpus {
    /// The vector of document `index` (as returned by `add_document`).
    pub fn vector(&self, index: usize) -> &DocVector {
        &self.vectors[index]
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
        self.table.vocab_len()
    }

    /// IDF of a term (`None` for unseen terms).
    pub fn idf(&self, term: &str) -> Option<f64> {
        self.table.idf(term)
    }

    /// Vectorize an out-of-corpus document; see [`IdfTable::vectorize`].
    pub fn vectorize<S: AsRef<str>>(&self, tokens: &[S]) -> DocVector {
        self.table.vectorize(tokens)
    }

    /// Split into the IDF table and the document vectors (in document
    /// order), so a holder can move the vectors out instead of cloning
    /// them and keep only the table.
    pub fn into_parts(self) -> (IdfTable, Vec<DocVector>) {
        (self.table, self.vectors)
    }
}

impl DocVector {
    /// Cosine similarity with another vector, in `[0, 1]` (vectors are
    /// non-negative). Empty vectors have similarity 0 with everything. Both
    /// vectors must come from the same corpus (ranks are corpus-local).
    pub fn cosine(&self, other: &DocVector) -> f64 {
        // Sorted-merge dot product over sparse vectors — a pure integer
        // merge walk; rank order is string order, so the summation order
        // matches the historical string-keyed implementation exactly.
        let (mut i, mut j) = (0usize, 0usize);
        let mut dot = 0.0;
        while i < self.weights.len() && j < other.weights.len() {
            match self.weights[i].0.cmp(&other.weights[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.weights[i].1 * other.weights[j].1;
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
    pub fn append_top_squared_prefix(&self, out: &mut Vec<f64>) {
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

    /// The sorted `(corpus rank, weight)` pairs.
    pub fn weights(&self) -> &[(u32, f64)] {
        &self.weights
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.weights.len()
    }

    /// True when the vector has no terms.
    pub fn is_empty(&self) -> bool {
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
        assert!(v.cosine(f.vector(a)) > 0.5);
        // Unseen terms get max IDF, not a panic.
        let w = f.vectorize(&toks("zebra"));
        assert_eq!(w.term_count(), 1);
        assert_eq!(w.cosine(f.vector(a)), 0.0);
    }

    #[test]
    fn separately_vectorized_documents_agree_on_unseen_terms() {
        let mut c = Corpus::new();
        c.add_document(&toks("date event began"));
        let f = c.finalize();
        // Distinct unseen terms must never collide, within or across calls.
        let zebra = f.vectorize(&toks("zebra"));
        let yak = f.vectorize(&toks("yak"));
        assert_eq!(zebra.cosine(&yak), 0.0, "distinct unseen terms collided");
        // A shared unseen term must still match across calls, as the
        // string-keyed implementation guaranteed.
        let zebra2 = f.vectorize(&toks("zebra stripe"));
        assert!(zebra.cosine(&zebra2) > 0.0, "shared unseen term lost");
        // Mixed seen + unseen keeps seen overlap intact.
        let q1 = f.vectorize(&toks("date quagga"));
        let q2 = f.vectorize(&toks("date okapi"));
        let both = q1.cosine(&q2);
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
