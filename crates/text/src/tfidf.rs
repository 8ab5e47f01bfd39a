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
//! downstream moves integers: document frequencies are keyed by [`TokenId`],
//! and a [`DocVector`] is a sorted `(rank, weight)` slice where `rank` is a
//! corpus-local dense index. Cosine is then a branch-light merge walk over
//! `u32`s — no hashing, no string compares in the pair loop.
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
use std::collections::HashMap;
use std::sync::Arc;

/// A term-frequency/inverse-document-frequency corpus.
///
/// Build it by [`Corpus::add_document`]-ing every element's token bag, then
/// [`Corpus::finalize`] to compute IDF weights and obtain [`DocVector`]s.
#[derive(Debug)]
pub struct Corpus {
    arena: Arc<TokenArena>,
    /// term id → document frequency.
    doc_freq: HashMap<TokenId, u32>,
    /// Raw documents (term counts), retained until finalize.
    documents: Vec<HashMap<TokenId, u32>>,
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
            doc_freq: HashMap::new(),
            documents: Vec::new(),
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
        let mut counts: HashMap<TokenId, u32> = HashMap::with_capacity(ids.len());
        for &id in ids {
            *counts.entry(id).or_insert(0) += 1;
        }
        for &term in counts.keys() {
            *self.doc_freq.entry(term).or_insert(0) += 1;
        }
        self.documents.push(counts);
        self.documents.len() - 1
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when no documents were added.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Freeze the corpus and compute per-document TF-IDF vectors.
    pub fn finalize(self) -> FinalizedCorpus {
        let n = self.documents.len().max(1) as f64;
        // Corpus-local ranks in lexicographic string order: the one sort that
        // keeps every later float summation (norms here, dots in `cosine`)
        // byte-identical to the historical string-keyed implementation.
        let mut vocab: Vec<TokenId> = self.doc_freq.keys().copied().collect();
        self.arena.sort_lexical(&mut vocab);
        let rank_of: HashMap<TokenId, u32> = vocab
            .iter()
            .enumerate()
            .map(|(rank, &id)| (id, rank as u32))
            .collect();
        let idf: Vec<f64> = vocab
            .iter()
            .map(|id| {
                let df = self.doc_freq[id];
                // Smoothed IDF; never negative, never zero.
                ((n + 1.0) / (f64::from(df) + 1.0)).ln() + 1.0
            })
            .collect();
        let vectors: Vec<DocVector> = self
            .documents
            .iter()
            .map(|counts| {
                let token_count = counts.values().map(|&c| c as usize).sum();
                let mut weights: Vec<(u32, f64)> = counts
                    .iter()
                    .map(|(term, &tf)| {
                        let rank = rank_of[term];
                        let w = (1.0 + f64::from(tf).ln()) * idf[rank as usize];
                        (rank, w)
                    })
                    .collect();
                // Sort *before* the norm so the float summation order is
                // deterministic (HashMap iteration order is not): rank order
                // is string order, so identical documents produce
                // bit-identical vectors across runs and representations.
                weights.sort_unstable_by_key(|&(rank, _)| rank);
                normalize(&mut weights);
                DocVector {
                    weights,
                    token_count,
                }
            })
            .collect();
        FinalizedCorpus {
            arena: self.arena,
            vocab,
            rank_of,
            idf,
            vectors,
        }
    }
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

/// A finalized corpus: IDF table plus per-document vectors.
#[derive(Debug)]
pub struct FinalizedCorpus {
    arena: Arc<TokenArena>,
    /// rank → term id, lexicographically ordered by resolved string.
    vocab: Vec<TokenId>,
    /// term id → rank.
    rank_of: HashMap<TokenId, u32>,
    /// IDF per rank.
    idf: Vec<f64>,
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
        self.vocab.len()
    }

    /// IDF of a term (`None` for unseen terms).
    pub fn idf(&self, term: &str) -> Option<f64> {
        let id = self.arena.lookup(term)?;
        self.rank_of.get(&id).map(|&rank| self.idf[rank as usize])
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
        let mut counts: HashMap<TokenId, u32> = HashMap::with_capacity(tokens.len());
        for t in tokens {
            *counts.entry(self.arena.intern(t.as_ref())).or_insert(0) += 1;
        }
        let token_count = tokens.len();
        let vocab_len = u32::try_from(self.vocab.len()).expect("vocab fits u32");
        let mut weights: Vec<(u32, f64)> = counts
            .iter()
            .map(|(term, &tf)| {
                let (rank, idf) = match self.rank_of.get(term) {
                    Some(&rank) => (rank, self.idf[rank as usize]),
                    None => (
                        vocab_len
                            .checked_add(term.0)
                            .expect("pseudo-rank overflows u32"),
                        default_idf,
                    ),
                };
                (rank, (1.0 + f64::from(tf).ln()) * idf)
            })
            .collect();
        // Deterministic summation order, as in `Corpus::finalize` (unseen
        // pseudo-ranks order by token id rather than lexicographically —
        // deterministic, merely a different fixed order for the norm sum).
        weights.sort_unstable_by_key(|&(rank, _)| rank);
        normalize(&mut weights);
        DocVector {
            weights,
            token_count,
        }
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
