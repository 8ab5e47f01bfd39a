//! Property-based tests of the linguistic substrate's invariants.

use proptest::prelude::*;
use sm_text::abbrev::AbbrevDict;
use sm_text::intern::TokenArena;
use sm_text::intern::TokenId;
use sm_text::normalize::{NormalizeOptions, Normalizer};
use sm_text::soundex::soundex;
use sm_text::stem::porter_stem;
use sm_text::tfidf::{Corpus, FinalizedCorpus, Vocabulary};
use sm_text::tokenize::{char_ngrams, tokenize_identifier};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Corpus terms: non-ASCII ones, prefixes of each other, and an upper-case
/// one (sorting before every lower-case term) among them.
const WORDS: [&str; 10] = [
    "alpha", "al", "beta", "zulu", "Zeta", "émile", "naïve", "straße", "日本", "ωmega",
];

/// Query-only terms, never in any corpus document.
const UNSEEN: [&str; 3] = ["okapi", "ζ", "quagga"];

/// The TF-IDF definition, string-keyed: df over distinct terms per
/// document, smoothed IDF `ln((n+1)/(df+1)) + 1` with `n = max(docs, 1)`,
/// ranks in string order, weights `(1 + ln tf) · idf` L2-normalized with
/// every sum in rank order.
struct RefCorpus {
    /// term → (rank, idf).
    terms: BTreeMap<String, (u32, f64)>,
    vectors: Vec<(Vec<(u32, f64)>, usize)>,
}

impl RefCorpus {
    fn build(docs: &[Vec<&str>]) -> Self {
        let n = docs.len().max(1) as f64;
        let mut df: BTreeMap<String, u32> = BTreeMap::new();
        for doc in docs {
            let distinct: std::collections::BTreeSet<&str> = doc.iter().copied().collect();
            for term in distinct {
                *df.entry(term.to_string()).or_insert(0) += 1;
            }
        }
        let terms: BTreeMap<String, (u32, f64)> = df
            .into_iter()
            .enumerate()
            .map(|(rank, (term, df))| {
                let idf = ((n + 1.0) / (f64::from(df) + 1.0)).ln() + 1.0;
                (term, (rank as u32, idf))
            })
            .collect();
        let vectors = docs
            .iter()
            .map(|doc| {
                let tf = Self::tf(doc);
                let weights = tf
                    .iter()
                    .map(|(term, &tf)| (terms[term].0, terms[term].1, tf));
                (Self::weigh(weights), doc.len())
            })
            .collect();
        RefCorpus { terms, vectors }
    }

    fn tf(doc: &[&str]) -> BTreeMap<String, u32> {
        let mut tf = BTreeMap::new();
        for &term in doc {
            *tf.entry(term.to_string()).or_insert(0) += 1;
        }
        tf
    }

    /// `(rank, idf, tf)` triples → weights sorted by rank, normalized.
    fn weigh(terms: impl Iterator<Item = (u32, f64, u32)>) -> Vec<(u32, f64)> {
        let mut weights: Vec<(u32, f64)> = terms
            .map(|(rank, idf, tf)| (rank, (1.0 + f64::from(tf).ln()) * idf))
            .collect();
        weights.sort_by_key(|&(rank, _)| rank);
        let norm = weights.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut weights {
                *w /= norm;
            }
        }
        weights
    }

    /// Out-of-corpus vectorization: unseen terms take the largest IDF (at
    /// least 1) and the pseudo-rank `vocab_len + token id`.
    fn vectorize(&self, arena: &TokenArena, query: &[&str]) -> (Vec<(u32, f64)>, usize) {
        let max_idf = self
            .terms
            .values()
            .fold(1.0_f64, |acc, &(_, idf)| acc.max(idf));
        let vocab_len = self.terms.len() as u32;
        let weights = Self::tf(query).into_iter().map(|(term, tf)| {
            let (rank, idf) = self
                .terms
                .get(&term)
                .copied()
                .unwrap_or_else(|| (vocab_len + arena.intern(&term).0, max_idf));
            (rank, idf, tf)
        });
        (Self::weigh(weights), query.len())
    }
}

fn bits(weights: &[(u32, f64)]) -> Vec<(u32, u64)> {
    weights
        .iter()
        .map(|&(rank, w)| (rank, w.to_bits()))
        .collect()
}

/// Every answer of `corpus` equals the reference's, bit for bit.
fn assert_corpus_matches(
    arena: &TokenArena,
    corpus: &FinalizedCorpus,
    reference: &RefCorpus,
    queries: &[Vec<&str>],
) {
    assert_eq!(corpus.len(), reference.vectors.len());
    assert_eq!(corpus.vocab_len(), reference.terms.len());
    for (i, (weights, tokens)) in reference.vectors.iter().enumerate() {
        let v = corpus.vector(i);
        assert_eq!(bits(v.weights()), bits(weights), "document {i}");
        assert_eq!(v.token_count, *tokens, "document {i} token count");
    }
    for term in WORDS.iter().chain(&UNSEEN) {
        let expected = reference.terms.get(*term).map(|&(_, idf)| idf.to_bits());
        assert_eq!(corpus.idf(term).map(f64::to_bits), expected, "idf({term})");
    }
    for query in queries {
        let (weights, tokens) = reference.vectorize(arena, query);
        let v = corpus.vectorize(query);
        let v = v.view();
        assert_eq!(bits(v.weights()), bits(&weights), "vectorize({query:?})");
        assert_eq!(v.token_count, tokens);
    }
}

/// Two corpora answer alike, bit for bit: document count, `vocab_len`,
/// every vector's weights and token count, and `idf` of every term.
fn assert_same_corpus(merged: &FinalizedCorpus, joint: &FinalizedCorpus) {
    assert_eq!(merged.len(), joint.len());
    assert_eq!(merged.vocab_len(), joint.vocab_len());
    for i in 0..joint.len() {
        let (m, j) = (merged.vector(i), joint.vector(i));
        assert_eq!(bits(m.weights()), bits(j.weights()), "document {i}");
        assert_eq!(m.token_count, j.token_count, "document {i} token count");
    }
    for term in WORDS.iter().chain(&UNSEEN) {
        assert_eq!(
            merged.idf(term).map(f64::to_bits),
            joint.idf(term).map(f64::to_bits),
            "idf({term})"
        );
    }
}

proptest! {
    /// Soundex output is always empty or letter + 3 digits.
    #[test]
    fn soundex_format(s in ".{0,24}") {
        let code = soundex(&s);
        if !code.is_empty() {
            prop_assert_eq!(code.len(), 4);
            let bytes = code.as_bytes();
            prop_assert!(bytes[0].is_ascii_uppercase());
            prop_assert!(bytes[1..].iter().all(|b| b.is_ascii_digit()));
        }
    }

    /// Soundex ignores case and non-letters entirely.
    #[test]
    fn soundex_case_insensitive(s in "[a-zA-Z]{1,12}") {
        prop_assert_eq!(soundex(&s), soundex(&s.to_uppercase()));
        let with_noise = format!("{}123-_", s);
        prop_assert_eq!(soundex(&s), soundex(&with_noise));
    }

    /// Porter stemming is a pure function of the input (stable) and never
    /// empties non-empty lowercase words.
    #[test]
    fn stemmer_stability(s in "[a-z]{1,24}") {
        let a = porter_stem(&s);
        let b = porter_stem(&s);
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.is_empty());
    }

    /// n-grams reconstruct the token's length arithmetic.
    #[test]
    fn ngram_count_arithmetic(s in "[a-z]{0,20}", n in 1usize..5) {
        let grams = char_ngrams(&s, n);
        let len = s.chars().count();
        if len == 0 {
            prop_assert_eq!(grams.len(), 1, "short tokens return themselves");
        } else if len <= n {
            prop_assert_eq!(grams.len(), 1);
            prop_assert_eq!(&grams[0], &s);
        } else {
            prop_assert_eq!(grams.len(), len - n + 1);
            for g in &grams {
                prop_assert_eq!(g.chars().count(), n);
            }
        }
    }

    /// Abbreviation expansion of unknown tokens is the identity, and known
    /// expansions never produce empty token lists.
    #[test]
    fn abbrev_expansion_total(s in "[a-z]{1,10}") {
        let d = AbbrevDict::builtin();
        let out = d.expand(&s);
        prop_assert!(!out.is_empty());
        if !d.contains(&s) {
            prop_assert_eq!(out, vec![s.clone()]);
        }
    }

    /// TF-IDF cosine is bounded, symmetric, and 1 on identical documents.
    #[test]
    fn tfidf_cosine_axioms(
        doc_a in prop::collection::vec("[a-z]{1,6}", 1..10),
        doc_b in prop::collection::vec("[a-z]{1,6}", 1..10),
    ) {
        let mut corpus = Corpus::new();
        let a = corpus.add_document(&doc_a);
        let b = corpus.add_document(&doc_b);
        let a2 = corpus.add_document(&doc_a);
        let f = corpus.finalize();
        let ab = f.vector(a).cosine(f.vector(b));
        let ba = f.vector(b).cosine(f.vector(a));
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
        let aa = f.vector(a).cosine(f.vector(a2));
        prop_assert!((aa - 1.0).abs() < 1e-9, "identical docs cosine {aa}");
    }

    /// Every normalizer option combination is total (no panics, no empty
    /// tokens) over arbitrary input.
    #[test]
    fn normalizer_total_over_option_space(
        s in ".{0,40}",
        strip_noise in any::<bool>(),
        expand in any::<bool>(),
        stop in any::<bool>(),
        stem in any::<bool>(),
        nums in any::<bool>(),
    ) {
        let n = Normalizer::with_options(NormalizeOptions {
            strip_noise,
            expand_abbrevs: expand,
            strip_stopwords: stop,
            stem,
            drop_numeric: nums,
        });
        for bag in [n.name(&s), n.prose(&s)] {
            for t in &bag.tokens {
                prop_assert!(!t.is_empty());
            }
        }
    }

    /// Tokenizing the tokenizer's joined output is a fixpoint, for ascii
    /// identifiers.
    #[test]
    fn tokenize_fixpoint(s in "[A-Za-z0-9_\\- ]{0,30}") {
        let once = tokenize_identifier(&s);
        let again = tokenize_identifier(&once.join(" "));
        prop_assert_eq!(once, again);
    }

    /// The interned, hash-free corpus answers exactly as the string-keyed
    /// definition: every vector's weights and token count, `idf`,
    /// `vocab_len` and `vectorize`, bit for bit — over empty documents,
    /// documents made only of repeats, a single-document corpus, non-ASCII
    /// terms, and arenas whose id order is not string order.
    #[test]
    fn tfidf_corpus_matches_string_keyed_reference(
        picks in prop::collection::vec(prop::collection::vec(0usize..WORDS.len(), 0..9), 1..9),
        repeat in 0usize..WORDS.len(),
        repeats in 2usize..6,
        query_picks in prop::collection::vec(
            prop::collection::vec(0usize..WORDS.len() + UNSEEN.len(), 0..6),
            1..4,
        ),
        reverse_lexical in any::<bool>(),
        intern_seed in any::<u64>(),
    ) {
        // Intern every term before any corpus sees it: in reverse string
        // order, or in an order drawn from the seed — either way ids do
        // not follow string order.
        let arena = TokenArena::new();
        let mut order: Vec<&str> = WORDS.to_vec();
        if reverse_lexical {
            order.sort_unstable_by(|a, b| b.cmp(a));
        } else {
            order.sort_unstable_by_key(|w| {
                w.bytes().fold(intern_seed, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
            });
        }
        for w in &order {
            arena.intern(w);
        }
        let arena = Arc::new(arena);

        let mut docs: Vec<Vec<&str>> = picks
            .iter()
            .map(|p| p.iter().map(|&i| WORDS[i]).collect())
            .collect();
        docs.push(Vec::new());
        docs.push(vec![WORDS[repeat]; repeats]);
        let pool: Vec<&str> = WORDS.iter().chain(&UNSEEN).copied().collect();
        let queries: Vec<Vec<&str>> = query_picks
            .iter()
            .map(|p| p.iter().map(|&i| pool[i]).collect())
            .collect();

        let build = |docs: &[Vec<&str>]| {
            let mut corpus = Corpus::with_arena(Arc::clone(&arena));
            for (i, doc) in docs.iter().enumerate() {
                // Half the documents go in as strings, half as ids.
                let index = if i % 2 == 0 {
                    corpus.add_document(doc)
                } else {
                    corpus.add_document_ids(&arena.intern_all(doc))
                };
                assert_eq!(index, i);
            }
            corpus.finalize()
        };
        assert_corpus_matches(&arena, &build(&docs), &RefCorpus::build(&docs), &queries);
        let single = &docs[..1];
        assert_corpus_matches(&arena, &build(single), &RefCorpus::build(single), &queries);
        let repeats_only = &docs[docs.len() - 1..];
        assert_corpus_matches(
            &arena,
            &build(repeats_only),
            &RefCorpus::build(repeats_only),
            &queries,
        );
    }

    /// Merging the vocabularies of two halves of a document list gives the
    /// corpus `Corpus::finalize` builds over the whole list, bit for bit —
    /// including `idf` and `vocab_len` — over empty documents, empty halves,
    /// repeated tokens, halves with disjoint vocabularies and halves with
    /// identical ones, in arenas whose id order is not string order.
    #[test]
    fn merged_vocabularies_match_the_joint_corpus(
        picks in prop::collection::vec(prop::collection::vec(0usize..WORDS.len(), 0..7), 0..8),
        split in 0usize..9,
        shape in 0u8..3,
        intern_seed in any::<u64>(),
    ) {
        let arena = TokenArena::new();
        let mut order: Vec<&str> = WORDS.to_vec();
        order.sort_unstable_by_key(|w| {
            w.bytes().fold(intern_seed, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
        });
        for w in &order {
            arena.intern(w);
        }
        let arena = Arc::new(arena);

        let words = |pick: &[usize], offset: usize| -> Vec<TokenId> {
            let terms: Vec<&str> = pick.iter().map(|&i| WORDS[(i + offset) % WORDS.len()]).collect();
            arena.intern_all(&terms)
        };
        let split = split.min(picks.len());
        let half = WORDS.len() / 2;
        let (left, right): (Vec<Vec<TokenId>>, Vec<Vec<TokenId>>) = match shape {
            // As drawn: the halves share some terms.
            0 => (
                picks[..split].iter().map(|p| words(p, 0)).collect(),
                picks[split..].iter().map(|p| words(p, 0)).collect(),
            ),
            // Disjoint: the left half draws from the first half of the
            // words, the right half from the second.
            1 => {
                let disjoint = |p: &Vec<usize>, offset| {
                    words(&p.iter().map(|&i| i % half).collect::<Vec<_>>(), offset)
                };
                (
                    picks[..split].iter().map(|p| disjoint(p, 0)).collect(),
                    picks[split..].iter().map(|p| disjoint(p, half)).collect(),
                )
            }
            // Identical: the right half repeats the left one.
            _ => {
                let left: Vec<Vec<TokenId>> = picks[..split].iter().map(|p| words(p, 0)).collect();
                (left.clone(), left)
            }
        };

        let vocabulary = |docs: &[Vec<TokenId>]| Vocabulary::build(&arena, docs.iter().map(Vec::as_slice));
        let merged = vocabulary(&left).merge(&vocabulary(&right), &arena);
        let mut joint = Corpus::with_arena(Arc::clone(&arena));
        for doc in left.iter().chain(&right) {
            joint.add_document_ids(doc);
        }
        assert_same_corpus(&merged, &joint.finalize());
    }
}
