//! Pin: the interned scoring path is byte-identical to the seed's
//! string-keyed scoring path.
//!
//! The token-interning refactor retired `String` from the per-pair hot loop
//! (sorted-id merge-walk Jaccards, rank-keyed TF-IDF cosines, packed Soundex
//! and acronym compares, char-slice edit distances). Its contract is that
//! this is a *representation* change only: every voter, the merge, and the
//! propagation blend must produce bit-for-bit the scores the string path
//! produced. This test re-implements the seed's string-path scoring —
//! string-keyed TF-IDF corpus, `TokenBag` set Jaccards, per-pair acronym
//! allocation, string Soundex — on string features it derives from the
//! `Schema` itself with a `Normalizer`, independent of `PreparedElement`,
//! and demands exact `f64` equality against the production pipeline across
//! synthetic seeds and scales.

use harmony_core::prelude::*;
use sm_schema::Schema;
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::{Normalizer, TokenBag};
use sm_text::similarity::{jaro_winkler, levenshtein_sim, monge_elkan};
use sm_text::soundex::soundex_sim;
use sm_text::tokenize::acronym_of;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Reference string-keyed TF-IDF (verbatim semantics of the seed
// implementation: HashMap<String, u32> counts, lexicographic weight sort,
// string-compare merge-walk cosine).
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RefCorpus {
    doc_freq: HashMap<String, u32>,
    documents: Vec<HashMap<String, u32>>,
}

struct RefVector {
    weights: Vec<(String, f64)>,
    token_count: usize,
}

impl RefCorpus {
    fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        let mut counts: HashMap<String, u32> = HashMap::with_capacity(tokens.len());
        for t in tokens {
            *counts.entry(t.as_ref().to_string()).or_insert(0) += 1;
        }
        for term in counts.keys() {
            *self.doc_freq.entry(term.clone()).or_insert(0) += 1;
        }
        self.documents.push(counts);
    }

    fn finalize(self) -> Vec<RefVector> {
        let n = self.documents.len().max(1) as f64;
        let idf: HashMap<String, f64> = self
            .doc_freq
            .iter()
            .map(|(term, &df)| (term.clone(), ((n + 1.0) / (f64::from(df) + 1.0)).ln() + 1.0))
            .collect();
        self.documents
            .iter()
            .map(|counts| {
                let token_count = counts.values().map(|&c| c as usize).sum();
                let mut weights: Vec<(String, f64)> = counts
                    .iter()
                    .map(|(term, &tf)| (term.clone(), (1.0 + f64::from(tf).ln()) * idf[term]))
                    .collect();
                weights.sort_by(|a, b| a.0.cmp(&b.0));
                let norm = weights.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for (_, w) in &mut weights {
                        *w /= norm;
                    }
                }
                RefVector {
                    weights,
                    token_count,
                }
            })
            .collect()
    }
}

fn ref_cosine(a: &RefVector, b: &RefVector) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut dot = 0.0;
    while i < a.weights.len() && j < b.weights.len() {
        match a.weights[i].0.cmp(&b.weights[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a.weights[i].1 * b.weights[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot.clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Reference string-path voter panel (the seed's per-pair arithmetic, run on
// string features derived straight from the schema).
// ---------------------------------------------------------------------------

/// The seed's string-valued features of one element.
struct RefFeatures {
    name_bag: TokenBag,
    parent_bag: TokenBag,
    children_bag: TokenBag,
    raw_name: String,
    corpus_tokens: Vec<std::sync::Arc<str>>,
}

/// Normalize every element of `schema` the way the seed's preparation did.
fn ref_features(schema: &Schema, normalizer: &Normalizer) -> Vec<RefFeatures> {
    let names: Vec<TokenBag> = schema
        .elements()
        .iter()
        .map(|e| normalizer.name(&e.name))
        .collect();
    schema
        .elements()
        .iter()
        .map(|e| {
            let name_bag = names[e.id.index()].clone();
            let doc_bag = normalizer.prose(e.doc_text());
            let mut corpus_tokens = name_bag.tokens.clone();
            corpus_tokens.extend(doc_bag.tokens);
            RefFeatures {
                parent_bag: e
                    .parent
                    .map(|p| names[p.index()].clone())
                    .unwrap_or_default(),
                children_bag: TokenBag {
                    tokens: e
                        .children
                        .iter()
                        .flat_map(|c| names[c.index()].tokens.iter().cloned())
                        .collect(),
                },
                raw_name: e.name.to_lowercase(),
                corpus_tokens,
                name_bag,
            }
        })
        .collect()
}

struct RefScorer<'a> {
    source: &'a Schema,
    target: &'a Schema,
    features_source: Vec<RefFeatures>,
    features_target: Vec<RefFeatures>,
    vectors: Vec<RefVector>,
}

impl<'a> RefScorer<'a> {
    fn build(source: &'a Schema, target: &'a Schema, normalizer: &Normalizer) -> Self {
        let features_source = ref_features(source, normalizer);
        let features_target = ref_features(target, normalizer);
        let mut corpus = RefCorpus::default();
        for e in &features_source {
            corpus.add_document(&e.corpus_tokens);
        }
        for e in &features_target {
            corpus.add_document(&e.corpus_tokens);
        }
        RefScorer {
            source,
            target,
            features_source,
            features_target,
            vectors: corpus.finalize(),
        }
    }

    /// The seed's nine-voter panel in panel order, all-string kernels.
    fn votes(&self, s: usize, t: usize) -> Vec<Confidence> {
        let fa = &self.features_source[s];
        let fb = &self.features_target[t];
        let ea = &self.source.elements()[s];
        let eb = &self.target.elements()[t];
        let va = &self.vectors[s];
        let vb = &self.vectors[self.source.len() + t];
        let mut votes = Vec::with_capacity(9);

        // exact-name
        votes.push(if fa.name_bag.is_empty() || fb.name_bag.is_empty() {
            Confidence::NEUTRAL
        } else if fa.name_bag.tokens == fb.name_bag.tokens {
            Confidence::from_evidence(1.0, fa.name_bag.len() as f64, 0.8)
        } else {
            Confidence::from_evidence(0.35, 1.0, 6.0)
        });

        // name-tokens
        votes.push(if fa.name_bag.is_empty() || fb.name_bag.is_empty() {
            Confidence::NEUTRAL
        } else {
            let jaccard = fa.name_bag.jaccard(&fb.name_bag);
            let soft = monge_elkan(&fa.name_bag.tokens, &fb.name_bag.tokens, jaro_winkler);
            let sim = jaccard.max(0.85 * soft);
            let evidence = (fa.name_bag.len() + fb.name_bag.len()) as f64 / 2.0;
            Confidence::from_evidence(sim, evidence, 1.5)
        });

        // edit-distance
        votes.push(if fa.raw_name.is_empty() || fb.raw_name.is_empty() {
            Confidence::NEUTRAL
        } else {
            let jw = jaro_winkler(&fa.raw_name, &fb.raw_name);
            let lev = levenshtein_sim(&fa.raw_name, &fb.raw_name);
            let sdx = soundex_sim(&fa.raw_name, &fb.raw_name);
            let sim = 0.5 * jw + 0.4 * lev + 0.1 * sdx;
            let evidence =
                (fa.raw_name.chars().count().min(fb.raw_name.chars().count()) as f64) / 3.0;
            Confidence::from_evidence(sim, evidence, 1.2)
        });

        // documentation
        votes.push(if va.weights.is_empty() || vb.weights.is_empty() {
            Confidence::NEUTRAL
        } else {
            let cosine = ref_cosine(va, vb);
            let evidence = va.token_count.min(vb.token_count) as f64;
            Confidence::from_evidence(cosine.sqrt(), evidence, 5.0)
        });

        // data-type
        {
            let compat = ea.datatype.compatibility(eb.datatype);
            let evidence = if compat < 0.2 { 3.0 } else { 1.0 };
            votes.push(Confidence::from_evidence(compat, evidence, 2.0));
        }

        // path-context
        votes.push(if fa.parent_bag.is_empty() || fb.parent_bag.is_empty() {
            Confidence::NEUTRAL
        } else {
            let jaccard = fa.parent_bag.jaccard(&fb.parent_bag);
            let evidence = (fa.parent_bag.len() + fb.parent_bag.len()) as f64 / 2.0;
            Confidence::from_evidence(jaccard, evidence, 2.0)
        });

        // structure
        votes.push(
            if fa.children_bag.is_empty() || fb.children_bag.is_empty() {
                Confidence::NEUTRAL
            } else {
                let jaccard = fa.children_bag.jaccard(&fb.children_bag);
                let evidence = fa.children_bag.len().min(fb.children_bag.len()) as f64;
                Confidence::from_evidence(jaccard, evidence, 6.0)
            },
        );

        // role
        votes.push(if ea.kind.role_compatible(eb.kind) {
            Confidence::NEUTRAL
        } else {
            Confidence::from_evidence(0.0, 4.0, 2.0)
        });

        // acronym (per-pair string allocation, as the seed did)
        votes.push(if fa.raw_name.len() < 2 || fb.raw_name.len() < 2 {
            Confidence::NEUTRAL
        } else {
            let a_acr = acronym_of(&fa.name_bag.tokens);
            let b_acr = acronym_of(&fb.name_bag.tokens);
            let hit = (fb.name_bag.len() >= 2 && fa.raw_name == b_acr)
                || (fa.name_bag.len() >= 2 && fb.raw_name == a_acr);
            if hit {
                let evidence = fa.name_bag.len().max(fb.name_bag.len()) as f64;
                Confidence::from_evidence(0.95, evidence, 1.0)
            } else {
                Confidence::NEUTRAL
            }
        });

        votes
    }
}

/// Full string-path matrix: merge every pair, narrow to f32, then apply the
/// documented propagation blend (α = 0.3, single base pass).
fn reference_matrix(pair: &SchemaPair, alpha: f64) -> Vec<f32> {
    let scorer = RefScorer::build(&pair.source, &pair.target, &Normalizer::new());
    let rows = pair.source.len();
    let cols = pair.target.len();
    let merger = MergeStrategy::default();
    let base: Vec<f32> = (0..rows)
        .flat_map(|s| {
            (0..cols)
                .map(|t| merger.merge(&scorer.votes(s, t)).value() as f32)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut out = base.clone();
    for s in 0..rows {
        let Some(ps) = pair.source.elements()[s].parent else {
            continue;
        };
        for t in 0..cols {
            if let Some(pt) = pair.target.elements()[t].parent {
                let own = f64::from(base[s * cols + t]);
                let par = f64::from(base[ps.index() * cols + pt.index()]);
                out[s * cols + t] = ((1.0 - alpha) * own + alpha * par) as f32;
            }
        }
    }
    out
}

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere
    // (the arena behind it is still the shared global one).
    MatchEngine::new().with_normalizer(Normalizer::new())
}

/// The interned production pipeline reproduces the string-path scores bit
/// for bit, across seeds, scales, and thread counts — dense and (exhaustive)
/// blocked.
#[test]
fn interned_scoring_is_byte_identical_to_string_path() {
    for (seed, scale) in [(2u64, 0.04), (19, 0.06), (77, 0.08)] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, scale));
        let alpha = 0.3;
        for threads in [1usize, 3] {
            let engine = engine().with_threads(threads).with_propagation(alpha);
            let reference = reference_matrix(&pair, alpha);
            let produced = engine.run(&pair.source, &pair.target);
            assert_eq!(
                produced.matrix.as_slice(),
                reference.as_slice(),
                "interned dense run diverged from the string path \
                 (seed {seed}, scale {scale}, {threads} threads)"
            );
            let blocked =
                engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::Exhaustive);
            assert_eq!(
                blocked.matrix.as_slice(),
                reference.as_slice(),
                "interned blocked run diverged from the string path \
                 (seed {seed}, scale {scale}, {threads} threads)"
            );
        }
    }
}

/// Every candidate the default blocking policy scores carries the exact
/// string-path score too (pruned cells stay neutral) — the blocked fast path
/// changes *which* pairs are scored, never their values.
#[test]
fn blocked_candidates_carry_string_path_scores() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(5, 0.06));
    // α = 0 isolates Score/Merge from propagation densification.
    let engine = engine().with_threads(2).with_propagation(0.0);
    let reference = reference_matrix(&pair, 0.0);
    let cols = pair.target.len();
    let blocked = engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
    assert!(
        blocked.pairs_scored < blocked.pairs_considered,
        "must prune"
    );
    for s in 0..pair.source.len() {
        for t in 0..cols {
            let got = blocked.matrix.as_slice()[s * cols + t];
            if blocked.candidates.contains(s, t) {
                assert_eq!(got, reference[s * cols + t], "candidate ({s},{t})");
            } else {
                assert_eq!(got, 0.0, "pruned pair ({s},{t}) must stay neutral");
            }
        }
    }
}
