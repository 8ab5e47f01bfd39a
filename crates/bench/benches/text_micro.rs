//! Microbenchmarks of the linguistic substrate — the per-element work that
//! the match context amortizes and the per-pair work voters repeat ~10^6
//! times in experiment E1.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sm_text::intern::{sorted_ids_jaccard, to_sorted_set, TokenArena};
use sm_text::normalize::Normalizer;
use sm_text::similarity::{
    jaro_winkler, levenshtein_sim, monge_elkan, monge_elkan_interned, ngram_jaccard,
};
use sm_text::{porter_stem, tokenize_identifier, Corpus};
use std::sync::Arc;

fn bench_tokenize(c: &mut Criterion) {
    c.bench_function("tokenize_identifier", |b| {
        b.iter(|| tokenize_identifier(black_box("DATE_BEGIN_156_XMLHttpRequest")));
    });
}

fn bench_stem(c: &mut Criterion) {
    let words = [
        "locations",
        "identification",
        "organizational",
        "effectiveness",
        "begin",
    ];
    c.bench_function("porter_stem_5_words", |b| {
        b.iter(|| {
            for w in words {
                black_box(porter_stem(black_box(w)));
            }
        });
    });
}

fn bench_similarity(c: &mut Criterion) {
    c.bench_function("jaro_winkler", |b| {
        b.iter(|| {
            jaro_winkler(
                black_box("date_begin_156"),
                black_box("datetime_first_info"),
            )
        });
    });
    c.bench_function("levenshtein_sim", |b| {
        b.iter(|| {
            levenshtein_sim(
                black_box("date_begin_156"),
                black_box("datetime_first_info"),
            )
        });
    });
    let a: Vec<String> = ["date", "begin"].iter().map(|s| s.to_string()).collect();
    let bb: Vec<String> = ["datetime", "first", "info"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    c.bench_function("monge_elkan_jw", |b| {
        b.iter(|| monge_elkan(black_box(&a), black_box(&bb), jaro_winkler));
    });
}

fn bench_normalize(c: &mut Criterion) {
    let n = Normalizer::new();
    c.bench_function("normalize_name", |b| {
        b.iter(|| n.name(black_box("PERS_DOB_UPDATE_DTTM")));
    });
    c.bench_function("normalize_prose", |b| {
        b.iter(|| {
            n.prose(black_box(
                "The date and time at which information about the event first arrived.",
            ))
        });
    });
}

fn bench_tfidf(c: &mut Criterion) {
    // A corpus shaped like one schema side of the paper's problem.
    let docs: Vec<Vec<String>> = (0..1000)
        .map(|i| {
            vec![
                format!("word{}", i % 97),
                format!("word{}", i % 31),
                "common".to_string(),
                format!("rare{i}"),
            ]
        })
        .collect();
    c.bench_function("tfidf_build_1000_docs", |b| {
        b.iter(|| {
            let mut corpus = Corpus::new();
            for d in &docs {
                corpus.add_document(d);
            }
            corpus.finalize()
        });
    });
    let mut corpus = Corpus::new();
    for d in &docs {
        corpus.add_document(d);
    }
    let f = corpus.finalize();
    let v1 = f.vector(0);
    let v2 = f.vector(500);
    c.bench_function("tfidf_cosine", |b| {
        b.iter(|| black_box(v1).cosine(black_box(v2)));
    });
}

/// The interned merge-walk kernels of the per-pair hot path: sorted-id
/// Jaccard, the id-shortcut Monge-Elkan, rank-keyed cosine, and the packed
/// u64 n-gram Jaccard — each next to the string-path operation it retired.
fn bench_interned_kernels(c: &mut Criterion) {
    let arena = Arc::new(TokenArena::new());
    let toks = |ws: &[&str]| ws.iter().map(|s| s.to_string()).collect::<Vec<String>>();
    let a = toks(&["date", "begin", "event", "vital"]);
    let b = toks(&["datetime", "first", "info", "event"]);
    let a_ids = arena.intern_all(&a);
    let b_ids = arena.intern_all(&b);
    let a_set = to_sorted_set(a_ids.clone());
    let b_set = to_sorted_set(b_ids.clone());

    c.bench_function("jaccard_string_sets", |bch| {
        bch.iter(|| {
            let sa: std::collections::HashSet<&str> =
                black_box(&a).iter().map(String::as_str).collect();
            let sb: std::collections::HashSet<&str> =
                black_box(&b).iter().map(String::as_str).collect();
            sm_text::similarity::set_jaccard(&sa, &sb)
        });
    });
    c.bench_function("jaccard_sorted_ids", |bch| {
        bch.iter(|| sorted_ids_jaccard(black_box(&a_set), black_box(&b_set)));
    });

    c.bench_function("monge_elkan_interned_jw", |bch| {
        bch.iter(|| {
            monge_elkan_interned(
                black_box(&a),
                &a_ids,
                &a_set,
                black_box(&b),
                &b_ids,
                &b_set,
                jaro_winkler,
            )
        });
    });

    c.bench_function("ngram_jaccard_packed_u64", |bch| {
        bch.iter(|| ngram_jaccard(black_box("date_begin_156"), black_box("datetime_first"), 2));
    });

    // Rank-keyed cosine over vectors shaped like documented elements.
    let mut corpus = Corpus::with_arena(Arc::clone(&arena));
    let d1 = corpus.add_document(&toks(&[
        "date",
        "begin",
        "event",
        "time",
        "information",
        "arrive",
        "first",
    ]));
    let d2 = corpus.add_document(&toks(&[
        "datetime", "first", "info", "event", "time", "record", "begin",
    ]));
    corpus.add_document(&toks(&["vehicle", "wheel", "size"]));
    let f = corpus.finalize();
    let (v1, v2) = (f.vector(d1), f.vector(d2));
    c.bench_function("tfidf_cosine_interned", |bch| {
        bch.iter(|| black_box(v1).cosine(black_box(v2)));
    });
}

criterion_group!(
    benches,
    bench_tokenize,
    bench_stem,
    bench_similarity,
    bench_normalize,
    bench_tfidf,
    bench_interned_kernels
);
criterion_main!(benches);
