//! Vectorization throughput: the fitted TF-IDF representation (the paper's
//! choice) against the stateless hashing vectorizer (ablation).
//!
//! Feeds into Table 1: the vectorizer dominates per-document
//! classification cost across the 1.74 M-document stream. The
//! `tfidf_decision` row times the path `DoxClassifier` actually runs:
//! the same vectorization dotted straight into a trained SGD model,
//! with no intermediate sparse vector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_ml::sgd::SgdClassifier;
use dox_textkit::hashing::HashingVectorizer;
use dox_textkit::tfidf::TfidfVectorizer;
use std::hint::black_box;

fn bench_vectorizers(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let (texts, labels) = fixture.training_sets(0.02);
    let docs: Vec<&str> = texts.iter().map(String::as_str).take(500).collect();
    let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

    let mut group = c.benchmark_group("vectorize");
    group.throughput(Throughput::Bytes(total_bytes));

    let mut tfidf = TfidfVectorizer::default();
    tfidf.fit(&docs);
    group.bench_function(BenchmarkId::new("tfidf_transform", docs.len()), |b| {
        b.iter(|| {
            for d in &docs {
                black_box(tfidf.transform(black_box(d)));
            }
        })
    });

    let n_features = tfidf.model().map_or(0, |m| m.n_features());
    let sgd = SgdClassifier::fit_paper(
        n_features,
        &tfidf.transform_batch(&docs),
        &labels[..docs.len()],
    );
    group.bench_function(BenchmarkId::new("tfidf_decision", docs.len()), |b| {
        b.iter(|| {
            for d in &docs {
                black_box(tfidf.decision(black_box(d), sgd.weights(), sgd.intercept()));
            }
        })
    });

    let hashing = HashingVectorizer::with_defaults();
    group.bench_function(BenchmarkId::new("hashing_transform", docs.len()), |b| {
        b.iter(|| {
            for d in &docs {
                black_box(hashing.transform(black_box(d)));
            }
        })
    });

    group.bench_function("tfidf_fit_500_docs", |b| {
        b.iter(|| {
            let mut v = TfidfVectorizer::default();
            v.fit(black_box(&docs));
            black_box(v);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_vectorizers);
criterion_main!(benches);
