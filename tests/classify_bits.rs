//! Bit-identity of the classifier's decision values.
//!
//! The TF-IDF inference path (`TfidfVectorizer::decision`) streams tokens
//! through reused buffers and a flat vocabulary table instead of building
//! owned tokens and intermediate sparse vectors. It promises the same
//! float operations in the same order, so every decision value must be
//! bit-identical to the textbook pipeline — not merely the same verdict.
//! This test checks that on every document of the scale-0.05 study
//! stream, against a test-only oracle and against a digest of the
//! decision bits the earlier `Vec<String>` / `HashMap` implementation
//! produced.

use doxing_repro::core::study::{Study, StudyConfig};
use doxing_repro::core::training::DoxClassifier;
use doxing_repro::engine::DoxDetector;
use doxing_repro::geo::alloc::Allocation;
use doxing_repro::geo::model::World;
use doxing_repro::synth::corpus::CorpusGenerator;
use doxing_repro::textkit::hashing::fnv1a;
use doxing_repro::textkit::html::html_to_text;
use doxing_repro::textkit::sparse::SparseVec;
use doxing_repro::textkit::tokenize::Tokenizer;
use std::ops::ControlFlow;

const SEED: u64 = 7;
const SCALE: f64 = 0.05;
/// Documents in the seed-7, scale-0.05 stream.
const STREAM_DOCS: usize = 86_895;
/// FNV-1a over the little-endian bits of every decision value, in stream
/// order, as computed by the implementation this path replaced.
const DECISION_DIGEST: u64 = 0x48f1_aa15_8a3c_3788;
/// Documents checked per parallel batch.
const CHUNK: usize = 4096;

/// The decision value built the old way: owned tokens, a sparse vector
/// from `(index, 1.0)` pairs, `tf · idf` via `map_values`, l2
/// normalization, then the dense dot product plus intercept.
fn oracle(clf: &DoxClassifier, text: &str) -> f64 {
    let vectorizer = clf.vectorizer();
    let model = vectorizer.model().expect("trained vectorizer is fitted");
    let tokenizer = Tokenizer::new(vectorizer.config().tokenizer.clone());
    let pairs = tokenizer
        .tokenize(text)
        .iter()
        .filter_map(|tok| model.vocabulary().get(tok).map(|idx| (idx, 1.0)))
        .collect();
    let mut vec = SparseVec::from_pairs(pairs).map_values(|idx, tf| tf * model.idf(idx));
    vec.l2_normalize();
    vec.dot_dense(clf.model().weights()) + clf.model().intercept()
}

/// Classify a chunk of `(doc id, text)` on two threads, compare every
/// decision with the oracle bit for bit, and append the decision bits to
/// `bits` in stream order.
fn check_chunk(clf: &DoxClassifier, chunk: &[(u64, String)], bits: &mut Vec<u8>) {
    let half = chunk.len().div_ceil(2).max(1);
    let decisions: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = chunk
            .chunks(half)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(id, text)| {
                            let decision = clf.decision(text);
                            assert_eq!(
                                decision.to_bits(),
                                oracle(clf, text).to_bits(),
                                "document {id} decision drifted from the oracle"
                            );
                            decision
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("checker thread"))
            .collect()
    });
    for decision in decisions {
        bits.extend_from_slice(&decision.to_bits().to_le_bytes());
    }
}

#[test]
fn decisions_are_bit_identical_on_every_document_of_the_stream() {
    let config = StudyConfig::builder().seed(SEED).scale(SCALE).build();
    // The study's own training replay (Study::train_detector does the
    // same), kept concrete so the oracle can reach the model.
    let world = World::generate(&config.world, config.seed);
    let alloc = Allocation::generate(&world, &config.alloc, config.seed);
    let mut gen = CorpusGenerator::new(&world, &alloc, config.synth.clone());
    let (texts, labels) = gen.training_sets();
    let (clf, _) = DoxClassifier::train(&texts, &labels, config.seed);

    let mut docs = 0usize;
    let mut bits = Vec::with_capacity(8 * STREAM_DOCS);
    let mut chunk = Vec::with_capacity(CHUNK);
    Study::new(config)
        .synthetic_stream(&mut |_, collected| {
            let doc = collected.doc;
            let text = if doc.source.is_html() {
                html_to_text(&doc.body)
            } else {
                doc.body
            };
            if docs < 64 {
                // The engine's view of the classifier agrees too.
                let decision = clf.decision(&text);
                assert_eq!(
                    DoxDetector::decision(&clf, &text).to_bits(),
                    decision.to_bits()
                );
                assert_eq!(DoxDetector::is_dox(&clf, &text), decision > 0.0);
            }
            docs += 1;
            chunk.push((doc.id, text));
            if chunk.len() == CHUNK {
                check_chunk(&clf, &chunk, &mut bits);
                chunk.clear();
            }
            ControlFlow::Continue(())
        })
        .expect("fault-free stream replays");
    check_chunk(&clf, &chunk, &mut bits);
    assert_eq!(docs, STREAM_DOCS);
    assert_eq!(
        fnv1a(&bits),
        DECISION_DIGEST,
        "decision bits differ from the recorded implementation"
    );
}
