//! TF-IDF vectorization matching scikit-learn defaults.
//!
//! The paper (§3.1.2) vectorizes documents with `TfidfVectorizer` from
//! scikit-learn 0.17.1 using default parameters. The defaults that matter:
//!
//! - token pattern `\w\w+`, lowercasing, no stop-word removal;
//! - raw term counts for tf (no sublinear scaling);
//! - **smooth idf**: `idf(t) = ln((1 + n) / (1 + df(t))) + 1`;
//! - l2 normalization of each document vector.
//!
//! [`TfidfVectorizer`] reproduces that behaviour; every knob is exposed via
//! [`TfidfConfig`] so ablation benchmarks can vary them.
//!
//! Inference has one path, shared by [`TfidfVectorizer::transform`] and
//! [`TfidfVectorizer::decision`], and it allocates nothing per document
//! once a thread's scratch buffers have grown: tokens are borrowed slices
//! of a reused lowercase buffer, vocabulary hits are feature indices in a
//! reused `Vec<u32>`, and sorting plus run-length counting replace a map.
//! The float operations are the ones the textbook pipeline performs, in
//! the same order — count, `tf · idf` per feature in increasing index
//! order, the l2 norm over those values in that order, one multiply by
//! `1 / norm`, then `acc += w · v` — so decision values are bit-identical
//! to building a [`SparseVec`] with [`SparseVec::from_pairs`],
//! [`SparseVec::map_values`], [`SparseVec::l2_normalize`] and
//! [`SparseVec::dot_dense`].

use crate::sparse::{self, SparseVec};
use crate::tokenize::{TokenScratch, Tokenizer, TokenizerConfig};
use crate::vocab::{VocabBuilder, VocabConfig, Vocabulary};
use std::cell::RefCell;

/// Configuration for [`TfidfVectorizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TfidfConfig {
    /// Tokenizer settings (defaults match sklearn).
    pub tokenizer: TokenizerConfig,
    /// Vocabulary pruning settings.
    pub vocab: VocabConfig,
    /// Add one to document frequencies ("smooth" idf, sklearn default true).
    pub smooth_idf: bool,
    /// Replace tf with `1 + ln(tf)` (sklearn default false).
    pub sublinear_tf: bool,
    /// Apply idf weighting at all (sklearn default true).
    pub use_idf: bool,
    /// l2-normalize each document vector (sklearn default true).
    pub l2_normalize: bool,
}

impl Default for TfidfConfig {
    fn default() -> Self {
        Self {
            tokenizer: TokenizerConfig::default(),
            vocab: VocabConfig::default(),
            smooth_idf: true,
            sublinear_tf: false,
            use_idf: true,
            l2_normalize: true,
        }
    }
}

/// A fitted TF-IDF model: vocabulary plus idf weights.
#[derive(Debug, Clone)]
pub struct TfidfModel {
    vocab: Vocabulary,
    idf: Vec<f64>,
}

impl TfidfModel {
    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The idf weight of feature `idx`.
    pub fn idf(&self, idx: u32) -> f64 {
        self.idf[idx as usize]
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.idf.len()
    }
}

/// TF-IDF vectorizer: fit on a corpus, transform documents to [`SparseVec`]s.
///
/// ```
/// use dox_textkit::TfidfVectorizer;
///
/// let corpus = ["name and address of the victim", "fn main() {}"];
/// let mut vectorizer = TfidfVectorizer::default();
/// vectorizer.fit(&corpus);
/// let vec = vectorizer.transform("the victim name");
/// assert!(vec.nnz() > 0);
/// assert!((vec.l2_norm() - 1.0).abs() < 1e-9, "l2-normalized like sklearn");
/// ```
#[derive(Debug, Clone)]
pub struct TfidfVectorizer {
    config: TfidfConfig,
    tokenizer: Tokenizer,
    model: Option<TfidfModel>,
}

impl Default for TfidfVectorizer {
    fn default() -> Self {
        Self::new(TfidfConfig::default())
    }
}

impl TfidfVectorizer {
    /// Create an unfitted vectorizer.
    pub fn new(config: TfidfConfig) -> Self {
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        Self {
            config,
            tokenizer,
            model: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TfidfConfig {
        &self.config
    }

    /// The fitted model, if [`TfidfVectorizer::fit`] has run.
    pub fn model(&self) -> Option<&TfidfModel> {
        self.model.as_ref()
    }

    /// Fit the vocabulary and idf weights on `corpus`.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) -> &TfidfModel {
        let mut builder = VocabBuilder::new();
        let tokenized: Vec<Vec<String>> = corpus
            .iter()
            .map(|doc| self.tokenizer.tokenize(doc.as_ref()))
            .collect();
        for toks in &tokenized {
            builder.add_document(toks);
        }
        let vocab = builder.build(&self.config.vocab);
        let idf = compute_idf(&vocab, self.config.smooth_idf, self.config.use_idf);
        self.model.insert(TfidfModel { vocab, idf })
    }

    /// Fit on `corpus` and transform every document.
    pub fn fit_transform<S: AsRef<str>>(&mut self, corpus: &[S]) -> Vec<SparseVec> {
        self.fit(corpus);
        corpus.iter().map(|d| self.transform(d.as_ref())).collect()
    }

    /// Transform one document into a TF-IDF vector.
    ///
    /// # Panics
    /// Panics if the vectorizer has not been fitted.
    pub fn transform(&self, doc: &str) -> SparseVec {
        with_scratch(|s| {
            self.weigh(doc, s);
            SparseVec::from_sorted(s.idx.clone(), s.vals.clone())
        })
    }

    /// The linear decision value `w · x + intercept` of `doc`'s TF-IDF
    /// vector `x` against dense `weights`, without materializing `x`.
    ///
    /// Bit-identical to `transform(doc).dot_dense(weights) + intercept`;
    /// features past the end of `weights` contribute zero.
    ///
    /// # Panics
    /// Panics if the vectorizer has not been fitted.
    pub fn decision(&self, doc: &str, weights: &[f64], intercept: f64) -> f64 {
        with_scratch(|s| {
            self.weigh(doc, s);
            sparse::dot_dense(&s.idx, &s.vals, weights) + intercept
        })
    }

    fn fitted(&self) -> &TfidfModel {
        self.model
            .as_ref()
            .expect("TfidfVectorizer used before fit")
    }

    /// Weigh `doc` into `s.idx` (its distinct vocabulary features,
    /// increasing) and `s.vals` (their tf·idf values, l2-normalized when
    /// configured). See the module docs for the operation-order contract.
    fn weigh(&self, doc: &str, s: &mut Scratch) {
        let model = self.fitted();
        let Scratch { tokens, idx, vals } = s;
        idx.clear();
        vals.clear();
        self.tokenizer.for_each_token(doc, tokens, |tok| {
            if let Some(feature) = model.vocab.get(tok) {
                idx.push(feature);
            }
        });
        idx.sort_unstable();
        for run in idx.chunk_by(|a, b| a == b) {
            // Counting is exact, so this equals summing 1.0 per occurrence.
            let tf = run.len() as f64;
            let tf = if self.config.sublinear_tf {
                1.0 + tf.ln()
            } else {
                tf
            };
            // tf ≥ 1 and idf ≥ 1, so no value is the zero the sparse
            // pipeline would drop.
            vals.push(tf * model.idf[run[0] as usize]);
        }
        idx.dedup();
        if self.config.l2_normalize {
            sparse::l2_normalize(vals);
        }
    }

    /// Transform a batch of documents.
    pub fn transform_batch<S: AsRef<str>>(&self, docs: &[S]) -> Vec<SparseVec> {
        docs.iter().map(|d| self.transform(d.as_ref())).collect()
    }
}

/// Per-thread inference buffers, reused across documents.
#[derive(Default)]
struct Scratch {
    tokens: TokenScratch,
    /// Vocabulary hits; after [`TfidfVectorizer::weigh`], one per feature.
    idx: Vec<u32>,
    /// The value of each feature in `idx`.
    vals: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's scratch. Callers never re-enter, so the
/// borrow is always free.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

fn compute_idf(vocab: &Vocabulary, smooth: bool, use_idf: bool) -> Vec<f64> {
    let n = vocab.n_docs() as f64;
    (0..vocab.len() as u32)
        .map(|idx| {
            if !use_idf {
                return 1.0;
            }
            let df = vocab.doc_freq(idx) as f64;
            if smooth {
                ((1.0 + n) / (1.0 + df)).ln() + 1.0
            } else {
                (n / df).ln() + 1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 4] = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "cats and dogs living together",
        "full dox: name address phone ssn",
    ];

    fn fitted() -> TfidfVectorizer {
        let mut v = TfidfVectorizer::default();
        v.fit(&CORPUS);
        v
    }

    #[test]
    fn fit_builds_model() {
        let v = fitted();
        let m = v.model().unwrap();
        assert!(m.n_features() > 0);
        assert_eq!(m.vocabulary().n_docs(), 4);
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = fitted();
        for doc in CORPUS {
            let vec = v.transform(doc);
            assert!((vec.l2_norm() - 1.0).abs() < 1e-9, "doc: {doc}");
        }
    }

    #[test]
    fn smooth_idf_formula_matches_sklearn() {
        // token "the" appears in 2 of 4 docs => idf = ln(5/3) + 1
        let v = fitted();
        let m = v.model().unwrap();
        let idx = m.vocabulary().get("the").unwrap();
        let expected = (5.0f64 / 3.0).ln() + 1.0;
        assert!((m.idf(idx) - expected).abs() < 1e-12);
    }

    #[test]
    fn rare_terms_weigh_more_than_common() {
        let v = fitted();
        let m = v.model().unwrap();
        let the = m.vocabulary().get("the").unwrap();
        let ssn = m.vocabulary().get("ssn").unwrap();
        assert!(m.idf(ssn) > m.idf(the));
    }

    #[test]
    fn unknown_tokens_vanish() {
        let v = fitted();
        let vec = v.transform("zzz qqq www");
        assert!(vec.is_empty());
    }

    #[test]
    fn identical_docs_identical_vectors() {
        let v = fitted();
        assert_eq!(v.transform(CORPUS[0]), v.transform(CORPUS[0]));
    }

    #[test]
    fn transform_batch_matches_loop() {
        let v = fitted();
        let batch = v.transform_batch(&CORPUS);
        for (i, doc) in CORPUS.iter().enumerate() {
            assert_eq!(batch[i], v.transform(doc));
        }
    }

    #[test]
    fn sublinear_tf_damps_repeats() {
        let corpus = ["spam spam spam spam unique", "other words here"];
        let mut sub = TfidfVectorizer::new(TfidfConfig {
            sublinear_tf: true,
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        let mut plain = TfidfVectorizer::new(TfidfConfig {
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        plain.fit(&corpus);
        sub.fit(&corpus);
        let pm = plain.model().unwrap();
        let idx = pm.vocabulary().get("spam").unwrap();
        let p = plain.transform(corpus[0]).get(idx);
        let s = sub.transform(corpus[0]).get(idx);
        assert!(s < p, "sublinear tf should reduce the weight of repeats");
    }

    /// The textbook pipeline the inference path must match bit for bit.
    fn oracle(v: &TfidfVectorizer, doc: &str) -> SparseVec {
        let model = v.model().unwrap();
        let tokenizer = Tokenizer::new(v.config().tokenizer.clone());
        let pairs = tokenizer
            .tokenize(doc)
            .iter()
            .filter_map(|t| model.vocabulary().get(t).map(|i| (i, 1.0)))
            .collect();
        let mut vec = SparseVec::from_pairs(pairs).map_values(|i, tf| {
            let tf = if v.config().sublinear_tf {
                1.0 + tf.ln()
            } else {
                tf
            };
            tf * model.idf(i)
        });
        if v.config().l2_normalize {
            vec.l2_normalize();
        }
        vec
    }

    #[test]
    fn inference_is_bit_identical_to_the_textbook_pipeline() {
        let configs = [
            TfidfConfig::default(),
            TfidfConfig {
                sublinear_tf: true,
                ..TfidfConfig::default()
            },
            TfidfConfig {
                l2_normalize: false,
                smooth_idf: false,
                ..TfidfConfig::default()
            },
            TfidfConfig {
                tokenizer: TokenizerConfig {
                    ngram_range: (1, 2),
                    ..TokenizerConfig::default()
                },
                ..TfidfConfig::default()
            },
        ];
        let docs = [
            "the the cat sat on the mat, THE END",
            "ΣΑΣ Straße İstanbul dox dox",
            "",
            "unknown words only zzz",
        ];
        for config in configs {
            let mut v = TfidfVectorizer::new(config);
            v.fit(&CORPUS);
            let n = v.model().unwrap().n_features();
            let weights: Vec<f64> = (0..n - 1).map(|i| (i as f64 * 0.37).sin()).collect();
            for doc in CORPUS.iter().chain(&docs) {
                let expect = oracle(&v, doc);
                let got = v.transform(doc);
                assert_eq!(got.indices(), expect.indices(), "{doc}");
                let bits =
                    |x: &SparseVec| x.values().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{doc}");
                let decision = v.decision(doc, &weights, -0.25);
                let reference = expect.dot_dense(&weights) + -0.25;
                assert_eq!(decision.to_bits(), reference.to_bits(), "{doc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn transform_before_fit_panics() {
        TfidfVectorizer::default().transform("boom");
    }

    #[test]
    fn idf_disabled_gives_uniform_weights() {
        let mut v = TfidfVectorizer::new(TfidfConfig {
            use_idf: false,
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        v.fit(&CORPUS);
        let m = v.model().unwrap();
        for i in 0..m.n_features() as u32 {
            assert_eq!(m.idf(i), 1.0);
        }
    }
}
