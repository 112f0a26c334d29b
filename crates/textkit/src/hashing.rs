//! Stateless feature hashing ("hashing trick").
//!
//! The measurement pipeline processes documents as a stream; a hashing
//! vectorizer lets the ablation benchmarks compare the paper's fitted
//! TF-IDF representation against a vocabulary-free alternative that never
//! needs a fit pass. We use the signed-hash variant (sklearn's
//! `HashingVectorizer` default): the sign of a secondary hash decides
//! whether a token adds or subtracts, which keeps hash collisions unbiased.

use crate::sparse::SparseVec;
use crate::tokenize::{TokenScratch, Tokenizer, TokenizerConfig};

/// A stateless signed feature-hashing vectorizer.
#[derive(Debug, Clone)]
pub struct HashingVectorizer {
    tokenizer: Tokenizer,
    n_features: u32,
    l2_normalize: bool,
}

impl HashingVectorizer {
    /// Create a vectorizer mapping tokens into `n_features` buckets.
    ///
    /// # Panics
    /// Panics if `n_features == 0`.
    pub fn new(n_features: u32, tokenizer: TokenizerConfig, l2_normalize: bool) -> Self {
        assert!(n_features > 0, "n_features must be positive");
        Self {
            tokenizer: Tokenizer::new(tokenizer),
            n_features,
            l2_normalize,
        }
    }

    /// A vectorizer with 2^18 buckets and default tokenization.
    pub fn with_defaults() -> Self {
        Self::new(1 << 18, TokenizerConfig::default(), true)
    }

    /// Number of hash buckets.
    pub fn n_features(&self) -> u32 {
        self.n_features
    }

    /// Vectorize one document. Stateless — no fit step.
    pub fn transform(&self, doc: &str) -> SparseVec {
        let mut pairs = Vec::new();
        self.tokenizer
            .for_each_token(doc, &mut TokenScratch::default(), |tok| {
                let h = fnv1a(tok.as_bytes());
                let bucket = (h % u64::from(self.n_features)) as u32;
                // Secondary hash bit decides the sign.
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                pairs.push((bucket, sign));
            });
        let mut v = SparseVec::from_pairs(pairs);
        if self.l2_normalize {
            v.l2_normalize();
        }
        v
    }
}

/// FNV-1a 64-bit — tiny, fast and stable across platforms; collision
/// quality is more than adequate for feature hashing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let v = HashingVectorizer::with_defaults();
        assert_eq!(v.transform("some dox text"), v.transform("some dox text"));
    }

    #[test]
    fn indices_stay_in_range() {
        let v = HashingVectorizer::new(16, TokenizerConfig::default(), false);
        let out = v.transform("lots of words mapping into very few buckets here");
        assert!(out.indices().iter().all(|&i| i < 16));
        assert!(out.check_invariants());
    }

    #[test]
    fn empty_doc_is_empty_vec() {
        let v = HashingVectorizer::with_defaults();
        assert!(v.transform("").is_empty());
    }

    #[test]
    fn normalization_applies() {
        let v = HashingVectorizer::with_defaults();
        let out = v.transform("alpha beta gamma delta");
        assert!((out.l2_norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn signs_can_cancel_but_norm_stays_finite() {
        // With one bucket every token collides; signed hashing may cancel.
        let v = HashingVectorizer::new(1, TokenizerConfig::default(), false);
        let out = v.transform("aa bb cc dd ee ff");
        assert!(out.nnz() <= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_buckets_rejected() {
        HashingVectorizer::new(0, TokenizerConfig::default(), true);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
