//! Vocabulary construction with document-frequency accounting.
//!
//! A [`Vocabulary`] maps tokens to dense feature indices and records each
//! token's document frequency, which the TF-IDF vectorizer turns into idf
//! weights. Construction is deterministic: feature indices are assigned by
//! sorting the surviving tokens lexicographically, matching scikit-learn.
//!
//! Lookup sits on the per-document classify path, so the frozen
//! vocabulary is a flat open-addressing table rather than a
//! `HashMap<String, u32>`: one byte arena holding every token in index
//! order, a `u32` offset per token, and a power-of-two slot array, at
//! most half full, probed linearly with a small multiplicative hash.
//! There is no per-token allocation and no SipHash on the lookup path.
//! Dropping SipHash's collision resistance is safe here because the table
//! is frozen once fitted: documents only probe it, so no input can grow
//! a cluster, and the slowest lookup is bounded by the longest cluster the
//! fitted vocabulary itself formed.

use serde::Serialize;
use std::collections::HashMap;

/// Document-frequency pruning options, mirroring sklearn's
/// `min_df`/`max_df` parameters (defaults `1` and `1.0`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VocabConfig {
    /// Drop tokens appearing in fewer than this many documents.
    pub min_df: usize,
    /// Drop tokens appearing in more than this fraction of documents.
    pub max_df_ratio: f64,
    /// Optional cap on vocabulary size (keep the most frequent tokens).
    pub max_features: Option<usize>,
}

impl Default for VocabConfig {
    fn default() -> Self {
        Self {
            min_df: 1,
            max_df_ratio: 1.0,
            max_features: None,
        }
    }
}

/// A frozen token→index mapping with document frequencies.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// Every token, concatenated in feature-index order.
    arena: String,
    /// Token `i` is `arena[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Open-addressing table: `(hash tag, feature index)`, or [`EMPTY`]
    /// in the index half. Power-of-two length, at most half full.
    slots: Vec<(u32, u32)>,
    /// Document frequency per feature index.
    doc_freq: Vec<u32>,
    /// Number of documents the vocabulary was fitted on.
    n_docs: usize,
}

/// Feature index marking an unused slot.
const EMPTY: u32 = u32::MAX;

/// Word-at-a-time multiplicative hash (FxHash-style) with a final
/// avalanche, so both the low bits (slot) and high bits (tag) mix.
fn token_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        // Little-endian, like the full words (no variable-length memcpy).
        let word = tail.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        h = mix(h, word);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(K);
    h ^ (h >> 32)
}

/// Incremental builder: feed tokenized documents, then freeze.
#[derive(Debug, Clone, Default)]
pub struct VocabBuilder {
    doc_freq: HashMap<String, u32>,
    n_docs: usize,
}

impl VocabBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one document's tokens (duplicates within the document count
    /// once toward document frequency).
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.n_docs += 1;
        let mut seen: Vec<&str> = tokens.iter().map(AsRef::as_ref).collect();
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            *self.doc_freq.entry(tok.to_string()).or_insert(0) += 1;
        }
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Freeze into a [`Vocabulary`], applying pruning.
    pub fn build(self, config: &VocabConfig) -> Vocabulary {
        let n_docs = self.n_docs;
        let max_df = (config.max_df_ratio * n_docs as f64).floor() as u32;
        let mut entries: Vec<(String, u32)> = self
            .doc_freq
            .into_iter()
            .filter(|&(_, df)| df as usize >= config.min_df && (n_docs == 0 || df <= max_df))
            .collect();
        if let Some(cap) = config.max_features {
            // Keep highest-df tokens; tie-break lexicographically for
            // determinism (sklearn keeps highest term frequency — df is the
            // closest stable analogue available here).
            entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            entries.truncate(cap);
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Vocabulary::from_sorted(entries, n_docs)
    }
}

impl Vocabulary {
    /// Freeze lexicographically sorted `(token, doc_freq)` entries:
    /// entry `i` becomes feature `i`.
    fn from_sorted(entries: Vec<(String, u32)>, n_docs: usize) -> Self {
        let bytes: usize = entries.iter().map(|(tok, _)| tok.len()).sum();
        assert!(
            bytes <= u32::MAX as usize && entries.len() < EMPTY as usize,
            "vocabulary exceeds u32 offsets and indices"
        );
        let mut arena = String::with_capacity(bytes);
        let mut offsets = Vec::with_capacity(entries.len() + 1);
        let mut doc_freq = Vec::with_capacity(entries.len());
        offsets.push(0);
        for (tok, df) in entries {
            arena.push_str(&tok);
            offsets.push(arena.len() as u32);
            doc_freq.push(df);
        }
        let mut vocab = Vocabulary {
            arena,
            offsets,
            slots: vec![(0, EMPTY); (2 * doc_freq.len()).next_power_of_two().max(8)],
            doc_freq,
            n_docs,
        };
        let mask = vocab.slots.len() - 1;
        for idx in 0..vocab.len() as u32 {
            let h = token_hash(vocab.token(idx).as_bytes());
            let mut pos = h as usize & mask;
            while vocab.slots[pos].1 != EMPTY {
                pos = (pos + 1) & mask;
            }
            vocab.slots[pos] = ((h >> 32) as u32, idx);
        }
        vocab
    }

    /// The token of feature `idx`.
    fn token(&self, idx: u32) -> &str {
        let i = idx as usize;
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Fit a vocabulary over pre-tokenized documents in one call.
    pub fn fit<S: AsRef<str>>(docs: &[Vec<S>], config: &VocabConfig) -> Self {
        let mut b = VocabBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build(config)
    }

    /// Feature index for `token`, if in vocabulary.
    pub fn get(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let h = token_hash(token.as_bytes());
        let tag = (h >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut pos = h as usize & mask;
        // The table is at most half full, so the probe meets an empty slot.
        loop {
            let (slot_tag, idx) = self.slots[pos];
            if idx == EMPTY {
                return None;
            }
            if slot_tag == tag && self.token(idx) == token {
                return Some(idx);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.doc_freq.len()
    }

    /// True when no tokens survived pruning.
    pub fn is_empty(&self) -> bool {
        self.doc_freq.is_empty()
    }

    /// Document frequency of feature `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn doc_freq(&self, idx: u32) -> u32 {
        self.doc_freq[idx as usize]
    }

    /// Number of documents the vocabulary was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Tokens in feature-index order (for diagnostics and model dumps).
    pub fn tokens_in_order(&self) -> Vec<&str> {
        (0..self.len() as u32).map(|idx| self.token(idx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(raw: &[&[&str]]) -> Vec<Vec<String>> {
        raw.iter()
            .map(|d| d.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn indices_are_lexicographic() {
        let v = Vocabulary::fit(
            &docs(&[&["zebra", "apple"], &["apple", "mango"]]),
            &VocabConfig::default(),
        );
        assert_eq!(v.get("apple"), Some(0));
        assert_eq!(v.get("mango"), Some(1));
        assert_eq!(v.get("zebra"), Some(2));
        assert_eq!(v.tokens_in_order(), vec!["apple", "mango", "zebra"]);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let v = Vocabulary::fit(
            &docs(&[&["dup", "dup", "dup"], &["dup", "other"]]),
            &VocabConfig::default(),
        );
        assert_eq!(v.doc_freq(v.get("dup").unwrap()), 2);
        assert_eq!(v.doc_freq(v.get("other").unwrap()), 1);
        assert_eq!(v.n_docs(), 2);
    }

    #[test]
    fn min_df_prunes_rare() {
        let cfg = VocabConfig {
            min_df: 2,
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(&docs(&[&["rare", "common"], &["common"]]), &cfg);
        assert_eq!(v.get("rare"), None);
        assert!(v.get("common").is_some());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn max_df_prunes_ubiquitous() {
        let cfg = VocabConfig {
            max_df_ratio: 0.5,
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(
            &docs(&[&["stop", "a"], &["stop", "b"], &["stop", "c"], &["c"]]),
            &cfg,
        );
        assert_eq!(v.get("stop"), None); // df 3/4 > 0.5
        assert!(v.get("c").is_some()); // df 2/4 == 0.5
    }

    #[test]
    fn max_features_keeps_most_frequent() {
        let cfg = VocabConfig {
            max_features: Some(1),
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(&docs(&[&["hi", "lo"], &["hi"]]), &cfg);
        assert_eq!(v.len(), 1);
        assert!(v.get("hi").is_some());
    }

    #[test]
    fn empty_fit_is_empty() {
        let v = Vocabulary::fit(&docs(&[]), &VocabConfig::default());
        assert!(v.is_empty());
        assert_eq!(v.n_docs(), 0);
    }

    #[test]
    fn every_token_round_trips_through_the_table() {
        let tokens: Vec<String> = (0..5000).map(|i| format!("tok{i}_{}", i * 7919)).collect();
        let v = Vocabulary::fit(std::slice::from_ref(&tokens), &VocabConfig::default());
        assert_eq!(v.len(), tokens.len());
        for (idx, tok) in v.tokens_in_order().into_iter().enumerate() {
            assert_eq!(v.get(tok), Some(idx as u32), "{tok}");
        }
        for miss in ["", "tok", "tok1_", "tok5000_39595000", "TOK1_7919"] {
            assert_eq!(v.get(miss), None, "{miss}");
        }
    }

    #[test]
    fn unknown_token_is_none() {
        let v = Vocabulary::fit(&docs(&[&["known"]]), &VocabConfig::default());
        assert_eq!(v.get("unknown"), None);
    }
}
