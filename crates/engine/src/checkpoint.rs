//! Session checkpoints: the serializable folded state of an ingest run.
//!
//! A session folds chunks in order in the caller's thread, so once
//! [`Session::checkpoint`](crate::Session::checkpoint) has folded
//! everything in flight there is no sequencing state left to persist —
//! only the funnel counters, the detected log and the dedup shards.
//! Restoring a checkpoint into a fresh session and replaying the
//! remaining document stream yields output byte-identical to the
//! uninterrupted run — the property the fault-matrix test enforces.
//!
//! The format is JSON via the workspace's value-tree serde; field order
//! and the sorted [`DedupSnapshot`] entry lists make the encoding a pure
//! function of the state, so identical states produce identical bytes.

use crate::dedup::DedupSnapshot;
use crate::output::{DetectedDox, PipelineCounters};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Format version stamped into every checkpoint; bumped on any encoding
/// change so a stale file is rejected instead of misread. A checkpoint of
/// another version decodes, but
/// [`SessionBuilder::start`](crate::SessionBuilder::start) refuses to
/// resume it.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The complete folded state of a [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Encoding version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Dedup shard count the state was sharded for. A checkpoint can be
    /// resumed under any worker count but **only** the same shard count —
    /// dedup state is partitioned by `signature % shards`.
    pub shards: usize,
    /// Figure 1 funnel counters so far.
    pub counters: PipelineCounters,
    /// Ids of documents labeled dox so far.
    pub dox_ids: BTreeSet<u64>,
    /// Documents lost to poisoned stage workers so far.
    pub stage_gap_docs: u64,
    /// Every detected dox committed so far, stream order.
    pub detected: Vec<DetectedDox>,
    /// One snapshot per dedup shard, shard order.
    pub dedups: Vec<DedupSnapshot>,
}

impl SessionCheckpoint {
    /// The state of a session that has ingested nothing.
    pub(crate) fn empty(shards: usize) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            shards,
            counters: PipelineCounters::default(),
            dox_ids: BTreeSet::new(),
            stage_gap_docs: 0,
            detected: Vec::new(),
            dedups: vec![DedupSnapshot::default(); shards],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::Deduplicator;
    use dox_extract::record::extract;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;

    fn sample() -> SessionCheckpoint {
        let mut dedup = Deduplicator::new();
        let body = "Name: A Person\nfb: a.person9";
        dedup.check(3, body, &extract(body));
        let counters = PipelineCounters {
            total: 5,
            per_period: [3, 2],
            per_source: [("pastebin.com".to_string(), 5)].into_iter().collect(),
            classified_dox: 1,
            ..PipelineCounters::default()
        };
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: 2,
            counters,
            dox_ids: [3u64].into_iter().collect(),
            stage_gap_docs: 0,
            detected: vec![DetectedDox {
                doc_id: 3,
                source: Source::Pastebin,
                period: 1,
                posted_at: SimTime(10),
                observed_at: SimTime(15),
                text: body.to_string(),
                extracted: extract(body),
                duplicate: None,
                truth: None,
            }],
            dedups: vec![dedup.snapshot(), Deduplicator::new().snapshot()],
        }
    }

    #[test]
    fn checkpoints_round_trip_byte_identically() {
        let original = sample();
        let json = serde_json::to_string(&original).expect("serializes");
        let parsed: SessionCheckpoint = serde_json::from_str(&json).expect("parses");
        assert_eq!(parsed, original);
        let rewritten = serde_json::to_string(&parsed).expect("serializes again");
        assert_eq!(rewritten, json, "round trip is byte-stable");
    }
}
