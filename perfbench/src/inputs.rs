//! Workload inputs and their expected outputs.
//!
//! A [`Corpus`] is one study's deterministic document stream at a
//! `(seed, scale)`, replayed through [`Study::synthetic_stream`], plus
//! what the sequential reference [`Pipeline`] says about every document.
//! The serve workloads check each verdict the daemon returns against it.

use dox_core::pipeline::{DetectedDox, Pipeline};
use dox_core::study::{Study, StudyConfig};
use dox_core::training::DoxClassifier;
use dox_engine::EngineConfig;
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_obs::{redact, Registry};
use dox_serve::tenant::TenantSpec;
use dox_sites::collect::CollectedDoc;
use dox_synth::corpus::CorpusGenerator;
use serde::Serialize;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Instant;

/// The reference verdict for one document, as `/v1/ingest` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not classified a dox.
    Accepted,
    /// A dox, first of its victim.
    Dox,
    /// A dox duplicating an earlier one.
    Duplicate,
}

impl Verdict {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Accepted => "accepted",
            Verdict::Dox => "dox",
            Verdict::Duplicate => "duplicate",
        }
    }
}

/// The tenant spec the serve workloads create for `(id, seed, scale)`:
/// the daemon's default engine topology, no quota.
pub fn tenant_spec(id: &str, seed: u64, scale: f64) -> TenantSpec {
    let defaults = EngineConfig::default();
    TenantSpec {
        id: id.to_string(),
        seed,
        scale,
        workers: defaults.workers,
        shards: defaults.shards,
        quota: None,
    }
}

/// The classifier `Study` trains for `config`: world, allocation, then
/// the labeled training sets of a fresh generator — the same replay
/// `Study::train_detector` performs, kept concrete because the
/// reference [`Pipeline`] takes a [`DoxClassifier`].
pub fn train_classifier(config: &StudyConfig) -> DoxClassifier {
    let world = World::generate(&config.world, config.seed);
    let alloc = Allocation::generate(&world, &config.alloc, config.seed);
    let mut gen = CorpusGenerator::new(&world, &alloc, config.synth.clone());
    let (texts, labels) = gen.training_sets();
    DoxClassifier::train(&texts, &labels, config.seed).0
}

/// Documents per reference-pipeline batch.
const REFERENCE_BATCH: usize = 8_192;

/// One study's document stream with its reference outputs.
pub struct Corpus {
    /// `(period, document id)` in stream order.
    pub meta: Vec<(u8, u64)>,
    /// `(period, document)` in stream order; empty unless the caller
    /// asked to keep the documents (the traced probe needs them).
    pub docs: Vec<(u8, CollectedDoc)>,
    /// Each document serialized as `/v1/ingest` expects it.
    pub wire: Vec<String>,
    /// The reference verdict of each document.
    pub verdicts: Vec<Verdict>,
    /// Document ids of the reference detections, in commit order: the
    /// tenant's alert stream.
    pub alerts: Vec<u64>,
    /// Every victim and account fingerprint the whole stream produces,
    /// so lookups meant to miss can avoid them.
    pub known_fps: BTreeSet<u32>,
    /// Seconds from the first to the last generated document.
    pub gen_s: f64,
}

impl Corpus {
    /// Replay the stream of `(seed, scale)` and run it through the
    /// reference pipeline on `threads` threads.
    pub fn build(seed: u64, scale: f64, threads: usize, keep_docs: bool) -> dox_core::Result<Self> {
        let config = tenant_spec("gen", seed, scale).study_config();
        let study = Study::with_registry(config.clone(), Registry::new());
        let mut docs = Vec::new();
        let mut first: Option<Instant> = None;
        let mut last = Instant::now();
        study.synthetic_stream(&mut |period, doc| {
            let now = Instant::now();
            first.get_or_insert(now);
            last = now;
            docs.push((period, doc));
            ControlFlow::Continue(())
        })?;
        let gen_s = first.map_or(0.0, |f| (last - f).as_secs_f64());

        // Fed in runs of one period, at most `REFERENCE_BATCH` documents
        // at a time, exactly as `Study::run_reference` feeds it.
        let mut pipeline = Pipeline::with_registry(train_classifier(&config), &Registry::new());
        let mut start = 0;
        while start < docs.len() {
            let period = docs[start].0;
            let end = start
                + docs[start..]
                    .iter()
                    .take(REFERENCE_BATCH)
                    .take_while(|(p, _)| *p == period)
                    .count();
            let batch: Vec<CollectedDoc> =
                docs[start..end].iter().map(|(_, d)| d.clone()).collect();
            pipeline.process_batch(&batch, period, threads);
            start = end;
        }
        let detected = pipeline.detected();
        let mut verdicts = Vec::with_capacity(docs.len());
        let mut next = 0;
        for (_, doc) in &docs {
            let verdict = match detected.get(next) {
                Some(d) if d.doc_id == doc.doc.id => {
                    next += 1;
                    if d.duplicate.is_some() {
                        Verdict::Duplicate
                    } else {
                        Verdict::Dox
                    }
                }
                _ => Verdict::Accepted,
            };
            verdicts.push(verdict);
        }
        assert_eq!(next, detected.len(), "detections follow stream order");
        let mut known_fps = BTreeSet::new();
        for d in detected {
            known_fps.extend(fingerprints(d));
        }
        let wire = docs
            .iter()
            .map(|(_, d)| serde_json::to_string(&d.to_value()).expect("documents serialize"))
            .collect();
        let meta = docs.iter().map(|(p, d)| (*p, d.doc.id)).collect();
        Ok(Self {
            alerts: detected.iter().map(|d| d.doc_id).collect(),
            meta,
            docs: if keep_docs { docs } else { Vec::new() },
            wire,
            verdicts,
            known_fps,
            gen_s,
        })
    }

    /// Documents in the stream.
    pub fn len(&self) -> usize {
        self.meta.len()
    }
}

/// The victim and account fingerprints `dox-serve` indexes a detection
/// under (`redact` of `network:handle`, and of the joined account-set
/// key), used only to pick lookup ids that certainly miss.
fn fingerprints(d: &DetectedDox) -> Vec<u32> {
    let mut out: Vec<u32> = d
        .extracted
        .osn
        .iter()
        .map(|o| redact(format!("{}:{}", o.network, o.handle)).fingerprint())
        .collect();
    let key = d.extracted.account_set_key();
    if !key.is_empty() {
        let material: String = key.iter().map(|(n, h)| format!("{n}:{h}|")).collect();
        out.push(redact(material).fingerprint());
    }
    out
}

/// A small deterministic generator (SplitMix64) for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
