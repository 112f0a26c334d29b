//! The per-layer probe of traced runs.
//!
//! It calls each layer's public functions from here, on the workload's
//! own documents, and records a span around every call: training
//! (`Study::train_detector`), HTML conversion (`html_to_text`),
//! classification (`DoxClassifier::is_dox`), extraction (`extract`),
//! de-duplication (`Deduplicator::check`), the engine (`Session`
//! ingest, flush, checkpoint and finish) and the store (`Store::open`
//! and `checkpoint`). No program code is instrumented.
//!
//! The stage pass runs twice, once without spans, so the difference is
//! the tracing overhead, and the time no span covers is reported as
//! unattributed.

use crate::inputs::{tenant_spec, train_classifier, Corpus};
use crate::util::{self, ms, Spans};
use crate::Record;
use dox_core::study::Study;
use dox_core::training::DoxClassifier;
use dox_engine::dedup::{DedupSpillConfig, Deduplicator};
use dox_engine::stage::DoxDetector;
use dox_engine::{Engine, EngineConfig, Session};
use dox_extract::record::extract;
use dox_obs::Registry;
use dox_sites::collect::CollectedDoc;
use dox_store::Store;
use dox_textkit::html::html_to_text;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Documents per flush in the flush-latency pass (the serve_stream
/// request size).
const FLUSH_BATCH: usize = 4;
/// Flushes timed in the flush-latency pass.
const FLUSHES: usize = 2000;
/// Checkpoints taken (engine and store) in the checkpoint pass.
const CHECKPOINTS: usize = 5;
/// Rounds of the stage and one-worker engine passes.
const ROUNDS: usize = 2;

/// The sequential stage pass over `docs`, spans into `spans` when given.
/// Mirrors what the reference pipeline does per document.
fn stage_pass(
    classifier: &DoxClassifier,
    docs: &[(u8, CollectedDoc)],
    mut spans: Option<&mut Spans>,
) -> (u64, u64) {
    let mut dedup = Deduplicator::new();
    let (mut positives, mut duplicates) = (0u64, 0u64);
    // The untraced pass reads no clock at all.
    let tracing = spans.is_some();
    let now = || tracing.then(Instant::now);
    let mut span = |layer: &'static str, start: Option<Instant>| {
        if let (Some(s), Some(start)) = (spans.as_deref_mut(), start) {
            s.record(layer, start.elapsed());
        }
    };
    for (_, collected) in docs {
        let doc = &collected.doc;
        let text = if doc.source.is_html() {
            let t = now();
            let text = html_to_text(&doc.body);
            span("html", t);
            text
        } else {
            doc.body.clone()
        };
        let t = now();
        let is_dox = classifier.is_dox(&text);
        span("classify", t);
        if !is_dox {
            continue;
        }
        positives += 1;
        let t = now();
        let extracted = extract(&text);
        span("extract", t);
        let t = now();
        let duplicate = dedup.check(doc.id, &text, &extracted);
        span("dedup", t);
        duplicates += u64::from(duplicate.is_some());
    }
    (positives, duplicates)
}

fn session(
    workers: usize,
    detector: Arc<dyn DoxDetector>,
    registry: &Registry,
    store: Option<&Arc<Store>>,
) -> Session {
    let engine = Engine::from_config(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
    .expect("non-zero topology");
    let mut builder = engine
        .session_builder()
        .detector(detector)
        .registry(registry);
    if let Some(store) = store {
        builder = builder.spill(DedupSpillConfig {
            store: Arc::clone(store),
            cap_entries: 65_536,
        });
    }
    builder.start().expect("session starts")
}

/// Feed every document, timing the `ingest` calls; returns
/// `(wall seconds including finish, seconds blocked in ingest)`.
fn engine_pass(mut s: Session, docs: &[(u8, CollectedDoc)]) -> (f64, f64) {
    let start = Instant::now();
    let mut blocked = 0.0;
    for (period, doc) in docs {
        let t = Instant::now();
        s.ingest(*period, doc.clone()).expect("ingest");
        blocked += t.elapsed().as_secs_f64();
    }
    s.finish().expect("finish");
    (start.elapsed().as_secs_f64(), blocked)
}

fn dir_bytes(dir: &std::path::Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Run the probe on `corpus` (the stream of `seed` at `scale`) and put
/// every per-layer metric it measures into `record`.
pub fn probe(corpus: &Corpus, seed: u64, scale: f64, record: &mut Record) {
    let config = tenant_spec("probe", seed, scale).study_config();
    let docs = &corpus.docs;
    let n = docs.len() as f64;
    record.put("gen.docs", n);
    record.put("gen.busy_s", corpus.gen_s);

    let study = Study::with_registry(config.clone(), Registry::new());
    let t = Instant::now();
    let detector = study.train_detector().expect("training replays");
    record.put("train.busy_s", t.elapsed().as_secs_f64());
    let classifier = train_classifier(&config);

    // The stage pass, untraced and traced, alternating; each figure is
    // the faster of `ROUNDS` passes so a busy moment on a shared machine
    // does not land in one side only.
    let (mut untraced, mut traced, mut w1) = (f64::MAX, f64::MAX, f64::MAX);
    let mut engine_stage_s = 0.0;
    let mut counts = None;
    let mut spans = Spans::default();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let c = stage_pass(&classifier, docs, None);
        untraced = untraced.min(t.elapsed().as_secs_f64());
        let mut round = Spans::default();
        let t = Instant::now();
        assert_eq!(
            c,
            stage_pass(&classifier, docs, Some(&mut round)),
            "stage pass is deterministic"
        );
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed < traced {
            traced = elapsed;
            spans = round;
        }
        counts = Some(c);
        // The engine at one worker. Its overhead is its wall time less
        // the stage time its own registry records for the same run.
        let registry = Registry::new();
        let (w, _) = engine_pass(session(1, Arc::clone(&detector), &registry, None), docs);
        if w < w1 {
            w1 = w;
            let snap = registry.snapshot();
            engine_stage_s = ["html_convert", "classify", "extract", "dedup"]
                .iter()
                .filter_map(|s| snap.spans.get(&format!("pipeline.stage.{s}")))
                .map(|h| h.sum as f64 / 1e9)
                .sum();
        }
    }
    let (positives, duplicates) = counts.expect("ROUNDS > 0");
    let stages = ["html", "classify", "extract", "dedup"];
    let stage_busy: f64 = stages.iter().map(|s| spans.busy_s(s)).sum();
    for (layer, count_name) in [
        ("html", "html.docs"),
        ("classify", "classify.docs"),
        ("extract", "extract.docs"),
        ("dedup", "dedup.checks"),
    ] {
        record.put(count_name, spans.count(layer) as f64);
    }
    record.put("html.busy_s", spans.busy_s("html"));
    record.put("classify.busy_s", spans.busy_s("classify"));
    record.put("extract.busy_s", spans.busy_s("extract"));
    record.put("dedup.busy_s", spans.busy_s("dedup"));
    record.put("classify.positive_ratio", positives as f64 / n.max(1.0));
    record.put(
        "dedup.duplicate_ratio",
        duplicates as f64 / (positives as f64).max(1.0),
    );
    record.put("trace.overhead_ratio", traced / untraced - 1.0);
    record.put("trace.unattributed_ratio", 1.0 - stage_busy / traced);
    record.put("engine.w1_s", w1);
    record.put("engine.overhead_s", w1 - engine_stage_s);

    // The engine at its default worker count.
    let workers = EngineConfig::default().workers;
    let before = util::threads(std::process::id()).len();
    let s = session(workers, Arc::clone(&detector), &Registry::new(), None);
    let per_session = util::threads(std::process::id()).len() - before;
    let (wn, blocked_n) = engine_pass(s, docs);
    record.put("engine.docs_per_s", n / wn);
    record.put("engine.ingest_block_s", blocked_n);
    if !record.metrics.contains_key("engine.threads") {
        record.put("engine.threads", per_session as f64);
    }

    // Flush latency at the serve_stream request size, and checkpoints of
    // a store-backed session, as the daemon's drain takes them.
    let scratch = util::ScratchDir::new("probe").expect("scratch dir");
    let store_dir = scratch.path().join("store");
    let store = Arc::new(Store::open(&store_dir, &Registry::new()).expect("store opens"));
    let mut s = session(
        workers,
        Arc::clone(&detector),
        &Registry::new(),
        Some(&store),
    );
    let table = dox_store::Table::<String, String>::new(Arc::clone(&store), "probe");
    let mut flush = Spans::default();
    let mut engine_ck = Spans::default();
    let mut store_ck = Spans::default();
    let flushes = FLUSHES.min(docs.len() / FLUSH_BATCH);
    for (i, chunk) in docs.chunks(FLUSH_BATCH).take(flushes).enumerate() {
        for (period, doc) in chunk {
            s.ingest(*period, doc.clone()).expect("ingest");
        }
        flush.time("flush", || s.flush()).expect("flush");
        if (i + 1) % (flushes / CHECKPOINTS).max(1) == 0 {
            let ck = engine_ck
                .time("checkpoint", || s.checkpoint())
                .expect("checkpoint");
            let text = serde_json::to_string(&ck.to_value()).expect("checkpoint encodes");
            table.put(&"session".to_string(), &text).expect("store put");
            store_ck
                .time("checkpoint", || store.checkpoint())
                .expect("store checkpoint");
        }
    }
    s.finish().expect("finish");
    drop(table);
    drop(store);
    record.put("engine.flush_p50_ms", flush.quantile_ms("flush", 0.5));
    record.put("engine.flush_p99_ms", flush.quantile_ms("flush", 0.99));
    record.put(
        "engine.checkpoint_ms",
        engine_ck.quantile_ms("checkpoint", 0.5),
    );
    record.put("store.checkpoints", store_ck.count("checkpoint") as f64);
    record.put(
        "store.checkpoint_ms",
        store_ck.quantile_ms("checkpoint", 0.5),
    );
    record.put("store.bytes", dir_bytes(&store_dir));
    // Reopening reads the manifest and segments back: the resume path.
    let t = Instant::now();
    let reopened = Store::open(&store_dir, &Registry::new()).expect("store reopens");
    record.put("store.open_ms", ms(t.elapsed()));
    drop(reopened);
}
