//! A live ingest session: parallel classify, sequential fold.
//!
//! ```text
//! caller ──ingest()──▶ chunk buffer ──submit──▶ stage pool (process-wide,
//!                                                 pure classify/extract)
//!    ▲                                                   │
//!    └──── fold, oldest chunk first ◀── ≤ workers chunks in flight
//!          (funnel counters, stage gaps, dedup, trace hops,
//!           detected-dox log — all in the caller's thread)
//! ```
//!
//! Determinism holds by construction: the only parallel work is the pure
//! stage, and every piece of state is touched by one sequential fold that
//! takes chunks in the order they were cut and documents in the order
//! they arrived. There is nothing to reorder and nothing to quiesce — the
//! result is byte-identical to one sequential pass for any `(workers,
//! shards, chunk)`.
//!
//! A session owns no threads. `workers` sets its share of the stage
//! pool: `ingest` cuts a chunk every `chunk` documents and, once `2 ×
//! workers` are in flight, folds the oldest before handing over the
//! next — `workers` chunks classify while as many wait their turn, so
//! the pool stays busy while the caller produces the next chunk. Memory
//! stays bounded by about `(2 × workers + 1) × chunk` documents
//! regardless of corpus size. [`Session::flush`],
//! [`Session::checkpoint`] and [`Session::finish`] fold everything in
//! flight first.
//!
//! Dedup state stays partitioned by [`crate::dedup::shard_signature`]
//! into `shards` [`Deduplicator`]s: the partitions are what a store spill
//! pages out and what a checkpoint's shard count pins.
//!
//! ## Fault injection
//!
//! When the engine config carries [`EngineFaults`](crate::EngineFaults),
//! each chunk gets the plan's
//! [`stage_directive`](dox_fault::FaultPlan::stage_directive), keyed by
//! the stream position of the chunk's first document: slow chunks insert
//! cooperative yields on the pool thread (scheduling pressure only —
//! results are unaffected, which the determinism tests verify), poisoned
//! chunks simulate a worker that panics on the chunk some number of times.
//! A poisoned chunk whose failure count exceeds the retry budget marks
//! every document in it as a **stage coverage gap** — counted explicitly
//! in [`PipelineOutput::stage_gap_docs`], never silently dropped.
//!
//! A real panic in the stage (a detector that panics) is caught on the
//! pool thread and surfaces as [`EngineError::StageFailed`] from this and
//! every later call on the session; the pool thread lives on.

use crate::checkpoint::{SessionCheckpoint, CHECKPOINT_VERSION};
use crate::dedup::{
    shard_of, shard_signature, DedupSpill, DedupSpillConfig, Deduplicator, DuplicateKind,
};
use crate::output::{DetectedDox, PipelineCounters, PipelineOutput, StagedDoc};
use crate::pool::{self, Pending};
use crate::stage::{classify_and_extract, DoxDetector, StageLocal, StageMetrics};
use crate::{EngineConfig, EngineError};
use dox_fault::{FaultPlan, StageDirective};
use dox_obs::trace::{fault_hop, hop};
use dox_obs::{Counter, Histogram, Registry, Tracer};
use dox_sites::collect::CollectedDoc;
use dox_synth::truth::GroundTruth;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A chunk back from the pool: each document with its stage outcome,
/// `None` when the chunk's poison exhausted the retry budget.
type StagedChunk = Vec<(u8, CollectedDoc, Option<StagedDoc>)>;

/// A chunk on the pool, with the fault directive it runs under.
struct InFlight {
    directive: StageDirective,
    staged: Pending<StagedChunk>,
}

/// Metric handles the fold reports into, resolved once per session.
struct FoldMetrics {
    collected: Counter,
    classified_dox: Counter,
    duplicates: Counter,
    unique: Counter,
    slow_chunks: Counter,
    poisoned_chunks: Counter,
    stage_retries: Counter,
    exhausted_docs: Counter,
    route_ns: Histogram,
    dedup_ns: Histogram,
    commit_ns: Histogram,
}

impl FoldMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            collected: registry.counter("pipeline.funnel.collected"),
            classified_dox: registry.counter("pipeline.funnel.classified_dox"),
            duplicates: registry.counter("pipeline.funnel.duplicates"),
            unique: registry.counter("pipeline.funnel.unique"),
            slow_chunks: registry.counter("engine.fault.slow_chunks"),
            poisoned_chunks: registry.counter("engine.fault.poisoned_chunks"),
            stage_retries: registry.counter("engine.fault.stage_retries"),
            exhausted_docs: registry.counter("engine.fault.stage_exhausted_docs"),
            route_ns: registry.histogram("pipeline.stage.route"),
            dedup_ns: registry.histogram("pipeline.stage.dedup"),
            commit_ns: registry.histogram("pipeline.stage.commit"),
        }
    }
}

/// A running ingest session.
///
/// Created by [`Engine::session_builder`](crate::Engine::session_builder);
/// feed it with [`ingest`](Session::ingest) and close it with
/// [`finish`](Session::finish). [`checkpoint`](Session::checkpoint)
/// captures a resumable snapshot mid-stream.
///
/// For resident (service-mode) sessions that never `finish`,
/// [`flush`](Session::flush) folds everything ingested so far, and
/// [`committed_len`](Session::committed_len) /
/// [`detected_since`](Session::detected_since) /
/// [`output_snapshot`](Session::output_snapshot) observe the committed
/// state without closing the stream.
pub struct Session {
    detector: Arc<dyn DoxDetector>,
    stage_metrics: StageMetrics,
    faults: Option<(FaultPlan, u32)>,
    chunk: usize,
    workers: usize,
    buf: Vec<(u8, CollectedDoc)>,
    /// Stream position of the first buffered document — the fault key of
    /// the next chunk.
    next_doc: u64,
    in_flight: VecDeque<InFlight>,
    /// The first stage panic; a failed session answers it from then on.
    failed: Option<EngineError>,
    shards: usize,
    counters: PipelineCounters,
    dox_ids: BTreeSet<u64>,
    stage_gap_docs: u64,
    detected: Vec<DetectedDox>,
    dedups: Vec<Deduplicator>,
    metrics: FoldMetrics,
    tracer: Tracer,
}

impl Session {
    pub(crate) fn start(
        config: &EngineConfig,
        detector: Arc<dyn DoxDetector>,
        registry: &Registry,
        tracer: &Tracer,
        restore: Option<SessionCheckpoint>,
        spill: Option<DedupSpillConfig>,
    ) -> Self {
        let restore = restore.unwrap_or_else(|| SessionCheckpoint::empty(config.shards));
        // Each shard gets its own store tables; lookups union memory with
        // the store, so attaching the spill after a restore is sound.
        let dedups = restore
            .dedups
            .into_iter()
            .enumerate()
            .map(|(shard, snapshot)| {
                let mut dedup = Deduplicator::restore(snapshot);
                if let Some(cfg) = &spill {
                    dedup.attach_spill(DedupSpill::new(
                        Arc::clone(&cfg.store),
                        shard,
                        cfg.cap_entries,
                    ));
                }
                dedup
            })
            .collect();
        pool::start();
        registry.gauge("engine.workers").set(config.workers as i64);
        registry.gauge("engine.shards").set(config.shards as i64);
        Self {
            detector,
            stage_metrics: StageMetrics::resolve(registry),
            faults: config
                .faults
                .as_ref()
                .map(|f| (FaultPlan::new(f.plan.clone()), f.policy.max_retries)),
            chunk: config.chunk,
            workers: config.workers,
            buf: Vec::with_capacity(config.chunk),
            next_doc: restore.counters.total,
            in_flight: VecDeque::with_capacity(2 * config.workers),
            failed: None,
            shards: config.shards,
            counters: restore.counters,
            dox_ids: restore.dox_ids,
            stage_gap_docs: restore.stage_gap_docs,
            detected: restore.detected,
            dedups,
            metrics: FoldMetrics::resolve(registry),
            tracer: tracer.clone(),
        }
    }

    /// Feed one collected document from the given period (1 or 2) into
    /// the engine. Every `chunk` documents this hands a chunk to the
    /// stage pool, first folding the oldest in-flight chunk when `2 ×
    /// workers` are already out.
    ///
    /// # Errors
    /// [`EngineError::InvalidPeriod`] for a period other than 1 or 2 (the
    /// session stays usable), or [`EngineError::StageFailed`] once the
    /// stage has panicked on some chunk.
    pub fn ingest(&mut self, period: u8, doc: CollectedDoc) -> Result<(), EngineError> {
        if !(1..=2).contains(&period) {
            return Err(EngineError::InvalidPeriod(period));
        }
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        if self.tracer.sampled(doc.doc.id) {
            // Admission happens here, in ingest order, so which documents
            // occupy the bounded trace buffer is a pure function of the
            // stream. A no-op when the collector already began this trace
            // (insert-if-absent).
            self.tracer
                .begin(doc.doc.id, hop("ingest", doc.collected_at.0, ""));
        }
        self.buf.push((period, doc));
        if self.buf.len() >= self.chunk {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Hand the buffered documents to the pool as one chunk, folding the
    /// oldest in-flight chunk first if `2 × workers` are already out.
    fn dispatch(&mut self) -> Result<(), EngineError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        while self.in_flight.len() >= 2 * self.workers {
            self.fold_oldest()?;
        }
        let docs = std::mem::replace(&mut self.buf, Vec::with_capacity(self.chunk));
        let directive = self
            .faults
            .as_ref()
            .map_or(StageDirective::Healthy, |(plan, _)| {
                plan.stage_directive(self.next_doc)
            });
        self.next_doc += docs.len() as u64;
        let exhausted = self.exhausts(directive);
        let detector = Arc::clone(&self.detector);
        let metrics = self.stage_metrics.clone();
        let staged = pool::submit(move || {
            if let StageDirective::Slow { yields } = directive {
                for _ in 0..yields {
                    std::thread::yield_now();
                }
            }
            let mut timings = StageLocal::default();
            let staged = docs
                .into_iter()
                .map(|(period, mut doc)| {
                    let outcome =
                        (!exhausted).then(|| classify_and_extract(&detector, &doc, &mut timings));
                    // The fold reads only the staged text, so free the raw
                    // body here rather than on the caller's thread.
                    drop(std::mem::take(&mut doc.doc.body));
                    (period, doc, outcome)
                })
                .collect();
            timings.merge_into(&metrics);
            staged
        });
        self.in_flight.push_back(InFlight { directive, staged });
        Ok(())
    }

    /// Whether `directive` poisons its chunk past the retry budget, so
    /// every document in it becomes a stage gap.
    fn exhausts(&self, directive: StageDirective) -> bool {
        match (directive, &self.faults) {
            (StageDirective::Poison { failures }, Some((_, max_retries))) => {
                failures > *max_retries
            }
            _ => false,
        }
    }

    /// Wait for the oldest in-flight chunk and fold it into the session
    /// state. A stage panic fails the session for good.
    fn fold_oldest(&mut self) -> Result<(), EngineError> {
        let Some(InFlight { directive, staged }) = self.in_flight.pop_front() else {
            return Ok(());
        };
        match staged.wait() {
            Ok(staged) => {
                self.fold_chunk(directive, staged);
                Ok(())
            }
            Err(cause) => {
                let err = EngineError::StageFailed {
                    stage: "stage pool",
                    cause,
                };
                self.in_flight.clear();
                self.failed = Some(err.clone());
                Err(err)
            }
        }
    }

    /// Apply one staged chunk in document order: route (funnel counters,
    /// stage gaps, shard choice), then dedup and commit each dox.
    fn fold_chunk(&mut self, directive: StageDirective, staged: StagedChunk) {
        let exhausted = self.exhausts(directive);
        let m = &self.metrics;
        // The chunk's fault weather, kept so sampled documents can carry a
        // `stage_fault` hop: (attempts the simulated supervisor made, note).
        let fault_event = match directive {
            StageDirective::Healthy => None,
            StageDirective::Slow { yields } => {
                m.slow_chunks.inc();
                Some((1, format!("slow yields={yields}")))
            }
            StageDirective::Poison { failures } => {
                m.poisoned_chunks.inc();
                let fate = if exhausted {
                    "exhausted"
                } else {
                    // A retrying supervisor re-runs the pure stage; only
                    // the attempt count is observable.
                    m.stage_retries.add(u64::from(failures));
                    "retried"
                };
                Some((failures + 1, format!("poison {fate} failures={failures}")))
            }
        };
        if exhausted {
            m.exhausted_docs.add(staged.len() as u64);
        }

        // dox-lint:allow(determinism) route-stage timing histogram; observation only
        let fold_start = Instant::now();
        // Time spent in dedup and commit; the rest of the fold is routing.
        let mut stateful = Duration::ZERO;
        m.collected.add(staged.len() as u64);
        for (period, collected, outcome) in staged {
            let CollectedDoc { doc, collected_at } = collected;
            let at = collected_at.0;
            let sampled = self.tracer.sampled(doc.id);
            if sampled {
                if let Some((attempts, note)) = &fault_event {
                    self.tracer
                        .hop(doc.id, fault_hop("stage_fault", at, *attempts, 0, 0, note));
                }
                let verdict = match &outcome {
                    Some(Some(_)) => "dox",
                    Some(None) => "paste",
                    None => "failed",
                };
                self.tracer.hop(doc.id, hop("classify", at, verdict));
            }
            let slot = usize::from(period - 1);
            self.counters.total += 1;
            self.counters.per_period[slot] += 1;
            let source = doc.source.name();
            match self.counters.per_source.get_mut(source) {
                Some(n) => *n += 1,
                None => {
                    self.counters.per_source.insert(source.to_string(), 1);
                }
            }
            let Some(outcome) = outcome else {
                self.stage_gap_docs += 1;
                if sampled {
                    let note = "document lost to exhausted poison";
                    self.tracer.hop(doc.id, hop("stage_gap", at, note));
                }
                continue;
            };
            let Some((text, extracted)) = outcome else {
                continue;
            };
            self.counters.classified_dox += 1;
            self.counters.dox_per_period[slot] += 1;
            m.classified_dox.inc();
            self.dox_ids.insert(doc.id);
            let sig = shard_signature(&text, &extracted);
            let dox_seq = self.detected.len();
            if sampled {
                // The hop carries the shard *signature*, not the shard
                // index: the signature is a pure function of content, so
                // traces stay byte-identical across shard counts.
                let note = format!("sig={sig:016x} dox_seq={dox_seq}");
                self.tracer.hop(doc.id, hop("route", at, note));
            }

            // dox-lint:allow(determinism) dedup-stage timing histogram; never enters the report
            let start = Instant::now();
            let shard = shard_of(sig, self.shards);
            let duplicate = self.dedups[shard].check(doc.id, &text, &extracted);
            let dedup_time = start.elapsed();
            m.dedup_ns.observe_duration(dedup_time);

            // dox-lint:allow(determinism) commit-stage timing histogram; observation only
            let start = Instant::now();
            if sampled {
                let (note, fate) = match &duplicate {
                    None => ("unique".to_string(), "unique"),
                    Some((kind, of)) => (format!("duplicate kind={kind:?} of={of}"), "duplicate"),
                };
                self.tracer.hop(doc.id, hop("dedup", at, note));
                let note = format!("dox_seq={dox_seq} {fate}");
                self.tracer.hop(doc.id, hop("commit", at, note));
            }
            match duplicate {
                Some((kind, _)) => {
                    self.counters.duplicates_per_period[slot] += 1;
                    m.duplicates.inc();
                    match kind {
                        DuplicateKind::ExactBody => self.counters.exact_duplicates += 1,
                        DuplicateKind::AccountSet => self.counters.account_set_duplicates += 1,
                        DuplicateKind::Fuzzy => {}
                    }
                }
                None => m.unique.inc(),
            }
            self.detected.push(DetectedDox {
                doc_id: doc.id,
                source: doc.source,
                period,
                posted_at: doc.posted_at,
                observed_at: collected_at,
                text,
                extracted,
                duplicate,
                truth: match doc.truth {
                    GroundTruth::Dox(truth) => Some(truth),
                    GroundTruth::Paste { .. } => None,
                },
            });
            let commit_time = start.elapsed();
            m.commit_ns.observe_duration(commit_time);
            stateful += dedup_time + commit_time;
        }
        m.route_ns
            .observe_duration(fold_start.elapsed().saturating_sub(stateful));
    }

    /// Fold everything ingested so far: the partial chunk and every chunk
    /// in flight.
    ///
    /// # Errors
    /// [`EngineError::StageFailed`] once the stage has panicked on some
    /// chunk.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        self.dispatch()?;
        while !self.in_flight.is_empty() {
            self.fold_oldest()?;
        }
        Ok(())
    }

    /// How many classified doxes have been committed so far (unique and
    /// duplicate alike). Use as the cursor for
    /// [`detected_since`](Session::detected_since). Monotonic; resumed
    /// sessions count their restored log too.
    pub fn committed_len(&self) -> usize {
        self.detected.len()
    }

    /// Clone the committed detected-dox log from `since` (a previous
    /// [`committed_len`](Session::committed_len) reading) onward. Call
    /// after [`flush`](Session::flush) to include everything ingested;
    /// the log only ever grows, so a cursor never skips entries.
    pub fn detected_since(&self, since: usize) -> Vec<DetectedDox> {
        self.detected.get(since..).unwrap_or_default().to_vec()
    }

    /// Flush, then clone the full [`PipelineOutput`] as of everything
    /// ingested so far — the live-session counterpart of
    /// [`finish`](Session::finish), leaving the stream open. The clone is
    /// byte-identical to what `finish` would return right now.
    ///
    /// # Errors
    /// Propagates [`flush`](Session::flush) errors.
    pub fn output_snapshot(&mut self) -> Result<PipelineOutput, EngineError> {
        self.flush()?;
        Ok(PipelineOutput {
            detected: self.detected.clone(),
            counters: self.counters.clone(),
            dox_ids: self.dox_ids.clone(),
            stage_gap_docs: self.stage_gap_docs,
        })
    }

    /// Capture a resumable snapshot of the session without closing it.
    ///
    /// Flushes (chunk boundaries never affect results), then snapshots
    /// the folded state. Feed the snapshot to
    /// [`SessionBuilder::resume_from`](crate::SessionBuilder::resume_from)
    /// to continue the stream in a later process; replaying the remaining
    /// documents yields output byte-identical to the uninterrupted run.
    ///
    /// # Errors
    /// Propagates [`flush`](Session::flush) errors.
    pub fn checkpoint(&mut self) -> Result<SessionCheckpoint, EngineError> {
        self.flush()?;
        Ok(SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: self.shards,
            counters: self.counters.clone(),
            dox_ids: self.dox_ids.clone(),
            stage_gap_docs: self.stage_gap_docs,
            detected: self.detected.clone(),
            dedups: self.dedups.iter().map(Deduplicator::snapshot).collect(),
        })
    }

    /// Close the stream, fold everything in flight and return the
    /// combined output. The result is byte-identical to a sequential pass
    /// over the same documents in the same order.
    ///
    /// # Errors
    /// Propagates [`flush`](Session::flush) errors.
    pub fn finish(mut self) -> Result<PipelineOutput, EngineError> {
        self.flush()?;
        Ok(PipelineOutput {
            detected: self.detected,
            counters: self.counters,
            dox_ids: self.dox_ids,
            stage_gap_docs: self.stage_gap_docs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineFaults};
    use dox_fault::{FaultPlanConfig, RetryPolicy};
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::{Source, SynthDoc};
    use dox_synth::truth::PasteKind;

    /// A detector that flags documents containing "dox".
    struct KeywordDetector;

    impl DoxDetector for KeywordDetector {
        fn decision(&self, text: &str) -> f64 {
            if text.contains("dox") {
                1.0
            } else {
                -1.0
            }
        }
    }

    /// Start a keyword-detector session on an isolated registry.
    fn start(engine: &Engine, registry: &Registry) -> Session {
        engine
            .session_builder()
            .detector(Arc::new(KeywordDetector))
            .registry(registry)
            .start()
            .expect("detector set")
    }

    fn doc(id: u64, body: &str) -> CollectedDoc {
        CollectedDoc {
            doc: SynthDoc {
                id,
                source: Source::Pastebin,
                posted_at: SimTime(id),
                body: body.to_string(),
                deleted_after: None,
                truth: GroundTruth::Paste {
                    kind: PasteKind::Code,
                },
            },
            collected_at: SimTime(id + 5),
        }
    }

    /// A sequential reference: the same commit semantics, single thread.
    fn sequential(docs: &[(u8, CollectedDoc)]) -> PipelineOutput {
        let mut out = PipelineOutput::default();
        let mut dedup = Deduplicator::new();
        let mut timings = StageLocal::default();
        for (period, collected) in docs {
            let slot = usize::from(period - 1);
            out.counters.total += 1;
            out.counters.per_period[slot] += 1;
            *out.counters
                .per_source
                .entry(collected.doc.source.name().to_string())
                .or_insert(0) += 1;
            let Some((text, extracted)) =
                classify_and_extract(&KeywordDetector, collected, &mut timings)
            else {
                continue;
            };
            out.counters.classified_dox += 1;
            out.counters.dox_per_period[slot] += 1;
            out.dox_ids.insert(collected.doc.id);
            let duplicate = dedup.check(collected.doc.id, &text, &extracted);
            if let Some((kind, _)) = duplicate {
                out.counters.duplicates_per_period[slot] += 1;
                match kind {
                    DuplicateKind::ExactBody => out.counters.exact_duplicates += 1,
                    DuplicateKind::AccountSet => out.counters.account_set_duplicates += 1,
                    DuplicateKind::Fuzzy => {}
                }
            }
            out.detected.push(DetectedDox {
                doc_id: collected.doc.id,
                source: collected.doc.source,
                period: *period,
                posted_at: collected.doc.posted_at,
                observed_at: collected.collected_at,
                text,
                extracted,
                duplicate,
                truth: collected.doc.truth.as_dox().map(|t| Box::new(t.clone())),
            });
        }
        out
    }

    fn corpus() -> Vec<(u8, CollectedDoc)> {
        let mut docs = Vec::new();
        for i in 0..200u64 {
            let body = match i % 5 {
                0 => format!("dox of victim{} fb: victim{}", i % 7, i % 7),
                1 => format!("dox drop fb: victim{} tw: alt{}", i % 7, i % 7),
                2 => "dox of victim3 fb: victim3".to_string(),
                _ => format!("innocuous paste number {i}"),
            };
            let period = if i < 120 { 1 } else { 2 };
            docs.push((period, doc(i, &body)));
        }
        docs
    }

    fn run_engine(workers: usize, shards: usize, chunk: usize) -> PipelineOutput {
        let engine = Engine::builder()
            .workers(workers)
            .shards(shards)
            .chunk(chunk)
            .build()
            .expect("valid config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).expect("period is valid");
        }
        session.finish().expect("engine drains cleanly")
    }

    fn assert_same(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.dox_ids, b.dox_ids);
        assert_eq!(a.stage_gap_docs, b.stage_gap_docs);
        assert_eq!(a.detected.len(), b.detected.len());
        for (x, y) in a.detected.iter().zip(&b.detected) {
            assert_eq!(x.doc_id, y.doc_id);
            assert_eq!(x.duplicate, y.duplicate);
            assert_eq!(x.text, y.text);
            assert_eq!(x.period, y.period);
        }
    }

    #[test]
    fn engine_matches_sequential_for_any_topology() {
        let reference = sequential(&corpus());
        for (workers, shards, chunk) in [(1, 1, 16), (4, 8, 16), (2, 3, 7), (4, 1, 1)] {
            let out = run_engine(workers, shards, chunk);
            assert_same(&out, &reference);
        }
    }

    #[test]
    fn invalid_period_is_rejected_without_killing_the_session() {
        let engine = Engine::builder().build().expect("default config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        assert_eq!(
            session.ingest(3, doc(1, "x")),
            Err(EngineError::InvalidPeriod(3))
        );
        session
            .ingest(1, doc(2, "a dox fb: someone"))
            .expect("valid");
        let out = session.finish().expect("drains");
        assert_eq!(out.counters.total, 1, "rejected doc never entered");
    }

    #[test]
    fn funnel_metrics_are_recorded() {
        let engine = Engine::builder().workers(2).shards(2).build().unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).unwrap();
        }
        let out = session.finish().unwrap();
        assert_eq!(
            registry.counter("pipeline.funnel.collected").get(),
            out.counters.total
        );
        assert_eq!(
            registry.counter("pipeline.funnel.classified_dox").get(),
            out.counters.classified_dox
        );
        assert_eq!(
            registry.counter("pipeline.funnel.unique").get(),
            out.unique_doxes().count() as u64
        );
        let snapshot = registry.snapshot();
        assert!(snapshot.spans.contains_key("pipeline.stage.classify"));
        assert!(snapshot.spans.contains_key("pipeline.stage.dedup"));
    }

    #[test]
    fn dropping_a_session_does_not_hang() {
        let engine = Engine::builder().workers(2).chunk(1).build().unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).unwrap();
        }
        drop(session);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
        let reference = sequential(&corpus());
        for (workers, shards) in [(1usize, 1usize), (4, 8)] {
            let build = || {
                Engine::builder()
                    .workers(workers)
                    .shards(shards)
                    .chunk(16)
                    .build()
                    .expect("valid config")
            };
            let registry = Registry::new();
            let mut first = start(&build(), &registry);
            let docs = corpus();
            let cut = 97; // mid-chunk on purpose
            for (period, doc) in &docs[..cut] {
                first.ingest(*period, doc.clone()).expect("valid");
            }
            let snapshot = first.checkpoint().expect("folds");
            // Serialize/parse to prove the on-disk form carries everything.
            let json = serde_json::to_string(&snapshot).expect("serializes");
            drop(first); // the "crash"
            let parsed = serde_json::from_str(&json).expect("parses");
            let registry = Registry::new();
            let mut resumed = build()
                .session_builder()
                .detector(Arc::new(KeywordDetector))
                .registry(&registry)
                .resume_from(parsed)
                .start()
                .expect("shard counts match");
            for (period, doc) in &docs[cut..] {
                resumed.ingest(*period, doc.clone()).expect("valid");
            }
            let out = resumed.finish().expect("drains");
            assert_same(&out, &reference);
        }
    }

    /// A checkpoint of [`corpus`] cut at doc 97 (workers 2, shards 4,
    /// chunk 16), written by an earlier build of the engine. The
    /// encoding must stay readable across versions: it re-encodes to
    /// the same bytes, and resuming from it finishes byte-identical to
    /// the uninterrupted run.
    const CUT97_FIXTURE: &str = include_str!("../testdata/session_cut97.json");

    #[test]
    fn checkpoint_written_by_an_earlier_build_resumes_byte_identically() {
        let build = || {
            Engine::builder()
                .workers(2)
                .shards(4)
                .chunk(16)
                .build()
                .expect("valid config")
        };
        let fixture: SessionCheckpoint =
            serde_json::from_str(CUT97_FIXTURE).expect("fixture decodes");
        let reencoded = serde_json::to_string(&fixture).expect("serializes");
        assert_eq!(reencoded, CUT97_FIXTURE.trim_end(), "same bytes back");

        let docs = corpus();
        let registry = Registry::new();
        let mut uninterrupted = start(&build(), &registry);
        for (period, doc) in &docs {
            uninterrupted.ingest(*period, doc.clone()).expect("valid");
        }
        let mut resumed = build()
            .session_builder()
            .detector(Arc::new(KeywordDetector))
            .registry(&registry)
            .resume_from(fixture)
            .start()
            .expect("shard counts match");
        for (period, doc) in &docs[97..] {
            resumed.ingest(*period, doc.clone()).expect("valid");
        }
        let final_state = |session: &mut Session| {
            serde_json::to_string(&session.checkpoint().expect("folds")).expect("serializes")
        };
        assert_eq!(final_state(&mut resumed), final_state(&mut uninterrupted));
        assert_same(&resumed.finish().expect("drains"), &sequential(&docs));
    }

    #[test]
    fn checkpoint_then_continue_in_place_is_also_identical() {
        // A checkpoint must be a pure observation: taking one and carrying
        // on in the same session must not perturb the output.
        let reference = sequential(&corpus());
        let engine = Engine::builder()
            .workers(3)
            .shards(4)
            .chunk(16)
            .build()
            .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (i, (period, doc)) in corpus().into_iter().enumerate() {
            session.ingest(period, doc).unwrap();
            if i % 64 == 63 {
                session.checkpoint().expect("folds");
            }
        }
        let out = session.finish().unwrap();
        assert_same(&out, &reference);
    }

    #[test]
    fn flush_and_live_observation_match_finish() {
        // Service mode reads the committed log without closing the
        // stream; those reads must agree with what finish() reports.
        let engine = Engine::builder()
            .workers(2)
            .shards(3)
            .chunk(16)
            .build()
            .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        let docs = corpus();
        let cut = 97; // mid-chunk on purpose
        for (period, doc) in &docs[..cut] {
            session.ingest(*period, doc.clone()).unwrap();
        }
        session.flush().expect("folds");
        let cursor = session.committed_len();
        let mid = session.output_snapshot().expect("snapshot");
        assert_eq!(mid.detected.len(), cursor);
        assert_eq!(mid.counters.total, cut as u64);

        for (period, doc) in &docs[cut..] {
            session.ingest(*period, doc.clone()).unwrap();
        }
        session.flush().expect("folds");
        let tail = session.detected_since(cursor);
        let snapshot = session.output_snapshot().expect("snapshot");
        assert_eq!(snapshot.detected.len(), cursor + tail.len());

        let out = session.finish().expect("drains");
        assert_same(&out, &sequential(&corpus()));
        assert_same(&out, &snapshot);
    }

    /// A keyword detector that panics on one marked document.
    struct PanicsOnMarker;

    impl DoxDetector for PanicsOnMarker {
        fn decision(&self, text: &str) -> f64 {
            assert!(!text.contains("MARKER"), "detector choked on a marked doc");
            if text.contains("dox") {
                1.0
            } else {
                -1.0
            }
        }
    }

    #[test]
    fn a_detector_panic_fails_the_session_not_the_caller_or_the_pool() {
        let engine = Engine::builder()
            .workers(2)
            .shards(2)
            .chunk(8)
            .build()
            .unwrap();
        let registry = Registry::new();
        let stage_failed = |err: EngineError| match err {
            EngineError::StageFailed { stage, cause } => {
                assert_eq!(stage, "stage pool");
                assert!(cause.0.contains("detector choked"), "cause: {}", cause.0);
            }
            other => panic!("expected StageFailed, got {other:?}"),
        };

        // Fewer documents than a chunk: ingest never folds, so the panic
        // first surfaces from flush, and stays the session's answer.
        let mut session = engine
            .session_builder()
            .detector(Arc::new(PanicsOnMarker))
            .registry(&registry)
            .start()
            .unwrap();
        session.ingest(1, doc(1, "a dox fb: someone")).unwrap();
        session.ingest(1, doc(2, "MARKER")).unwrap();
        stage_failed(session.flush().unwrap_err());
        stage_failed(session.ingest(1, doc(3, "x")).unwrap_err());
        stage_failed(session.finish().unwrap_err());

        // Every chunk panics, more chunks than the pool has threads: were
        // a panic to cost its thread, nothing would run afterwards.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..=threads {
            let mut session = engine
                .session_builder()
                .detector(Arc::new(PanicsOnMarker))
                .registry(&registry)
                .start()
                .unwrap();
            session.ingest(2, doc(4, "MARKER")).unwrap();
            stage_failed(session.finish().unwrap_err());
        }

        // Another session on the same pool still ingests and finishes.
        let out = run_engine(2, 2, 8);
        assert_same(&out, &sequential(&corpus()));
    }

    fn run_engine_with_faults(
        workers: usize,
        shards: usize,
        plan: FaultPlanConfig,
        policy: RetryPolicy,
    ) -> PipelineOutput {
        let engine = Engine::builder()
            .workers(workers)
            .shards(shards)
            .chunk(16)
            .faults(EngineFaults { plan, policy })
            .build()
            .expect("valid config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).expect("valid");
        }
        session.finish().expect("drains")
    }

    #[test]
    fn recovered_stage_faults_leave_output_untouched() {
        // Slow chunks and sub-budget poison are pure scheduling weather.
        let reference = sequential(&corpus());
        let plan = FaultPlanConfig {
            slow_chunk_ppm: 400_000,
            poison_chunk_ppm: 300_000,
            max_transient_failures: 2,
            ..FaultPlanConfig::default()
        };
        for (workers, shards) in [(1usize, 1usize), (4, 8)] {
            let out = run_engine_with_faults(workers, shards, plan.clone(), RetryPolicy::default());
            assert_same(&out, &reference);
            assert_eq!(out.stage_gap_docs, 0);
        }
    }

    #[test]
    fn exhausted_poison_becomes_explicit_stage_gaps() {
        let plan = FaultPlanConfig {
            poison_chunk_ppm: 500_000,
            max_transient_failures: 3,
            ..FaultPlanConfig::default()
        };
        // Zero retries: every poisoned chunk exhausts.
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let out = run_engine_with_faults(2, 2, plan, policy);
        assert!(out.stage_gap_docs > 0, "poison must surface as gaps");
        let reference = sequential(&corpus());
        assert_eq!(
            out.counters.total, reference.counters.total,
            "failed docs still count as collected"
        );
        assert!(out.counters.classified_dox < reference.counters.classified_dox);
    }
}
