//! Engine determinism: the sharded streaming engine must produce a report
//! byte-identical to the sequential reference pipeline, for every topology
//! and for more than one seed.
//!
//! This is the repo's contract that concurrency is an implementation
//! detail: `ExperimentReport` is a pure function of `(config, seed)` and
//! the worker/shard topology never leaks into it.

use doxing_repro::core::report::to_json;
use doxing_repro::core::study::{Study, StudyConfig};
use doxing_repro::engine::EngineConfig;
use doxing_repro::obs::{HistogramSnapshot, Registry};
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

const SEEDS: [u64; 2] = [0xD0C5, 0x5EED_CAFE];

fn config(seed: u64, workers: usize, shards: usize) -> StudyConfig {
    StudyConfig::builder()
        .scale(0.005)
        .seed(seed)
        .engine(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .build()
}

/// The sequential reference report for `seed`, serialized. Computed once
/// per test binary — every topology is compared against it.
fn reference_json(seed: u64) -> String {
    static CACHE: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(json) = cache.lock().unwrap().get(&seed) {
        return json.clone();
    }
    let r = Study::new(config(seed, 1, 1))
        .run_reference()
        .expect("reference study runs");
    let json = to_json(&r).expect("report serializes");
    cache.lock().unwrap().insert(seed, json.clone());
    json
}

fn assert_topology_matches_reference(workers: usize, shards: usize) {
    for seed in SEEDS {
        let r = Study::new(config(seed, workers, shards))
            .run()
            .expect("engine study runs");
        let json = to_json(&r).expect("report serializes");
        assert_eq!(
            json,
            reference_json(seed),
            "engine (workers={workers}, shards={shards}, seed={seed:#x}) \
             must be byte-identical to the sequential pipeline"
        );
    }
}

#[test]
fn single_worker_single_shard_matches_reference() {
    assert_topology_matches_reference(1, 1);
}

#[test]
fn single_worker_many_shards_matches_reference() {
    assert_topology_matches_reference(1, 8);
}

#[test]
fn many_workers_single_shard_matches_reference() {
    assert_topology_matches_reference(4, 1);
}

#[test]
fn many_workers_many_shards_matches_reference() {
    assert_topology_matches_reference(4, 8);
}

/// The classifier's decision-margin telemetry for one run: the
/// `pipeline.classify.margin` histogram summary and the near-boundary
/// count.
fn margin_metrics(study: &Study, reference: bool) -> (HistogramSnapshot, u64) {
    if reference {
        study.run_reference().expect("reference study runs");
    } else {
        study.run().expect("engine study runs");
    }
    let snapshot = study.registry().snapshot();
    let margin = snapshot.spans["pipeline.classify.margin"].clone();
    let near = snapshot.counters["pipeline.classify.near_boundary"];
    (margin, near)
}

#[test]
fn margin_metrics_are_topology_and_pipeline_invariant() {
    let seed = SEEDS[0];
    let study =
        |workers, shards| Study::with_registry(config(seed, workers, shards), Registry::new());
    let reference = margin_metrics(&study(1, 1), true);
    assert!(
        reference.0.count > 0,
        "every classified document has a margin"
    );
    assert!(reference.1 <= reference.0.count);
    for (workers, shards) in [(1, 1), (2, 8)] {
        assert_eq!(
            margin_metrics(&study(workers, shards), false),
            reference,
            "margin metrics at w{workers} s{shards} differ from the reference pipeline"
        );
    }
}
