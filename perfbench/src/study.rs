//! The `study` workload: the closed batch run a researcher waits for.
//!
//! Each repetition runs [`Study::run`] in a child process (this binary's
//! `study-child` mode) in a fresh directory, with store-backed
//! checkpoints at the default cadence and the default engine topology
//! (one worker per core). A child process per repetition keeps its CPU
//! and peak memory apart from the benchmark's own. Every repetition's
//! report must be byte-equal to [`Study::run_reference`] at the same seed.

use crate::inputs::Corpus;
use crate::util::{self, median};
use crate::{layers, Opts, Record};
use dox_core::study::{Study, StudyConfig};
use dox_obs::Registry;
use serde::value::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Study scale: 0.1 is about 174k documents.
const SCALE: f64 = 0.1;
/// Scale under `--tiny`.
const TINY_SCALE: f64 = 0.005;
/// Fewest repetitions per run.
const MIN_REPS: usize = 3;

fn config(seed: u64, scale: f64, dir: Option<&Path>) -> StudyConfig {
    let mut builder = StudyConfig::builder().seed(seed).scale(scale);
    if let Some(dir) = dir {
        builder = builder.checkpoint_dir(dir).store_backed(true);
    }
    builder.build()
}

/// What one child run measured.
struct Child {
    study_s: f64,
    setup_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    docs: f64,
    values: Value,
}

impl Child {
    fn num(&self, key: &str) -> f64 {
        self.values.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }
}

/// Run one repetition in a child process and read back its numbers
/// and report.
fn run_child(seed: u64, scale: f64, dir: &Path) -> Result<(Child, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("study-child")
        .args([seed.to_string(), scale.to_string()])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("study child: {e}"))?;
    if !out.status.success() {
        return Err(format!("study child exited with {}", out.status));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    let values: Value = serde_json::from_str(line.trim()).map_err(|e| format!("{e:?}"))?;
    let report = std::fs::read_to_string(dir.join("report.json")).map_err(|e| e.to_string())?;
    let num = |k: &str| values.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let child = Child {
        study_s: num("study_s"),
        setup_s: num("setup_s"),
        cpu_s: num("cpu_s"),
        peak_rss_mb: num("peak_rss_mb"),
        docs: num("docs"),
        values,
    };
    Ok((child, report))
}

/// The `study-child` mode: `study-child <seed> <scale> <dir>`. Runs the
/// study once, writes `report.json` into `dir`, and prints its numbers
/// as one JSON line.
pub fn child_main(args: Vec<String>) -> ExitCode {
    let [seed, scale, dir] = args.as_slice() else {
        eprintln!("usage: perfbench study-child <seed> <scale> <dir>");
        return ExitCode::from(2);
    };
    let (Ok(seed), Ok(scale)) = (seed.parse::<u64>(), scale.parse::<f64>()) else {
        eprintln!("study-child: bad seed or scale");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(dir);
    let registry = Registry::new();
    let study = Study::with_registry(config(seed, scale, Some(&dir)), registry.clone());
    let pid = std::process::id();
    let cpu0 = util::process_cpu_s(pid);
    let start = Instant::now();
    let report = match study
        .run()
        .and_then(|r| dox_core::report::to_json(&r).map(|j| (r, j)))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("study-child: {e}");
            return ExitCode::FAILURE;
        }
    };
    let study_s = start.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_s(pid) - cpu0;
    let main_cpu_s = util::threads(pid)
        .iter()
        .find(|t| t.tid == pid)
        .map_or(0.0, |t| t.cpu_s);
    let (report, json) = report;
    if let Err(e) = std::fs::write(dir.join("report.json"), json) {
        eprintln!("study-child: {e}");
        return ExitCode::FAILURE;
    }
    let snap = registry.snapshot();
    let span_s = |name: &str| snap.spans.get(name).map_or(0.0, |h| h.sum as f64 / 1e9);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let fields = [
        ("study_s", study_s),
        (
            "setup_s",
            span_s("study.phase.world_gen") + span_s("study.phase.training"),
        ),
        ("cpu_s", cpu_s),
        ("main_cpu_s", main_cpu_s),
        ("peak_rss_mb", util::peak_rss_mb(pid)),
        ("docs", report.pipeline.total as f64),
        ("monitor_probes", counter("monitor.probes")),
        ("monitor_s", span_s("study.phase.monitoring")),
        ("analysis_s", span_s("study.phase.analysis")),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{{}}}", body.join(", "));
    ExitCode::SUCCESS
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Record, String> {
    let scale = if opts.tiny { TINY_SCALE } else { SCALE };
    let scratch = util::ScratchDir::new("study").map_err(|e| e.to_string())?;
    let mut record = Record {
        correct: true,
        ..Record::default()
    };

    let reference = Study::with_registry(config(opts.seed, scale, None), Registry::new())
        .run_reference()
        .and_then(|r| dox_core::report::to_json(&r))
        .map_err(|e| e.to_string())?;

    let mut children = Vec::new();
    let start = Instant::now();
    let reps = if opts.trace { 1 } else { MIN_REPS };
    while children.len() < reps || (!opts.trace && start.elapsed().as_secs_f64() < opts.seconds) {
        let dir = scratch.path().join(format!("rep{}", children.len()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (child, report) = run_child(opts.seed, scale, &dir)?;
        record.attempted += 1;
        if report != reference {
            record.mismatch(format!(
                "repetition {} report differs from Study::run_reference",
                children.len()
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
        children.push(child);
    }
    let n = children.len();
    record.notes.push(format!(
        "outcomes study: attempted {n} = ok {n} + 4xx 0 + 5xx 0 + timeout 0 + client_late 0"
    ));
    let get = |f: fn(&Child) -> f64| median(&children.iter().map(f).collect::<Vec<_>>());
    record.notes.push(format!(
        "repetition study_s: {:?}",
        children
            .iter()
            .map(|c| (c.study_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    let study_s = get(|c| c.study_s);
    record.headline("study_s", study_s, "s");
    record.headline("repetitions", children.len() as f64, "count");
    record.headline("docs", get(|c| c.docs), "count");
    if opts.trace {
        let child = &children[0];
        record.put("monitor.probes", child.num("monitor_probes"));
        record.put("monitor.busy_s", child.num("monitor_s"));
        record.put("analysis.busy_s", child.num("analysis_s"));
        record.put("cpu.main_s", child.num("main_cpu_s"));
        record.put("cpu.engine_s", child.cpu_s - child.num("main_cpu_s"));
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let corpus = Corpus::build(opts.seed, scale, threads, true).map_err(|e| e.to_string())?;
        layers::probe(&corpus, opts.seed, scale, &mut record);
    } else {
        record.put("setup_s", get(|c| c.setup_s));
        record.put("cpu_s", get(|c| c.cpu_s));
        record.put("peak_rss_mb", get(|c| c.peak_rss_mb));
        record.put("docs_per_s", get(|c| c.docs / c.study_s));
        record.put("latency_ms", study_s * 1e3);
    }
    Ok(record)
}
