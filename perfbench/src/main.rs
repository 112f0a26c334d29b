//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <study|serve_stream|serve_bulk> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> [--tiny]
//! ```
//!
//! Runs one workload, checks the program's outputs, and prints a
//! human-readable table followed, as the last line of standard output,
//! by one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing; with `--trace 1` they are the per-layer ones, from spans
//! the benchmark records around its own calls into each layer, the
//! program's metrics registry and `/proc`. Any output mismatch prints
//! the record with `"correct": false` and exits with status 1.
//!
//! `--tiny` shrinks every input so the benchmark's own tests can run
//! each workload in seconds; its numbers are not comparable.

mod http;
mod inputs;
mod layers;
mod serve;
mod study;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("docs_per_s", "docs/s"),
    ("latency_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.docs", "count"),
    ("gen.busy_s", "s"),
    ("train.busy_s", "s"),
    ("html.docs", "count"),
    ("html.busy_s", "s"),
    ("classify.docs", "count"),
    ("classify.busy_s", "s"),
    ("classify.positive_ratio", "ratio"),
    ("extract.docs", "count"),
    ("extract.busy_s", "s"),
    ("dedup.checks", "count"),
    ("dedup.busy_s", "s"),
    ("dedup.duplicate_ratio", "ratio"),
    ("engine.w1_s", "s"),
    ("engine.docs_per_s", "docs/s"),
    ("engine.overhead_s", "s"),
    ("engine.ingest_block_s", "s"),
    ("engine.flush_p50_ms", "ms"),
    ("engine.flush_p99_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.threads", "count"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("monitor.probes", "count"),
    ("monitor.busy_s", "s"),
    ("analysis.busy_s", "s"),
    ("http.ingest_rtt_p50_ms", "ms"),
    ("http.ingest_rtt_p99_ms", "ms"),
    ("http.read_rtt_p99_ms", "ms"),
    ("http.self_ms", "ms"),
    ("http.shed_total", "count"),
    ("http.deadline_hits", "count"),
    ("http.backlog_max", "count"),
    ("serve.decode_ms", "ms"),
    ("serve.ingest_batch_p50_ms", "ms"),
    ("serve.ingest_batch_p99_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("serve.tenant_create_s", "s"),
    ("serve.threads", "count"),
    ("serve.rss_per_tenant_mb", "MB"),
    ("serve.drain_s", "s"),
    ("serve.resume_s", "s"),
    ("cpu.http_s", "s"),
    ("cpu.engine_s", "s"),
    ("cpu.main_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `dox-serve` executable.
    pub serve_bin: PathBuf,
    /// Test-sized inputs.
    pub tiny: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations issued against the program.
    pub attempted: u64,
    /// Operations that got an error, a refusal or no answer.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<String, f64>,
    /// The workload's own headline numbers, printed by name and unit in
    /// the human-readable table: `(name, value, unit)`.
    pub headline: Vec<(String, f64, String)>,
    /// Human-readable notes (mismatch details, outcome tallies).
    pub notes: Vec<String>,
}

impl Record {
    /// Set metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Add a headline number.
    pub fn headline(&mut self, name: &str, value: f64, unit: &str) {
        self.headline
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record a correctness failure.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        if self.notes.len() < 40 {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace flag {other:?}")),
                };
            }
            "--serve-bin" => opts.serve_bin = value()?.into(),
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// The machine and build a record was taken on.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu={cpu:?} rustc={rustc:?} git_rev={}",
        git_rev()
    )
}

/// The checked-out commit, read from `.git` in the current directory
/// without walking up to parents; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn emit(opts: &Opts, record: &Record) -> Result<String, String> {
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    for name in record.metrics.keys() {
        if opts.trace && !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match record.metrics.get(*name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        println!("# {name:<28} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        record.correct,
        record.attempted,
        record.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("study-child") {
        return study::child_main(args.collect());
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "study" => study::run(&opts),
        "serve_stream" => serve::run_stream(&opts),
        "serve_bulk" => serve::run_bulk(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    let record = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("# machine {}", fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for note in &record.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &record.headline {
        println!("# headline {name:<19} {value:>14.4} {unit}");
    }
    let line = match emit(&opts, &record) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{line}");
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
