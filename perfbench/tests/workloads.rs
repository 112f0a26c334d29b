//! Tiny-size runs of every workload, untraced and traced.
//!
//! Each run must pass its own correctness checks, emit exactly the
//! metrics `BENCHMARK.json` declares, account for every operation under
//! one outcome, and (traced) attribute no more self time than the traced
//! wall time. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml` from the repository root.

use serde::value::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

/// The `dox-serve` binary, built once per test process into the same
/// target directory as this package.
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
        let target = exe
            .parent()
            .and_then(Path::parent)
            .expect("binary sits in <target>/<profile>")
            .to_path_buf();
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "dox-serve",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "dox-serve builds");
        target.join("release").join("dox-serve")
    })
}

/// Names declared in `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let value: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    value
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one workload at tiny size; returns stdout and the parsed record.
fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--serve-bin")
        .arg(serve_bin())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a record line");
    let record: Value = serde_json::from_str(last).expect("the last line is JSON");
    (stdout, record)
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).expect(key)
}

/// The `# outcomes ...` lines: each must sum to its attempts, and
/// together they must match the record's `attempted` and `failed`.
fn check_outcomes(workload: &str, stdout: &str, record: &Value) {
    let (mut attempted, mut failed) = (0, 0);
    let mut lines = 0;
    for line in stdout.lines().filter(|l| l.starts_with("# outcomes ")) {
        let nums: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        let [total, ok, e4, e5, timeout, late] = nums[..] else {
            panic!("{workload}: malformed outcome line {line:?}");
        };
        assert_eq!(total, ok + e4 + e5 + timeout + late, "{workload}: {line}");
        attempted += total;
        failed += e4 + e5 + timeout;
        lines += 1;
    }
    if lines > 0 {
        assert_eq!(attempted, num(record, "attempted"), "{workload}: attempted");
        assert_eq!(failed, num(record, "failed"), "{workload}: failed");
    }
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (stdout, record) = run(workload, trace);
        assert_eq!(record.get("correct").and_then(Value::as_bool), Some(true));
        assert!(num(&record, "attempted") >= 1);
        assert_eq!(num(&record, "failed"), 0, "{workload}: no operation fails");
        check_outcomes(workload, &stdout, &record);
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted, declared(section), "{workload} trace={trace}");
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name} unit"
            );
            if !trace {
                assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
        }
        if trace {
            let metric = |name: &str| {
                metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, m)| m.get("value")?.as_f64())
                    .expect(name)
            };
            let unattributed = metric("trace.unattributed_ratio");
            assert!(
                (0.0..=1.0).contains(&unattributed),
                "{workload}: traced self time exceeds traced wall ({unattributed})"
            );
            assert!(metric("classify.docs") > 0.0);
        }
    }
}

#[test]
fn study_tiny() {
    check("study");
}

#[test]
fn serve_stream_tiny() {
    check("serve_stream");
}

#[test]
fn serve_bulk_tiny() {
    check("serve_bulk");
}
