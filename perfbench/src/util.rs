//! Small shared pieces: order statistics, `/proc` readers, the span
//! accumulator the traced runs record into, and scratch directories.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of `values` (need not be sorted);
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, which the kernel
/// ABI fixes at 100 per second on every architecture this builds for.
const TICKS_PER_S: f64 = 100.0;

/// The whitespace-separated fields of a `/proc/.../stat` line that
/// follow the parenthesised command name (which may contain spaces).
fn stat_fields(path: &Path) -> Option<Vec<String>> {
    let raw = std::fs::read_to_string(path).ok()?;
    let tail = &raw[raw.rfind(')')? + 1..];
    Some(tail.split_whitespace().map(str::to_string).collect())
}

/// User + system CPU seconds from a `/proc/.../stat` file: fields 14
/// and 15 of the line, i.e. 12 and 13 after the command name. For a
/// process this includes every thread that has already exited.
fn stat_cpu_s(path: &Path) -> Option<f64> {
    let fields = stat_fields(path)?;
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds (user + system) the process `pid` has used so far.
pub fn process_cpu_s(pid: u32) -> f64 {
    stat_cpu_s(&PathBuf::from(format!("/proc/{pid}/stat"))).unwrap_or(0.0)
}

/// One `kB` field of `/proc/<pid>/status`, in MB.
fn status_mb(pid: u32, field: &str) -> f64 {
    let Ok(raw) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    raw.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size (VmHWM) of `pid`, MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_mb(pid, "VmHWM:")
}

/// Current resident set size (VmRSS) of `pid`, MB.
pub fn rss_mb(pid: u32) -> f64 {
    status_mb(pid, "VmRSS:")
}

/// One live thread of a process.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

/// Every live thread of `pid` with its CPU time, by tid.
pub fn threads(pid: u32) -> Vec<ThreadCpu> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out: Vec<ThreadCpu> = dir
        .filter_map(Result::ok)
        .filter_map(|e| {
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            let cpu_s = stat_cpu_s(&e.path().join("stat"))?;
            Some(ThreadCpu { tid, cpu_s })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Per-layer span accumulator for traced runs: for each layer, how
/// many calls, their total (busy) time, and every duration so callers
/// can take percentiles. Spans are kept in memory and reported at the
/// end of the run.
#[derive(Debug, Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Time `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed());
        out
    }

    /// Record one span of `layer` lasting `d`.
    pub fn record(&mut self, layer: &'static str, d: Duration) {
        self.layers.entry(layer).or_default().push(d.as_secs_f64());
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.layers.get(layer).map_or(0, Vec::len)
    }

    /// Total seconds spent in `layer`.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    /// Quantile `q` of `layer`'s span durations, milliseconds.
    pub fn quantile_ms(&self, layer: &str, q: f64) -> f64 {
        self.layers.get(layer).map_or(0.0, |v| quantile(v, q) * 1e3)
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `.bench_tmp/<tag>-<pid>` under the current directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_tmp` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(threads(pid).iter().any(|t| t.tid == pid));
    }
}
