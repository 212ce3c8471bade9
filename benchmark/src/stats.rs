//! Latency samples, the metric record printed at the end, and the host
//! facts every run reports.

use miscela_bench::overload::percentile_ns;
use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples of one kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u128>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `pct`-th percentile in milliseconds (0 when empty).
    pub fn pct_ms(&self, pct: u32) -> f64 {
        let mut v = self.0.clone();
        percentile_ns(&mut v, pct) as f64 / 1e6
    }

    /// The highest of p99/p90/p50 with at least ten samples beyond it.
    pub fn tail_pct(&self) -> u32 {
        [99, 90, 50]
            .into_iter()
            .find(|&p| self.len() * (100 - p as usize) / 100 >= 10)
            .unwrap_or(50)
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One printed metric: value, unit and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics in print order, plus the attempted/failed tallies per kind.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, Metric)>,
    /// kind → (attempted, failed).
    pub ops: BTreeMap<String, (u64, u64)>,
    /// Output checks that found a mismatch (each also counts as failed).
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        ));
    }

    pub fn attempt(&mut self, kind: &str, ok: bool) {
        let e = self.ops.entry(kind.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    pub fn mismatch(&mut self, kind: &str, what: String) {
        self.attempt(kind, false);
        self.mismatches.push(what);
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|v| v.1).sum()
    }
}

/// The process's high-water resident set size, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map(|(_, k)| k).unwrap_or_else(|| "unknown".into())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
