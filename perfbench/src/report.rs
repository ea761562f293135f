//! Metrics, the run header and the printed report.

use crate::stats::median;
use colper_repro::tensor::{gemm_mode, kernels};
use std::path::Path;

/// Schema of the printed report and the files under `.bench_out/`.
pub const SCHEMA: &str = "colper-perfbench-v1";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics gated by `BENCHMARK.json`, common to every workload.
    pub gated: Vec<Metric>,
    /// The workload's own end-to-end metrics, printed by name.
    pub workload: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form report lines (decomposition, tracing overhead).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: &str, reason: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {reason}");
    }

    /// Tracing overhead of `what` in percent: the median of the traced
    /// samples over the median of the untraced ones, noted in the report.
    pub fn overhead_pct(&mut self, what: &str, traced: &[f64], untraced: &[f64]) -> f64 {
        let (Some(t), Some(u)) = (median(traced), median(untraced)) else { return f64::NAN };
        let pct = 100.0 * (t - u) / u;
        self.notes.push(format!(
            "tracing overhead {what}: traced {t:.4} - untraced {u:.4} = {:+.4} ({pct:+.2}%)",
            t - u
        ));
        pct
    }
}

/// Peak resident set size of process `pid` (or this process) in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The common header, plus the benchmark's own settings, as one JSON
/// object.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, threads: &str) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"commit\":\"{}\",\"host_parallelism\":{},\
         \"gemm_isa\":\"{}\",\"avx512_active\":{},\"gemm_mode\":\"{:?}\",\
         \"threads\":{threads},\"workload\":\"{workload}\",\"seed\":{seed},\
         \"seconds\":{seconds},\"trace\":{trace}}}",
        commit(),
        host_parallelism(),
        kernels::gemm_isa().name(),
        kernels::avx512_active(),
        gemm_mode(),
    )
}

/// Metrics as a JSON object of `{"value", "unit"}` records, with each
/// record's sample count when `samples` is set.
pub fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let records: Vec<String> = metrics
        .iter()
        .map(|m| {
            let count =
                if samples { format!(", \"samples\": {}", m.samples) } else { String::new() };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{count}}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", records.join(", "))
}

/// A finite number with all its digits, or `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One human-readable metric line.
pub fn metric_line(kind: &str, m: &Metric) -> String {
    format!("{kind} {:<32} {:>14.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_value_unit_records() {
        let ms = [Metric::new("a", 1.5, "s", 3), Metric::new("b", f64::NAN, "ms", 0)];
        assert_eq!(
            metrics_json(&ms, false),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"ms\"}}"
        );
        assert_eq!(
            metrics_json(&ms[..1], true),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\", \"samples\": 3}}"
        );
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
    }
}
