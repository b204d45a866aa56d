//! What a run reports: the metric catalogue shared by every workload and
//! the one-line JSON result the benchmark ends with.

use dpr_telemetry::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload on an untraced run.
/// What each one measures on each workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("correct_count", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload on a traced run; a
/// layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("capture.decode_ms", "ms"),
    ("capture.records_read", "count"),
    ("capture.crc_skipped", "count"),
    ("transport.ms", "ms"),
    ("transport.reassembled", "count"),
    ("transport.rejects", "count"),
    ("ocr.ms", "ms"),
    ("ocr.readings", "count"),
    ("ocr.kept_ratio", "ratio"),
    ("association.ms", "ms"),
    ("association.pairs_formed", "count"),
    ("association.accept_ratio", "ratio"),
    ("pipeline.group_ms", "ms"),
    ("pipeline.inference_ms", "ms"),
    ("pipeline.infer_other_ms", "ms"),
    ("pipeline.ecr_ms", "ms"),
    ("pipeline.unstaged_ms", "ms"),
    ("gp.fit_ms", "ms"),
    ("gp.fit_self_ms", "ms"),
    ("gp.fits", "count"),
    ("gp.generations", "count"),
    ("gp.evaluations", "count"),
    ("gp.evals_per_s", "1/s"),
    ("gp.dedup_hit_ratio", "ratio"),
    ("gp.cache_hit_ratio", "ratio"),
    ("gp.threshold_stop_ratio", "ratio"),
    ("par.busy_ms", "ms"),
    ("par.wait_ms", "ms"),
    ("par.idle_ms", "ms"),
    ("par.caller_ms", "ms"),
    ("par.utilization", "ratio"),
    ("par.inline_share", "ratio"),
    ("par.batch_flushes", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.worker_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.rejected_429", "count"),
    ("serve.polls_per_job", "count"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.poll_interval_ms", "ms"),
    ("bench.harness_ms", "ms"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.accounting_error", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check the workload makes held.
    pub correct: bool,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines: the workload's metrics under their
    /// workload-specific names, tail percentiles and sample counts.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final result line: `correct`, `attempted`, `failed`, and every
    /// metric of `catalogue` with its unit (0 when the run set none).
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .to_json()
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums counters whose name starts with `prefix` and ends with `suffix`.
pub fn counter_sum(counters: &BTreeMap<String, u64>, prefix: &str, suffix: &str) -> f64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .fold(0.0, |sum, (_, v)| sum + *v as f64)
}

/// One counter's value, 0 when absent.
pub fn counter(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

/// Per-key medians over a set of per-pass metric maps.
pub fn medians(passes: &[Metrics]) -> Metrics {
    let mut keys: Vec<&String> = passes.iter().flat_map(|p| p.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = passes
                .iter()
                .map(|p| p.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), crate::stats::median(&values))
        })
        .collect()
}

/// Writes a traced run's spans, one JSON object per line, to
/// `perfbench/out/<workload>-seed<seed>.jsonl`; returns a note saying
/// where, or why not.
pub fn write_trace(workload: &str, seed: u64, tracer: &crate::trace::Tracer) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}
