//! Metric names, units and the result line.

use std::collections::BTreeMap;

use crate::stats::{mean, summarize};

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ttfs_mean_ms", "ms"),
    ("ttfs_p90_ms", "ms"),
    ("step_gap_mean_ms", "ms"),
    ("step_gap_p90_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("throughput_traj_s", "traj/s"),
    ("final_loss", "nats"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.overhead_p50_ms", "ms"),
    ("wire.parse_us", "us"),
    ("wire.serialize_us", "us"),
    ("shard.route_us", "us"),
    ("features.extract_us", "us"),
    ("features.subgraph_nodes_mean", "count"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.compute_p50_ms", "ms"),
    ("engine.batch_size_mean", "count"),
    ("engine.admitted_share", "ratio"),
    ("engine.flushed_deadline_share", "ratio"),
    ("encoder.b1_ms", "ms"),
    ("encoder.b8_ms_per_traj", "ms"),
    ("encoder.fusion_speedup", "x"),
    ("encoder.matmuls_per_traj", "count"),
    ("encoder.mflop_per_traj", "MFLOP"),
    ("decoder.step_b1_us", "us"),
    ("decoder.step_b8_us", "us"),
    ("decoder.fusion_speedup", "x"),
    ("decoder.matmuls_per_step", "count"),
    ("decoder.mflop_per_step", "MFLOP"),
    ("service.precompute_ms", "ms"),
    ("artifact.read_ms", "ms"),
    ("artifact.instantiate_ms", "ms"),
    ("train.forward_ms_per_batch", "ms"),
    ("train.backward_ms_per_batch", "ms"),
    ("train.optim_ms_per_batch", "ms"),
    ("train.matmuls_per_batch", "count"),
    ("ledger.coverage", "ratio"),
    ("ledger.unattributed_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.sent", "count"),
    ("bench.succeeded", "count"),
    ("bench.failed", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// Raw end-to-end measurements of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub latency_ms: Vec<f64>,
    pub ttfs_ms: Vec<f64>,
    pub step_gap_ms: Vec<f64>,
    /// Units of the timed phase, and those that completed correctly
    /// within the SLO limit.
    pub slo_attempted: u64,
    pub slo_met: u64,
    pub throughput: f64,
    pub final_loss: f64,
    pub peak_rss_mb: f64,
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First correctness violation seen, if any.
    pub first_failure: Option<String>,
    pub e2e: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts, percentiles used, phase counts and flags.
    pub details: BTreeMap<&'static str, serde_json::Value>,
    /// The traced run's spans.
    pub tracer: Option<crate::trace::Tracer>,
}

impl Report {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    pub fn detail(&mut self, key: &'static str, value: serde_json::Value) {
        self.details.insert(key, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// End-to-end metric values by name.
    pub fn end_to_end(&mut self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("setup_s", self.e2e.setup_s);
        let timings = [
            (
                "latency_mean_ms",
                "latency_p90_ms",
                "latency_samples",
                &self.e2e.latency_ms,
            ),
            (
                "ttfs_mean_ms",
                "ttfs_p90_ms",
                "ttfs_samples",
                &self.e2e.ttfs_ms,
            ),
            (
                "step_gap_mean_ms",
                "step_gap_p90_ms",
                "step_gap_samples",
                &self.e2e.step_gap_ms,
            ),
        ];
        for (mean_name, p90_name, samples, values) in timings {
            let s = summarize(values);
            m.insert(mean_name, mean(values));
            m.insert(p90_name, s.p90.value);
            self.details.insert(
                samples,
                serde_json::json!({
                    "n": s.n,
                    "p50": s.p50,
                    "p90_percentile": s.p90.pct,
                    "p99": s.p99.value,
                    "p99_percentile": s.p99.pct,
                }),
            );
        }
        m.insert(
            "slo_attainment",
            self.e2e.slo_met as f64 / self.e2e.slo_attempted.max(1) as f64,
        );
        m.insert("throughput_traj_s", self.e2e.throughput);
        m.insert("final_loss", self.e2e.final_loss);
        m.insert("peak_rss_mb", self.e2e.peak_rss_mb);
        m
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    report: &Report,
    values: &BTreeMap<&'static str, f64>,
    spec: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in spec {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        metrics.push((
            name.to_string(),
            serde_json::json!({"value": v, "unit": unit}),
        ));
    }
    let line = serde_json::json!({
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    Ok(serde_json::to_string(&line).expect("result serializes"))
}
