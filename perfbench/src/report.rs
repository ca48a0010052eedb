//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's metric contract: a run with
//! tracing off emits exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], and `BENCHMARK.json` at the repository root lists the
//! same names (checked by the `names` test).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("iou_mean", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric. Counts and times are per
/// unit of work (image, scan or request). A metric of a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // seghdc engine, timed through `TracingBackend`.
    ("engine.run_ms", "ms"),
    ("encode.self_ms", "ms"),
    ("cluster.self_ms", "ms"),
    ("cluster.share_of_run", "ratio"),
    ("cluster.calls", "count"),
    ("cluster.iterations_per_call", "count"),
    ("stitch.ms", "ms"),
    ("engine.other_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("arena.peak_matrix_mib", "MiB"),
    // hdc::kernels, counted through `CountingKernels`.
    ("kernels.xor_into.calls", "count"),
    ("kernels.xor_into.bytes", "bytes"),
    ("kernels.popcount.calls", "count"),
    ("kernels.popcount.bytes", "bytes"),
    ("kernels.hamming.calls", "count"),
    ("kernels.hamming.bytes", "bytes"),
    ("kernels.and_popcount.calls", "count"),
    ("kernels.and_popcount.bytes", "bytes"),
    ("kernels.plane_dot.calls", "count"),
    ("kernels.plane_dot.bytes", "bytes"),
    ("kernels.plane_dot_multi.calls", "count"),
    ("kernels.plane_dot_multi.bytes", "bytes"),
    ("kernels.hamming_multi.calls", "count"),
    ("kernels.hamming_multi.bytes", "bytes"),
    ("kernels.counts_dot_multi.calls", "count"),
    ("kernels.counts_dot_multi.bytes", "bytes"),
    ("kernels.counts_dot_multi.accept_ratio", "ratio"),
    ("kernels.bundle_add_planes.calls", "count"),
    ("kernels.bundle_add_planes.bytes", "bytes"),
    // seghdc-server, from per-response fields and the STATS frame.
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p90", "us"),
    ("server.service_us.p50", "us"),
    ("server.service_us.p90", "us"),
    ("wire.overhead_us.p50", "us"),
    ("fusion.requests_per_group", "count"),
    ("fusion.fused_share", "ratio"),
    ("fusion.coalesced_share", "ratio"),
    ("fusion.fallbacks", "count"),
    ("shard.stolen_share", "ratio"),
    ("shard.spilled", "count"),
    ("server.busy", "count"),
    ("generator.late_max_ms", "ms"),
    // The whole run; the p90 of the untraced units, in the quietest window.
    ("latency_p90_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values collected by a workload, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(known, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|&&(known, _)| known == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        self.0.insert(known, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// JSON number text for `value`: every digit of the shortest round-trip
/// form, with a non-finite value (an all-failed percentile) written as the
/// largest finite double.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// JSON string literal for `text`.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the table for `trace`, with its unit. Unset metrics of a layer the
/// workload does not run read 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    metrics: &Metrics,
) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(metrics.get(name).unwrap_or(0.0)),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
