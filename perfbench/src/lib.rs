//! The repository benchmark: four seeded workloads from one edge image to
//! a loopback service, an end-to-end result per run, and a traced run that
//! breaks the same work down by layer.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer each per-layer metric belongs to.

pub mod engine_workloads;
pub mod inputs;
pub mod report;
pub mod serve_workloads;
pub mod stats;
pub mod trace;

use std::time::Duration;

use report::Metrics;
use stats::{highest_supported_percentile, Quietest, WINDOW_S};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller, warm engines, whole 128² Table I images.
    EdgeImages,
    /// 512² scans through the streaming tiled path.
    ScanTiled,
    /// An unsaturated loopback service at a fixed open-loop rate.
    ServeMixed,
    /// A saturated loopback service fed one codebook key in a closed loop.
    ServeBurst,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EdgeImages,
        Workload::ScanTiled,
        Workload::ServeMixed,
        Workload::ServeBurst,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeImages => "edge-images",
            Workload::ScanTiled => "scan-tiled",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeBurst => "serve-burst",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seed of the SegHDC codebooks (`SegHdcConfig::seed`), a second seed
    /// that claims can be checked on without changing the inputs.
    pub codebook_seed: u64,
    /// Length of the measured window.
    pub measure: Duration,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks that failed, one line each; empty when correct.
    pub problems: Vec<String>,
    /// Units of work (images, scans, requests) attempted in the measured
    /// window.
    pub attempted: u64,
    /// Attempted units that failed or were refused.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Context printed with the result: `(key, JSON value)`.
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// Adds a context field.
    pub fn note(&mut self, key: &'static str, json_value: String) {
        self.record.push((key, json_value));
    }

    /// Records the sample count and the windows the latency and rate
    /// figures were taken from.
    pub fn note_windows(&mut self, samples: usize, quiet: &Quietest) {
        self.note("latency_samples", samples.to_string());
        self.note("window_s", WINDOW_S.to_string());
        self.note("windows", quiet.windows.to_string());
        self.note("samples_per_window", quiet.samples_per_window.to_string());
        self.note(
            "highest_supported_percentile",
            highest_supported_percentile(quiet.samples_per_window)
                .map_or("null".to_string(), |p| p.to_string()),
        );
    }
}

/// Runs `spec` to completion.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut outcome = match spec.workload {
        Workload::EdgeImages => engine_workloads::edge_images(spec),
        Workload::ScanTiled => engine_workloads::scan_tiled(spec),
        Workload::ServeMixed => serve_workloads::serve_mixed(spec),
        Workload::ServeBurst => serve_workloads::serve_burst(spec),
    };
    if !spec.trace {
        outcome
            .metrics
            .set("peak_rss_mib", peak_rss_bytes() as f64 / MIB);
    }
    outcome
}

/// Bytes per mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The process's resident-set high-water mark (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
        })
        .map_or(0, |kib| kib * 1024)
}

/// `(steal, total)` CPU ticks of the machine since boot from
/// `/proc/stat`, where it exists. Steal is time a virtual machine's CPUs
/// were runnable but held by the host; a run that saw much of it measured
/// a contended host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Client threads and connections a workload may use: `min(nproc, 2)`.
pub fn client_threads() -> usize {
    nproc().min(2)
}
