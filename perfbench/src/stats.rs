//! Order statistics over latency samples.
//!
//! A failed or refused request is recorded as an infinite latency: it
//! misses every latency limit and sorts above every served request, so a
//! percentile never silently drops it.

/// The percentiles a result may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding up
    // one rank when `p · n / 100` is a whole number.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of `sorted`, which must be in
/// ascending order and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it among `n`, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n.max(1)) + MIN_TAIL_SAMPLES)
}

/// Sorts `values` ascending (infinities last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (nearest rank), or `0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values.to_vec()), 50.0)
}

/// One unit of work as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When it completed, in seconds from the start of the run.
    pub at_s: f64,
    /// Its latency; infinite when it failed or was refused.
    pub latency_ms: f64,
}

/// Length of the windows [`quietest`] cuts a run into.
pub const WINDOW_S: f64 = 1.0;

/// Latency and rate of the quietest window of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quietest {
    /// Lowest per-window p50 latency.
    pub p50_ms: f64,
    /// Lowest per-window p90 latency.
    pub p90_ms: f64,
    /// Highest per-window rate of served units.
    pub per_s: f64,
    /// Complete windows the figures were taken from.
    pub windows: usize,
    /// Median number of units in a window.
    pub samples_per_window: usize,
}

/// Cuts a run into consecutive [`WINDOW_S`] windows by completion time and
/// returns the lowest per-window p50 and p90 latency and the highest
/// per-window rate, `served − 1` over the time from a window's first to its
/// last served completion.
///
/// On a shared host the machine's speed shifts for seconds at a time as
/// other tenants come and go, so a whole-run percentile measures how much
/// of the run they were busy. The quietest window measures the program: a
/// slower program is slower in every window. The last window is dropped
/// when the run has more than one, since it is cut short.
pub fn quietest(completions: &[Completion]) -> Quietest {
    let mut windows: Vec<Vec<Completion>> = Vec::new();
    for c in completions {
        let index = (c.at_s / WINDOW_S).max(0.0) as usize;
        if windows.len() <= index {
            windows.resize_with(index + 1, Vec::new);
        }
        windows[index].push(*c);
    }
    if windows.len() > 1 {
        windows.pop();
    }
    windows.retain(|w| !w.is_empty());

    let mut best = Quietest {
        p50_ms: f64::INFINITY,
        p90_ms: f64::INFINITY,
        per_s: 0.0,
        windows: windows.len(),
        samples_per_window: median(&windows.iter().map(|w| w.len() as f64).collect::<Vec<_>>())
            as usize,
    };
    for window in &windows {
        let latencies = sorted(window.iter().map(|c| c.latency_ms).collect());
        best.p50_ms = best.p50_ms.min(percentile(&latencies, 50.0));
        best.p90_ms = best.p90_ms.min(percentile(&latencies, 90.0));
        if let Some(per_s) = served_rate(window) {
            best.per_s = best.per_s.max(per_s);
        }
    }
    if best.per_s == 0.0 {
        // No window served two units: fall back to the whole run.
        best.per_s = served_rate(completions).unwrap_or(0.0);
    }
    best
}

/// The lowest median among groups of timings taken at different points
/// of a run: one group's repeats follow each other within a second or two,
/// so on a shared host they often all land in a busy spell (see
/// [`quietest`]).
pub fn quietest_median(groups: &[&[f64]]) -> f64 {
    groups
        .iter()
        .map(|group| median(group))
        .fold(f64::INFINITY, f64::min)
}

/// `served − 1` over the time from the first to the last served
/// completion, where at least two were served at different times.
fn served_rate(completions: &[Completion]) -> Option<f64> {
    let served: Vec<f64> = completions
        .iter()
        .filter(|c| c.latency_ms.is_finite())
        .map(|c| c.at_s)
        .collect();
    let first = served.iter().copied().fold(f64::INFINITY, f64::min);
    let last = served.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (served.len() >= 2 && last > first).then(|| (served.len() - 1) as f64 / (last - first))
}

/// Arithmetic mean, or `0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
