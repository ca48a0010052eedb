use perfbench::stats::{
    highest_supported_percentile, median, percentile, quietest, quietest_median, sorted,
    Completion, MIN_TAIL_SAMPLES, WINDOW_S,
};

#[test]
fn nearest_rank_percentiles_pick_sample_values() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), 5.0);
    assert_eq!(percentile(&values, 90.0), 9.0);
    assert_eq!(percentile(&values, 91.0), 10.0);
    assert_eq!(percentile(&values, 100.0), 10.0);
    assert_eq!(percentile(&values, 0.1), 1.0);
    assert_eq!(percentile(&[7.5], 99.9), 7.5);
}

#[test]
fn failed_requests_sort_last_and_count_as_misses() {
    let mut values: Vec<f64> = (1..=9).map(f64::from).collect();
    values.push(f64::INFINITY);
    let sorted = sorted(values);
    assert_eq!(sorted.last(), Some(&f64::INFINITY));
    assert_eq!(percentile(&sorted, 50.0), 5.0);
    assert!(percentile(&sorted, 95.0).is_infinite());
    // Half the sample failed: the median itself is a miss.
    let half_failed = sorted_with_failures(4, 4);
    assert!(percentile(&half_failed, 51.0).is_infinite());
}

fn sorted_with_failures(ok: usize, failed: usize) -> Vec<f64> {
    let values = (0..ok)
        .map(|i| i as f64)
        .chain(std::iter::repeat_n(f64::INFINITY, failed))
        .collect();
    sorted(values)
}

#[test]
fn highest_supported_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(MIN_TAIL_SAMPLES, 10);
    assert_eq!(highest_supported_percentile(0), None);
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(39), Some(50.0));
    assert_eq!(highest_supported_percentile(40), Some(75.0));
    assert_eq!(highest_supported_percentile(99), Some(75.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(9_999), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    // The defining property, checked over a range of sample counts.
    for n in 1..3000usize {
        if let Some(p) = highest_supported_percentile(n) {
            let at = percentile(&(0..n).map(|i| i as f64).collect::<Vec<_>>(), p);
            let beyond = n - 1 - at as usize;
            assert!(beyond >= MIN_TAIL_SAMPLES, "n {n} p {p}");
        }
    }
}

#[test]
fn median_of_an_empty_sample_is_zero() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

/// Ten units a second for `seconds` seconds, each `latency_ms` long.
fn steady(from_s: f64, seconds: usize, latency_ms: f64) -> Vec<Completion> {
    (0..seconds * 10)
        .map(|i| Completion {
            at_s: from_s + 0.05 + i as f64 * 0.1,
            latency_ms,
        })
        .collect()
}

#[test]
fn quietest_window_ignores_busy_spells_and_the_cut_short_last_window() {
    assert_eq!(WINDOW_S, 1.0);
    // Two busy seconds, one quiet second, then a short busy last window
    // that would read fastest if it counted.
    let mut run = steady(0.0, 2, 30.0);
    run.extend(steady(2.0, 1, 10.0));
    run.push(Completion {
        at_s: 3.5,
        latency_ms: 1.0,
    });
    let quiet = quietest(&run);
    assert_eq!(quiet.windows, 3);
    assert_eq!(quiet.samples_per_window, 10);
    assert_eq!(quiet.p50_ms, 10.0);
    assert_eq!(quiet.p90_ms, 10.0);
    assert!((quiet.per_s - 10.0).abs() < 1e-9, "{}", quiet.per_s);
}

#[test]
fn quietest_window_counts_failures_as_misses() {
    let mut run = steady(0.0, 1, 10.0);
    for c in run.iter_mut().skip(4) {
        c.latency_ms = f64::INFINITY;
    }
    run.extend(steady(1.0, 1, 10.0));
    let quiet = quietest(&run);
    // The only complete window is mostly failed: its median is a miss.
    assert_eq!(quiet.windows, 1);
    assert!(quiet.p50_ms.is_infinite());
    assert!((quiet.per_s - 10.0).abs() < 1e-9, "{}", quiet.per_s);
}

#[test]
fn quietest_median_takes_the_lower_group_median() {
    assert_eq!(quietest_median(&[&[3.0, 9.0, 4.0], &[5.0, 1.0, 2.0]]), 2.0);
}
