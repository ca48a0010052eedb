//! `edge-images` and `scan-tiled`: one caller in a closed loop over warm
//! `SegEngine`s, one engine per codebook key.

use std::time::{Duration, Instant};

use imaging::metrics::matched_binary_iou;
use imaging::LabelMap;
use seghdc::{EngineTelemetry, SegEngine, SegHdcConfig, SegmentRequest, TileConfig};
use synthdata::DatasetProfile;

use crate::inputs::{self, Sample, EDGE_SIZE};
use crate::report::{json_string, Metrics};
use crate::stats::{mean, quietest, quietest_median, Completion};
use crate::trace::{self, KernelCounts, SpanKind, TracingBackend, KERNEL_OPS};
use crate::{Outcome, RunSpec, MIB};

/// Images per preset in the `edge-images` pool.
const EDGE_IMAGES_PER_PRESET: usize = 12;
/// Edge of the `scan-tiled` scans: a quarter-size `microscopy_scan_like`
/// scan, still streamed as 2×2 tiles, so that a one-second window holds
/// several scans.
const SCAN_EDGE: usize = 512;
/// Scans in the `scan-tiled` pool.
const SCAN_POOL: usize = 4;
/// Times set-up is repeated in a group. An untraced run sets up one group
/// before the measured window and another every [`SETUP_EVERY`] of
/// measured time, with the clock stopped; `setup_s` is the lowest group
/// median, for the reason [`quietest`] gives.
const EDGE_SETUP_REPEATS: usize = 7;
const SCAN_SETUP_REPEATS: usize = 3;
const SETUP_EVERY: Duration = Duration::from_secs(5);

/// One workload's pool and engines.
struct EngineWorkload {
    /// The images, each tagged with the preset (engine) that runs it.
    pool: Vec<(usize, Sample)>,
    /// One configuration per preset.
    configs: Vec<SegHdcConfig>,
    /// Builds the engine of a configuration, traced or not.
    build: fn(SegHdcConfig, bool) -> SegEngine,
    setup_repeats: usize,
}

/// `edge-images`: alternating seeded 128² DSB2018-like (3-channel) and
/// BBBC005-like (1-channel) images through whole-image runs.
pub fn edge_images(spec: &RunSpec) -> Outcome {
    let dsb = inputs::nuclei(
        DatasetProfile::dsb2018_like().scaled(EDGE_SIZE, EDGE_SIZE),
        spec.seed,
        1,
        EDGE_IMAGES_PER_PRESET,
    );
    let bbbc = inputs::nuclei(
        DatasetProfile::bbbc005_like().scaled(EDGE_SIZE, EDGE_SIZE),
        spec.seed,
        2,
        EDGE_IMAGES_PER_PRESET,
    );
    let pool = dsb
        .into_iter()
        .zip(bbbc)
        .flat_map(|(d, b)| [(0, d), (1, b)])
        .collect();
    run_closed_loop(
        spec,
        EngineWorkload {
            pool,
            configs: inputs::edge_configs(spec.codebook_seed).to_vec(),
            build: |config, traced| engine_builder(config, traced).build().expect("valid"),
            setup_repeats: EDGE_SETUP_REPEATS,
        },
    )
}

/// `scan-tiled`: seeded 512² microscopy scans through the streaming tiled
/// path the planner picks for them.
pub fn scan_tiled(spec: &RunSpec) -> Outcome {
    let pool = inputs::nuclei(
        DatasetProfile::microscopy_scan_like().scaled(SCAN_EDGE, SCAN_EDGE),
        spec.seed,
        3,
        SCAN_POOL,
    )
    .into_iter()
    .map(|sample| (0, sample))
    .collect();
    run_closed_loop(
        spec,
        EngineWorkload {
            pool,
            configs: vec![inputs::scan_config(spec.codebook_seed)],
            // The examples/large_scan.rs engine: an edge-sized matrix
            // budget, so the auto plan streams 256² tiles with an 8 px halo.
            build: |config, traced| {
                engine_builder(config, traced)
                    .matrix_budget_bytes(8 << 20)
                    .auto_tile(TileConfig::square(256, 8).expect("valid tile geometry"))
                    .build()
                    .expect("valid")
            },
            setup_repeats: SCAN_SETUP_REPEATS,
        },
    )
}

fn engine_builder(config: SegHdcConfig, traced: bool) -> seghdc::SegEngineBuilder {
    let builder = SegEngine::builder(config);
    if traced {
        builder.backend(Box::new(TracingBackend::counting_auto()))
    } else {
        builder
    }
}

/// Builds one engine per preset and runs the first image of each, the
/// cold request that pays the codebook build.
fn set_up(workload: &EngineWorkload, traced: bool) -> (Vec<SegEngine>, Duration) {
    let start = Instant::now();
    let engines: Vec<SegEngine> = workload
        .configs
        .iter()
        .map(|config| (workload.build)(config.clone(), traced))
        .collect();
    for (preset, engine) in engines.iter().enumerate() {
        let (_, sample) = workload
            .pool
            .iter()
            .find(|(p, _)| *p == preset)
            .expect("every preset has an image");
        engine
            .run(&SegmentRequest::image(&sample.image))
            .expect("warm-up run succeeds");
    }
    (engines, start.elapsed())
}

/// Sets the workload up `setup_repeats` times, keeping the last engines.
fn set_up_repeatedly(workload: &EngineWorkload) -> (Vec<SegEngine>, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = Vec::new();
    for _ in 0..workload.setup_repeats {
        let (engines, took) = set_up(workload, false);
        times.push(took.as_secs_f64());
        kept = engines;
    }
    (kept, times)
}

/// Per-variant sums over the measured window.
#[derive(Default)]
struct Tally {
    units: u64,
    failed: u64,
    run_ns: u64,
    stitch_ns: u64,
    completions: Vec<Completion>,
}

fn run_closed_loop(spec: &RunSpec, workload: EngineWorkload) -> Outcome {
    let mut outcome = Outcome::default();

    let (plain, setup_before) = set_up_repeatedly(&workload);
    let traced = if spec.trace {
        set_up(&workload, true).0
    } else {
        Vec::new()
    };
    trace::take_spans();

    let telemetry_before: Vec<EngineTelemetry> = traced.iter().map(SegEngine::telemetry).collect();
    let kernels_before = KernelCounts::now();

    // Each pool image runs on every variant in turn; the order of the
    // variants alternates per pass so neither always runs second.
    let variants: &[bool] = if spec.trace { &[false, true] } else { &[false] };
    let mut first_labels: Vec<Option<Vec<u32>>> = vec![None; workload.pool.len()];
    let mut tallies = [Tally::default(), Tally::default()];
    let started = Instant::now();
    let mut deadline = started + spec.measure;
    let mut setup_groups = vec![setup_before];
    let mut paused = Duration::ZERO;
    let mut next_setup = started + SETUP_EVERY;
    let mut step = 0usize;
    let mut unit_id = 0u64;
    // Always complete one pass over the pool, so IoU covers every image.
    while step < workload.pool.len() || Instant::now() < deadline {
        if !spec.trace && Instant::now() >= next_setup {
            let pause = Instant::now();
            setup_groups.push(set_up_repeatedly(&workload).1);
            let took = pause.elapsed();
            paused += took;
            deadline += took;
            next_setup = Instant::now() + SETUP_EVERY;
        }
        let index = step % workload.pool.len();
        let (preset, sample) = &workload.pool[index];
        let pass = step / workload.pool.len();
        for order in 0..variants.len() {
            let is_traced = variants[(order + pass) % variants.len()];
            let engine = if is_traced {
                &traced[*preset]
            } else {
                &plain[*preset]
            };
            unit_id += 1;
            trace::set_unit(unit_id);
            let run_start = Instant::now();
            let result = engine.run(&SegmentRequest::image(&sample.image));
            let run_ns = run_start.elapsed().as_nanos() as u64;
            let at_s = (started.elapsed() - paused).as_secs_f64();
            let tally = &mut tallies[usize::from(is_traced)];
            tally.units += 1;
            match result {
                Ok(report) => {
                    let output = report.single();
                    tally.run_ns += run_ns;
                    tally.stitch_ns += output.stitch_time.as_nanos() as u64;
                    tally.completions.push(Completion {
                        at_s,
                        latency_ms: run_ns as f64 / 1e6,
                    });
                    let labels = output.label_map.as_raw();
                    match &first_labels[index] {
                        None => first_labels[index] = Some(labels.to_vec()),
                        Some(first) if first.as_slice() != labels => outcome.problem(format!(
                            "image {index}: labels differ between runs of the same input"
                        )),
                        Some(_) => {}
                    }
                }
                Err(err) => {
                    tally.failed += 1;
                    tally.completions.push(Completion {
                        at_s,
                        latency_ms: f64::INFINITY,
                    });
                    eprintln!("image {index}: run failed: {err}");
                }
            }
        }
        step += 1;
    }
    trace::set_unit(0);

    let [untraced, traced_tally] = &tallies;
    outcome.attempted = untraced.units + traced_tally.units;
    outcome.failed = untraced.failed + traced_tally.failed;

    let mut ious = Vec::new();
    for ((_, sample), labels) in workload.pool.iter().zip(&first_labels) {
        if let Some(labels) = labels {
            let map =
                LabelMap::from_raw(sample.image.width(), sample.image.height(), labels.clone())
                    .expect("engine label maps match their image");
            ious.push(matched_binary_iou(&map, &sample.truth).expect("same shape"));
        }
    }
    let iou_mean = mean(&ious);

    let engine = &plain[0];
    outcome.note("kernel_isa", json_string(engine.kernel_isa()));
    outcome.note("backend", json_string(engine.backend_name()));
    outcome.note("client_threads", "1".to_string());
    outcome.note("server_workers", "0".to_string());
    outcome.note("pool_images", workload.pool.len().to_string());
    outcome.note("setup_repeats", workload.setup_repeats.to_string());
    outcome.note("setup_groups", setup_groups.len().to_string());
    outcome.note("iou_images", ious.len().to_string());

    let metrics = &mut outcome.metrics;
    if !spec.trace {
        let quiet = quietest(&untraced.completions);
        let groups: Vec<&[f64]> = setup_groups.iter().map(Vec::as_slice).collect();
        metrics.set("setup_s", quietest_median(&groups));
        metrics.set("latency_p50_ms", quiet.p50_ms);
        metrics.set("throughput_per_s", quiet.per_s);
        metrics.set(
            "ok_ratio",
            (untraced.units - untraced.failed) as f64 / untraced.units as f64,
        );
        metrics.set("iou_mean", iou_mean);
        outcome.note_windows(untraced.completions.len(), &quiet);
        return outcome;
    }

    // The untraced units' p90, in their quietest window.
    metrics.set("latency_p90_ms", quietest(&untraced.completions).p90_ms);
    // Traced run: per-layer figures per traced unit.
    let units = traced_tally.units.max(1) as f64;
    let spans = trace::take_spans();
    let span_ns = |kind: SpanKind| -> u64 {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_ns())
            .sum()
    };
    let cluster_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Cluster)
        .collect();
    let encode_ms = span_ns(SpanKind::Encode) as f64 / 1e6 / units;
    let cluster_ms = span_ns(SpanKind::Cluster) as f64 / 1e6 / units;
    let run_ms = traced_tally.run_ns as f64 / 1e6 / units;
    let stitch_ms = traced_tally.stitch_ns as f64 / 1e6 / units;
    metrics.set("engine.run_ms", run_ms);
    metrics.set("encode.self_ms", encode_ms);
    metrics.set("cluster.self_ms", cluster_ms);
    metrics.set("cluster.share_of_run", cluster_ms / run_ms);
    metrics.set("cluster.calls", cluster_spans.len() as f64 / units);
    metrics.set(
        "cluster.iterations_per_call",
        cluster_spans.iter().map(|s| s.iterations).sum::<u64>() as f64
            / cluster_spans.len().max(1) as f64,
    );
    metrics.set("stitch.ms", stitch_ms);
    metrics.set(
        "engine.other_ms",
        run_ms - encode_ms - cluster_ms - stitch_ms,
    );

    let (mut hits, mut misses, mut peak) = (0u64, 0u64, 0usize);
    for (engine, before) in traced.iter().zip(&telemetry_before) {
        let after = engine.telemetry();
        hits += after.cache_hits - before.cache_hits;
        misses += after.cache_misses - before.cache_misses;
        peak = peak.max(after.peak_matrix_bytes);
    }
    metrics.set("cache.hits", hits as f64 / units);
    metrics.set("cache.misses", misses as f64 / units);
    metrics.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    metrics.set("arena.peak_matrix_mib", peak as f64 / MIB);
    set_kernel_metrics(metrics, &KernelCounts::now().since(&kernels_before), units);

    metrics.set(
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    // Same images on both variants: the throughput ratio is the ratio of
    // their summed run times.
    metrics.set(
        "trace.overhead_ratio",
        untraced.run_ns as f64 / traced_tally.run_ns.max(1) as f64,
    );
    outcome.note("traced_units", traced_tally.units.to_string());
    outcome
}

/// Sets every `kernels.*` metric from `counts`, per unit.
fn set_kernel_metrics(metrics: &mut Metrics, counts: &KernelCounts, units: f64) {
    for (op, name) in KERNEL_OPS.iter().enumerate() {
        metrics.set(
            &format!("kernels.{name}.calls"),
            counts.calls(op) as f64 / units,
        );
        metrics.set(
            &format!("kernels.{name}.bytes"),
            counts.bytes(op) as f64 / units,
        );
    }
    metrics.set(
        "kernels.counts_dot_multi.accept_ratio",
        counts.counts_dot_multi_accept_ratio(),
    );
}
