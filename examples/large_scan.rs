//! Streaming tiled segmentation of a full microscopy scan through the
//! engine planner.
//!
//! Generates a synthetic 1024×1024 scan (the workload class whose
//! whole-image hypervector matrix does not fit on the paper's target edge
//! devices) and hands it to a `SegEngine` with an edge-sized matrix budget:
//! the planner picks streaming tiled execution on its own, streams the scan
//! one halo-padded tile at a time, and the report carries the stitched
//! quality plus the engine's cache/arena telemetry.
//!
//! Run with: `cargo run --release --example large_scan`

use seghdc_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dimension = 2048;
    let profile = DatasetProfile::microscopy_scan_like();
    println!(
        "generating a {}x{} synthetic microscopy scan...",
        profile.width, profile.height
    );
    let generator = NucleiImageGenerator::new(profile, 2023)?;
    let sample = generator.generate(0)?;

    let config = SegHdcConfig::builder()
        .dimension(dimension)
        .iterations(3)
        .beta(16)
        .build()?;
    // An edge-device-sized budget: the planner prices the 1024x1024
    // whole-image matrix at one row per pixel (~268 MB at d = 2048), far
    // over it, so it goes tiled.
    let engine = SegEngine::builder(config)
        .matrix_budget_bytes(8 << 20)
        .auto_tile(TileConfig::square(256, 8)?)
        .build()?;

    let request = SegmentRequest::image(&sample.image);
    let plan = engine.plan(&request)?;
    println!(
        "planner: whole-image matrix would be {:.1} MB (budget {:.1} MB) -> {} of {} image(s) tiled",
        plan.decisions[0].whole_matrix_bytes as f64 / 1e6,
        engine.options().matrix_budget_bytes as f64 / 1e6,
        plan.tiled_count(),
        plan.decisions.len()
    );

    let report = engine.run(&request)?;
    let result = report.single();
    let ExecutedMode::Tiled {
        tiles_x,
        tiles_y,
        stitched_labels,
    } = result.mode
    else {
        unreachable!("the plan chose tiled execution");
    };

    let iou = metrics::matched_binary_iou(&result.label_map, &sample.ground_truth.to_binary())?;
    let telemetry = report.telemetry;
    let whole_image_bytes = sample.image.pixel_count() * dimension.div_ceil(64) * 8;
    println!();
    println!(
        "tiles processed:       {} ({tiles_x}x{tiles_y} grid)",
        tiles_x * tiles_y
    );
    println!("stitched label groups: {stitched_labels}");
    println!("IoU vs ground truth:   {iou:.4}");
    println!(
        "peak matrix memory:    {:.2} MB (one row per pixel: {:.1} MB, {:.0}x more)",
        telemetry.peak_matrix_bytes as f64 / 1e6,
        whole_image_bytes as f64 / 1e6,
        whole_image_bytes as f64 / telemetry.peak_matrix_bytes as f64
    );
    println!(
        "codebook cache:        {} hit(s), {} miss(es), {} eviction(s), {:.1} MB resident",
        telemetry.cache_hits,
        telemetry.cache_misses,
        telemetry.cache_evictions,
        telemetry.cache_bytes as f64 / 1e6
    );
    println!(
        "backend:               {} (kernel ISA: {})",
        telemetry.backend, telemetry.kernel_isa
    );
    println!(
        "time: encode {:.1}s, cluster {:.1}s, stitch {:.2}s",
        result.encode_time.as_secs_f64(),
        result.cluster_time.as_secs_f64(),
        result.stitch_time.as_secs_f64()
    );
    Ok(())
}
