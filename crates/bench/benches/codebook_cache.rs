//! Warm-versus-cold codebook-cache latency of the `SegEngine` request
//! path.
//!
//! Building the position/colour codebooks is the per-request fixed cost of
//! a segmentation: it depends on the hypervector dimension and image shape
//! but not on pixel data, which is exactly what the engine's persistent
//! codebook cache amortises. Each workload is measured two ways:
//!
//! * **cold** — a fresh `SegEngine` per request, so every request rebuilds
//!   the codebooks;
//! * **warm** — one long-lived engine across requests, so every request
//!   after the first hits the cache.
//!
//! The `16x16/d=10000` workload is the service-shaped case (small crops,
//! the paper's full dimension) where codebook construction dominates; as
//! the pixel count grows (`32x32/d=8192`, `128x128/d=2048`) encode+cluster
//! dominates and the cache win becomes a smaller constant. Measured
//! numbers live in `crates/bench/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imaging::DynamicImage;
use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

fn sample_image(edge: usize) -> DynamicImage {
    let profile = DatasetProfile::dsb2018_like().scaled(edge, edge);
    NucleiImageGenerator::new(profile, 7)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image
}

fn config(dimension: usize) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(dimension)
        .beta(4)
        .iterations(3)
        .build()
        .expect("parameters are valid")
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("codebook_cache");
    group.sample_size(10);
    for &(edge, dimension) in &[(16usize, 10_000usize), (32, 8192), (128, 2048)] {
        let image = sample_image(edge);
        let label = format!("{edge}x{edge}_d{dimension}");

        group.bench_function(
            BenchmarkId::new("cold_engine_per_request", &label),
            |bencher| {
                bencher.iter(|| {
                    let engine = SegEngine::new(config(dimension)).expect("config is valid");
                    black_box(engine.run(&SegmentRequest::image(&image)).unwrap())
                })
            },
        );

        let warm = SegEngine::new(config(dimension)).expect("config is valid");
        // Populate the cache once, outside the timing loop.
        warm.run(&SegmentRequest::image(&image)).unwrap();
        group.bench_function(BenchmarkId::new("warm_shared_engine", &label), |bencher| {
            bencher.iter(|| black_box(warm.run(&SegmentRequest::image(&image)).unwrap()))
        });
        let telemetry = warm.telemetry();
        println!(
            "{label}: warm engine served {} hits / {} miss(es), {:.2} MB of codebooks resident",
            telemetry.cache_hits,
            telemetry.cache_misses,
            telemetry.cache_bytes as f64 / 1e6
        );
    }
    group.finish();
}

criterion_group!(benches, bench_warm_vs_cold);
criterion_main!(benches);
