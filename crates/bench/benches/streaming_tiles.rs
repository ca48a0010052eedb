//! Benchmarks of streaming tiled segmentation against the whole-image
//! path on a synthetic microscopy scan.
//!
//! The point of a tiled request is memory, not raw speed: the
//! whole-image path allocates one `pixels × d` matrix, the streaming path
//! roughly one halo-padded tile. The bench reports both wall-clock times
//! (the streaming path pays the halo overlap re-encode plus the stitch, so
//! expect a modest constant-factor cost) and prints the measured peak
//! matrix bytes per variant so the memory trade is visible next to the
//! latency numbers.
//!
//! Reference numbers from the 1-core CI container (release, d = 2048,
//! 3 iterations, 64-px tiles + 4-px halo, medians of 10):
//!
//! | image   | whole-image | streaming | peak matrix (whole → streaming) |
//! |---------|-------------|-----------|---------------------------------|
//! | 128×128 | 90.0 ms     | 121.6 ms  | 4.19 MB → 1.18 MB (3.5×)        |
//! | 256×256 | 413.1 ms    | 558.3 ms  | 16.78 MB → 1.33 MB (12.6×)      |

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imaging::DynamicImage;
use seghdc::{SegEngine, SegHdcConfig, SegmentRequest, TileConfig};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

const DIMENSION: usize = 2048;

fn scan_image(edge: usize) -> DynamicImage {
    let profile = DatasetProfile::microscopy_scan_like().scaled(edge, edge);
    NucleiImageGenerator::new(profile, 17)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image
}

fn new_engine() -> SegEngine {
    let config = SegHdcConfig::builder()
        .dimension(DIMENSION)
        .beta(8)
        .iterations(3)
        .build()
        .expect("parameters are valid");
    SegEngine::new(config).expect("config is valid")
}

fn bench_whole_vs_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("whole_image_vs_streaming_tiles");
    group.sample_size(10);
    let engine = new_engine();
    for &edge in &[128usize, 256] {
        let image = scan_image(edge);
        let tiles = TileConfig::square(64, 4).expect("tile parameters are valid");

        // Report the memory trade once per size, outside the timing loop,
        // from a fresh engine so the telemetry peak is this run's own.
        let peak = new_engine()
            .run(&SegmentRequest::image(&image).tiled(tiles))
            .expect("streaming segmentation succeeds")
            .telemetry
            .peak_matrix_bytes;
        let whole_bytes = edge * edge * DIMENSION.div_ceil(64) * 8;
        println!(
            "{edge}x{edge}: whole-image matrix {whole_bytes} B, streaming peak {peak} B ({:.1}x less)",
            whole_bytes as f64 / peak as f64
        );

        group.bench_with_input(
            BenchmarkId::new("whole_image", format!("{edge}x{edge}")),
            &image,
            |bencher, image| {
                bencher.iter(|| {
                    black_box(
                        engine
                            .run(&SegmentRequest::image(image).whole_image())
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_64px_tiles", format!("{edge}x{edge}")),
            &image,
            |bencher, image| {
                bencher.iter(|| {
                    black_box(
                        engine
                            .run(&SegmentRequest::image(image).tiled(tiles))
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_streaming_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_batch");
    group.sample_size(10);
    let engine = new_engine();
    let images: Vec<DynamicImage> = (0..2).map(|_| scan_image(128)).collect();
    let tiles = TileConfig::square(64, 4).expect("tile parameters are valid");
    group.bench_function(BenchmarkId::from_parameter("2x128x128"), |bencher| {
        bencher.iter(|| {
            black_box(
                engine
                    .run(&SegmentRequest::batch(&images).tiled(tiles))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_whole_vs_streaming, bench_streaming_batch);
criterion_main!(benches);
