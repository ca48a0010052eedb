//! Benchmarks of the batched `HvMatrix` engine against the naive
//! per-vector baseline it replaced:
//!
//! * per-pixel encoding (`encode_pixel` in a loop, one allocation per
//!   pixel) versus batch encoding (`encode_matrix`, one allocation total);
//! * serial versus parallel K-Means assignment (`RAYON_NUM_THREADS=1`
//!   versus all cores) on the matrix path;
//! * the naive end-to-end pipeline (per-pixel encode + per-vector
//!   `cluster`) versus the batched engine path — the ≥2× speedup
//!   acceptance gate of the batch-engine refactor, checked at 128×128 with
//!   d = 2048;
//! * full engine requests through the scalar-pinned backend versus the
//!   default SIMD-auto backend (`backend_scalar_vs_simd`) — the kernel
//!   layer's end-to-end speedup; current numbers live in this crate's
//!   `README.md` ("Kernel layer" section).
//!
//! Reference numbers from the 1-core CI container (release, medians of 10
//! samples):
//!
//! | benchmark            | naive     | batched  | speedup |
//! |----------------------|-----------|----------|---------|
//! | encode 64×64         | 777 µs    | 344 µs   | 2.3×    |
//! | encode 128×128       | 5.31 ms   | 1.41 ms  | 3.8×    |
//! | end-to-end 64×64     | 68.0 ms   | 22.6 ms  | 3.0×    |
//! | end-to-end 128×128   | 274.1 ms  | 91.7 ms  | 3.0×    |
//!
//! Serial and parallel assignment tie on one core; on multi-core hosts the
//! parallel row sweep scales with the worker count.

use criterion::{criterion_group, BenchmarkId, Criterion};
use hdc::kernels;
use hdc::BinaryHypervector;
use imaging::DynamicImage;
use seghdc::{
    DistanceMetric, HvKmeans, PixelEncoder, SegEngine, SegHdcConfig, SegmentRequest, SimdCpuBackend,
};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

const DIMENSION: usize = 2048;
const ITERATIONS: usize = 3;

fn sample_image(width: usize, height: usize) -> DynamicImage {
    let profile = DatasetProfile::dsb2018_like().scaled(width, height);
    NucleiImageGenerator::new(profile, 3)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image
}

fn config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(DIMENSION)
        .beta(8)
        .iterations(ITERATIONS)
        .build()
        .expect("parameters are valid")
}

fn build_encoder(image: &DynamicImage) -> PixelEncoder {
    PixelEncoder::for_shape(&config(), image.width(), image.height(), image.channels())
        .expect("encoder builds")
}

/// The pre-refactor encoding loop: one heap-allocated hypervector per pixel.
fn encode_per_pixel(encoder: &PixelEncoder, image: &DynamicImage) -> Vec<BinaryHypervector> {
    let mut out = Vec::with_capacity(image.pixel_count());
    for y in 0..image.height() {
        for x in 0..image.width() {
            out.push(encoder.encode_pixel(image, x, y).expect("in bounds"));
        }
    }
    out
}

fn intensities_of(image: &DynamicImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(image.pixel_count());
    for y in 0..image.height() {
        for x in 0..image.width() {
            out.push(image.intensity_at(x, y).expect("in bounds"));
        }
    }
    out
}

fn bench_encode_per_pixel_vs_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_per_pixel_vs_matrix");
    group.sample_size(10);
    for &size in &[64usize, 128] {
        let image = sample_image(size, size);
        let encoder = build_encoder(&image);
        group.bench_with_input(
            BenchmarkId::new("per_pixel", format!("{size}x{size}")),
            &image,
            |bencher, image| bencher.iter(|| black_box(encode_per_pixel(&encoder, image))),
        );
        group.bench_with_input(
            BenchmarkId::new("matrix", format!("{size}x{size}")),
            &image,
            |bencher, image| bencher.iter(|| black_box(encoder.encode_matrix(image).unwrap())),
        );
    }
    group.finish();
}

fn bench_kmeans_serial_vs_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_assignment_serial_vs_parallel");
    group.sample_size(10);
    for &size in &[64usize, 128] {
        let image = sample_image(size, size);
        let encoder = build_encoder(&image);
        let matrix = encoder.encode_matrix(&image).expect("encoding succeeds");
        let intensities = intensities_of(&image);
        let kmeans = HvKmeans::new(2, ITERATIONS, DistanceMetric::Cosine, false)
            .expect("parameters are valid");
        group.bench_function(
            BenchmarkId::new("serial", format!("{size}x{size}")),
            |bencher| {
                std::env::set_var("RAYON_NUM_THREADS", "1");
                bencher.iter(|| black_box(kmeans.cluster_matrix(&matrix, &intensities).unwrap()));
                std::env::remove_var("RAYON_NUM_THREADS");
            },
        );
        group.bench_function(
            BenchmarkId::new("parallel", format!("{size}x{size}")),
            |bencher| {
                bencher.iter(|| black_box(kmeans.cluster_matrix(&matrix, &intensities).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_end_to_end_naive_vs_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_naive_vs_batched");
    group.sample_size(10);
    for &size in &[64usize, 128] {
        let image = sample_image(size, size);
        let engine = SegEngine::new(config()).expect("config is valid");
        group.bench_with_input(
            BenchmarkId::new("naive_per_vector", format!("{size}x{size}")),
            &image,
            |bencher, image| {
                bencher.iter(|| {
                    // The pre-refactor pipeline: per-pixel encode into owned
                    // vectors, then the per-vector reference clusterer.
                    let encoder = build_encoder(image);
                    let pixels = encode_per_pixel(&encoder, image);
                    let intensities = intensities_of(image);
                    let kmeans = HvKmeans::new(2, ITERATIONS, DistanceMetric::Cosine, false)
                        .expect("parameters are valid");
                    black_box(kmeans.cluster(&pixels, &intensities).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched_matrix", format!("{size}x{size}")),
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
    }
    group.finish();
}

/// Full engine requests with the scalar-pinned backend versus the default
/// SIMD-auto backend — the end-to-end view of the kernel-layer speedup
/// (labels are byte-identical; see `tests/kernel_equivalence.rs`).
fn bench_backend_scalar_vs_simd(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_scalar_vs_simd");
    group.sample_size(10);
    for &size in &[64usize, 128] {
        let image = sample_image(size, size);
        let scalar_engine = SegEngine::builder(config())
            .backend(Box::new(SimdCpuBackend::scalar()))
            .build()
            .expect("config is valid");
        let simd_engine = SegEngine::builder(config())
            .backend(Box::new(SimdCpuBackend::auto()))
            .build()
            .expect("config is valid");
        let simd_label = format!("simd_auto[{}]", simd_engine.kernel_isa());
        for (name, engine) in [
            ("scalar".to_string(), scalar_engine),
            (simd_label, simd_engine),
        ] {
            // Warm the codebook cache so the comparison isolates the
            // encode + cluster kernels.
            engine
                .run(&SegmentRequest::image(&image).whole_image())
                .expect("segmentation succeeds");
            group.bench_with_input(
                BenchmarkId::new(name, format!("{size}x{size}")),
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
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode_per_pixel_vs_matrix,
    bench_kmeans_serial_vs_parallel,
    bench_end_to_end_naive_vs_batched,
    bench_backend_scalar_vs_simd
);

/// Times one warm-cache engine request per available kernel ISA and
/// merges the medians into `BENCH_kernels.json` (op `engine_run`), the
/// same machine-readable file the `kernels` bench writes. The criterion
/// stub exposes no sample data, so this pass times itself.
fn emit_engine_records() {
    use seghdc_bench::bench_json::{self, BenchRecord};

    let size = 128usize;
    let image = sample_image(size, size);
    let cfg = config();
    let clusters = cfg.clusters;
    let mut records = Vec::new();
    for k in kernels::available() {
        let engine = SegEngine::builder(config())
            .backend(Box::new(SimdCpuBackend::with_kernels(k)))
            .build()
            .expect("config is valid");
        // Warm the codebook cache so the measurement isolates the
        // encode + cluster kernels.
        engine
            .run(&SegmentRequest::image(&image).whole_image())
            .expect("segmentation succeeds");
        let ns = bench_json::median_ns_per_op(10, 1, || {
            black_box(
                engine
                    .run(&SegmentRequest::image(&image).whole_image())
                    .unwrap(),
            )
        });
        println!("engine_run[{}] {size}x{size}: {:.1} ns/run", k.name(), ns);
        records.push(BenchRecord {
            op: "engine_run".to_string(),
            isa: k.name().to_string(),
            dim: DIMENSION,
            k: clusters,
            ns_per_op: ns,
        });
    }
    let path = bench_json::default_path();
    bench_json::merge_into_file(&path, &records).expect("bench JSON is writable");
    println!("merged {} records into {}", records.len(), path.display());
}

fn main() {
    benches();
    emit_engine_records();
}
