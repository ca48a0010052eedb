//! Per-ISA benchmarks of the unified word-kernel layer and of the engine
//! on top of it.
//!
//! Measures the raw `hdc::kernels` operations the pipeline's hot loops
//! dispatch through (popcount-fused Hamming, bit-sliced plane dots,
//! vertical-counter carry adds, XOR binds) at the row widths the engine
//! runs and at one memory-bound width, the composed `cluster_matrix_with`
//! run, and a full warm-cache engine request (`engine_run`), for
//! **every** kernel ISA the host supports (`hdc::kernels::available()`),
//! not just scalar-versus-auto.
//!
//! Timing is a median over `SAMPLES` wall-clock runs after one warm-up.
//! Besides the human-readable report, every measurement is merged into
//! `crates/bench/BENCH_kernels.json` (override the path with
//! `SEGHDC_BENCH_JSON`) as `(op, isa, dim, k, ns_per_op)` records — the
//! machine-readable perf trajectory referenced by `crates/bench/README.md`.
//! Run it with `cargo bench -p seghdc_bench --bench kernels`.

use hdc::kernels;
use hdc::{Accumulator, BinaryHypervector, HdcRng, HvMatrix};
use seghdc::{HvKmeans, SegEngine, SegHdcConfig, SegmentRequest, SimdCpuBackend};
use seghdc_bench::bench_json::{self, BenchRecord};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

/// Dimensions of the single-row ops: the 8- and 32-word rows the engine
/// binds and bundles (d = 512 serves frames, d = 2,048 edge images and
/// scans), and a 256-word row where `xor_into` is memory-bound.
const DIMENSIONS: [usize; 3] = [512, 2_048, 16_384];
const ROWS: usize = 2_000;
const SAMPLES: usize = 10;

/// The composed-stage workload: a 128x128 image's worth of rows at the
/// paper's edge dimension, with up to K = 4 centroids.
const IMAGE_ROWS: usize = 128 * 128;
const IMAGE_DIMENSION: usize = 2_048;
const CLUSTERS: usize = 4;

fn random_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
    let mut rng = HdcRng::seed_from(seed);
    let vectors: Vec<BinaryHypervector> = (0..rows)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    HvMatrix::from_vectors(&vectors).expect("vectors share a dimension")
}

struct Reporter {
    records: Vec<BenchRecord>,
}

impl Reporter {
    fn record(&mut self, op: &str, isa: &str, dim: usize, k: usize, ns_per_op: f64) {
        println!("{op:28} {isa:16} d={dim:<6} k={k}  {ns_per_op:12.1} ns/op");
        self.records.push(BenchRecord {
            op: op.to_string(),
            isa: isa.to_string(),
            dim,
            k,
            ns_per_op,
        });
    }
}

fn bench_hamming(report: &mut Reporter) {
    for dim in DIMENSIONS {
        let matrix = random_matrix(ROWS, dim, 1);
        let probe = matrix.row(0).to_hypervector();
        for k in kernels::available() {
            let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
                let mut total = 0u64;
                for row in 0..ROWS {
                    total += k.hamming(matrix.row(row).as_words(), probe.as_words());
                }
                black_box(total)
            });
            report.record("hamming", k.name(), dim, 1, ns);
        }
    }
}

fn bench_plane_dot(report: &mut Reporter) {
    for dim in DIMENSIONS {
        let matrix = random_matrix(ROWS, dim, 2);
        let mut accumulator = Accumulator::zeros(dim).expect("dimension is non-zero");
        for row in 0..9 {
            accumulator.add_row(matrix.row(row)).expect("dims match");
        }
        for k in kernels::available() {
            let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
                let mut total = 0u64;
                for row in 0..ROWS {
                    total += accumulator
                        .dot_row_with(matrix.row(row), k)
                        .expect("dims match");
                }
                black_box(total)
            });
            report.record("plane_dot", k.name(), dim, 1, ns);
        }
    }
}

fn bench_bundle_add(report: &mut Reporter) {
    for dim in DIMENSIONS {
        let matrix = random_matrix(ROWS, dim, 3);
        for k in kernels::available() {
            let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
                let mut accumulator = Accumulator::zeros(dim).expect("non-zero");
                for row in 0..ROWS {
                    accumulator
                        .add_row_with(matrix.row(row), k)
                        .expect("dims match");
                }
                black_box(accumulator.items())
            });
            report.record("bundle_add", k.name(), dim, 1, ns);
        }
    }
}

fn bench_xor_into(report: &mut Reporter) {
    for dim in DIMENSIONS {
        let matrix = random_matrix(ROWS, dim, 4);
        let key = matrix.row(0).as_words();
        for k in kernels::available() {
            let mut rows = random_matrix(ROWS, dim, 5).as_words().to_vec();
            let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
                for row in rows.chunks_exact_mut(key.len()) {
                    k.xor_into(row, key);
                }
                black_box(rows[0])
            });
            report.record("xor_into", k.name(), dim, 1, ns);
        }
    }
}

/// The composed K-Means run (`cluster_matrix_with`, 3 iterations) over a
/// 128x128 image's worth of rows. Its rows are random, about `d / 2`
/// toggle points apart, so these records time only the bit-sliced passes;
/// level-coded pixel rows take the closed-form interval passes, which
/// `engine_run` times.
fn bench_cluster_iteration(report: &mut Reporter) {
    let matrix = random_matrix(IMAGE_ROWS, IMAGE_DIMENSION, 6);
    let intensities: Vec<u8> = (0..matrix.rows()).map(|i| (i % 251) as u8).collect();
    for clusters in [2usize, CLUSTERS] {
        let kmeans = HvKmeans::new(clusters, 3, false).expect("valid");
        for k in kernels::available() {
            let ns = bench_json::median_ns_per_op(SAMPLES, 1, || {
                black_box(
                    kmeans
                        .cluster_matrix_with(&matrix, &intensities, k)
                        .expect("clustering succeeds"),
                )
            });
            report.record("cluster_matrix", k.name(), IMAGE_DIMENSION, clusters, ns);
        }
    }
}

/// A warm-cache engine request per available kernel ISA: a DSB2018-like
/// 128x128 image (generator seed 3, sample 0) at d = 2,048, β = 8 and 3
/// iterations, after one untimed request that builds the codebooks, so
/// the timing covers encode and cluster.
fn bench_engine_run(report: &mut Reporter) {
    const SIZE: usize = 128;
    let profile = DatasetProfile::dsb2018_like().scaled(SIZE, SIZE);
    let image = NucleiImageGenerator::new(profile, 3)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image;
    let config = SegHdcConfig::builder()
        .dimension(IMAGE_DIMENSION)
        .beta(8)
        .iterations(3)
        .build()
        .expect("parameters are valid");
    let clusters = config.clusters;
    let request = SegmentRequest::image(&image).whole_image();
    for k in kernels::available() {
        let engine = SegEngine::builder(config.clone())
            .backend(Box::new(SimdCpuBackend::with_kernels(k)))
            .build()
            .expect("config is valid");
        engine.run(&request).expect("segmentation succeeds");
        let ns = bench_json::median_ns_per_op(SAMPLES, 1, || {
            black_box(engine.run(&request).expect("segmentation succeeds"))
        });
        report.record("engine_run", k.name(), IMAGE_DIMENSION, clusters, ns);
    }
}

fn main() {
    let mut report = Reporter {
        records: Vec::new(),
    };
    println!("kernel-layer benchmarks ({SAMPLES} samples, median):");
    bench_hamming(&mut report);
    bench_plane_dot(&mut report);
    bench_bundle_add(&mut report);
    bench_xor_into(&mut report);
    bench_cluster_iteration(&mut report);
    bench_engine_run(&mut report);
    let path = bench_json::default_path();
    bench_json::merge_into_file(&path, &report.records).expect("bench JSON is writable");
    println!(
        "merged {} records into {}",
        report.records.len(),
        path.display()
    );
}
