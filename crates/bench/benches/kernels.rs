//! Per-ISA benchmarks of the unified word-kernel layer and of the engine
//! on top of it.
//!
//! Measures the raw `hdc::kernels` operations the pipeline's hot loops
//! dispatch through (popcount-fused Hamming, bit-sliced plane dots,
//! vertical-counter carry adds, XOR binds) at the row widths the engine
//! runs and at one memory-bound width, the K-Means assignment step
//! in both shapes — the pre-fusion per-centroid path (one virtual
//! `and_popcount` per plane per centroid, K row popcounts per pixel)
//! against the fused `BitSlicedGroup` path (`plane_dot_multi`, one row
//! load and one popcount per pixel) — the composed `cluster_matrix_with`
//! iteration, and a full warm-cache engine request (`engine_run`), for
//! **every** kernel ISA the host supports (`hdc::kernels::available()`),
//! not just scalar-versus-auto.
//!
//! Timing is a median over `SAMPLES` wall-clock runs after one warm-up.
//! Besides the human-readable report, every measurement is merged into
//! `crates/bench/BENCH_kernels.json` (override the path with
//! `SEGHDC_BENCH_JSON`) as `(op, isa, dim, k, ns_per_op)` records — the
//! machine-readable perf trajectory referenced by `crates/bench/README.md`.
//! Run it with `cargo bench -p seghdc_bench --bench kernels`.

use hdc::kernels::{self, Kernels};
use hdc::{Accumulator, BinaryHypervector, BitSlicedGroup, HdcRng, HvMatrix};
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
/// paper's edge dimension, with the issue's K = 4 centroids.
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

/// Bundled centroids in realistic mid-iteration K-Means state: centroid
/// `c` bundles a disjoint `rows / clusters` share of the matrix rows, so
/// its counts carry the 11+ bit planes that actual `cluster_matrix`
/// centroids have once every pixel is assigned (thousands of members per
/// cluster) — the plane depth both assignment paths scale with.
fn sample_centroids(matrix: &HvMatrix, clusters: usize, kernels: &dyn Kernels) -> Vec<Accumulator> {
    let share = matrix.rows() / clusters;
    (0..clusters)
        .map(|c| {
            let mut acc = Accumulator::zeros(matrix.dim()).expect("dimension is non-zero");
            for row in (c * share)..(c * share + share) {
                acc.add_row_with(matrix.row(row), kernels)
                    .expect("dims match");
            }
            acc
        })
        .collect()
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

/// A centroid snapshot in the exact shape the pre-fusion assignment loop
/// consumed: separately-owned bit planes plus the cached norm.
struct Pr4Centroid {
    planes: Vec<Vec<u64>>,
    norm: f64,
}

impl Pr4Centroid {
    fn from_accumulator(acc: &Accumulator, k: &dyn Kernels) -> Self {
        let counts = acc.counts();
        let words_per_plane = acc.dim().div_ceil(64);
        let mut planes = vec![vec![0u64; words_per_plane]; acc.plane_count()];
        for (i, &count) in counts.iter().enumerate() {
            for (p, plane) in planes.iter_mut().enumerate() {
                plane[i / 64] |= u64::from((count >> p) & 1) << (i % 64);
            }
        }
        Self {
            planes,
            norm: acc.norm_with(k),
        }
    }
}

/// The pre-fusion assignment loop, reproduced faithfully: the dot
/// against each centroid is one virtual `and_popcount` call **per plane**
/// (each with its own horizontal reduction), and every centroid
/// re-popcounts the pixel row for the cosine denominator.
fn assign_per_centroid(
    matrix: &HvMatrix,
    centroids: &[Pr4Centroid],
    labels: &mut [u32],
    k: &dyn Kernels,
) {
    for (row_idx, label) in labels.iter_mut().enumerate() {
        let row = matrix.row(row_idx);
        let row_words = row.as_words();
        let mut best = 0usize;
        let mut best_distance = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let mut dot = 0u64;
            for (p, plane) in centroid.planes.iter().enumerate() {
                dot += k.and_popcount(plane, row_words) << p;
            }
            let ones = k.popcount(row_words);
            let similarity = if centroid.norm == 0.0 || ones == 0 {
                0.0
            } else {
                dot as f64 / (centroid.norm * (ones as f64).sqrt())
            };
            let distance = 1.0 - similarity;
            if distance < best_distance {
                best_distance = distance;
                best = c;
            }
        }
        *label = best as u32;
    }
}

/// The fused assignment loop: all K dots from one `plane_dot_multi`
/// sweep, one row popcount, distances from the group's cached norms.
fn assign_fused(matrix: &HvMatrix, group: &BitSlicedGroup, labels: &mut [u32], k: &dyn Kernels) {
    let clusters = group.len();
    let mut dots = vec![0u64; clusters];
    for (row_idx, label) in labels.iter_mut().enumerate() {
        let row = matrix.row(row_idx);
        dots.fill(0);
        group.dot_row_range_with(0..clusters, row, &mut dots, k);
        let ones = k.popcount(row.as_words()) as usize;
        let row_norm = (ones as f64).sqrt();
        let mut best = 0usize;
        let mut best_distance = f64::INFINITY;
        for (c, &dot) in dots.iter().enumerate() {
            let distance = group.cosine_distance_with_row_norm(c, dot, row_norm);
            if distance < best_distance {
                best_distance = distance;
                best = c;
            }
        }
        *label = best as u32;
    }
}

/// Fused versus per-centroid cosine assignment over a full image's rows —
/// the acceptance workload of the fusion issue (128x128, d = 2048, K = 4).
fn bench_assignment(report: &mut Reporter) {
    let matrix = random_matrix(IMAGE_ROWS, IMAGE_DIMENSION, 6);
    for k in kernels::available() {
        let centroids = sample_centroids(&matrix, CLUSTERS, k);
        let pr4: Vec<Pr4Centroid> = centroids
            .iter()
            .map(|c| Pr4Centroid::from_accumulator(c, k))
            .collect();
        let group = BitSlicedGroup::from_accumulators(&centroids, k).expect("dims match");
        let mut labels = vec![0u32; IMAGE_ROWS];

        let ns = bench_json::median_ns_per_op(SAMPLES, IMAGE_ROWS as u64, || {
            assign_per_centroid(&matrix, &pr4, &mut labels, k);
            black_box(labels[0])
        });
        report.record(
            "assign_per_centroid",
            k.name(),
            IMAGE_DIMENSION,
            CLUSTERS,
            ns,
        );
        let per_centroid_ns = ns;

        let ns = bench_json::median_ns_per_op(SAMPLES, IMAGE_ROWS as u64, || {
            assign_fused(&matrix, &group, &mut labels, k);
            black_box(labels[0])
        });
        report.record("assign_fused", k.name(), IMAGE_DIMENSION, CLUSTERS, ns);
        println!(
            "  -> fused speedup on {}: {:.2}x",
            k.name(),
            per_centroid_ns / ns
        );
    }
}

/// The composed K-Means iteration (`cluster_matrix_with`, now running the
/// fused assignment internally) on the same workload.
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
    bench_assignment(&mut report);
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
