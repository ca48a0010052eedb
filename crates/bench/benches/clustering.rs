//! Benchmarks of the HV K-Means clusterer: cost per iteration (the slope of
//! Fig. 7a's latency series) and the cosine-vs-Hamming distance ablation
//! called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc::HvMatrix;
use imaging::DynamicImage;
use seghdc::{DistanceMetric, HvKmeans, PixelEncoder, SegHdcConfig};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

fn encoded_pixels(dim: usize) -> (HvMatrix, Vec<u8>) {
    let profile = DatasetProfile::dsb2018_like().scaled(48, 48);
    let sample = NucleiImageGenerator::new(profile, 5)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds");
    let image: DynamicImage = sample.image;
    let config = SegHdcConfig::builder()
        .dimension(dim)
        .beta(8)
        .iterations(1)
        .build()
        .expect("config is valid");
    let encoder = PixelEncoder::for_shape(&config, image.width(), image.height(), image.channels())
        .expect("encoder builds");
    let matrix = encoder.encode_matrix(&image).expect("encoding succeeds");
    let mut intensities = Vec::with_capacity(image.pixel_count());
    for y in 0..image.height() {
        for x in 0..image.width() {
            intensities.push(image.intensity_at(x, y).expect("in bounds"));
        }
    }
    (matrix, intensities)
}

fn bench_iteration_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_by_iteration_count");
    group.sample_size(10);
    let (pixels, intensities) = encoded_pixels(800);
    for &iterations in &[1usize, 3, 10] {
        group.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &iterations,
            |bencher, &iterations| {
                let kmeans = HvKmeans::new(2, iterations, DistanceMetric::Cosine, false)
                    .expect("parameters are valid");
                bencher.iter(|| black_box(kmeans.cluster_matrix(&pixels, &intensities).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_distance_metric(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_by_distance_metric");
    group.sample_size(10);
    let (pixels, intensities) = encoded_pixels(800);
    for (name, metric) in [
        ("cosine", DistanceMetric::Cosine),
        ("hamming", DistanceMetric::Hamming),
    ] {
        group.bench_function(name, |bencher| {
            let kmeans = HvKmeans::new(2, 3, metric, false).expect("parameters are valid");
            bencher.iter(|| black_box(kmeans.cluster_matrix(&pixels, &intensities).unwrap()))
        });
    }
    group.finish();
}

fn bench_cluster_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_by_cluster_count");
    group.sample_size(10);
    let (pixels, intensities) = encoded_pixels(800);
    for &clusters in &[2usize, 3, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(clusters),
            &clusters,
            |bencher, &clusters| {
                let kmeans = HvKmeans::new(clusters, 3, DistanceMetric::Cosine, false)
                    .expect("parameters are valid");
                bencher.iter(|| black_box(kmeans.cluster_matrix(&pixels, &intensities).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_iteration_count,
    bench_distance_metric,
    bench_cluster_count
);
criterion_main!(benches);
