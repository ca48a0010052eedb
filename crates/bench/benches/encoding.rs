//! Benchmarks of the SegHDC encoding stage (position + colour + pixel HV
//! production) across position-encoding variants and hypervector
//! dimensions — the encoding half of the latency series of Fig. 7(b) and
//! the ablation of the encoding design choice (Table I RPos/RColor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imaging::DynamicImage;
use seghdc::{PixelEncoder, PositionEncoding, SegHdcConfig};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

fn sample_image(width: usize, height: usize) -> DynamicImage {
    let profile = DatasetProfile::dsb2018_like().scaled(width, height);
    NucleiImageGenerator::new(profile, 3)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image
}

fn config(dimension: usize, encoding: PositionEncoding) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(dimension)
        .beta(8)
        .iterations(1)
        .position_encoding(encoding)
        .build()
        .expect("parameters are valid")
}

fn bench_encode_by_dimension(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_matrix_by_dimension");
    group.sample_size(10);
    let image = sample_image(64, 64);
    for &dim in &[200usize, 400, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bencher, &dim| {
            let config = config(dim, PositionEncoding::BlockDecayManhattan);
            let encoder =
                PixelEncoder::for_shape(&config, image.width(), image.height(), image.channels())
                    .expect("encoder builds");
            bencher.iter(|| black_box(encoder.encode_matrix(&image).unwrap()))
        });
    }
    group.finish();
}

fn bench_encode_by_variant(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_matrix_by_position_variant");
    group.sample_size(10);
    let image = sample_image(64, 64);
    let variants = [
        ("uniform", PositionEncoding::Uniform),
        ("manhattan", PositionEncoding::Manhattan),
        ("block_decay", PositionEncoding::BlockDecayManhattan),
        ("random", PositionEncoding::Random),
    ];
    for (name, variant) in variants {
        group.bench_function(name, |bencher| {
            let config = config(800, variant);
            let encoder =
                PixelEncoder::for_shape(&config, image.width(), image.height(), image.channels())
                    .expect("encoder builds");
            bencher.iter(|| black_box(encoder.encode_matrix(&image).unwrap()))
        });
    }
    group.finish();
}

fn bench_codebook_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("codebook_construction");
    group.sample_size(10);
    let image = sample_image(64, 64);
    for &dim in &[800usize, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bencher, &dim| {
            let config = config(dim, PositionEncoding::BlockDecayManhattan);
            bencher.iter(|| {
                black_box(
                    PixelEncoder::for_shape(
                        &config,
                        image.width(),
                        image.height(),
                        image.channels(),
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode_by_dimension,
    bench_encode_by_variant,
    bench_codebook_construction
);
criterion_main!(benches);
