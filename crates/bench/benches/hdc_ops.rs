//! Micro-benchmarks of the hypervector substrate: the kernels whose cost
//! dominates SegHDC's latency (Table II) and its scaling with the dimension
//! (Fig. 7b). The packed-u64 representation is contrasted with a
//! byte-per-element representation to back the design choice called out in
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc::{Accumulator, BinaryHypervector, HdcRng};
use std::hint::black_box;

fn bench_xor_and_hamming(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_xor_hamming");
    group.sample_size(20);
    for &dim in &[800usize, 2000, 10_000] {
        let mut rng = HdcRng::seed_from(1);
        let a = BinaryHypervector::random(dim, &mut rng);
        let b = BinaryHypervector::random(dim, &mut rng);
        group.bench_with_input(BenchmarkId::new("xor", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(a.xor(&b).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("hamming", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(a.hamming(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_packed_vs_bytewise(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_packed_vs_bytewise");
    group.sample_size(20);
    let dim = 10_000usize;
    let mut rng = HdcRng::seed_from(2);
    let a = BinaryHypervector::random(dim, &mut rng);
    let b = BinaryHypervector::random(dim, &mut rng);
    let a_bytes = a.to_bits();
    let b_bytes = b.to_bits();
    group.bench_function("hamming_packed_u64", |bencher| {
        bencher.iter(|| black_box(a.hamming(&b).unwrap()))
    });
    group.bench_function("hamming_byte_per_element", |bencher| {
        bencher.iter(|| {
            let d: usize = a_bytes.iter().zip(&b_bytes).filter(|(x, y)| x != y).count();
            black_box(d)
        })
    });
    group.finish();
}

fn bench_accumulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_accumulator");
    group.sample_size(20);
    let dim = 2000usize;
    let mut rng = HdcRng::seed_from(3);
    let hvs: Vec<BinaryHypervector> = (0..64)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    group.bench_function("bundle_64_vectors", |bencher| {
        bencher.iter(|| {
            let mut acc = Accumulator::zeros(dim).unwrap();
            for hv in &hvs {
                acc.add_row(hv.as_row()).unwrap();
            }
            black_box(acc)
        })
    });
    let mut acc = Accumulator::zeros(dim).unwrap();
    for hv in &hvs {
        acc.add_row(hv.as_row()).unwrap();
    }
    group.bench_function("cosine_distance_to_centroid", |bencher| {
        bencher.iter(|| black_box(acc.cosine_distance_row(hvs[0].as_row()).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xor_and_hamming,
    bench_packed_vs_bytewise,
    bench_accumulator
);
criterion_main!(benches);
