//! A traced engine computes exactly what an untraced one computes.

use hdc::kernels;
use imaging::{DynamicImage, GrayImage};
use perfbench::trace::{self, CountingKernels, KernelCounts, SpanKind, TracingBackend, KERNEL_OPS};
use seghdc::{ExecBackend, SegEngine, SegHdcConfig, SegmentRequest, TileConfig};

fn tiny_image() -> DynamicImage {
    let mut img = GrayImage::filled(24, 20, 30).unwrap();
    for y in 5..15 {
        for x in 6..18 {
            img.set(x, y, 210).unwrap();
        }
    }
    DynamicImage::Gray(img)
}

fn config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(1000)
        .iterations(4)
        .beta(3)
        .seed(5)
        .build()
        .unwrap()
}

#[test]
fn traced_and_untraced_labels_are_byte_identical() {
    let image = tiny_image();
    let plain = SegEngine::new(config()).unwrap();
    let traced = SegEngine::builder(config())
        .backend(Box::new(TracingBackend::counting_auto()))
        .build()
        .unwrap();
    assert_eq!(traced.backend_name(), plain.backend_name());
    assert_eq!(traced.kernel_isa(), plain.kernel_isa());

    let before = KernelCounts::now();
    trace::set_unit(7);
    for request in [
        SegmentRequest::image(&image).whole_image(),
        SegmentRequest::image(&image).tiled(TileConfig::square(12, 2).unwrap()),
    ] {
        let expected = plain.run(&request).unwrap();
        let got = traced.run(&request).unwrap();
        assert_eq!(
            got.single().label_map.as_raw(),
            expected.single().label_map.as_raw()
        );
    }
    trace::set_unit(0);
    let counts = KernelCounts::now().since(&before);
    assert!(counts.calls(0) > 0, "xor_into is counted");
    assert!(counts.bytes(0) >= 8 * counts.calls(0));

    let spans: Vec<_> = trace::take_spans()
        .into_iter()
        .filter(|s| s.unit == 7)
        .collect();
    let clusters: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Cluster)
        .collect();
    // One whole-image region plus a 2×2 tile grid.
    assert_eq!(clusters.len(), 5);
    assert!(clusters
        .iter()
        .all(|s| s.iterations >= 1 && s.iterations <= 4));
    assert_eq!(
        spans.iter().filter(|s| s.kind == SpanKind::Encode).count(),
        5
    );
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn counting_kernels_forward_every_operation_and_count_it() {
    let inner = kernels::auto();
    let counting = CountingKernels::leak(inner);
    assert_eq!(counting.name(), inner.name());

    let a: Vec<u64> = (0..8u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = a.iter().map(|w| w.rotate_left(13)).collect();
    let before = KernelCounts::now();

    let (mut x, mut y) = (a.clone(), a.clone());
    counting.xor_into(&mut x, &b);
    inner.xor_into(&mut y, &b);
    assert_eq!(x, y);
    assert_eq!(counting.popcount(&a), inner.popcount(&a));
    assert_eq!(counting.hamming(&a, &b), inner.hamming(&a, &b));
    assert_eq!(counting.and_popcount(&a, &b), inner.and_popcount(&a, &b));
    assert_eq!(
        counting.plane_dot(&a, 4, &b[..4]),
        inner.plane_dot(&a, 4, &b[..4])
    );
    let (mut out_c, mut out_i) = ([1u64; 2], [1u64; 2]);
    counting.plane_dot_multi(&a, 4, &[1, 1], &b[..4], &mut out_c);
    inner.plane_dot_multi(&a, 4, &[1, 1], &b[..4], &mut out_i);
    assert_eq!(out_c, out_i);
    let (mut out_c, mut out_i) = ([0u64; 2], [0u64; 2]);
    counting.hamming_multi(&a[..4], &b, &mut out_c);
    inner.hamming_multi(&a[..4], &b, &mut out_i);
    assert_eq!(out_c, out_i);
    let counts = vec![3u16; 2 * 64 * 2];
    let (mut out_c, mut out_i) = ([0u64; 2], [0u64; 2]);
    assert_eq!(
        counting.counts_dot_multi(&counts, &a[..2], &mut out_c),
        inner.counts_dot_multi(&counts, &a[..2], &mut out_i)
    );
    assert_eq!(out_c, out_i);
    let (mut planes_c, mut planes_i) = (a.clone(), a.clone());
    let (mut carry_c, mut carry_i) = (b[..4].to_vec(), b[..4].to_vec());
    assert_eq!(
        counting.bundle_add_planes(&mut planes_c, 4, &mut carry_c),
        inner.bundle_add_planes(&mut planes_i, 4, &mut carry_i)
    );
    assert_eq!((planes_c, carry_c), (planes_i, carry_i));

    // Other tests may count concurrently, so check lower bounds.
    let counted = KernelCounts::now().since(&before);
    for (op, name) in KERNEL_OPS.iter().enumerate() {
        assert!(counted.calls(op) >= 1, "{name} not counted");
        assert!(counted.bytes(op) > 0, "{name} has no bytes");
    }
    assert!((0.0..=1.0).contains(&counted.counts_dot_multi_accept_ratio()));
}

#[test]
fn counts_from_exited_threads_are_kept() {
    let counting = CountingKernels::leak(kernels::scalar());
    let before = KernelCounts::now();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                counting.popcount(&[1, 2, 3]);
            });
        }
    });
    let counted = KernelCounts::now().since(&before);
    assert!(counted.calls(1) >= 4);
    assert!(counted.bytes(1) >= 4 * 24);
}

#[test]
fn the_tracing_backend_reports_the_inner_backend() {
    let inner = seghdc::SimdCpuBackend::scalar();
    let traced = TracingBackend::new(Box::new(inner));
    assert_eq!(traced.name(), inner.name());
    assert_eq!(traced.kernel_isa(), "scalar");
    assert_eq!(traced.host_kernels().name(), "scalar");
}
