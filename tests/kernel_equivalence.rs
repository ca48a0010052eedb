//! Scalar-versus-SIMD kernel equivalence suite.
//!
//! The kernel layer's contract (`hdc::kernels`) is that every
//! implementation is **bit-exact** with the scalar reference: identical
//! integers out, identical buffers written, for every input — including
//! word counts that are not a multiple of the SIMD lane width. This suite
//! pins that contract at three levels:
//!
//! 1. raw kernels over random word slices of random widths;
//! 2. the bundled/bit-sliced `Accumulator` arithmetic built on them;
//! 3. the full engine: segmentation labels must be **byte-identical**
//!    between a scalar-pinned backend and the SIMD-auto backend, in both
//!    whole-image and streaming tiled modes.
//!
//! On hardware without SIMD support (or a `--no-default-features` build)
//! `kernels::auto()` is the scalar implementation and the suite still runs
//! — the comparisons are then trivially exact, which is precisely the
//! fallback behaviour being guaranteed.

use hdc::kernels;
use hdc::{Accumulator, BinaryHypervector, BitSlicedGroup, HdcRng, HvMatrix};
use proptest::prelude::*;
use seghdc::TileConfig as Tiles;
use seghdc::{DistanceMetric, HvKmeans};
use seghdc_suite::prelude::*;

fn random_words(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = HdcRng::seed_from(seed);
    (0..len).map(|_| rng.next_word()).collect()
}

/// Word widths that straddle every lane boundary: empty, sub-lane, exact
/// lane multiples and ragged tails (AVX2 processes 4 words per lane group,
/// NEON 2).
fn arb_width() -> impl Strategy<Value = usize> {
    0usize..67
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn popcount_kernels_agree(len in arb_width(), seed in any::<u64>()) {
        let words = random_words(len, seed);
        prop_assert_eq!(
            kernels::scalar().popcount(&words),
            kernels::auto().popcount(&words)
        );
    }

    #[test]
    fn hamming_and_and_popcount_kernels_agree(len in arb_width(), seed in any::<u64>()) {
        let a = random_words(len, seed);
        let b = random_words(len, seed.wrapping_add(1));
        prop_assert_eq!(
            kernels::scalar().hamming(&a, &b),
            kernels::auto().hamming(&a, &b)
        );
        prop_assert_eq!(
            kernels::scalar().and_popcount(&a, &b),
            kernels::auto().and_popcount(&a, &b)
        );
    }

    #[test]
    fn xor_into_kernels_agree(len in arb_width(), seed in any::<u64>()) {
        let src = random_words(len, seed);
        let base = random_words(len, seed.wrapping_add(2));
        let mut scalar = base.clone();
        let mut auto = base;
        kernels::scalar().xor_into(&mut scalar, &src);
        kernels::auto().xor_into(&mut auto, &src);
        prop_assert_eq!(scalar, auto);
    }

    #[test]
    fn plane_dot_kernels_agree(
        words_per_plane in 1usize..19,
        plane_count in 0usize..6,
        seed in any::<u64>(),
    ) {
        let planes = random_words(plane_count * words_per_plane, seed);
        let row = random_words(words_per_plane, seed.wrapping_add(3));
        prop_assert_eq!(
            kernels::scalar().plane_dot(&planes, words_per_plane, &row),
            kernels::auto().plane_dot(&planes, words_per_plane, &row)
        );
    }

    #[test]
    fn bundle_add_planes_kernels_agree(
        words_per_plane in 1usize..19,
        plane_count in 0usize..6,
        seed in any::<u64>(),
    ) {
        let base_planes = random_words(plane_count * words_per_plane, seed);
        let row = random_words(words_per_plane, seed.wrapping_add(4));

        let mut scalar_planes = base_planes.clone();
        let mut scalar_carry = row.clone();
        let scalar_overflow = kernels::scalar().bundle_add_planes(
            &mut scalar_planes,
            words_per_plane,
            &mut scalar_carry,
        );

        let mut auto_planes = base_planes;
        let mut auto_carry = row;
        let auto_overflow =
            kernels::auto().bundle_add_planes(&mut auto_planes, words_per_plane, &mut auto_carry);

        prop_assert_eq!(scalar_overflow, auto_overflow);
        prop_assert_eq!(scalar_planes, auto_planes);
        prop_assert_eq!(scalar_carry, auto_carry);
    }

    /// The fused multi-centroid dot kernel is bit-exact with a per-group
    /// scalar `plane_dot` walk, for every implementation the host supports
    /// (scalar, AVX2/NEON, AVX-512 variants), K ∈ 2..8 groups of varying
    /// plane counts, and non-lane-multiple word widths.
    #[test]
    fn plane_dot_multi_agrees_with_the_per_group_reference(
        words_per_plane in 1usize..19,
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        // Variable-length per-group plane counts derived from the seed
        // (the proptest stub has no collection strategies).
        let mut rng = HdcRng::seed_from(seed);
        let counts: Vec<usize> = (0..k).map(|_| (rng.next_word() % 6) as usize).collect();
        let total: usize = counts.iter().sum();
        let planes = random_words(total * words_per_plane, seed.wrapping_add(5));
        let row = random_words(words_per_plane, seed.wrapping_add(6));

        let mut expected = vec![3u64; k];
        let mut offset = 0;
        for (slot, &count) in expected.iter_mut().zip(&counts) {
            let end = offset + count * words_per_plane;
            *slot += kernels::scalar().plane_dot(&planes[offset..end], words_per_plane, &row);
            offset = end;
        }
        for kernels in kernels::available() {
            // Pre-seeded output: the fused kernel accumulates (`+=`).
            let mut out = vec![3u64; k];
            kernels.plane_dot_multi(&planes, words_per_plane, &counts, &row, &mut out);
            prop_assert_eq!(&out, &expected);
        }
    }

    /// The expanded-counts fast path (`counts_dot_multi`) is bit-exact with
    /// a scalar per-lane walk on every implementation that opts in, and
    /// implementations that decline must leave the output untouched.
    #[test]
    fn counts_dot_multi_agrees_with_the_per_lane_reference(
        words_per_row in 1usize..9,
        k in 1usize..7,
        seed in any::<u64>(),
    ) {
        let lanes = words_per_row * 64;
        let row = random_words(words_per_row, seed);
        let mut rng = HdcRng::seed_from(seed.wrapping_add(8));
        let counts: Vec<u16> = (0..k * lanes)
            .map(|_| (rng.next_word() % (i16::MAX as u64 + 1)) as u16)
            .collect();
        let expected: Vec<u64> = (0..k)
            .map(|member| {
                let member_counts = &counts[member * lanes..(member + 1) * lanes];
                // Pre-seeded output: the kernel accumulates (`+=`).
                3 + member_counts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (row[i / 64] >> (i % 64)) & 1 == 1)
                    .map(|(_, &count)| u64::from(count))
                    .sum::<u64>()
            })
            .collect();
        let seeded = vec![3u64; k];
        for kernels in kernels::available() {
            let mut out = seeded.clone();
            if kernels.counts_dot_multi(&counts, &row, &mut out) {
                prop_assert_eq!(&out, &expected);
            } else {
                prop_assert_eq!(&out, &seeded);
            }
        }
    }

    /// The fused multi-centroid Hamming kernel is bit-exact with per-vector
    /// scalar `hamming` calls, for every implementation the host supports.
    #[test]
    fn hamming_multi_agrees_with_the_per_vector_reference(
        width in arb_width(),
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        let row = random_words(width, seed);
        let stacked = random_words(k * width, seed.wrapping_add(7));
        let expected: Vec<u64> = (0..k)
            .map(|c| kernels::scalar().hamming(&row, &stacked[c * width..][..width]))
            .collect();
        for kernels in kernels::available() {
            let mut out = vec![0u64; k];
            kernels.hamming_multi(&row, &stacked, &mut out);
            prop_assert_eq!(&out, &expected);
        }
    }

    /// Accumulator arithmetic (vertical-counter adds, row and bundle plane
    /// dots, exact norms, group distances) is bit-identical across kernel
    /// selections, for dimensions with non-lane-multiple word tails.
    #[test]
    fn accumulator_arithmetic_agrees_across_kernels(
        dim in 1usize..1200,
        members in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = HdcRng::seed_from(seed);
        let vectors: Vec<BinaryHypervector> = (0..members)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let matrix = HvMatrix::from_vectors(&vectors).unwrap();

        let mut scalar_acc = Accumulator::zeros(dim).unwrap();
        let mut auto_acc = Accumulator::zeros(dim).unwrap();
        for i in 0..members {
            scalar_acc.add_row_with(matrix.row(i), kernels::scalar()).unwrap();
            auto_acc.add_row_with(matrix.row(i), kernels::auto()).unwrap();
        }
        prop_assert_eq!(&scalar_acc, &auto_acc);
        prop_assert_eq!(
            scalar_acc.norm_with(kernels::scalar()).to_bits(),
            auto_acc.norm_with(kernels::auto()).to_bits()
        );

        let probe = matrix.row(0);
        prop_assert_eq!(
            scalar_acc.dot_row_with(probe, kernels::scalar()).unwrap(),
            auto_acc.dot_row_with(probe, kernels::auto()).unwrap()
        );
        // The assignment step's path: the stacked group's dot and distance.
        let mut dots = [0u64; 2];
        for (dot, kernels) in dots.iter_mut().zip([kernels::scalar(), kernels::auto()]) {
            let group = BitSlicedGroup::from_accumulators(std::slice::from_ref(&auto_acc), kernels)
                .unwrap();
            group.dot_row_range_with(0..1, probe, std::slice::from_mut(dot), kernels);
            prop_assert_eq!(
                group.cosine_distance_of(0, *dot, probe.count_ones()).to_bits(),
                auto_acc.cosine_distance_row(probe).unwrap().to_bits()
            );
        }
        prop_assert_eq!(dots[0], dots[1]);
        // The stitch's path: bundle against bundle, here the bundle of
        // every member against the bundle of the odd-numbered ones.
        let mut odd = Accumulator::zeros(dim).unwrap();
        for i in (1..members).step_by(2) {
            odd.add_row(matrix.row(i)).unwrap();
        }
        prop_assert_eq!(
            scalar_acc.dot_bundle_with(&odd, kernels::scalar()).unwrap(),
            auto_acc.dot_bundle_with(&odd, kernels::auto()).unwrap()
        );
    }
}

proptest! {
    // Clustering cases cost more than raw kernel sweeps; a moderate count
    // still exercises many dims/K combinations per ISA.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `cluster_matrix_with` — the fused assignment loop — produces
    /// byte-identical labels under every kernel implementation the host
    /// supports, for both metrics and non-lane-multiple dimensions.
    #[test]
    fn cluster_labels_are_identical_across_every_available_isa(
        dim in 150usize..1100,
        clusters in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = HdcRng::seed_from(seed);
        let pixel_count = 24 + (seed % 13) as usize;
        let pixels: Vec<BinaryHypervector> = (0..pixel_count)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let matrix = HvMatrix::from_vectors(&pixels).unwrap();
        let intensities: Vec<u8> = (0..pixel_count).map(|i| (i * 11 % 256) as u8).collect();
        for metric in [DistanceMetric::Cosine, DistanceMetric::Hamming] {
            let kmeans = HvKmeans::new(clusters, 4, metric, true).unwrap();
            let reference = kmeans
                .cluster_matrix_with(&matrix, &intensities, kernels::scalar())
                .unwrap();
            for kernels in kernels::available() {
                let outcome = kmeans
                    .cluster_matrix_with(&matrix, &intensities, kernels)
                    .unwrap();
                prop_assert_eq!(&outcome.labels, &reference.labels);
                prop_assert_eq!(&outcome.snapshots, &reference.snapshots);
                prop_assert_eq!(&outcome.cluster_sizes, &reference.cluster_sizes);
            }
        }
    }
}

proptest! {
    // Full-engine cases are expensive; a handful of randomized shapes is
    // enough on top of the exhaustive kernel-level cases above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Segmentation labels are byte-identical between the scalar-pinned
    /// backend and the SIMD-auto backend, whole-image and tiled.
    #[test]
    fn engine_labels_are_byte_identical_across_backends(
        width in 18usize..40,
        height in 18usize..40,
        dim in 200usize..1100,
        seed in any::<u64>(),
    ) {
        let profile = DatasetProfile::dsb2018_like().scaled(width, height);
        let sample = SyntheticDataset::new(profile, seed, 1)
            .unwrap()
            .sample(0)
            .unwrap();

        let config = SegHdcConfig::builder()
            .dimension(dim)
            .iterations(3)
            .beta(4)
            .build()
            .unwrap();
        let scalar_engine = SegEngine::builder(config.clone())
            .backend(Box::new(SimdCpuBackend::scalar()))
            .build()
            .unwrap();
        let simd_engine = SegEngine::builder(config)
            .backend(Box::new(SimdCpuBackend::auto()))
            .build()
            .unwrap();

        let whole_scalar = scalar_engine
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .unwrap();
        let whole_simd = simd_engine
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .unwrap();
        prop_assert_eq!(
            whole_scalar.single().label_map.as_raw(),
            whole_simd.single().label_map.as_raw()
        );

        let tiles = Tiles::square(12, 2).unwrap();
        let tiled_scalar = scalar_engine
            .run(&SegmentRequest::image(&sample.image).tiled(tiles))
            .unwrap();
        let tiled_simd = simd_engine
            .run(&SegmentRequest::image(&sample.image).tiled(tiles))
            .unwrap();
        prop_assert_eq!(
            tiled_scalar.single().label_map.as_raw(),
            tiled_simd.single().label_map.as_raw()
        );
    }
}

/// Segmentation labels are byte-identical for *every* kernel
/// implementation the host supports, pinned ISA by ISA through
/// `SimdCpuBackend::with_kernels` (whole-image and tiled) — so on an
/// AVX-512 machine this compares scalar, AVX2, and both AVX-512 variants.
#[test]
fn engine_labels_are_byte_identical_for_every_available_isa() {
    let profile = DatasetProfile::dsb2018_like().scaled(30, 26);
    let sample = SyntheticDataset::new(profile, 0xA5E5, 1)
        .unwrap()
        .sample(0)
        .unwrap();
    let config = SegHdcConfig::builder()
        .dimension(900)
        .iterations(3)
        .beta(4)
        .build()
        .unwrap();
    let tiles = Tiles::square(12, 2).unwrap();

    let run = |kernels: &'static dyn kernels::Kernels| {
        let engine = SegEngine::builder(config.clone())
            .backend(Box::new(SimdCpuBackend::with_kernels(kernels)))
            .build()
            .unwrap();
        let whole = engine
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .unwrap();
        let tiled = engine
            .run(&SegmentRequest::image(&sample.image).tiled(tiles))
            .unwrap();
        (
            whole.single().label_map.as_raw().to_vec(),
            tiled.single().label_map.as_raw().to_vec(),
        )
    };

    let reference = run(kernels::scalar());
    for kernels in kernels::available() {
        assert_eq!(run(kernels), reference, "isa {}", kernels.name());
    }
}

/// The selection plumbing itself: auto is one of the known ISAs, and the
/// engine's default backend reports whatever auto picked.
#[test]
fn auto_selection_is_reported_through_the_engine() {
    let auto_name = kernels::auto().name();
    assert!(kernels::KNOWN_ISAS.contains(&auto_name));

    let config = SegHdcConfig::builder()
        .dimension(256)
        .beta(2)
        .build()
        .unwrap();
    let engine = SegEngine::new(config).unwrap();
    assert_eq!(engine.backend_name(), "simd-cpu");
    assert_eq!(engine.kernel_isa(), auto_name);
}
