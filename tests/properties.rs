//! Workspace-level property-based tests: invariants that must hold across
//! crate boundaries for arbitrary (small) inputs.

use proptest::prelude::*;
use seghdc_suite::prelude::*;

fn arb_profile() -> impl Strategy<Value = DatasetProfile> {
    (0usize..3, 32usize..72, 32usize..72).prop_map(|(which, width, height)| {
        let base = match which {
            0 => DatasetProfile::bbbc005_like(),
            1 => DatasetProfile::dsb2018_like(),
            _ => DatasetProfile::monuseg_like(),
        };
        base.scaled(width, height)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generated sample has a consistent shape and a non-degenerate
    /// ground truth, for any profile and seed.
    #[test]
    fn synthetic_samples_are_well_formed(profile in arb_profile(), seed in any::<u64>()) {
        let dataset = SyntheticDataset::new(profile, seed, 1).unwrap();
        let sample = dataset.sample(0).unwrap();
        prop_assert_eq!(sample.image.width(), sample.ground_truth.width());
        prop_assert_eq!(sample.image.height(), sample.ground_truth.height());
        let coverage = sample.ground_truth.foreground_pixels() as f64
            / sample.ground_truth.pixel_count() as f64;
        prop_assert!(coverage > 0.0);
        prop_assert!(coverage < 0.95);
    }

    /// The SegHDC label map always covers every pixel with a label smaller
    /// than the cluster count, whatever the seed and cluster count.
    #[test]
    fn seghdc_labels_are_always_in_range(
        seed in any::<u64>(),
        clusters in 2usize..4,
        dim in 256usize..1024,
    ) {
        let dataset = SyntheticDataset::new(
            DatasetProfile::dsb2018_like().scaled(40, 40),
            seed,
            1,
        )
        .unwrap();
        let sample = dataset.sample(0).unwrap();
        let config = SegHdcConfig::builder()
            .dimension(dim)
            .beta(4)
            .clusters(clusters)
            .iterations(2)
            .seed(seed)
            .build()
            .unwrap();
        let report = SegEngine::new(config)
            .unwrap()
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .unwrap();
        let segmentation = report.single();
        prop_assert_eq!(segmentation.label_map.pixel_count(), 1600);
        for &label in segmentation.label_map.as_raw() {
            prop_assert!((label as usize) < clusters);
        }
        let assigned: usize = segmentation.cluster_sizes.iter().sum();
        prop_assert_eq!(assigned, 1600);
    }

    /// Matched IoU is invariant under any relabelling of the prediction's
    /// cluster identifiers (the property that makes unsupervised scoring
    /// fair).
    #[test]
    fn matched_iou_is_invariant_to_label_permutation(seed in any::<u64>()) {
        let dataset = SyntheticDataset::new(
            DatasetProfile::bbbc005_like().scaled(40, 40),
            seed,
            1,
        )
        .unwrap();
        let sample = dataset.sample(0).unwrap();
        let truth = sample.ground_truth.to_binary();
        let config = SegHdcConfig::builder()
            .dimension(512)
            .beta(4)
            .iterations(2)
            .build()
            .unwrap();
        let prediction = SegEngine::new(config)
            .unwrap()
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .unwrap()
            .outputs
            .remove(0)
            .label_map;
        let original = metrics::matched_binary_iou(&prediction, &truth).unwrap();

        // Swap the two cluster ids.
        let mut mapping = std::collections::BTreeMap::new();
        mapping.insert(0u32, 1u32);
        mapping.insert(1u32, 0u32);
        let swapped = prediction.remap(&mapping);
        let after = metrics::matched_binary_iou(&swapped, &truth).unwrap();
        prop_assert!((original - after).abs() < 1e-12);
    }

    /// The device model is monotone: a strictly larger workload never gets a
    /// smaller latency estimate, and adding memory never causes an OOM.
    #[test]
    fn device_model_is_monotone(
        width in 32usize..512,
        height in 32usize..512,
        dim in 200usize..2000,
        iterations in 1usize..10,
    ) {
        let pi = DeviceProfile::raspberry_pi_4();
        let small = Workload::seghdc(width, height, 3, dim, 2, iterations);
        let bigger = Workload::seghdc(width, height, 3, dim * 2, 2, iterations + 1);
        let small_estimate = pi.estimate(&small).unwrap().total();
        let bigger_estimate = pi.estimate(&bigger).unwrap().total();
        prop_assert!(bigger_estimate >= small_estimate);
        prop_assert!(bigger.peak_memory_bytes >= small.peak_memory_bytes);
    }
}
