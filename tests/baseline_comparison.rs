//! Integration tests comparing SegHDC with the CNN baseline across crates —
//! the qualitative claims of Table I and Table II at test scale.

use seghdc_suite::prelude::*;

#[test]
fn seghdc_matches_or_beats_the_scaled_baseline_on_an_easy_profile() {
    let dataset =
        SyntheticDataset::new(DatasetProfile::bbbc005_like().scaled(56, 56), 9, 1).unwrap();
    let sample = dataset.sample(0).unwrap();
    let truth = sample.ground_truth.to_binary();

    let baseline_config = KimConfig {
        feature_channels: 20,
        max_iterations: 25,
        ..KimConfig::tiny()
    };
    let baseline = KimSegmenter::new(baseline_config)
        .unwrap()
        .segment(&sample.image)
        .unwrap();
    let baseline_iou = metrics::matched_binary_iou(&baseline.label_map, &truth).unwrap();

    let seghdc_config = SegHdcConfig::builder()
        .dimension(1500)
        .beta(6)
        .iterations(4)
        .build()
        .unwrap();
    let seghdc = SegEngine::new(seghdc_config)
        .unwrap()
        .run(&SegmentRequest::image(&sample.image).whole_image())
        .unwrap();
    let seghdc_iou = metrics::matched_binary_iou(&seghdc.single().label_map, &truth).unwrap();

    assert!(
        seghdc_iou + 0.05 >= baseline_iou,
        "SegHDC {seghdc_iou} should not trail the baseline {baseline_iou} by a margin"
    );
    assert!(seghdc_iou > 0.7, "SegHDC IoU {seghdc_iou}");
}

#[test]
fn seghdc_is_much_faster_than_the_baseline_at_equal_image_size() {
    // Wall-clock version of the Table II asymmetry, at test scale. The
    // baseline here runs far fewer iterations and channels than the
    // reference configuration, so the true gap is much larger still: even
    // two training iterations take many times a whole SegHDC run.
    let dataset =
        SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(48, 48), 3, 1).unwrap();
    let sample = dataset.sample(0).unwrap();

    let start = std::time::Instant::now();
    let seghdc_config = SegHdcConfig::builder()
        .dimension(800)
        .beta(6)
        .iterations(3)
        .build()
        .unwrap();
    SegEngine::new(seghdc_config)
        .unwrap()
        .run(&SegmentRequest::image(&sample.image).whole_image())
        .unwrap();
    let seghdc_time = start.elapsed();

    let start = std::time::Instant::now();
    let baseline_config = KimConfig {
        feature_channels: 32,
        max_iterations: 2,
        ..KimConfig::tiny()
    };
    KimSegmenter::new(baseline_config)
        .unwrap()
        .segment(&sample.image)
        .unwrap();
    let baseline_time = start.elapsed();

    assert!(
        baseline_time > seghdc_time,
        "baseline {baseline_time:?} should be slower than SegHDC {seghdc_time:?}"
    );
}

#[test]
fn device_model_reproduces_the_table_two_conclusions() {
    let pi = DeviceProfile::raspberry_pi_4();

    // Paper-scale workloads.
    let cnn_small = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
    let cnn_large = Workload::cnn_unsupervised(696, 520, 1, 100, 2, 1000);
    let seghdc_small = Workload::seghdc(320, 256, 3, 800, 2, 3);
    let seghdc_large = Workload::seghdc(696, 520, 1, 2000, 2, 3);

    // The baseline runs on the small image but not on the large one.
    assert!(pi.estimate(&cnn_small).is_ok());
    assert!(pi.estimate(&cnn_large).is_err());
    // SegHDC fits on both.
    assert!(pi.estimate(&seghdc_small).is_ok());
    assert!(pi.estimate(&seghdc_large).is_ok());
    // And is orders of magnitude faster where both run.
    let speedup = pi.speedup(&cnn_small, &seghdc_small).unwrap();
    assert!(speedup > 100.0, "speedup {speedup}");
}

#[test]
fn baseline_outcome_exposes_training_diagnostics() {
    let dataset =
        SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(40, 40), 13, 1).unwrap();
    let sample = dataset.sample(0).unwrap();
    let outcome = KimSegmenter::new(KimConfig::tiny())
        .unwrap()
        .segment(&sample.image)
        .unwrap();
    assert!(outcome.iterations_run >= 1);
    assert_eq!(outcome.losses.len(), outcome.iterations_run);
    assert!(outcome.parameter_count > 0);
    assert!(outcome.final_label_count >= 1);
    assert_eq!(outcome.label_map.pixel_count(), 1600);
}
