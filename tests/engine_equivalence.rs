//! Equivalence harness for the engine's execution paths:
//!
//! * tiled runs and tiled batches, the engine form of the former
//!   streaming entry points, are **permutation-equivalent** (the same
//!   partition of the pixels) to whole-image execution, a tiled view
//!   request is byte-identical to a tiled image request, and a tiled batch
//!   is byte-identical to one tiled request per image;
//! * auto-planned runs are byte-identical to the forced mode the planner
//!   picked.

use seghdc_suite::prelude::*;

/// A bright square on a dark background with intensity jitter: the
/// high-contrast case whose multi-tile stitching is stable, used for the
/// permutation-equivalence assertions (cf. `tests/tiled_equivalence.rs`).
fn square_image(size: usize) -> DynamicImage {
    let mut img = GrayImage::new(size, size).unwrap();
    let lo = size / 4;
    let hi = 3 * size / 4;
    for y in 0..size {
        for x in 0..size {
            let jitter = ((x * 7 + y * 3) % 30) as u8;
            if (lo..hi).contains(&x) && (lo..hi).contains(&y) {
                img.set(x, y, 200 + jitter).unwrap();
            } else {
                img.set(x, y, 15 + jitter).unwrap();
            }
        }
    }
    DynamicImage::Gray(img)
}

/// A synthetic DSB2018-style sample.
fn sample_image() -> DynamicImage {
    SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(40, 40), 19, 2)
        .unwrap()
        .sample(0)
        .unwrap()
        .image
}

fn config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(768)
        .beta(4)
        .iterations(3)
        .build()
        .unwrap()
}

#[test]
fn legacy_streaming_matches_engine_tiled_and_permutes_whole_image() {
    // The former streaming entry point took an `ImageView`; its engine
    // form is a tiled view request, which must tile exactly like a tiled
    // image request.
    let image = square_image(40);
    let tiles = TileConfig::square(16, 2).unwrap();
    let engine = SegEngine::new(config()).unwrap();

    let streamed = engine
        .run(&SegmentRequest::view(ImageView::full(&image)).tiled(tiles))
        .unwrap();
    let direct = engine
        .run(&SegmentRequest::image(&image).tiled(tiles))
        .unwrap();
    let (streamed, direct) = (streamed.single(), direct.single());
    assert_eq!(streamed.label_map.as_raw(), direct.label_map.as_raw());
    assert_eq!(streamed.cluster_sizes, direct.cluster_sizes);
    assert_eq!(streamed.mode, direct.mode);
    let ExecutedMode::Tiled {
        tiles_x,
        tiles_y,
        stitched_labels,
    } = direct.mode
    else {
        panic!("tiled request must execute tiled");
    };
    assert_eq!((tiles_x, tiles_y), (3, 3));
    assert_eq!(stitched_labels, direct.cluster_sizes.len());

    // Permutation-equivalence against the whole-image engine path.
    let whole = engine
        .run(&SegmentRequest::image(&image).whole_image())
        .unwrap();
    assert!(streamed
        .label_map
        .is_permutation_of(&whole.single().label_map));
}

#[test]
fn legacy_streaming_batch_is_byte_identical_to_an_engine_tiled_batch() {
    let images = vec![square_image(40), square_image(32), square_image(24)];
    let tiles = TileConfig::square(16, 2).unwrap();
    let engine = SegEngine::new(config()).unwrap();
    let batch = engine
        .run(&SegmentRequest::batch(&images).tiled(tiles))
        .unwrap();
    assert_eq!(batch.outputs.len(), images.len());
    let mut peaks = Vec::new();
    for (image, batched) in images.iter().zip(&batch.outputs) {
        // Every tiled-batch output is byte-identical to a tiled run of
        // its image alone...
        let fresh = SegEngine::new(config()).unwrap();
        let single = fresh
            .run(&SegmentRequest::image(image).tiled(tiles))
            .unwrap();
        assert_eq!(
            batched.label_map.as_raw(),
            single.single().label_map.as_raw()
        );
        assert_eq!(batched.mode, single.single().mode);
        peaks.push(single.telemetry.peak_matrix_bytes);
        // ...and permutation-equivalent to its whole-image segmentation.
        let whole = engine
            .run(&SegmentRequest::image(image).whole_image())
            .unwrap();
        assert!(batched
            .label_map
            .is_permutation_of(&whole.single().label_map));
    }
    // Each image's arena peak depends on its own tiles, and the batch's
    // engine-lifetime peak is the largest of them, not a sum.
    assert_ne!(
        peaks[0], peaks[2],
        "differently-sized images must peak differently"
    );
    assert_eq!(
        batch.telemetry.peak_matrix_bytes,
        peaks.iter().copied().max().unwrap()
    );
    assert!(engine
        .run(&SegmentRequest::batch(&[]).tiled(tiles))
        .unwrap()
        .outputs
        .is_empty());
}

#[test]
fn auto_planned_runs_match_forced_modes() {
    // Auto mode must not change outputs, only pick between the same two
    // executors: under the budget it is byte-identical to whole-image,
    // over the budget byte-identical to tiled.
    let image = sample_image();
    let under = SegEngine::new(config()).unwrap();
    let auto = under.run(&SegmentRequest::image(&image)).unwrap();
    let whole = under
        .run(&SegmentRequest::image(&image).whole_image())
        .unwrap();
    assert_eq!(
        auto.outputs[0].label_map.as_raw(),
        whole.outputs[0].label_map.as_raw()
    );
    assert!(matches!(auto.outputs[0].mode, ExecutedMode::WholeImage));

    let tiles = TileConfig::square(16, 2).unwrap();
    let over = SegEngine::builder(config())
        .matrix_budget_bytes(1)
        .auto_tile(tiles)
        .build()
        .unwrap();
    let auto = over.run(&SegmentRequest::image(&image)).unwrap();
    let tiled = over
        .run(&SegmentRequest::image(&image).tiled(tiles))
        .unwrap();
    assert_eq!(
        auto.outputs[0].label_map.as_raw(),
        tiled.outputs[0].label_map.as_raw()
    );
    assert!(matches!(auto.outputs[0].mode, ExecutedMode::Tiled { .. }));
}
