//! Tier-1 harness for the streaming tiled segmenter: a tiled request must
//! be an observationally equivalent, memory-bounded spelling of a
//! whole-image request.
//!
//! * Single-tile runs are **byte-identical** to the whole-image path, for
//!   arbitrary (noise) images — the code paths share the encoder and the
//!   clusterer, and the stitcher must be the identity.
//! * Multi-tile runs are **permutation-equivalent** (the same partition of
//!   the pixels under a relabelling) for separable images, across
//!   randomized image dims, tile sizes and halos.
//! * Tile geometry invariants (exact interior cover, halo clamping) hold
//!   for arbitrary grids.

use proptest::prelude::*;
use seghdc::SegmentOutput;
use seghdc_suite::imaging::TileRect;
use seghdc_suite::prelude::*;

/// Runs a one-image request and returns its output.
fn run_one(engine: &SegEngine, request: SegmentRequest<'_>) -> SegmentOutput {
    engine.run(&request).unwrap().outputs.remove(0)
}

/// `(tiles_x, tiles_y, stitched_labels)` of a tiled output.
fn tiling(output: &SegmentOutput) -> (usize, usize, usize) {
    match output.mode {
        ExecutedMode::Tiled {
            tiles_x,
            tiles_y,
            stitched_labels,
        } => (tiles_x, tiles_y, stitched_labels),
        ExecutedMode::WholeImage => panic!("a tiled request must execute tiled"),
    }
}

/// Tiles processed by a tiled output.
fn tile_count(output: &SegmentOutput) -> usize {
    let (tiles_x, tiles_y, _) = tiling(output);
    tiles_x * tiles_y
}

/// A deterministic pseudo-random grayscale image (pure noise; used where
/// only bit-level equivalence matters, not segmentation quality).
fn noise_image(width: usize, height: usize, seed: u64) -> DynamicImage {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    };
    let data: Vec<u8> = (0..width * height).map(|_| next()).collect();
    DynamicImage::Gray(GrayImage::from_raw(width, height, data).unwrap())
}

/// A separable two-class image: a bright rectangle with deterministic
/// intensity jitter on a jittered dark background. High contrast and no
/// blur keep the clustering perfectly separable, which is what makes exact
/// partition equivalence between tiled and whole-image runs a fair demand.
fn rectangle_image(width: usize, height: usize, rect: TileRect) -> (DynamicImage, LabelMap) {
    let mut img = GrayImage::new(width, height).unwrap();
    let mut truth = LabelMap::new(width, height).unwrap();
    for y in 0..height {
        for x in 0..width {
            let jitter = ((x * 7 + y * 3) % 30) as u8;
            if rect.contains(x, y) {
                img.set(x, y, 200 + jitter).unwrap();
                truth.set(x, y, 1).unwrap();
            } else {
                img.set(x, y, 15 + jitter).unwrap();
            }
        }
    }
    (DynamicImage::Gray(img), truth)
}

fn config_for(seed: u64, dimension: usize, iterations: usize) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(dimension)
        .iterations(iterations)
        .beta(4)
        .seed(seed)
        .build()
        .unwrap()
}

/// Asserts that two label maps induce the same partition of the pixels
/// (see [`LabelMap::is_permutation_of`]).
fn assert_permutation_equivalent(stitched: &LabelMap, whole: &LabelMap, context: &str) {
    assert!(
        stitched.is_permutation_of(whole),
        "{context}: stitched map is not a relabelling of the whole-image map"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One tile covering the whole image must reproduce a whole-image run
    /// (and a whole-image batch) byte for byte, even on pure noise.
    #[test]
    fn single_tile_streaming_is_byte_identical_to_segment(
        seed in any::<u64>(),
        width in 6usize..18,
        height in 6usize..18,
        halo in 0usize..3,
    ) {
        let image = noise_image(width, height, seed);
        let engine = SegEngine::new(config_for(seed, 512, 2)).unwrap();
        let whole = run_one(&engine, SegmentRequest::image(&image).whole_image());
        let batched = engine
            .run(&SegmentRequest::batch(std::slice::from_ref(&image)).whole_image())
            .unwrap();

        // Tile edge >= image edge: the grid degenerates to a single tile.
        let tiles = TileConfig::square(32, halo).unwrap();
        let streamed = run_one(&engine, SegmentRequest::image(&image).tiled(tiles));

        let (tiles_x, tiles_y, _) = tiling(&streamed);
        prop_assert_eq!((tiles_x, tiles_y), (1, 1));
        prop_assert_eq!(streamed.label_map.as_raw(), whole.label_map.as_raw());
        prop_assert_eq!(
            streamed.label_map.as_raw(),
            batched.outputs[0].label_map.as_raw()
        );
    }

    /// Multi-tile runs produce the same pixel partition as the whole-image
    /// run across randomized dims, tile sizes and halos.
    #[test]
    fn multi_tile_streaming_is_permutation_equivalent(
        seed in any::<u64>(),
        width in 18usize..36,
        height in 18usize..36,
        tile_edge in 6usize..14,
        halo in 0usize..4,
        rect_seed in any::<u64>(),
    ) {
        // A bright rectangle somewhere well inside the image, covering
        // roughly a quarter of it so every run has both classes.
        let rect = TileRect {
            x: 2 + (rect_seed % 5) as usize,
            y: 2 + ((rect_seed >> 8) % 5) as usize,
            width: width / 2,
            height: height / 2,
        };
        let (image, _) = rectangle_image(width, height, rect);
        let engine = SegEngine::new(config_for(seed, 768, 3)).unwrap();
        let whole = run_one(&engine, SegmentRequest::image(&image).whole_image());

        let tiles = TileConfig::square(tile_edge, halo).unwrap();
        let streamed = run_one(&engine, SegmentRequest::image(&image).tiled(tiles));

        prop_assert!(tile_count(&streamed) > 1, "meant to exercise stitching");
        assert_permutation_equivalent(
            &streamed.label_map,
            &whole.label_map,
            &format!("{width}x{height}, tile {tile_edge}, halo {halo}, seed {seed}"),
        );
    }

    /// Geometry invariants for arbitrary grids: when the planner accepts
    /// the parameters, tile interiors cover every pixel exactly once and
    /// padded regions are clamped supersets of their interiors.
    #[test]
    fn tile_grid_interiors_partition_any_image(
        width in 1usize..40,
        height in 1usize..40,
        tile_width in 1usize..12,
        tile_height in 1usize..12,
        halo in 0usize..4,
    ) {
        let grid = match TileGrid::new(width, height, tile_width, tile_height, halo) {
            Ok(grid) => grid,
            Err(_) => {
                // The only data-dependent rejection: a halo at least as
                // large as a (clamped) tile edge.
                let clamped = tile_width.min(width).min(tile_height.min(height));
                prop_assert!(halo >= clamped);
                return Ok(());
            }
        };
        let mut covered = vec![0u32; width * height];
        for tile in grid.iter() {
            prop_assert!(tile.padded.x <= tile.interior.x);
            prop_assert!(tile.padded.y <= tile.interior.y);
            prop_assert!(tile.padded.right() >= tile.interior.right());
            prop_assert!(tile.padded.bottom() >= tile.interior.bottom());
            prop_assert!(tile.padded.right() <= width);
            prop_assert!(tile.padded.bottom() <= height);
            prop_assert!(tile.interior.x + tile.interior.width <= width);
            for y in tile.interior.y..tile.interior.bottom() {
                for x in tile.interior.x..tile.interior.right() {
                    covered[y * width + x] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        prop_assert!(grid.max_padded_pixels() >= grid.tile_width() * grid.tile_height());
    }
}

/// A class that exists only in the *last* tile must not be absorbed into an
/// unrelated earlier group: every other tile is pure background, so the
/// object cluster has no similar earlier centroid and — crucially — no
/// halo-overlap votes, and the stitcher must leave it as its own group,
/// exactly as the whole-image run separates it.
#[test]
fn object_confined_to_the_last_tile_keeps_its_own_label() {
    // 32x32, 16px tiles: object strictly inside the bottom-right tile,
    // more than `halo` pixels away from every tile boundary.
    let rect = TileRect {
        x: 21,
        y: 21,
        width: 8,
        height: 8,
    };
    let (image, _) = rectangle_image(32, 32, rect);
    let engine = SegEngine::new(config_for(3, 768, 3)).unwrap();
    let whole = run_one(&engine, SegmentRequest::image(&image).whole_image());
    let tiles = TileConfig::square(16, 2).unwrap();
    let streamed = run_one(&engine, SegmentRequest::image(&image).tiled(tiles));
    assert_eq!(tile_count(&streamed), 4);
    assert_permutation_equivalent(&streamed.label_map, &whole.label_map, "confined object");
    // The object really is separated from the background in the output.
    let object_label = streamed.label_map.get(25, 25).unwrap();
    let background_label = streamed.label_map.get(2, 2).unwrap();
    assert_ne!(object_label, background_label);
}

/// RGB images stream and stitch exactly like grayscale ones.
#[test]
fn rgb_multi_tile_streaming_matches_the_whole_image_partition() {
    let rect = TileRect {
        x: 6,
        y: 5,
        width: 14,
        height: 12,
    };
    let (gray, _) = rectangle_image(28, 26, rect);
    let image = DynamicImage::Rgb(gray.to_rgb());
    let engine = SegEngine::new(config_for(11, 768, 3)).unwrap();
    let whole = run_one(&engine, SegmentRequest::image(&image).whole_image());
    let tiles = TileConfig::square(10, 2).unwrap();
    let streamed = run_one(&engine, SegmentRequest::image(&image).tiled(tiles));
    assert!(tile_count(&streamed) > 1);
    assert_permutation_equivalent(&streamed.label_map, &whole.label_map, "rgb");
}

/// A tiled batch request pipelines images in parallel and agrees with
/// per-image tiled runs.
#[test]
fn streaming_batch_agrees_with_per_image_runs() {
    let (a, _) = rectangle_image(
        24,
        20,
        TileRect {
            x: 3,
            y: 3,
            width: 12,
            height: 10,
        },
    );
    let (b, _) = rectangle_image(
        30,
        30,
        TileRect {
            x: 8,
            y: 8,
            width: 15,
            height: 15,
        },
    );
    let engine = SegEngine::new(config_for(5, 512, 2)).unwrap();
    let tiles = TileConfig::square(12, 2).unwrap();
    let images = [a, b];
    let batch = engine
        .run(&SegmentRequest::batch(&images).tiled(tiles))
        .unwrap()
        .outputs;
    assert_eq!(batch.len(), 2);
    for (image, batched) in images.iter().zip(&batch) {
        let single = run_one(&engine, SegmentRequest::image(image).tiled(tiles));
        assert_eq!(single.label_map.as_raw(), batched.label_map.as_raw());
    }
}

/// Full-scale check on the geometry the repository benchmark streams
/// (256² tiles, an 8 px halo): a 1024×1024 synthetic microscopy scan
/// streams through bounded tiles, stitches into a few groups, closely
/// agrees with the whole-image segmentation and respects the arena memory
/// bound.
#[test]
fn large_scan_1024_stitches_consistently() {
    let profile = DatasetProfile::microscopy_scan_like();
    let generator = NucleiImageGenerator::new(profile, 2023).unwrap();
    let sample = generator.generate(0).unwrap();
    assert_eq!(sample.image.width(), 1024);

    let config = config_for(7, 2048, 3);
    let engine = SegEngine::new(config).unwrap();
    let tiles = TileConfig::square(256, 8).unwrap();

    // The tiled run goes first, so the engine-lifetime matrix peak is its
    // own.
    let report = engine
        .run(&SegmentRequest::image(&sample.image).tiled(tiles))
        .unwrap();
    let peak_matrix_bytes = report.telemetry.peak_matrix_bytes;
    let streamed = report.single();
    let (tiles_x, tiles_y, stitched_labels) = tiling(streamed);
    assert_eq!((tiles_x, tiles_y), (4, 4));
    // Background and nuclei groups, plus at most a handful of extra groups
    // for nuclei confined to a single tile's interior (the vote-gated
    // stitcher deliberately keeps those separate rather than force-merging).
    assert!(stitched_labels >= 2);
    assert!(
        stitched_labels <= 2 + tiles_x * tiles_y,
        "unexpected fragmentation: {stitched_labels} groups"
    );

    // Memory bound: at most ~2 halo-padded tiles' worth of matrix bytes,
    // far below the ~268 MB whole-image matrix.
    let stride_bytes = 2048usize.div_ceil(64) * 8;
    let padded_tile_bytes = (256 + 2 * 8) * (256 + 2 * 8) * stride_bytes;
    assert!(peak_matrix_bytes <= 2 * padded_tile_bytes);
    assert!(peak_matrix_bytes < 1024 * 1024 * stride_bytes / 8);

    // Quality: close agreement with the whole-image run (boundary pixels on
    // blurred nucleus rims may legitimately flip) and with the ground truth.
    let whole = run_one(&engine, SegmentRequest::image(&sample.image).whole_image());
    let agreement =
        metrics::matched_binary_iou(&streamed.label_map, &whole.label_map.to_binary()).unwrap();
    assert!(agreement > 0.95, "tiled vs whole agreement IoU {agreement}");
    let truth = sample.ground_truth.to_binary();
    let whole_iou = metrics::matched_binary_iou(&whole.label_map, &truth).unwrap();
    let tiled_iou = metrics::matched_binary_iou(&streamed.label_map, &truth).unwrap();
    assert!(
        (whole_iou - tiled_iou).abs() < 0.05,
        "whole {whole_iou} vs tiled {tiled_iou}"
    );
    assert!(tiled_iou > 0.8, "tiled IoU {tiled_iou}");
}
