//! Peak-memory regression harness for streaming tiled segmentation.
//!
//! The whole point of a tiled request is that transient matrix memory
//! stays ≈ one halo-padded tile regardless of the image size. The engine's
//! `peak_matrix_bytes` telemetry makes that guarantee observable; this
//! test pins it so it cannot silently rot. Each measured run uses a fresh
//! engine, so the engine-lifetime peak is that run's own.

use seghdc_suite::prelude::*;
use seghdc_suite::seghdc::{ColorEncoder, PositionEncoder};

/// Bytes of one packed hypervector row at dimension `dim`.
fn row_bytes(dim: usize) -> usize {
    dim.div_ceil(64) * 8
}

/// Runs `image` tiled on a fresh engine: the single output and the run's
/// own matrix peak.
fn run_tiled(
    config: &SegHdcConfig,
    image: &DynamicImage,
    tiles: TileConfig,
) -> (seghdc::SegmentOutput, usize) {
    let mut report = SegEngine::new(config.clone())
        .unwrap()
        .run(&SegmentRequest::image(image).tiled(tiles))
        .unwrap();
    (report.outputs.remove(0), report.telemetry.peak_matrix_bytes)
}

#[test]
fn streaming_a_512x512_scan_stays_within_two_tiles_of_matrix_memory() {
    let dim = 2048;
    let (tile_edge, halo) = (128, 8);

    // A synthetic 512x512 scan (the workload class the paper's edge devices
    // cannot fit as one matrix).
    let profile = DatasetProfile::microscopy_scan_like().scaled(512, 512);
    let generator = NucleiImageGenerator::new(profile, 41).unwrap();
    let sample = generator.generate(0).unwrap();

    let config = SegHdcConfig::builder()
        .dimension(dim)
        .iterations(1)
        .beta(8)
        .build()
        .unwrap();
    let tiles = TileConfig::square(tile_edge, halo).unwrap();
    let (result, peak_matrix_bytes) = run_tiled(&config, &sample.image, tiles);

    assert_eq!(result.label_map.pixel_count(), 512 * 512);
    assert!(matches!(
        result.mode,
        ExecutedMode::Tiled {
            tiles_x: 4,
            tiles_y: 4,
            ..
        }
    ));

    // The bound itself: no more matrix bytes than ~2 halo-padded tiles.
    let padded_tile_bytes = (tile_edge + 2 * halo) * (tile_edge + 2 * halo) * row_bytes(dim);
    assert!(peak_matrix_bytes > 0);
    assert!(
        peak_matrix_bytes <= 2 * padded_tile_bytes,
        "peak {} exceeds two padded tiles ({})",
        peak_matrix_bytes,
        2 * padded_tile_bytes
    );

    // The exact peak: the arena holds one u32 index entry per pixel of
    // the largest padded tile, plus one row per distinct pixel key of the
    // tile with the most. At 512 px, α = 0.2 and d = 2048 the position
    // flip unit floors to 0, so every pixel has the same position vectors,
    // while every intensity has its own colour code: a tile's keys are
    // its distinct intensities.
    let mut rng = HdcRng::seed_from(0);
    let position = PositionEncoder::new(
        PositionEncoding::BlockDecayManhattan,
        dim,
        512,
        512,
        config.alpha,
        config.beta,
        &mut rng,
    )
    .unwrap();
    assert_eq!((position.row_flip_unit(), position.col_flip_unit()), (0, 0));
    let color = ColorEncoder::new(ColorEncoding::Manhattan, dim, 1, 1, &mut rng).unwrap();
    assert!(color.flip_unit() > 0);
    let grid = tiles.grid_for(512, 512).unwrap();
    let most_keys = grid
        .iter()
        .map(|tile| {
            let padded = tile.padded;
            let mut seen = [false; 256];
            for y in padded.y..padded.bottom() {
                for x in padded.x..padded.right() {
                    seen[usize::from(sample.image.intensity_at(x, y).unwrap())] = true;
                }
            }
            seen.iter().filter(|&&s| s).count()
        })
        .max()
        .unwrap();
    assert_eq!(
        peak_matrix_bytes,
        most_keys * row_bytes(dim) + grid.max_padded_pixels() * 4
    );
    // And the whole-image matrix would have been an order of magnitude
    // more.
    let whole_image_bytes = 512 * 512 * row_bytes(dim);
    assert!(peak_matrix_bytes * 8 <= whole_image_bytes);
}

#[test]
fn arena_peak_scales_with_the_tile_not_the_image() {
    // Same tile size over two image sizes: the recorded peak must not grow
    // with the image.
    let config = SegHdcConfig::builder()
        .dimension(1024)
        .iterations(1)
        .beta(4)
        .build()
        .unwrap();
    let tiles = TileConfig::square(16, 2).unwrap();

    let small = DynamicImage::Gray(GrayImage::filled(48, 48, 90).unwrap());
    let large = DynamicImage::Gray(GrayImage::filled(96, 96, 90).unwrap());
    let (_, small_peak) = run_tiled(&config, &small, tiles);
    let (_, large_peak) = run_tiled(&config, &large, tiles);
    assert_eq!(small_peak, large_peak);
}
