use crate::engine::{SegEngine, SegmentOutput, SegmentRequest};
use crate::tiled::{StreamingSegmentation, TileArena, TileConfig};
use crate::{PixelEncoder, Result, SegHdcConfig};
use imaging::{DynamicImage, ImageView, LabelMap};
use rayon::prelude::*;
use std::time::Duration;

/// Result of running the SegHDC pipeline on one image.
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// Final per-pixel cluster assignment.
    pub label_map: LabelMap,
    /// Label maps after each clustering iteration (only populated when
    /// [`SegHdcConfig::record_snapshots`] is set; used for Fig. 8).
    pub snapshots: Vec<LabelMap>,
    /// Number of clustering passes executed (see
    /// [`crate::ClusterOutcome::iterations_run`]).
    pub iterations_run: usize,
    /// Number of pixels per cluster after the final iteration.
    pub cluster_sizes: Vec<usize>,
    /// Wall-clock time spent building codebooks and encoding pixels.
    pub encode_time: Duration,
    /// Wall-clock time spent clustering.
    pub cluster_time: Duration,
}

impl Segmentation {
    /// Total wall-clock time (encoding plus clustering).
    pub fn total_time(&self) -> Duration {
        self.encode_time + self.cluster_time
    }

    /// Converts one engine output into the legacy result shape.
    fn from_output(output: SegmentOutput) -> Self {
        Self {
            label_map: output.label_map,
            snapshots: output.snapshots,
            iterations_run: output.iterations_run,
            cluster_sizes: output.cluster_sizes,
            encode_time: output.encode_time,
            cluster_time: output.cluster_time,
        }
    }
}

/// The legacy per-call entry point to the SegHDC pipeline (Fig. 2 of the
/// paper): position encoder → colour encoder → pixel HV producer →
/// clusterer.
///
/// Since the engine redesign every `SegHdc` segmentation method is a thin
/// deprecated wrapper that constructs a default [`SegEngine`] and runs one
/// [`SegmentRequest`] through it; outputs are unchanged (byte-identical
/// labels for the same seed), but each call pays the full codebook build
/// because the per-call engine's cache is always cold. Long-lived callers
/// should hold a [`SegEngine`] instead and let its persistent codebook
/// cache amortise that cost:
///
/// ```rust
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use imaging::{DynamicImage, GrayImage};
/// use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
///
/// let mut img = GrayImage::filled(24, 24, 15)?;
/// for y in 6..18 {
///     for x in 6..18 {
///         img.set(x, y, 230)?;
///     }
/// }
/// let config = SegHdcConfig::builder().dimension(1024).iterations(3).build()?;
/// let engine = SegEngine::new(config)?;
/// let report = engine.run(&SegmentRequest::image(&DynamicImage::Gray(img)))?;
/// assert_eq!(report.outputs[0].label_map.pixel_count(), 24 * 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SegHdc {
    config: SegHdcConfig,
}

impl SegHdc {
    /// Creates a pipeline from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SegHdcError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: SegHdcConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration this pipeline runs with.
    pub fn config(&self) -> &SegHdcConfig {
        &self.config
    }

    /// Builds the pixel encoder (position + colour codebooks) for an image
    /// of the given shape. Exposed so benchmarks can measure the encoding
    /// and clustering stages separately.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the shape is degenerate.
    pub fn build_encoder(
        &self,
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<PixelEncoder> {
        crate::engine::build_encoder(&self.config, width, height, channels)
    }

    /// The single-use engine every deprecated wrapper below runs through.
    fn wrapper_engine(&self) -> Result<SegEngine> {
        SegEngine::new(self.config.clone())
    }

    /// Segments an image whole, regardless of its size.
    ///
    /// Thin wrapper over [`SegEngine::run`] with a forced whole-image
    /// [`SegmentRequest`]; labels are byte-identical to the engine path for
    /// the same seed.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration and image shape are
    /// incompatible (e.g. the hypervector dimension is smaller than the
    /// number of colour channels) or if an underlying hypervector operation
    /// fails.
    #[deprecated(
        since = "0.3.0",
        note = "hold a long-lived SegEngine and run(SegmentRequest::image(..)) instead"
    )]
    pub fn segment(&self, image: &DynamicImage) -> Result<Segmentation> {
        let report = self
            .wrapper_engine()?
            .run(&SegmentRequest::image(image).whole_image())?;
        let output = report
            .outputs
            .into_iter()
            .next()
            .expect("one image in, one output out");
        Ok(Segmentation::from_output(output))
    }

    /// Segments a batch of images in parallel, codebooks shared per
    /// distinct image shape.
    ///
    /// Thin wrapper over [`SegEngine::run`] with a forced whole-image batch
    /// [`SegmentRequest`]. The per-shape codebook reuse that used to live
    /// here is now the engine's persistent [`crate::CodebookCache`] — one
    /// construction path for every entry point. Per-image results stay
    /// byte-identical to calling [`segment`](Self::segment) on each image
    /// individually.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by any image; an empty batch
    /// returns an empty vector.
    #[deprecated(
        since = "0.3.0",
        note = "hold a long-lived SegEngine and run(SegmentRequest::batch(..)) instead"
    )]
    pub fn segment_batch(&self, images: &[DynamicImage]) -> Result<Vec<Segmentation>> {
        let report = self
            .wrapper_engine()?
            .run(&SegmentRequest::batch(images).whole_image())?;
        Ok(report
            .outputs
            .into_iter()
            .map(Segmentation::from_output)
            .collect())
    }

    /// Segments a view in streaming tiled mode: one halo-padded tile is
    /// encoded and clustered at a time inside a bounded arena, then the
    /// per-tile labels are stitched into one globally consistent map (see
    /// [`crate::tiled`] for the mechanics).
    ///
    /// Peak transient memory is ≈ one halo-padded tile's hypervector
    /// matrix instead of one whole image's, which is what makes 512×512+
    /// microscopy scans fit on the small devices the paper targets. A run
    /// whose single tile covers the whole view produces byte-identical
    /// labels to [`segment`](Self::segment). Snapshot recording
    /// ([`SegHdcConfig::record_snapshots`]) does not apply in streaming
    /// mode.
    ///
    /// Thin wrapper over [`SegEngine::run_tiled_in`] with a fresh arena.
    ///
    /// # Errors
    ///
    /// Returns an error if the tile geometry is invalid for the view shape
    /// or if encoding/clustering fails.
    #[deprecated(
        since = "0.3.0",
        note = "hold a long-lived SegEngine and run(SegmentRequest::view(..).tiled(..)) instead"
    )]
    pub fn segment_streaming(
        &self,
        view: &ImageView<'_>,
        tiles: &TileConfig,
    ) -> Result<StreamingSegmentation> {
        let mut arena = TileArena::new();
        self.wrapper_engine()?.run_tiled_in(view, tiles, &mut arena)
    }

    /// [`segment_streaming`](Self::segment_streaming) with a caller-owned
    /// [`TileArena`], so a long-running service can reuse the tile buffers
    /// across calls (the arena's peak byte counter keeps accumulating).
    ///
    /// Thin wrapper over [`SegEngine::run_tiled_in`].
    ///
    /// # Errors
    ///
    /// Same as [`segment_streaming`](Self::segment_streaming).
    #[deprecated(
        since = "0.3.0",
        note = "hold a long-lived SegEngine and use SegEngine::run_tiled_in instead"
    )]
    pub fn segment_streaming_in(
        &self,
        view: &ImageView<'_>,
        tiles: &TileConfig,
        arena: &mut TileArena,
    ) -> Result<StreamingSegmentation> {
        self.wrapper_engine()?.run_tiled_in(view, tiles, arena)
    }

    /// Streaming-segments a batch of images, pipelining tiles across the
    /// images in parallel, codebooks shared per shape.
    ///
    /// Thin wrapper over [`SegEngine::run_tiled_in`], one fresh
    /// [`TileArena`] per image exactly as before the engine redesign, so
    /// each result's `peak_matrix_bytes` remains that image's own arena
    /// high-water mark (≈ one halo-padded tile per worker). The codebooks
    /// are still shared per shape through the engine cache.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by any image; an empty batch
    /// returns an empty vector.
    #[deprecated(
        since = "0.3.0",
        note = "hold a long-lived SegEngine and run(SegmentRequest::batch(..).tiled(..)) instead"
    )]
    pub fn segment_streaming_batch(
        &self,
        images: &[DynamicImage],
        tiles: &TileConfig,
    ) -> Result<Vec<StreamingSegmentation>> {
        let engine = self.wrapper_engine()?;
        let engine = &engine;
        images
            .par_iter()
            .map(|image| {
                let mut arena = TileArena::new();
                engine.run_tiled_in(&ImageView::full(image), tiles, &mut arena)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    // These tests deliberately exercise the deprecated wrappers: they are
    // the regression suite proving the wrappers still behave exactly like
    // the engine they delegate to.
    #![allow(deprecated)]

    use super::*;
    use crate::{ColorEncoding, HvKmeans, PositionEncoding};
    use imaging::{metrics, GrayImage, RgbImage};

    /// A bright square on a dark background plus its ground truth. Both
    /// regions carry intensity variation so that the colour codebooks are
    /// exercised over many distinct values (as in real microscopy images),
    /// which is what makes the RColor ablation collapse.
    fn square_image(size: usize) -> (DynamicImage, LabelMap) {
        let mut img = GrayImage::new(size, size).unwrap();
        let mut truth = LabelMap::new(size, size).unwrap();
        let lo = size / 4;
        let hi = 3 * size / 4;
        for y in 0..size {
            for x in 0..size {
                let jitter = ((x * 7 + y * 3) % 30) as u8;
                let inside = (lo..hi).contains(&x) && (lo..hi).contains(&y);
                if inside {
                    img.set(x, y, 200 + jitter).unwrap();
                    truth.set(x, y, 1).unwrap();
                } else {
                    img.set(x, y, 15 + jitter).unwrap();
                }
            }
        }
        (DynamicImage::Gray(img), truth)
    }

    fn fast_config() -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(1024)
            .iterations(3)
            .beta(4)
            .build()
            .unwrap()
    }

    #[test]
    fn segments_a_high_contrast_square_accurately() {
        let (image, truth) = square_image(32);
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let result = pipeline.segment(&image).unwrap();
        let iou = metrics::matched_binary_iou(&result.label_map, &truth).unwrap();
        assert!(iou > 0.9, "IoU {iou}");
        // The passes that actually ran, checked against the full-pass
        // per-vector oracle on the same pixels.
        let view = ImageView::full(&image);
        let intensities: Vec<u8> = (0..32 * 32)
            .map(|i| view.intensity_at(i % 32, i / 32).unwrap())
            .collect();
        let pixels = pipeline
            .build_encoder(32, 32, 1)
            .unwrap()
            .encode_image(&image)
            .unwrap();
        let config = pipeline.config();
        let oracle = HvKmeans::new(
            config.clusters,
            config.iterations,
            config.distance_metric,
            true,
        )
        .unwrap()
        .cluster(&pixels, &intensities)
        .unwrap();
        assert_eq!(result.label_map.as_raw(), oracle.labels.as_slice());
        crate::cluster::assert_true_pass_count(result.iterations_run, &oracle);
        assert_eq!(result.cluster_sizes.iter().sum::<usize>(), 32 * 32);
        assert!(result.total_time() >= result.encode_time);
    }

    #[test]
    fn rgb_images_are_segmented_too() {
        let (gray, truth) = square_image(24);
        let rgb =
            DynamicImage::Rgb(RgbImage::from_raw(24, 24, gray.to_rgb().as_raw().to_vec()).unwrap());
        let result = SegHdc::new(fast_config()).unwrap().segment(&rgb).unwrap();
        let iou = metrics::matched_binary_iou(&result.label_map, &truth).unwrap();
        assert!(iou > 0.85, "IoU {iou}");
    }

    #[test]
    fn snapshots_are_recorded_when_requested() {
        let (image, _) = square_image(16);
        let config = SegHdcConfig::builder()
            .dimension(512)
            .iterations(4)
            .beta(2)
            .record_snapshots(true)
            .build()
            .unwrap();
        let result = SegHdc::new(config).unwrap().segment(&image).unwrap();
        assert_eq!(result.snapshots.len(), 4);
        assert_eq!(result.snapshots.last().unwrap(), &result.label_map);
        // Without the flag no snapshots are kept.
        let result = SegHdc::new(fast_config()).unwrap().segment(&image).unwrap();
        assert!(result.snapshots.is_empty());
    }

    #[test]
    fn segmentation_is_deterministic_for_a_fixed_seed() {
        let (image, _) = square_image(20);
        let a = SegHdc::new(fast_config()).unwrap().segment(&image).unwrap();
        let b = SegHdc::new(fast_config()).unwrap().segment(&image).unwrap();
        assert_eq!(a.label_map, b.label_map);
    }

    #[test]
    fn random_position_ablation_degrades_quality() {
        // Table I, RPos column: random position hypervectors swamp the colour
        // signal and the segmentation collapses.
        let (image, truth) = square_image(32);
        let good = SegHdc::new(fast_config()).unwrap().segment(&image).unwrap();
        let rpos_config = SegHdcConfig::builder()
            .dimension(1024)
            .iterations(3)
            .beta(4)
            .position_encoding(PositionEncoding::Random)
            .build()
            .unwrap();
        let rpos = SegHdc::new(rpos_config).unwrap().segment(&image).unwrap();
        let good_iou = metrics::matched_binary_iou(&good.label_map, &truth).unwrap();
        let rpos_iou = metrics::matched_binary_iou(&rpos.label_map, &truth).unwrap();
        assert!(
            good_iou > rpos_iou + 0.2,
            "expected a clear gap: SegHDC {good_iou} vs RPos {rpos_iou}"
        );
    }

    #[test]
    fn random_color_ablation_degrades_quality() {
        let (image, truth) = square_image(32);
        let good = SegHdc::new(fast_config()).unwrap().segment(&image).unwrap();
        let rcolor_config = SegHdcConfig::builder()
            .dimension(1024)
            .iterations(3)
            .beta(4)
            .color_encoding(ColorEncoding::Random)
            .build()
            .unwrap();
        let rcolor = SegHdc::new(rcolor_config).unwrap().segment(&image).unwrap();
        let good_iou = metrics::matched_binary_iou(&good.label_map, &truth).unwrap();
        let rcolor_iou = metrics::matched_binary_iou(&rcolor.label_map, &truth).unwrap();
        assert!(
            good_iou > rcolor_iou + 0.2,
            "expected a clear gap: SegHDC {good_iou} vs RColor {rcolor_iou}"
        );
    }

    #[test]
    fn segment_batch_matches_per_image_segment_byte_for_byte() {
        let (a, _) = square_image(20);
        let (b, _) = square_image(20);
        let (c, _) = square_image(28); // second shape: forces a second codebook
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let batch = pipeline
            .segment_batch(&[a.clone(), b.clone(), c.clone()])
            .unwrap();
        assert_eq!(batch.len(), 3);
        for (image, batched) in [a, b, c].iter().zip(&batch) {
            let single = pipeline.segment(image).unwrap();
            assert_eq!(single.label_map.as_raw(), batched.label_map.as_raw());
            assert_eq!(single.cluster_sizes, batched.cluster_sizes);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let pipeline = SegHdc::new(fast_config()).unwrap();
        assert!(pipeline.segment_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_mixes_gray_and_rgb_images() {
        let (gray, _) = square_image(16);
        let rgb = DynamicImage::Rgb(gray.to_gray().to_rgb());
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let batch = pipeline
            .segment_batch(&[gray.clone(), rgb.clone()])
            .unwrap();
        assert_eq!(
            batch[0].label_map.as_raw(),
            pipeline.segment(&gray).unwrap().label_map.as_raw()
        );
        assert_eq!(
            batch[1].label_map.as_raw(),
            pipeline.segment(&rgb).unwrap().label_map.as_raw()
        );
    }

    #[test]
    fn streaming_with_one_tile_is_byte_identical_to_segment() {
        let (image, _) = square_image(24);
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let whole = pipeline.segment(&image).unwrap();
        let tiles = crate::TileConfig::square(64, 2).unwrap(); // tile >= image
        let streamed = pipeline
            .segment_streaming(&imaging::ImageView::full(&image), &tiles)
            .unwrap();
        assert_eq!((streamed.tiles_x, streamed.tiles_y), (1, 1));
        assert_eq!(streamed.label_map.as_raw(), whole.label_map.as_raw());
        assert_eq!(streamed.stitched_labels, 2);
        assert!(streamed.peak_matrix_bytes > 0);
    }

    #[test]
    fn streaming_multi_tile_matches_the_whole_image_partition() {
        let (image, truth) = square_image(32);
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let whole = pipeline.segment(&image).unwrap();
        for tiles in [
            crate::TileConfig::square(16, 4).unwrap(),
            crate::TileConfig::square(16, 0).unwrap(),
            crate::TileConfig::new(12, 20, 3).unwrap(),
        ] {
            let streamed = pipeline
                .segment_streaming(&imaging::ImageView::full(&image), &tiles)
                .unwrap();
            assert!(
                streamed.label_map.is_permutation_of(&whole.label_map),
                "partition mismatch with {tiles:?}"
            );
            let iou = metrics::matched_binary_iou(&streamed.label_map, &truth).unwrap();
            assert!(iou > 0.9, "IoU {iou} with {tiles:?}");
        }
    }

    #[test]
    fn streaming_segments_a_cropped_view() {
        let (image, _) = square_image(32);
        let view = imaging::ImageView::crop(&image, 4, 4, 24, 20).unwrap();
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let tiles = crate::TileConfig::square(12, 2).unwrap();
        let streamed = pipeline.segment_streaming(&view, &tiles).unwrap();
        assert_eq!(streamed.label_map.width(), 24);
        assert_eq!(streamed.label_map.height(), 20);
        // The cropped region still contains both the square and background.
        assert!(streamed.stitched_labels >= 2);
    }

    #[test]
    fn streaming_batch_matches_per_image_streaming() {
        let (a, _) = square_image(20);
        let (b, _) = square_image(28);
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let tiles = crate::TileConfig::square(10, 2).unwrap();
        let batch = pipeline
            .segment_streaming_batch(&[a.clone(), b.clone()], &tiles)
            .unwrap();
        assert_eq!(batch.len(), 2);
        for (image, batched) in [a, b].iter().zip(&batch) {
            let single = pipeline
                .segment_streaming(&imaging::ImageView::full(image), &tiles)
                .unwrap();
            assert_eq!(single.label_map.as_raw(), batched.label_map.as_raw());
            assert_eq!(single.stitched_labels, batched.stitched_labels);
        }
        assert!(pipeline
            .segment_streaming_batch(&[], &tiles)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn streaming_arena_reuse_accumulates_the_peak() {
        let (small, _) = square_image(16);
        let (large, _) = square_image(32);
        let pipeline = SegHdc::new(fast_config()).unwrap();
        let tiles = crate::TileConfig::square(16, 2).unwrap();
        let mut arena = crate::TileArena::new();
        let first = pipeline
            .segment_streaming_in(&imaging::ImageView::full(&large), &tiles, &mut arena)
            .unwrap();
        let second = pipeline
            .segment_streaming_in(&imaging::ImageView::full(&small), &tiles, &mut arena)
            .unwrap();
        // The arena keeps the high-water mark across runs.
        assert_eq!(second.peak_matrix_bytes, first.peak_matrix_bytes);
        assert_eq!(arena.peak_matrix_bytes(), first.peak_matrix_bytes);
    }

    #[test]
    fn invalid_configurations_are_rejected_at_construction() {
        let config = SegHdcConfig {
            clusters: 1,
            ..SegHdcConfig::default()
        };
        assert!(SegHdc::new(config).is_err());
    }

    #[test]
    fn config_accessor_returns_the_configuration() {
        let config = fast_config();
        let pipeline = SegHdc::new(config.clone()).unwrap();
        assert_eq!(pipeline.config(), &config);
    }
}
