//! The long-lived segmentation engine: one unified planner over every
//! execution path.
//!
//! [`SegEngine`] is the crate's one way in: whole images, batches and
//! streaming tiles all go through one flow:
//!
//! ```text
//! SegmentRequest ──► SegEngine::plan ──► SegEngine::run ──► SegmentReport
//! ```
//!
//! The engine owns three long-lived pieces a per-call API cannot have:
//!
//! * an [`ExecBackend`] — the per-tile "encode region + cluster matrix"
//!   unit every path executes through ([`SimdCpuBackend::auto`] by
//!   default, which picks SIMD word kernels when the CPU supports them;
//!   the scalar-pinned [`SimdCpuBackend::scalar`] or another backend via
//!   [`SegEngineBuilder::backend`]);
//! * a persistent [`CodebookCache`] — codebooks are keyed on
//!   `(seed, shape, dimension, encodings)` and reused across calls and
//!   threads, so a warm request skips the dominant fixed cost;
//! * a pool of scratch arenas (one hypervector matrix and one intensity
//!   buffer each), reused across requests and workers, whose byte
//!   high-water mark is reported on every [`SegmentReport`].
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use imaging::{DynamicImage, GrayImage};
//! use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
//!
//! let mut img = GrayImage::filled(24, 24, 15)?;
//! for y in 6..18 {
//!     for x in 6..18 {
//!         img.set(x, y, 230)?;
//!     }
//! }
//! let image = DynamicImage::Gray(img);
//!
//! let config = SegHdcConfig::builder().dimension(1024).iterations(3).build()?;
//! let engine = SegEngine::new(config)?;
//!
//! let cold = engine.run(&SegmentRequest::image(&image))?;
//! assert_eq!(cold.outputs[0].label_map.pixel_count(), 24 * 24);
//! assert_eq!(cold.telemetry.cache_misses, 1);
//!
//! // Same shape again: the codebooks come from the cache.
//! let warm = engine.run(&SegmentRequest::image(&image))?;
//! assert_eq!(warm.telemetry.cache_hits, 1);
//! assert_eq!(
//!     cold.outputs[0].label_map.as_raw(),
//!     warm.outputs[0].label_map.as_raw()
//! );
//! # Ok(())
//! # }
//! ```

use crate::cache::{CacheStats, CodebookCache, CodebookKey};
use crate::observe::RunObserver;
use crate::sync::lock_unpoisoned;
use crate::tiled::{self, TileArena, TileConfig};
use crate::{
    ExecBackend, HvKmeans, PixelEncoder, Result, SegHdcConfig, SegHdcError, SimdCpuBackend,
};
use imaging::{DynamicImage, ImageView, LabelMap, TileRect};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`SegEngine`], separate from the algorithmic
/// [`SegHdcConfig`].
///
/// The defaults suit a workstation service: a 64 MiB codebook cache, a
/// 128 MiB per-image matrix budget before the planner switches to
/// streaming tiles, and 256×256 tiles with an 8-pixel halo when it does.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Byte capacity of the persistent codebook cache.
    pub codebook_cache_bytes: usize,
    /// Auto-planning threshold: a request whose whole-image hypervector
    /// matrix would exceed this many bytes is executed in streaming tiled
    /// mode instead.
    pub matrix_budget_bytes: usize,
    /// Tile geometry the planner uses when it chooses tiled execution on
    /// its own ([`ExecutionMode::Tiled`] overrides it per request).
    pub auto_tile: TileConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            codebook_cache_bytes: 64 << 20,
            matrix_budget_bytes: 128 << 20,
            auto_tile: TileConfig::square(256, 8).expect("default tile geometry is valid"),
        }
    }
}

/// How a request asks to be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Let the planner pick per image: whole-image when the hypervector
    /// matrix fits [`EngineOptions::matrix_budget_bytes`], streaming tiles
    /// otherwise.
    Auto,
    /// Force whole-image execution regardless of size.
    WholeImage,
    /// Force streaming tiled execution with this tile geometry.
    Tiled(TileConfig),
}

/// The input of one [`SegEngine::run`] call.
enum RequestInput<'a> {
    Single(&'a DynamicImage),
    Batch(&'a [DynamicImage]),
    View(ImageView<'a>),
}

/// One segmentation request: what to segment and (optionally) how.
///
/// Construct with [`image`](Self::image), [`batch`](Self::batch) or
/// [`view`](Self::view), then optionally pin the execution mode; by default
/// the engine plans it ([`ExecutionMode::Auto`]).
pub struct SegmentRequest<'a> {
    input: RequestInput<'a>,
    mode: ExecutionMode,
}

impl<'a> SegmentRequest<'a> {
    /// A request over one image.
    pub fn image(image: &'a DynamicImage) -> Self {
        Self {
            input: RequestInput::Single(image),
            mode: ExecutionMode::Auto,
        }
    }

    /// A request over a batch of images (executed in parallel, codebooks
    /// shared per distinct shape through the engine cache).
    pub fn batch(images: &'a [DynamicImage]) -> Self {
        Self {
            input: RequestInput::Batch(images),
            mode: ExecutionMode::Auto,
        }
    }

    /// A request over an image view (e.g. a crop of a larger scan).
    pub fn view(view: ImageView<'a>) -> Self {
        Self {
            input: RequestInput::View(view),
            mode: ExecutionMode::Auto,
        }
    }

    /// Pins the execution mode instead of letting the engine plan it.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`mode`](Self::mode)`(ExecutionMode::WholeImage)`.
    pub fn whole_image(self) -> Self {
        self.mode(ExecutionMode::WholeImage)
    }

    /// Shorthand for [`mode`](Self::mode)`(ExecutionMode::Tiled(tiles))`.
    pub fn tiled(self, tiles: TileConfig) -> Self {
        self.mode(ExecutionMode::Tiled(tiles))
    }

    /// Number of images in the request.
    pub fn len(&self) -> usize {
        match &self.input {
            RequestInput::Single(_) | RequestInput::View(_) => 1,
            RequestInput::Batch(images) => images.len(),
        }
    }

    /// Whether the request holds no images (an empty batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The requested execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode
    }

    /// `(width, height, channels)` of image `index`.
    fn shape(&self, index: usize) -> (usize, usize, usize) {
        match &self.input {
            RequestInput::Single(image) => (image.width(), image.height(), image.channels()),
            RequestInput::Batch(images) => {
                let image = &images[index];
                (image.width(), image.height(), image.channels())
            }
            RequestInput::View(view) => (view.width(), view.height(), view.channels()),
        }
    }
}

/// The mode the planner chose for one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedMode {
    /// Encode and cluster the whole image as one region.
    WholeImage,
    /// Stream the image through halo-padded tiles of this geometry.
    Tiled(TileConfig),
}

/// One image's planning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDecision {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Colour channel count.
    pub channels: usize,
    /// Bytes the whole-image hypervector matrix would allocate with one
    /// stored row per pixel — the most a keyed encode can store, and what
    /// the decision is made against.
    pub whole_matrix_bytes: usize,
    /// The chosen execution mode.
    pub mode: PlannedMode,
}

/// The engine's plan for a request: one decision per image, in request
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Per-image decisions.
    pub decisions: Vec<PlanDecision>,
}

impl SegmentPlan {
    /// Number of images planned for whole-image execution.
    pub fn whole_image_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.mode, PlannedMode::WholeImage))
            .count()
    }

    /// Number of images planned for streaming tiled execution.
    pub fn tiled_count(&self) -> usize {
        self.decisions.len() - self.whole_image_count()
    }
}

/// How one image was actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutedMode {
    /// One whole-image encode + cluster round.
    WholeImage,
    /// Streaming tiles, stitched.
    Tiled {
        /// Tile columns processed.
        tiles_x: usize,
        /// Tile rows processed.
        tiles_y: usize,
        /// Distinct stitched label groups in the output.
        stitched_labels: usize,
    },
}

/// One image's segmentation result inside a [`SegmentReport`].
#[derive(Debug, Clone)]
pub struct SegmentOutput {
    /// Final per-pixel labels.
    pub label_map: LabelMap,
    /// Per-iteration label maps (whole-image mode with
    /// [`SegHdcConfig::record_snapshots`] only).
    pub snapshots: Vec<LabelMap>,
    /// Clustering passes executed, including the one that confirmed the
    /// label fixed point (see [`crate::ClusterOutcome::iterations_run`]);
    /// in tiled mode, the most any tile ran.
    pub iterations_run: usize,
    /// Pixels per label: cluster sizes in cluster order for whole-image
    /// mode, stitched-group sizes in ascending label order for tiled mode.
    pub cluster_sizes: Vec<usize>,
    /// How this image was executed.
    pub mode: ExecutedMode,
    /// Wall-clock encoding time: arena preparation, the pixel encode and
    /// the intensity read. It excludes the codebook lookup or build, which
    /// happens once per request before any image's clock starts.
    pub encode_time: Duration,
    /// Wall-clock clustering time.
    pub cluster_time: Duration,
    /// Wall-clock stitching time (zero in whole-image mode).
    pub stitch_time: Duration,
}

impl SegmentOutput {
    /// Total wall-clock time (encode + cluster + stitch).
    pub fn total_time(&self) -> Duration {
        self.encode_time + self.cluster_time + self.stitch_time
    }
}

/// Engine-level counters reported with every run.
///
/// Cache counters and the arena peak are **engine-lifetime** values (the
/// cache and arenas outlive individual runs — that is the point); compare
/// two reports to attribute deltas to one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Codebook-cache lookups served from a resident encoder.
    pub cache_hits: u64,
    /// Codebook-cache lookups that built the encoder.
    pub cache_misses: u64,
    /// Codebook-cache entries evicted to stay within capacity.
    pub cache_evictions: u64,
    /// Codebook bytes currently resident in the cache.
    pub cache_bytes: usize,
    /// Encoders currently resident in the cache.
    pub cache_entries: usize,
    /// High-water mark, in bytes, of any arena matrix allocation over the
    /// engine's lifetime.
    pub peak_matrix_bytes: usize,
    /// Name of the execution backend.
    pub backend: &'static str,
    /// The word-kernel instruction set the backend actually executed with
    /// (`"scalar"`, `"avx2"`, `"neon"`, `"avx512"`, `"avx512-vpopcnt"`) — see
    /// [`ExecBackend::kernel_isa`].
    pub kernel_isa: &'static str,
}

/// Result of one [`SegEngine::run`]: per-image outputs, the plan that was
/// executed, and engine telemetry.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// One output per request image, in request order.
    pub outputs: Vec<SegmentOutput>,
    /// The plan the engine executed.
    pub plan: SegmentPlan,
    /// Engine-lifetime counters snapshotted after the run.
    pub telemetry: EngineTelemetry,
    /// Wall-clock time of the whole run.
    pub total_time: Duration,
}

impl SegmentReport {
    /// The single output of a one-image request.
    ///
    /// # Panics
    ///
    /// Panics if the request held more or fewer than one image.
    pub fn single(&self) -> &SegmentOutput {
        assert_eq!(
            self.outputs.len(),
            1,
            "report holds {} outputs",
            self.outputs.len()
        );
        &self.outputs[0]
    }
}

/// Builder for [`SegEngine`].
pub struct SegEngineBuilder {
    config: SegHdcConfig,
    options: EngineOptions,
    backend: Option<Box<dyn ExecBackend>>,
    cache: Option<Arc<CodebookCache>>,
}

impl SegEngineBuilder {
    /// Replaces the whole option set.
    pub fn options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the codebook-cache byte capacity (ignored when a shared cache
    /// is installed with [`cache`](Self::cache)).
    pub fn codebook_cache_bytes(mut self, bytes: usize) -> Self {
        self.options.codebook_cache_bytes = bytes;
        self
    }

    /// Sets the auto-planning matrix byte budget.
    pub fn matrix_budget_bytes(mut self, bytes: usize) -> Self {
        self.options.matrix_budget_bytes = bytes;
        self
    }

    /// Sets the tile geometry used when the planner chooses tiled mode.
    pub fn auto_tile(mut self, tiles: TileConfig) -> Self {
        self.options.auto_tile = tiles;
        self
    }

    /// Installs an execution backend.
    ///
    /// The default is [`SimdCpuBackend::auto`], which picks the best word
    /// kernels for the running CPU (SIMD when supported, scalar otherwise).
    /// Install [`SimdCpuBackend::scalar`] to force the scalar kernels;
    /// labels are byte-identical either way.
    pub fn backend(mut self, backend: Box<dyn ExecBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Installs a shared codebook cache, so several engines (e.g. one per
    /// swept configuration) amortise codebooks across each other.
    pub fn cache(mut self, cache: Arc<CodebookCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn build(self) -> Result<SegEngine> {
        self.config.validate()?;
        let cache = self.cache.unwrap_or_else(|| {
            Arc::new(CodebookCache::with_capacity(
                self.options.codebook_cache_bytes,
            ))
        });
        Ok(SegEngine {
            config: self.config,
            options: self.options,
            backend: self
                .backend
                .unwrap_or_else(|| Box::new(SimdCpuBackend::auto())),
            cache,
            arenas: Mutex::new(Vec::new()),
            // One retained arena per worker is the most any run can reuse.
            max_pooled_arenas: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            peak_matrix_bytes: AtomicUsize::new(0),
        })
    }
}

/// The long-lived segmentation engine (see the [module docs](self)).
///
/// All methods take `&self`; an engine behind an `Arc` serves concurrent
/// requests from many threads, sharing its codebook cache and arena pool.
#[derive(Debug)]
pub struct SegEngine {
    config: SegHdcConfig,
    options: EngineOptions,
    backend: Box<dyn ExecBackend>,
    cache: Arc<CodebookCache>,
    /// Reusable scratch arenas, one checked out per in-flight image.
    arenas: Mutex<Vec<TileArena>>,
    /// Pool retention cap: arenas returned beyond this count are dropped.
    max_pooled_arenas: usize,
    /// Engine-lifetime high-water mark across every arena.
    peak_matrix_bytes: AtomicUsize,
}

impl SegEngine {
    /// An engine with default [`EngineOptions`] and the auto-selected
    /// [`SimdCpuBackend`].
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: SegHdcConfig) -> Result<Self> {
        Self::builder(config).build()
    }

    /// Starts a builder for an engine running `config`.
    pub fn builder(config: SegHdcConfig) -> SegEngineBuilder {
        SegEngineBuilder {
            config,
            options: EngineOptions::default(),
            backend: None,
            cache: None,
        }
    }

    /// The algorithmic configuration this engine runs.
    pub fn config(&self) -> &SegHdcConfig {
        &self.config
    }

    /// The engine tuning options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The execution backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The word-kernel instruction set the backend executes with (see
    /// [`ExecBackend::kernel_isa`]).
    pub fn kernel_isa(&self) -> &'static str {
        self.backend.kernel_isa()
    }

    /// Snapshot of the codebook-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared codebook cache (hand it to another engine's builder via
    /// [`SegEngineBuilder::cache`] to share codebooks across engines).
    pub fn cache(&self) -> Arc<CodebookCache> {
        Arc::clone(&self.cache)
    }

    /// Plans a request without executing it: one [`PlanDecision`] per
    /// image.
    ///
    /// In [`ExecutionMode::Auto`] an image goes tiled exactly when its
    /// whole-image hypervector matrix, priced at one stored row per pixel
    /// (`pixels × ⌈d/64⌉ × 8` bytes), would exceed
    /// [`EngineOptions::matrix_budget_bytes`].
    ///
    /// # Errors
    ///
    /// Returns the tile grid's error for an image its tiles do not fit,
    /// and [`SegHdcError::InvalidConfig`] for a tiled image whose tile
    /// count × clusters does not fit a `u32`: a tiled run labels each
    /// stitched group `tile × clusters + local cluster`.
    pub fn plan(&self, request: &SegmentRequest<'_>) -> Result<SegmentPlan> {
        let row_bytes = self.config.dimension.div_ceil(64) * 8;
        let clusters = self.config.clusters as u64;
        let decisions = (0..request.len())
            .map(|index| {
                let (width, height, channels) = request.shape(index);
                let whole_matrix_bytes = width * height * row_bytes;
                let mode = match request.mode {
                    ExecutionMode::WholeImage => PlannedMode::WholeImage,
                    ExecutionMode::Tiled(tiles) => PlannedMode::Tiled(tiles),
                    ExecutionMode::Auto => {
                        if whole_matrix_bytes > self.options.matrix_budget_bytes {
                            PlannedMode::Tiled(self.options.auto_tile)
                        } else {
                            PlannedMode::WholeImage
                        }
                    }
                };
                if let PlannedMode::Tiled(tiles) = mode {
                    let tile_count = tiles.grid_for(width, height)?.tile_count() as u64;
                    if tile_count.saturating_mul(clusters) > u64::from(u32::MAX) {
                        return Err(SegHdcError::InvalidConfig {
                            message: format!(
                                "{tile_count} tiles × {clusters} clusters do not fit u32 labels"
                            ),
                        });
                    }
                }
                Ok(PlanDecision {
                    width,
                    height,
                    channels,
                    whole_matrix_bytes,
                    mode,
                })
            })
            .collect::<Result<_>>()?;
        Ok(SegmentPlan { decisions })
    }

    /// Plans and executes a request.
    ///
    /// Codebooks are resolved once per distinct image shape through the
    /// persistent cache; batch images execute in parallel, each on a pooled
    /// scratch arena, all through the engine's [`ExecBackend`].
    ///
    /// # Errors
    ///
    /// Returns the first error produced by any image. An empty batch
    /// returns an empty report.
    pub fn run(&self, request: &SegmentRequest<'_>) -> Result<SegmentReport> {
        self.run_observed(request, &RunObserver::new())
    }

    /// [`run`](Self::run) with an observer: the progress callback fires
    /// once per completed tile row of each tiled execution, and the
    /// observer's [`crate::CancelToken`] is checked between tiles.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::Cancelled`] if the observer's token fires
    /// mid-run (shared engine state — cache, arena pool — stays intact);
    /// otherwise the first error produced by any image.
    pub fn run_observed(
        &self,
        request: &SegmentRequest<'_>,
        observer: &RunObserver<'_>,
    ) -> Result<SegmentReport> {
        let start = Instant::now();
        let plan = self.plan(request)?;
        let encoders = self.resolve_encoders(&plan)?;

        let outputs: Vec<SegmentOutput> = match &request.input {
            RequestInput::Single(image) => {
                let view = ImageView::full(image);
                vec![self.run_one(&view, &plan.decisions[0], &encoders, 0, observer)?]
            }
            RequestInput::View(view) => {
                vec![self.run_one(view, &plan.decisions[0], &encoders, 0, observer)?]
            }
            RequestInput::Batch(images) => {
                let decisions = &plan.decisions;
                let encoders = &encoders;
                (0..images.len())
                    .into_par_iter()
                    .map(|index| {
                        let view = ImageView::full(&images[index]);
                        self.run_one(&view, &decisions[index], encoders, index, observer)
                    })
                    .collect::<Result<Vec<_>>>()?
            }
        };

        Ok(SegmentReport {
            outputs,
            plan,
            telemetry: self.telemetry(),
            total_time: start.elapsed(),
        })
    }

    /// Current engine-lifetime telemetry.
    pub fn telemetry(&self) -> EngineTelemetry {
        let stats = self.cache.stats();
        EngineTelemetry {
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_evictions: stats.evictions,
            cache_bytes: stats.bytes,
            cache_entries: stats.entries,
            peak_matrix_bytes: self.peak_matrix_bytes.load(Ordering::Relaxed),
            backend: self.backend.name(),
            kernel_isa: self.backend.kernel_isa(),
        }
    }

    /// Resolves (and warms) one encoder per distinct shape in the plan.
    fn resolve_encoders(
        &self,
        plan: &SegmentPlan,
    ) -> Result<HashMap<(usize, usize, usize), Arc<PixelEncoder>>> {
        let mut encoders = HashMap::new();
        for decision in &plan.decisions {
            let shape = (decision.width, decision.height, decision.channels);
            if let std::collections::hash_map::Entry::Vacant(entry) = encoders.entry(shape) {
                entry.insert(self.encoder_for(shape.0, shape.1, shape.2)?);
            }
        }
        Ok(encoders)
    }

    /// Cache lookup (or build) of the encoder for one image shape.
    fn encoder_for(
        &self,
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Arc<PixelEncoder>> {
        let key = CodebookKey::for_shape(&self.config, width, height, channels);
        let config = &self.config;
        self.cache.get_or_build(key, || {
            PixelEncoder::for_shape(config, width, height, channels)
        })
    }

    /// Executes one image according to its plan decision.
    fn run_one(
        &self,
        view: &ImageView<'_>,
        decision: &PlanDecision,
        encoders: &HashMap<(usize, usize, usize), Arc<PixelEncoder>>,
        image_index: usize,
        observer: &RunObserver<'_>,
    ) -> Result<SegmentOutput> {
        if observer.is_cancelled() {
            return Err(SegHdcError::Cancelled);
        }
        let shape = (decision.width, decision.height, decision.channels);
        let encoder = encoders
            .get(&shape)
            .ok_or_else(|| SegHdcError::InvalidConfig {
                message: format!("no encoder resolved for shape {shape:?}"),
            })?;
        match decision.mode {
            PlannedMode::WholeImage => self.run_whole(view, encoder),
            PlannedMode::Tiled(tiles) => {
                self.run_tiled(view, &tiles, encoder, image_index, observer)
            }
        }
    }

    /// Whole-image execution: the full view is one backend region.
    fn run_whole(&self, view: &ImageView<'_>, encoder: &PixelEncoder) -> Result<SegmentOutput> {
        self.with_arena(|arena| {
            let encode_start = Instant::now();
            let rows = view.pixel_count();
            arena.prepare(rows, self.config.dimension)?;
            let full = TileRect {
                x: 0,
                y: 0,
                width: view.width(),
                height: view.height(),
            };
            self.backend
                .encode_region(encoder, view, &full, &mut arena.matrix)?;
            arena.read_intensities(view, &full)?;
            let encode_time = encode_start.elapsed();

            let cluster_start = Instant::now();
            let kmeans = HvKmeans::new(
                self.config.clusters,
                self.config.iterations,
                self.config.distance_metric,
                self.config.record_snapshots,
            )?;
            let outcome =
                self.backend
                    .cluster_matrix(&kmeans, &arena.matrix, &arena.intensities)?;
            let cluster_time = cluster_start.elapsed();

            let width = view.width();
            let height = view.height();
            let to_map = |labels: Vec<u32>| -> Result<LabelMap> {
                Ok(LabelMap::from_raw(width, height, labels)?)
            };
            let label_map = to_map(outcome.labels)?;
            let snapshots = outcome
                .snapshots
                .into_iter()
                .map(to_map)
                .collect::<Result<Vec<_>>>()?;

            Ok(SegmentOutput {
                label_map,
                snapshots,
                iterations_run: outcome.iterations_run,
                cluster_sizes: outcome.cluster_sizes,
                mode: ExecutedMode::WholeImage,
                encode_time,
                cluster_time,
                stitch_time: Duration::ZERO,
            })
        })
    }

    /// Streaming tiled execution on a pooled arena.
    fn run_tiled(
        &self,
        view: &ImageView<'_>,
        tiles: &TileConfig,
        encoder: &PixelEncoder,
        image_index: usize,
        observer: &RunObserver<'_>,
    ) -> Result<SegmentOutput> {
        self.with_arena(|arena| {
            tiled::segment_streaming_with(
                &self.config,
                encoder,
                view,
                tiles,
                arena,
                self.backend.as_ref(),
                observer.for_image(image_index),
            )
        })
    }

    /// Checks an arena out of the pool, runs `f`, records the peak and
    /// returns the arena to the pool (also on error).
    ///
    /// Retention is bounded so the pool cannot pin memory for the engine's
    /// lifetime: at most one arena per hardware thread is kept, and an
    /// arena whose matrix grew beyond
    /// [`EngineOptions::matrix_budget_bytes`] (a forced over-budget
    /// whole-image run) is dropped instead of pooled — the steady state
    /// retains only budget-sized scratch.
    ///
    /// The pool lock recovers from poisoning (see [`crate::sync`]): a
    /// worker thread that panics mid-request must not take
    /// arena checkout down for every subsequent request. A panic inside
    /// `f` simply drops the checked-out arena — the pool's invariants are
    /// never in flight while the lock is held.
    fn with_arena<T>(&self, f: impl FnOnce(&mut TileArena) -> Result<T>) -> Result<T> {
        let mut arena = lock_unpoisoned(&self.arenas).pop().unwrap_or_default();
        let result = f(&mut arena);
        self.peak_matrix_bytes
            .fetch_max(arena.peak_matrix_bytes(), Ordering::Relaxed);
        if arena.matrix.capacity_bytes() <= self.options.matrix_budget_bytes {
            let mut pool = lock_unpoisoned(&self.arenas);
            if pool.len() < self.max_pooled_arenas {
                pool.push(arena);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::GrayImage;

    fn square_image(size: usize) -> DynamicImage {
        let mut img = GrayImage::filled(size, size, 20).unwrap();
        for y in size / 4..3 * size / 4 {
            for x in size / 4..3 * size / 4 {
                img.set(x, y, 220).unwrap();
            }
        }
        DynamicImage::Gray(img)
    }

    fn fast_config() -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(512)
            .iterations(3)
            .beta(4)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_the_configuration() {
        let bad = SegHdcConfig {
            clusters: 1,
            ..SegHdcConfig::default()
        };
        assert!(SegEngine::new(bad).is_err());
        let engine = SegEngine::new(fast_config()).unwrap();
        assert_eq!(engine.backend_name(), "simd-cpu");
        assert!(hdc::kernels::KNOWN_ISAS.contains(&engine.kernel_isa()));
        assert_eq!(engine.config().dimension, 512);
        // The scalar reference stays installable.
        let reference = SegEngine::builder(fast_config())
            .backend(Box::new(SimdCpuBackend::scalar()))
            .build()
            .unwrap();
        assert_eq!(reference.backend_name(), "simd-cpu");
        assert_eq!(reference.kernel_isa(), "scalar");
    }

    #[test]
    fn scalar_and_simd_backends_produce_byte_identical_labels() {
        let image = square_image(32);
        let scalar_engine = SegEngine::builder(fast_config())
            .backend(Box::new(SimdCpuBackend::scalar()))
            .build()
            .unwrap();
        let simd_engine = SegEngine::new(fast_config()).unwrap();
        for request in [
            SegmentRequest::image(&image).whole_image(),
            SegmentRequest::image(&image).tiled(TileConfig::square(16, 4).unwrap()),
        ] {
            let scalar = scalar_engine.run(&request).unwrap();
            let simd = simd_engine.run(&request).unwrap();
            assert_eq!(
                scalar.single().label_map.as_raw(),
                simd.single().label_map.as_raw()
            );
        }
    }

    #[test]
    fn auto_plan_picks_whole_image_under_the_budget_and_tiles_over_it() {
        let image = square_image(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let plan = engine.plan(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(plan.decisions.len(), 1);
        assert_eq!(plan.decisions[0].mode, PlannedMode::WholeImage);
        assert_eq!(
            plan.decisions[0].whole_matrix_bytes,
            32 * 32 * 512usize.div_ceil(64) * 8
        );

        let tiny_budget = SegEngine::builder(fast_config())
            .matrix_budget_bytes(1024)
            .auto_tile(TileConfig::square(16, 2).unwrap())
            .build()
            .unwrap();
        let plan = tiny_budget.plan(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(
            plan.decisions[0].mode,
            PlannedMode::Tiled(TileConfig::square(16, 2).unwrap())
        );
        assert_eq!(plan.whole_image_count(), 0);
        assert_eq!(plan.tiled_count(), 1);
    }

    #[test]
    fn forced_modes_override_the_planner() {
        let image = square_image(32);
        let engine = SegEngine::builder(fast_config())
            .matrix_budget_bytes(0)
            .build()
            .unwrap();
        let forced = engine
            .plan(&SegmentRequest::image(&image).whole_image())
            .unwrap();
        assert_eq!(forced.decisions[0].mode, PlannedMode::WholeImage);
        let tiles = TileConfig::square(16, 2).unwrap();
        let forced = engine
            .plan(&SegmentRequest::image(&image).tiled(tiles))
            .unwrap();
        assert_eq!(forced.decisions[0].mode, PlannedMode::Tiled(tiles));
    }

    #[test]
    fn tiled_runs_whose_labels_do_not_fit_a_u32_are_refused() {
        let config = SegHdcConfig {
            clusters: 65_535,
            ..fast_config()
        };
        let engine = SegEngine::new(config).unwrap();
        let tiles = TileConfig::square(1, 0).unwrap();
        // 257 × 256 one-pixel tiles × 65,535 clusters: labels past 2³².
        let image = DynamicImage::Gray(GrayImage::filled(257, 256, 20).unwrap());
        let request = SegmentRequest::image(&image).tiled(tiles);
        let planned = engine.plan(&request).map(drop);
        let ran = engine.run(&request).map(drop);
        for result in [planned, ran] {
            assert!(
                matches!(result, Err(SegHdcError::InvalidConfig { .. })),
                "got {result:?}"
            );
        }
        // 256 × 256 one-pixel tiles: the largest label is 2³² − 65,537,
        // and ids stay below 2³² too.
        let image = DynamicImage::Gray(GrayImage::filled(256, 256, 20).unwrap());
        let plan = engine
            .plan(&SegmentRequest::image(&image).tiled(tiles))
            .unwrap();
        assert_eq!(plan.decisions[0].mode, PlannedMode::Tiled(tiles));
    }

    #[test]
    fn whole_and_tiled_runs_agree_on_the_partition() {
        let image = square_image(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let whole = engine
            .run(&SegmentRequest::image(&image).whole_image())
            .unwrap();
        let tiles = TileConfig::square(16, 4).unwrap();
        let tiled = engine
            .run(&SegmentRequest::image(&image).tiled(tiles))
            .unwrap();
        assert!(matches!(whole.single().mode, ExecutedMode::WholeImage));
        assert!(matches!(
            tiled.single().mode,
            ExecutedMode::Tiled {
                tiles_x: 2,
                tiles_y: 2,
                ..
            }
        ));
        assert!(tiled
            .single()
            .label_map
            .is_permutation_of(&whole.single().label_map));
        assert_eq!(tiled.single().cluster_sizes.iter().sum::<usize>(), 32 * 32);
    }

    #[test]
    fn batch_outputs_match_single_runs_byte_for_byte() {
        let a = square_image(24);
        let b = square_image(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let batch = engine
            .run(&SegmentRequest::batch(std::slice::from_ref(&a)).whole_image())
            .unwrap();
        let single = engine
            .run(&SegmentRequest::image(&a).whole_image())
            .unwrap();
        assert_eq!(
            batch.outputs[0].label_map.as_raw(),
            single.single().label_map.as_raw()
        );
        let both = [a, b];
        let batch = engine
            .run(&SegmentRequest::batch(&both).whole_image())
            .unwrap();
        assert_eq!(batch.outputs.len(), 2);
        for (image, output) in both.iter().zip(&batch.outputs) {
            let single = engine
                .run(&SegmentRequest::image(image).whole_image())
                .unwrap();
            assert_eq!(
                output.label_map.as_raw(),
                single.single().label_map.as_raw()
            );
        }
    }

    #[test]
    fn empty_batches_produce_empty_reports() {
        let engine = SegEngine::new(fast_config()).unwrap();
        // Every execution mode: a degenerate empty batch must plan and run
        // to an empty report, never panic — a server cannot crash on it.
        for request in [
            SegmentRequest::batch(&[]),
            SegmentRequest::batch(&[]).whole_image(),
            SegmentRequest::batch(&[]).tiled(TileConfig::square(16, 2).unwrap()),
        ] {
            let plan = engine.plan(&request).unwrap();
            assert!(plan.decisions.is_empty());
            assert_eq!((plan.whole_image_count(), plan.tiled_count()), (0, 0));
            let report = engine.run(&request).unwrap();
            assert!(report.outputs.is_empty());
            assert!(report.plan.decisions.is_empty());
        }
        assert!(SegmentRequest::batch(&[]).is_empty());
        // No encoder was ever resolved for the phantom shape.
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn degenerate_tiny_images_error_instead_of_panicking() {
        // Fewer pixels than clusters: a 1×1 frame against 2 clusters must
        // come back as a typed error, not a panic or a hang.
        let image = DynamicImage::Gray(GrayImage::filled(1, 1, 128).unwrap());
        let engine = SegEngine::new(fast_config()).unwrap();
        let result = engine.run(&SegmentRequest::image(&image));
        assert!(result.is_err(), "1x1 image with 2 clusters must error");
        // The engine stays fully serviceable afterwards.
        let ok = engine
            .run(&SegmentRequest::image(&square_image(16)))
            .unwrap();
        assert_eq!(ok.outputs[0].label_map.pixel_count(), 16 * 16);
    }

    #[test]
    fn poisoned_arena_pool_recovers() {
        let image = square_image(16);
        let engine = SegEngine::new(fast_config()).unwrap();
        engine.run(&SegmentRequest::image(&image)).unwrap();
        // Poison the pool mutex the way a crashed worker would: panic
        // while holding the guard.
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = engine.arenas.lock().unwrap();
                    panic!("worker died holding the arena pool lock");
                })
                .join()
        });
        assert!(
            engine.arenas.lock().is_err(),
            "pool mutex must actually be poisoned"
        );
        // Checkout still works and the pool keeps recycling arenas.
        let first = engine.run(&SegmentRequest::image(&image)).unwrap();
        let second = engine.run(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(
            first.outputs[0].label_map.as_raw(),
            second.outputs[0].label_map.as_raw()
        );
        assert!(!lock_unpoisoned(&engine.arenas).is_empty());
    }

    /// A backend that dies mid-request, standing in for any panic inside a
    /// worker thread.
    #[derive(Debug)]
    struct PanickingBackend;

    impl crate::ExecBackend for PanickingBackend {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn encode_region(
            &self,
            _encoder: &PixelEncoder,
            _view: &ImageView<'_>,
            _region: &imaging::TileRect,
            _scratch: &mut hdc::HvMatrix,
        ) -> Result<()> {
            panic!("backend blew up mid-request");
        }

        fn cluster_matrix(
            &self,
            _kmeans: &HvKmeans,
            _pixels: &hdc::HvMatrix,
            _intensities: &[u8],
        ) -> Result<crate::ClusterOutcome> {
            panic!("backend blew up mid-request");
        }
    }

    #[test]
    fn panicking_worker_does_not_wedge_shared_state() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let image = square_image(16);
        let broken = SegEngine::builder(fast_config())
            .backend(Box::new(PanickingBackend))
            .build()
            .unwrap();
        let healthy = SegEngine::builder(fast_config())
            .cache(broken.cache())
            .build()
            .unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = broken.run(&SegmentRequest::image(&image));
        }));
        assert!(result.is_err(), "the panicking backend must panic");
        // The shared cache (the codebook build succeeded before the
        // backend died) and the healthy engine both keep serving.
        let report = healthy.run(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(report.telemetry.cache_misses, 1);
        assert_eq!(report.telemetry.cache_hits, 1);
        assert_eq!(report.outputs[0].label_map.pixel_count(), 16 * 16);
    }

    #[test]
    fn observed_tiled_runs_report_each_completed_tile_row() {
        let image = square_image(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let tiles = TileConfig::square(16, 4).unwrap();
        let rows = std::sync::Mutex::new(Vec::new());
        let observer = RunObserver::new().on_progress(|p| {
            rows.lock()
                .unwrap()
                .push((p.image_index, p.rows_done, p.rows_total))
        });
        let observed = engine
            .run_observed(&SegmentRequest::image(&image).tiled(tiles), &observer)
            .unwrap();
        assert_eq!(rows.lock().unwrap().as_slice(), &[(0, 1, 2), (0, 2, 2)]);
        // Observation does not perturb the output.
        let plain = engine
            .run(&SegmentRequest::image(&image).tiled(tiles))
            .unwrap();
        assert_eq!(
            observed.single().label_map.as_raw(),
            plain.single().label_map.as_raw()
        );
    }

    /// The default backend, recording the passes of every region it
    /// clusters.
    #[derive(Debug)]
    struct PassRecordingBackend {
        passes: Arc<Mutex<Vec<usize>>>,
    }

    impl crate::ExecBackend for PassRecordingBackend {
        fn name(&self) -> &'static str {
            "pass-recording"
        }

        fn encode_region(
            &self,
            encoder: &PixelEncoder,
            view: &ImageView<'_>,
            region: &imaging::TileRect,
            scratch: &mut hdc::HvMatrix,
        ) -> Result<()> {
            SimdCpuBackend::auto().encode_region(encoder, view, region, scratch)
        }

        fn cluster_matrix(
            &self,
            kmeans: &HvKmeans,
            pixels: &hdc::HvMatrix,
            intensities: &[u8],
        ) -> Result<crate::ClusterOutcome> {
            let outcome = SimdCpuBackend::auto().cluster_matrix(kmeans, pixels, intensities)?;
            self.passes.lock().unwrap().push(outcome.iterations_run);
            Ok(outcome)
        }
    }

    #[test]
    fn tiled_runs_report_the_most_passes_any_tile_ran() {
        let image = square_image(32);
        let config = SegHdcConfig {
            iterations: 10,
            ..fast_config()
        };
        let passes = Arc::new(Mutex::new(Vec::new()));
        let engine = SegEngine::builder(config)
            .backend(Box::new(PassRecordingBackend {
                passes: Arc::clone(&passes),
            }))
            .build()
            .unwrap();
        let report = engine
            .run(&SegmentRequest::image(&image).tiled(TileConfig::square(16, 4).unwrap()))
            .unwrap();
        let passes = passes.lock().unwrap();
        assert_eq!(passes.len(), 4, "one clustering per tile");
        let most = *passes.iter().max().unwrap();
        assert!(most < 10, "every tile should settle early: {passes:?}");
        assert_eq!(report.single().iterations_run, most);
    }

    #[test]
    fn cancelled_runs_return_a_typed_error_and_leave_the_engine_serviceable() {
        use crate::observe::CancelToken;
        let image = square_image(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let tiles = TileConfig::square(16, 4).unwrap();

        // Cancel from inside the progress callback: the first completed
        // tile row fires the token; the next between-tile poll unwinds.
        let token = CancelToken::new();
        let fire = token.clone();
        let observer = RunObserver::new()
            .on_progress(move |_| fire.cancel())
            .cancel_token(token);
        let err = engine
            .run_observed(&SegmentRequest::image(&image).tiled(tiles), &observer)
            .unwrap_err();
        assert!(matches!(err, SegHdcError::Cancelled), "got {err:?}");

        // A pre-fired token cancels before any tile is encoded.
        let token = CancelToken::new();
        token.cancel();
        let observer = RunObserver::new().cancel_token(token);
        let err = engine
            .run_observed(&SegmentRequest::image(&image).tiled(tiles), &observer)
            .unwrap_err();
        assert!(matches!(err, SegHdcError::Cancelled), "got {err:?}");

        // Nothing is poisoned: the same engine serves the same request.
        let report = engine
            .run(&SegmentRequest::image(&image).tiled(tiles))
            .unwrap();
        assert_eq!(report.single().label_map.pixel_count(), 32 * 32);
    }

    #[test]
    fn telemetry_reports_cache_and_arena_activity() {
        let image = square_image(24);
        let engine = SegEngine::new(fast_config()).unwrap();
        let cold = engine.run(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(cold.telemetry.cache_misses, 1);
        assert_eq!(cold.telemetry.cache_hits, 0);
        assert_eq!(cold.telemetry.cache_entries, 1);
        assert!(cold.telemetry.cache_bytes > 0);
        // The arena holds a u32 index entry per pixel and one row per
        // distinct (row vector, column vector, colour code) key.
        let encoder = PixelEncoder::for_shape(&fast_config(), 24, 24, 1).unwrap();
        let position = encoder.position();
        let keys: std::collections::HashSet<(Vec<u64>, Vec<u64>, Vec<u64>)> = (0..24)
            .flat_map(|y| (0..24).map(move |x| (x, y)))
            .map(|(x, y)| {
                let colour = encoder
                    .color()
                    .encode(&[image.intensity_at(x, y).unwrap()])
                    .unwrap();
                (
                    position.row_hv(y).unwrap().as_words().to_vec(),
                    position.col_hv(x).unwrap().as_words().to_vec(),
                    colour.as_words().to_vec(),
                )
            })
            .collect();
        let row_bytes = fast_config().dimension.div_ceil(64) * 8;
        assert_eq!(
            cold.telemetry.peak_matrix_bytes,
            keys.len() * row_bytes + 24 * 24 * 4
        );
        assert_eq!(cold.telemetry.backend, "simd-cpu");
        assert!(hdc::kernels::KNOWN_ISAS.contains(&cold.telemetry.kernel_isa));
        let warm = engine.run(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(warm.telemetry.cache_misses, 1);
        assert_eq!(warm.telemetry.cache_hits, 1);
        assert_eq!(
            cold.outputs[0].label_map.as_raw(),
            warm.outputs[0].label_map.as_raw()
        );
    }

    #[test]
    fn views_are_segmented_whole_or_tiled() {
        let (image, _) = jittered_square(32);
        let engine = SegEngine::new(fast_config()).unwrap();
        let view = ImageView::crop(&image, 4, 4, 24, 20).unwrap();
        let whole = engine
            .run(&SegmentRequest::view(view).whole_image())
            .unwrap();
        assert_eq!(whole.single().label_map.width(), 24);
        assert_eq!(whole.single().label_map.height(), 20);
        let tiles = TileConfig::square(12, 2).unwrap();
        let view = ImageView::crop(&image, 4, 4, 24, 20).unwrap();
        let tiled = engine
            .run(&SegmentRequest::view(view).tiled(tiles))
            .unwrap();
        assert_eq!(tiled.single().label_map.width(), 24);
        assert!(matches!(tiled.single().mode, ExecutedMode::Tiled { .. }));

        // A view at a non-zero origin reads the same pixels as the same
        // rectangle extracted into its own image, so both label alike.
        let extracted = view.to_image().unwrap();
        let own_whole = engine
            .run(&SegmentRequest::image(&extracted).whole_image())
            .unwrap();
        assert_eq!(
            whole.single().label_map.as_raw(),
            own_whole.single().label_map.as_raw()
        );
        let own_tiled = engine
            .run(&SegmentRequest::image(&extracted).tiled(tiles))
            .unwrap();
        assert_eq!(
            tiled.single().label_map.as_raw(),
            own_tiled.single().label_map.as_raw()
        );
    }

    #[test]
    fn shared_cache_spans_engines() {
        let image = square_image(24);
        let first = SegEngine::new(fast_config()).unwrap();
        first.run(&SegmentRequest::image(&image)).unwrap();
        // Same config, second engine sharing the cache: no rebuild.
        let second = SegEngine::builder(fast_config())
            .cache(first.cache())
            .build()
            .unwrap();
        let report = second.run(&SegmentRequest::image(&image)).unwrap();
        assert_eq!(report.telemetry.cache_misses, 1);
        assert_eq!(report.telemetry.cache_hits, 1);
    }

    /// A bright square on a dark background plus its ground truth. Both
    /// regions carry intensity jitter, so the colour codebooks are
    /// exercised over many distinct values.
    fn jittered_square(size: usize) -> (DynamicImage, LabelMap) {
        let mut img = GrayImage::new(size, size).unwrap();
        let mut truth = LabelMap::new(size, size).unwrap();
        let (lo, hi) = (size / 4, 3 * size / 4);
        for y in 0..size {
            for x in 0..size {
                let jitter = ((x * 7 + y * 3) % 30) as u8;
                if (lo..hi).contains(&x) && (lo..hi).contains(&y) {
                    img.set(x, y, 200 + jitter).unwrap();
                    truth.set(x, y, 1).unwrap();
                } else {
                    img.set(x, y, 15 + jitter).unwrap();
                }
            }
        }
        (DynamicImage::Gray(img), truth)
    }

    #[test]
    fn segments_a_high_contrast_square_accurately() {
        let (image, truth) = jittered_square(32);
        let config = SegHdcConfig {
            dimension: 1024,
            ..fast_config()
        };
        let report = SegEngine::new(config.clone())
            .unwrap()
            .run(&SegmentRequest::image(&image).whole_image())
            .unwrap();
        let result = report.single();
        let iou = imaging::metrics::matched_binary_iou(&result.label_map, &truth).unwrap();
        assert!(iou > 0.9, "IoU {iou}");
        // The passes that actually ran, checked against the full-pass
        // per-vector oracle on the same pixels.
        let view = ImageView::full(&image);
        let intensities: Vec<u8> = (0..32 * 32)
            .map(|i| view.intensity_at(i % 32, i / 32).unwrap())
            .collect();
        let pixels = PixelEncoder::for_shape(&config, 32, 32, 1)
            .unwrap()
            .encode_image(&image)
            .unwrap();
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
    fn snapshots_are_recorded_when_requested() {
        let (image, _) = jittered_square(16);
        let config = SegHdcConfig::builder()
            .dimension(512)
            .iterations(4)
            .beta(2)
            .record_snapshots(true)
            .build()
            .unwrap();
        let request = SegmentRequest::image(&image).whole_image();
        let report = SegEngine::new(config).unwrap().run(&request).unwrap();
        let result = report.single();
        assert_eq!(result.snapshots.len(), 4);
        assert_eq!(result.snapshots.last().unwrap(), &result.label_map);
        // Without the flag no snapshots are kept.
        let report = SegEngine::new(fast_config())
            .unwrap()
            .run(&request)
            .unwrap();
        assert!(report.single().snapshots.is_empty());
    }

    #[test]
    fn rgb_images_are_segmented_alone_and_in_a_mixed_batch() {
        let (gray, truth) = jittered_square(24);
        let rgb = DynamicImage::Rgb(gray.to_rgb());
        let config = SegHdcConfig {
            dimension: 1024,
            ..fast_config()
        };
        let engine = SegEngine::new(config).unwrap();
        let both = [gray, rgb];
        let batch = engine
            .run(&SegmentRequest::batch(&both).whole_image())
            .unwrap();
        for (image, batched) in both.iter().zip(&batch.outputs) {
            let single = engine
                .run(&SegmentRequest::image(image).whole_image())
                .unwrap();
            assert_eq!(
                batched.label_map.as_raw(),
                single.single().label_map.as_raw()
            );
        }
        let iou =
            imaging::metrics::matched_binary_iou(&batch.outputs[1].label_map, &truth).unwrap();
        assert!(iou > 0.85, "IoU {iou}");
    }
}
