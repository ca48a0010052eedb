//! SegHDC: on-device unsupervised image segmentation with hyperdimensional
//! computing (DAC 2023).
//!
//! This crate implements the paper's framework end to end:
//!
//! * [`PositionEncoder`] — maps pixel coordinates to hypervectors whose
//!   Hamming distances follow the (block, decayed) **Manhattan distance** of
//!   the coordinates (§III-1 of the paper, Fig. 3). The uniform, Manhattan,
//!   decay and block-decay variants are all available, plus the random
//!   ablation (**RPos**).
//! * [`ColorEncoder`] — maps 8-bit colour values to hypervectors whose
//!   distances follow the Manhattan distance of intensities, with one
//!   concatenated chunk per channel (§III-2, Fig. 4), plus the random
//!   ablation (**RColor**).
//! * [`PixelEncoder`] — binds position and colour hypervectors with XOR and
//!   applies the `γ` colour-weighting knob (§III-3, Fig. 5). The batch
//!   entry point [`PixelEncoder::encode_matrix`] writes every pixel row
//!   directly into one [`hdc::HvMatrix`] with zero per-pixel allocations.
//! * [`HvKmeans`] — the revised K-Means clusterer over hypervectors using
//!   cosine distance, centroids initialised from the pixels with the largest
//!   colour difference and updated by integer bundling (§III-4, Eq. 7).
//!   [`HvKmeans::cluster_matrix`] clusters an [`hdc::HvMatrix`] in place,
//!   parallelising the assignment step across pixel rows.
//! * [`SegEngine`] — the long-lived execution engine and the crate's one
//!   way in: one [`SegmentRequest`] → [`SegEngine::plan`] →
//!   [`SegEngine::run`] flow for single images, batches and views, whole
//!   or tiled. The engine owns an [`ExecBackend`] (the per-tile "encode
//!   region + cluster matrix" unit — [`SimdCpuBackend`] by default, which
//!   dispatches every word-level bit kernel to runtime-detected SIMD via
//!   [`hdc::kernels`] and reports the ISA on every report;
//!   [`SimdCpuBackend::scalar`] is the bit-exact reference), a persistent
//!   byte-bounded [`CodebookCache`] shared across calls and threads, and a
//!   pool of reusable scratch arenas; it plans whole-image versus
//!   streaming tiled execution per image against a memory budget and
//!   reports cache/arena telemetry on every [`SegmentReport`].
//! * [`tiled`] — streaming tiled segmentation for images larger than
//!   memory: one halo-padded tile at a time inside a bounded scratch
//!   arena, stitched into one globally consistent map.
//!
//! # Quickstart
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use imaging::{DynamicImage, GrayImage};
//! use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
//!
//! // A small synthetic image: dark background, bright square.
//! let mut img = GrayImage::filled(32, 32, 20)?;
//! for y in 8..24 {
//!     for x in 8..24 {
//!         img.set(x, y, 220)?;
//!     }
//! }
//!
//! let config = SegHdcConfig::builder()
//!     .dimension(2000)
//!     .clusters(2)
//!     .iterations(3)
//!     .build()?;
//! let engine = SegEngine::new(config)?;
//! let report = engine.run(&SegmentRequest::image(&DynamicImage::Gray(img)))?;
//! assert_eq!(report.outputs[0].label_map.distinct_labels(), 2);
//! // A second run of the same shape reuses the cached codebooks:
//! assert_eq!(report.telemetry.cache_misses, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
mod cluster;
mod color;
mod config;
pub mod engine;
mod error;
mod keys;
pub mod observe;
mod pixel;
mod position;
pub mod snapshot;
pub mod sweep;
mod sync;
pub mod tiled;
pub mod toy;

pub use backend::{ExecBackend, SimdCpuBackend};
pub use cache::{CacheStats, CodebookCache, CodebookKey};
pub use cluster::{ClusterOutcome, HvKmeans};
pub use color::ColorEncoder;
pub use config::{ColorEncoding, PositionEncoding, SegHdcConfig, SegHdcConfigBuilder};
pub use engine::{
    EngineOptions, EngineTelemetry, ExecutedMode, ExecutionMode, PlanDecision, PlannedMode,
    SegEngine, SegEngineBuilder, SegmentOutput, SegmentPlan, SegmentReport, SegmentRequest,
};
pub use error::SegHdcError;
pub use observe::{CancelToken, RunObserver, RunProgress};
pub use pixel::PixelEncoder;
pub use position::PositionEncoder;
pub use snapshot::{Snapshot, SnapshotError};
pub use tiled::TileConfig;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SegHdcError>;
