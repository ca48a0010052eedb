//! Workspace façade for the SegHDC (DAC 2023) reproduction.
//!
//! This crate re-exports the individual crates of the workspace so examples
//! and downstream users can depend on a single package:
//!
//! * [`hdc`] — hypervector substrate.
//! * [`imaging`] — image buffers, I/O, filtering and segmentation metrics.
//! * [`synthdata`] — synthetic nuclei dataset generators (BBBC005 / DSB2018 /
//!   MoNuSeg stand-ins).
//! * [`neuralnet`] — minimal CNN training framework.
//! * [`cnn_baseline`] — the Kim et al. unsupervised CNN segmentation
//!   baseline.
//! * [`seghdc`] — the SegHDC pipeline itself (the paper's contribution).
//! * [`seghdc_server`] — framed TCP service front-end over the engine.
//! * [`edge_device`] — the Raspberry Pi 4 cost model.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-versus-measured comparison of every table
//! and figure.
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use seghdc_suite::prelude::*;
//!
//! let dataset = SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(48, 48), 1, 1)?;
//! let sample = dataset.sample(0)?;
//! let config = SegHdcConfig::builder().dimension(1000).iterations(3).beta(4).build()?;
//! let engine = SegEngine::new(config)?;
//! let report = engine.run(&SegmentRequest::image(&sample.image))?;
//! let iou = metrics::matched_binary_iou(
//!     &report.outputs[0].label_map,
//!     &sample.ground_truth.to_binary(),
//! )?;
//! assert!(iou > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cnn_baseline;
pub use edge_device;
pub use hdc;
pub use imaging;
pub use neuralnet;
pub use seghdc;
pub use seghdc_server;
pub use synthdata;

/// Commonly used types, re-exported for convenient glob imports in examples
/// and applications.
pub mod prelude {
    pub use cnn_baseline::{KimConfig, KimSegmenter};
    pub use edge_device::{DeviceProfile, Workload};
    pub use hdc::{Accumulator, BinaryHypervector, HdcRng, HvMatrix};
    pub use imaging::{metrics, DynamicImage, GrayImage, ImageView, LabelMap, RgbImage, TileGrid};
    pub use seghdc::{
        CodebookCache, ColorEncoding, EngineOptions, ExecBackend, ExecutedMode, ExecutionMode,
        PositionEncoding, SegEngine, SegHdcConfig, SegmentReport, SegmentRequest, SimdCpuBackend,
        Snapshot, SnapshotError, TileConfig,
    };
    pub use seghdc_server::{
        serve, RequestMode, SegClient, ServerConfig, ServerError, WireSegmentRequest,
        WireSegmentResponse, WireStatsResponse, WireStatus,
    };
    pub use synthdata::{DatasetProfile, NucleiImageGenerator, Sample, SyntheticDataset};
}
