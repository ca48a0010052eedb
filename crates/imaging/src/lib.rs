//! Image substrate for the SegHDC reproduction.
//!
//! The SegHDC paper evaluates on microscopy photographs loaded with the usual
//! Python imaging stack; this crate provides the equivalent building blocks
//! in pure Rust:
//!
//! * [`GrayImage`] / [`RgbImage`] / [`DynamicImage`] — 8-bit image buffers.
//! * [`ImageView`] — borrowed rectangular views for zero-copy sub-image
//!   addressing.
//! * [`TileGrid`] — tile + halo geometry planning for streaming (tiled)
//!   processing of images larger than memory.
//! * [`LabelMap`] — per-pixel integer label maps (segmentation masks).
//! * [`pnm`] — PGM/PPM reading and writing so masks and inputs can be
//!   inspected with standard tools.
//! * [`draw`] — primitives (ellipses, gradients) used by the synthetic
//!   dataset generators.
//! * [`filter`] — Gaussian blur, Gaussian noise and value-noise texture.
//! * [`metrics`] — IoU, including the cluster-to-class matching needed to
//!   score *unsupervised* segmentations.
//! * [`colorspace`] — RGB → grayscale luma conversion.
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), imaging::ImagingError> {
//! use imaging::{metrics, LabelMap};
//!
//! let mut prediction = LabelMap::new(4, 4)?;
//! let mut truth = LabelMap::new(4, 4)?;
//! for x in 0..2 {
//!     for y in 0..4 {
//!         prediction.set(x, y, 1)?;
//!         truth.set(x, y, 1)?;
//!     }
//! }
//! let iou = metrics::binary_iou(&prediction, &truth)?;
//! assert!((iou - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colorspace;
pub mod draw;
mod error;
pub mod filter;
mod image;
mod label_map;
pub mod metrics;
pub mod pnm;
mod tile;
mod view;

pub use error::ImagingError;
pub use image::{DynamicImage, GrayImage, RgbImage};
pub use label_map::LabelMap;
pub use tile::{Tile, TileGrid, TileRect};
pub use view::ImageView;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ImagingError>;
