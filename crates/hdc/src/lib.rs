//! Brain-inspired hyperdimensional computing (HDC) substrate.
//!
//! This crate provides the low-level vector machinery used by the SegHDC
//! segmentation pipeline (DAC 2023):
//!
//! * [`BinaryHypervector`] — a densely packed (64 bits per word) binary
//!   hypervector with XOR binding, bit flipping, Hamming/cosine similarity
//!   and deterministic random generation.
//! * [`HvMatrix`] — a batch of packed hypervectors in one contiguous
//!   structure-of-arrays buffer, accessed through the [`HvRow`] /
//!   [`HvRowMut`] views. This is the allocation-free storage the SegHDC
//!   hot path (batch encoding and clustering) runs on; rows round-trip
//!   with [`BinaryHypervector`] bit-for-bit.
//! * [`Accumulator`] — an integer "bundled" hypervector used as a K-Means
//!   centroid: the element-wise sum of many [`HvRow`]s (matrix rows, or
//!   vectors borrowed with [`BinaryHypervector::as_row`]), stored as a
//!   vertical (bit-sliced) counter and updated by word-parallel bit-serial
//!   adds, with cosine similarity against rows and exact dot products
//!   against other bundles. [`IntervalGroup`] computes the same dots in
//!   closed form for rows given by their few [`RowToggles`] against one
//!   reference row, as level codes make them, and [`cosine_of_prenorm`]
//!   is the one Eq. 7 cosine every dot is scored through.
//! * [`kernels`] — the unified word-level bit-kernel layer every hot loop
//!   above dispatches through: a [`kernels::Kernels`] trait with a scalar
//!   reference implementation and runtime-detected SIMD (AVX-512, AVX2,
//!   NEON) behind the `simd` feature.
//! * [`ItemMemory`] / [`LevelMemory`] — classical HDC codebooks: random
//!   (pseudo-orthogonal) item memories and linearly-correlated level
//!   memories built by progressive bit flipping.
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), hdc::HdcError> {
//! use hdc::{BinaryHypervector, HdcRng};
//!
//! let mut rng = HdcRng::seed_from(42);
//! let a = BinaryHypervector::random(1024, &mut rng);
//! let b = BinaryHypervector::random(1024, &mut rng);
//!
//! // Random hypervectors are pseudo-orthogonal: normalized Hamming ≈ 0.5.
//! let nh = a.normalized_hamming(&b)?;
//! assert!((nh - 0.5).abs() < 0.1);
//!
//! // XOR binding is its own inverse.
//! let bound = a.xor(&b)?;
//! assert_eq!(bound.xor(&b)?, a);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD kernel module (`kernels::simd`) is
// the single place allowed to opt back in — vendor intrinsics require
// `unsafe` — and does so behind runtime CPU detection. Everything else in
// the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod binary;
mod error;
mod item_memory;
pub mod kernels;
mod matrix;
mod rng;

pub use accumulator::{cosine_of_prenorm, Accumulator, IntervalGroup, RowToggles};
pub use binary::BinaryHypervector;
pub use error::HdcError;
pub use item_memory::{ItemMemory, LevelMemory};
pub use matrix::{HvMatrix, HvRow, HvRowMut};
pub use rng::HdcRng;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HdcError>;
