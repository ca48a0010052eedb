//! The portable scalar reference kernels.

use super::Kernels;

/// Portable scalar implementation of every [`Kernels`] operation.
///
/// This is the specification the SIMD implementations are held to
/// (bit-exact results) and the fallback [`super::auto()`] selects when no
/// SIMD implementation is compiled in or supported by the CPU. The loops
/// are plain word walks — exactly the code that used to be duplicated
/// across `binary.rs`, `matrix.rs` and `accumulator.rs` before the kernel
/// layer unified them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernels;

impl Kernels for ScalarKernels {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn popcount(&self, words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum()
    }

    fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum()
    }
}
