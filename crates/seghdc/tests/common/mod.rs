//! A kernel selection that counts the calls only the clusterer's
//! bit-sliced passes make, shared by the test files that check which
//! passes ran.

use std::sync::atomic::{AtomicUsize, Ordering};

use hdc::kernels::Kernels;

/// Forwards every kernel to `inner`, counting the calls that only the
/// bit-sliced passes make: `plane_dot`, each stored row's dot with a
/// centroid, and `bundle_add_planes`, each carry add into a bundle.
#[derive(Debug)]
pub struct BitSlicedCalls<'a> {
    inner: &'a dyn Kernels,
    calls: AtomicUsize,
}

impl<'a> BitSlicedCalls<'a> {
    pub fn new(inner: &'a dyn Kernels) -> Self {
        Self {
            inner,
            calls: AtomicUsize::new(0),
        }
    }

    /// Bit-sliced kernel calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    fn count(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Kernels for BitSlicedCalls<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn popcount(&self, words: &[u64]) -> u64 {
        self.inner.popcount(words)
    }

    fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
        self.inner.hamming(a, b)
    }

    fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        self.inner.and_popcount(a, b)
    }

    fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        self.count();
        self.inner.plane_dot(planes, words_per_plane, row)
    }

    fn bundle_add_planes(
        &self,
        planes: &mut [u64],
        words_per_plane: usize,
        carry: &mut [u64],
    ) -> bool {
        self.count();
        self.inner.bundle_add_planes(planes, words_per_plane, carry)
    }
}
