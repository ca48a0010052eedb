use crate::kernels::{self, Kernels};
use crate::{HdcError, HvRow, Result};

/// An integer "bundled" hypervector: the element-wise sum of binary
/// hypervectors, stored as a **vertical counter**.
///
/// The SegHDC clusterer updates each K-Means centroid by summing all pixel
/// hypervectors assigned to it. Because cosine distance ignores vector
/// length, the raw integer sum can be compared against binary pixel vectors
/// directly without normalisation — exactly the argument given in §III-4 of
/// the paper for choosing cosine over Hamming distance.
///
/// # Representation
///
/// The per-element counts are stored transposed, as a little-endian stack
/// of packed binary *planes*: bit `i` of plane `p` is bit `p` of
/// `counts[i]`. Adding a binary hypervector is then a word-parallel
/// bit-serial ripple-carry add ([`Kernels::bundle_add_planes`]) instead of
/// one counter increment per set bit, dot products decompose into
/// word-wide `AND` + popcount passes ([`Kernels::plane_dot`]), and with `n`
/// accumulated vectors there are at most `⌈log2(n + 1)⌉` planes — so a
/// bundle costs ~`dim / 64 · log2(n)` words instead of `4 · dim` bytes of
/// `u32` counts. Every operation dispatches through the
/// [`kernels`](crate::kernels) layer (`_with` variants take an explicit
/// selection; the plain methods use [`kernels::auto()`]).
///
/// The arithmetic is exact integer arithmetic in every representation, so
/// results are identical to a plain `u32`-counts implementation; use
/// [`counts`](Self::counts) to materialise that form.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::{Accumulator, BinaryHypervector, HdcRng};
///
/// let mut rng = HdcRng::seed_from(1);
/// let a = BinaryHypervector::random(512, &mut rng);
/// let mut acc = Accumulator::zeros(512)?;
/// acc.add_row(a.as_row())?;
/// acc.add_row(a.as_row())?;
/// // A centroid made only of copies of `a` is maximally similar to `a`.
/// assert!((acc.cosine_similarity_row(a.as_row())? - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct Accumulator {
    dim: usize,
    words_per_plane: usize,
    /// Plane-major packed counter bits: `planes[p * words_per_plane + w]`.
    /// Canonical form: the most-significant plane, when present, is
    /// non-zero. Tail bits beyond `dim` are always zero (inherited from the
    /// masked tails of every added vector).
    planes: Vec<u64>,
    /// Carry scratch for the ripple add, kept allocated between adds so
    /// bundling a row never allocates.
    carry: Vec<u64>,
    items: usize,
}

impl Clone for Accumulator {
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            words_per_plane: self.words_per_plane,
            planes: self.planes.clone(),
            carry: self.carry.clone(),
            items: self.items,
        }
    }

    /// Copies into this accumulator's existing buffers instead of
    /// allocating new ones: the K-Means loop copies each cluster's bundle
    /// into its centroid once per pass.
    fn clone_from(&mut self, source: &Self) {
        self.dim = source.dim;
        self.words_per_plane = source.words_per_plane;
        self.planes.clone_from(&source.planes);
        self.carry.clone_from(&source.carry);
        self.items = source.items;
    }
}

impl std::fmt::Debug for Accumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accumulator")
            .field("dim", &self.dim)
            .field("items", &self.items)
            .field("planes", &self.plane_count())
            .finish()
    }
}

impl PartialEq for Accumulator {
    fn eq(&self, other: &Self) -> bool {
        // The carry buffer is scratch; equality is the logical counter
        // state. Plane vectors are canonical (binary representation is
        // unique and the top plane is non-zero), so comparing them compares
        // the counts.
        self.dim == other.dim && self.items == other.items && self.planes == other.planes
    }
}

impl Eq for Accumulator {}

impl Accumulator {
    /// Creates an all-zero accumulator of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`.
    pub fn zeros(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        let words_per_plane = dim.div_ceil(64);
        Ok(Self {
            dim,
            words_per_plane,
            planes: Vec::new(),
            carry: vec![0; words_per_plane],
            items: 0,
        })
    }

    /// Returns the dimension of the accumulator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the number of hypervectors accumulated so far.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Number of counter bit planes currently held
    /// (`⌈log2(max_count + 1)⌉`).
    pub fn plane_count(&self) -> usize {
        self.planes.len() / self.words_per_plane
    }

    /// Materialises the per-element counts.
    ///
    /// The counter is stored bit-sliced (see the type docs), so this
    /// allocates and transposes; use it for inspection and tests, not in
    /// hot loops.
    pub fn counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.dim];
        for (p, plane) in self.planes.chunks_exact(self.words_per_plane).enumerate() {
            for index in kernels::iter_set_bits(plane) {
                counts[index] += 1u32 << p;
            }
        }
        counts
    }

    /// Resets the accumulator to all zeros.
    pub fn clear(&mut self) {
        self.planes.clear();
        self.items = 0;
    }

    /// Heap bytes held by the plane and carry buffers (their capacity, not
    /// their length) — the scratch-accounting companion of
    /// [`crate::HvMatrix::capacity_bytes`].
    pub fn heap_bytes(&self) -> usize {
        (self.planes.capacity() + self.carry.capacity()) * std::mem::size_of::<u64>()
    }

    /// Ripple-carry-adds one packed binary vector into the counter planes.
    fn add_words(&mut self, words: &[u64], kernels: &dyn Kernels) {
        self.carry.copy_from_slice(words);
        let overflow =
            kernels.bundle_add_planes(&mut self.planes, self.words_per_plane, &mut self.carry);
        if overflow {
            self.planes.extend_from_slice(&self.carry);
        }
        self.items += 1;
    }

    /// Carry-adds one packed bit plane at significance `level` (counts get
    /// `2^level` wherever `bits` is set). Used by
    /// [`add_row_weighted_with`](Self::add_row_weighted_with) and to undo a
    /// partial [`remove_row`](Self::remove_row).
    fn add_plane_at_level(&mut self, level: usize, bits: &[u64], kernels: &dyn Kernels) {
        if bits.iter().all(|&word| word == 0) {
            return;
        }
        while self.plane_count() < level {
            self.planes
                .resize(self.planes.len() + self.words_per_plane, 0);
        }
        self.carry.copy_from_slice(bits);
        let start = level * self.words_per_plane;
        let overflow = kernels.bundle_add_planes(
            &mut self.planes[start..],
            self.words_per_plane,
            &mut self.carry,
        );
        if overflow {
            self.planes.extend_from_slice(&self.carry);
        }
    }

    /// Adds one row element-wise — an [`crate::HvMatrix`] row, or a vector
    /// borrowed with [`crate::BinaryHypervector::as_row`] — without
    /// allocating: the bundling step of the clusterer.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn add_row(&mut self, row: HvRow<'_>) -> Result<()> {
        self.add_row_with(row, kernels::auto())
    }

    /// [`add_row`](Self::add_row) through an explicit [`Kernels`] selection
    /// — the K-Means update step threads its backend kernels in here.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn add_row_with(&mut self, row: HvRow<'_>, kernels: &dyn Kernels) -> Result<()> {
        if row.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: row.dim(),
            });
        }
        self.add_words(row.as_words(), kernels);
        Ok(())
    }

    /// Adds `copies` copies of one [`crate::HvMatrix`] row at once: the
    /// counts of `copies` calls of [`add_row_with`](Self::add_row_with),
    /// from one carry add per set bit `b` of `copies` (the row added at
    /// significance `2^b`). The K-Means update step moves each distinct
    /// pixel row with its multiplicity this way.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn add_row_weighted_with(
        &mut self,
        row: HvRow<'_>,
        copies: usize,
        kernels: &dyn Kernels,
    ) -> Result<()> {
        if row.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: row.dim(),
            });
        }
        for level in set_bits(copies) {
            self.add_plane_at_level(level, row.as_words(), kernels);
        }
        self.items += copies;
        Ok(())
    }

    /// Takes `copies` copies of one [`crate::HvMatrix`] row back out of the
    /// bundle: the exact inverse of
    /// [`add_row_weighted_with`](Self::add_row_weighted_with) (with
    /// `copies == 1`, of [`add_row_with`](Self::add_row_with)), which lets
    /// the K-Means update step move a row between clusters instead of
    /// re-bundling every row.
    ///
    /// One word-parallel ripple-borrow subtract per set bit of `copies`,
    /// each starting at that bit's plane and stopping at the first plane
    /// where the borrow dies out; then all-zero top planes are dropped, so
    /// the planes stay canonical: adding copies of a row and removing them
    /// again gives back an accumulator equal to the original.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ,
    /// [`HdcError::EmptyInput`] if nothing has been accumulated, and
    /// [`HdcError::InvalidParameter`] if the bundle holds fewer than
    /// `copies` items or a set bit of `row` has a count below `copies` (the
    /// copies cannot have been added); the accumulator is then unchanged.
    pub fn remove_row(&mut self, row: HvRow<'_>, copies: usize) -> Result<()> {
        if row.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: row.dim(),
            });
        }
        if self.items == 0 {
            return Err(HdcError::EmptyInput);
        }
        let not_contained = || HdcError::InvalidParameter {
            message: format!("the bundle does not hold {copies} copies of the row"),
        };
        if copies > self.items {
            return Err(not_contained());
        }
        let words = row.as_words();
        for level in set_bits(copies) {
            if !self.sub_plane_at_level(level, words) {
                // Add back the lower levels already taken out. The counts
                // they restore fit the untrimmed planes, so the adds never
                // grow a plane and the planes come back bit for bit.
                for done in set_bits(copies & ((1 << level) - 1)) {
                    self.add_plane_at_level(done, words, kernels::scalar());
                }
                return Err(not_contained());
            }
        }
        while self
            .planes
            .rchunks_exact(self.words_per_plane)
            .next()
            .is_some_and(|top| top.iter().all(|&word| word == 0))
        {
            self.planes
                .truncate(self.planes.len() - self.words_per_plane);
        }
        self.items -= copies;
        Ok(())
    }

    /// Borrow-subtracts one packed bit plane at significance `level`
    /// (counts lose `2^level` wherever `bits` is set), without trimming.
    /// Returns `false`, with the planes as they were, if some count at a
    /// set bit of `bits` is below `2^level`.
    fn sub_plane_at_level(&mut self, level: usize, bits: &[u64]) -> bool {
        let start = (level * self.words_per_plane).min(self.planes.len());
        let borrow = &mut self.carry;
        borrow.copy_from_slice(bits);
        for plane in self.planes[start..].chunks_exact_mut(self.words_per_plane) {
            let mut live = 0;
            for (word, b) in plane.iter_mut().zip(borrow.iter_mut()) {
                let next = *b & !*word;
                *word ^= *b;
                *b = next;
                live |= next;
            }
            if live == 0 {
                break;
            }
        }
        if borrow.iter().all(|&b| b == 0) {
            return true;
        }
        // Underflow: the borrow ran through every plane from `level` up.
        // Adding `bits` back there modulo the top (dropping the carry that
        // survives it, which is the borrow that wrapped) restores every
        // count.
        borrow.copy_from_slice(bits);
        kernels::scalar().bundle_add_planes(
            &mut self.planes[start..],
            self.words_per_plane,
            borrow,
        );
        false
    }

    /// Dot product with a row (sum of counts at set bits).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn dot_row(&self, row: HvRow<'_>) -> Result<u64> {
        self.dot_row_with(row, kernels::auto())
    }

    /// [`dot_row`](Self::dot_row) through an explicit [`Kernels`]
    /// selection.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn dot_row_with(&self, row: HvRow<'_>, kernels: &dyn Kernels) -> Result<u64> {
        if row.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: row.dim(),
            });
        }
        Ok(kernels.plane_dot(&self.planes, self.words_per_plane, row.as_words()))
    }

    /// Exact dot product between two bundles:
    /// `Σ_i self.counts[i] · other.counts[i]`, computed plane against
    /// plane as `Σ_{p,q} 2^{p+q} · popcount(plane_p AND other_plane_q)`.
    ///
    /// This is the centroid-against-centroid similarity primitive the tiled
    /// segmenter's label stitching runs on: with `P` and `Q` planes the
    /// whole dot product costs `P · Q` word-wide AND+popcount kernel passes
    /// instead of a `dim`-length integer multiply-accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn dot_bundle_with(&self, other: &Accumulator, kernels: &dyn Kernels) -> Result<u64> {
        if other.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        let mut total = 0u64;
        for (p, plane) in self.planes.chunks_exact(self.words_per_plane).enumerate() {
            for (q, other_plane) in other.planes.chunks_exact(other.words_per_plane).enumerate() {
                total += kernels.and_popcount(plane, other_plane) << (p + q);
            }
        }
        Ok(total)
    }

    /// Euclidean norm of the integer count vector.
    ///
    /// Computed exactly: `Σ_i counts[i]²` decomposes plane-against-plane as
    /// `Σ_{p,q} 2^{p+q} · popcount(plane_p AND plane_q)`, an exact integer,
    /// so the result is identical whichever kernels computed it.
    pub fn norm(&self) -> f64 {
        self.norm_with(kernels::auto())
    }

    /// [`norm`](Self::norm) through an explicit [`Kernels`] selection.
    pub fn norm_with(&self, kernels: &dyn Kernels) -> f64 {
        // The cross product is symmetric, so only the upper triangle is
        // computed (off-diagonal terms doubled) — P(P+1)/2 kernel passes
        // instead of P². Exact integers throughout, so the value is
        // identical to the full double loop.
        let planes: Vec<&[u64]> = self.planes.chunks_exact(self.words_per_plane).collect();
        let mut total = 0u128;
        for (p, plane_p) in planes.iter().enumerate() {
            for (q, plane_q) in planes.iter().enumerate().skip(p) {
                let term = u128::from(kernels.and_popcount(plane_p, plane_q)) << (p + q);
                total += if q == p { term } else { 2 * term };
            }
        }
        (total as f64).sqrt()
    }

    /// Cosine similarity against a row, as defined in Eq. 7 of the SegHDC
    /// paper.
    ///
    /// Zero vectors have zero similarity with everything by convention.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn cosine_similarity_row(&self, row: HvRow<'_>) -> Result<f64> {
        Ok(cosine_of(self.dot_row(row)?, self.norm(), row.count_ones()))
    }

    /// Cosine distance (`1 - cosine_similarity_row`) against a row, the
    /// clustering metric used by SegHDC.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn cosine_distance_row(&self, row: HvRow<'_>) -> Result<f64> {
        Ok(1.0 - self.cosine_similarity_row(row)?)
    }
}

/// A group of bit-sliced counters stacked contiguously, ready for the
/// fused multi-centroid kernels.
///
/// Where an [`Accumulator`] holds one bundle's planes, this view stacks the
/// planes of *all* K-Means centroids back-to-back in one buffer (with each
/// centroid's cached norm), which is exactly the layout
/// [`Kernels::plane_dot_multi`] consumes: one pixel row is swept against
/// every centroid's planes in one call. The buffers are reused across
/// [`rebuild`](Self::rebuild) calls, so the per-iteration cost of the
/// K-Means assignment step is plane copies into existing capacity — no
/// allocation, no per-centroid snapshot objects.
///
/// [`cache_ranges`](Self::cache_ranges) splits the members into contiguous
/// runs whose stacked planes fit a byte budget; sweeping a block of rows
/// one run at a time keeps the run's planes hot in cache while partial dot
/// products accumulate (exact integer adds, so the split changes nothing).
///
/// When every member's counts fit 15 bits (and the dimension keeps 32-bit
/// dot accumulators safe), the group additionally caches the counts
/// *expanded* to one `u16` lane per dimension, and
/// [`dot_row_range_with`](Self::dot_row_range_with) offers kernels the
/// [`Kernels::counts_dot_multi`] fast path — all planes consumed in one
/// masked multiply-add sweep, with the row's bit→lane expansion shared
/// across the whole group — before falling back to the bit-sliced sweep.
/// Both paths produce the same exact integers.
#[derive(Debug, Clone, Default)]
pub struct BitSlicedGroup {
    dim: usize,
    words_per_plane: usize,
    /// All members' plane stacks, concatenated member-major (member `k`'s
    /// planes are contiguous, least-significant plane first).
    planes: Vec<u64>,
    /// Planes contributed by each member.
    plane_counts: Vec<usize>,
    /// Prefix sums of `plane_counts` (len `members + 1`), in plane units.
    plane_offsets: Vec<usize>,
    /// Each member's cached Euclidean norm.
    norms: Vec<f64>,
    /// The members' counts expanded to one `u16` lane per dimension
    /// (member-major, `words_per_plane * 64` lanes each, tail lanes zero) —
    /// the layout [`Kernels::counts_dot_multi`] consumes. Empty when the
    /// counts exceed the expanded path's exactness gates (see `rebuild`).
    expanded: Vec<u16>,
    /// Whether `expanded` is populated and the gates held.
    expanded_ok: bool,
}

impl BitSlicedGroup {
    /// Creates an empty group; populate it with [`rebuild`](Self::rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a group from `members` in one step.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the members' dimensions
    /// differ.
    pub fn from_accumulators(members: &[Accumulator], kernels: &dyn Kernels) -> Result<Self> {
        let mut group = Self::new();
        group.rebuild(members, kernels)?;
        Ok(group)
    }

    /// Re-snapshots the group from `members`, reusing the existing buffers.
    ///
    /// The group takes its dimension from the members (an empty slice
    /// yields an empty group). Norms are recomputed with `kernels` exactly
    /// as [`Accumulator::norm_with`] would.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the members' dimensions
    /// differ from each other.
    pub fn rebuild(&mut self, members: &[Accumulator], kernels: &dyn Kernels) -> Result<()> {
        self.planes.clear();
        self.plane_counts.clear();
        self.plane_offsets.clear();
        self.norms.clear();
        self.expanded.clear();
        self.expanded_ok = false;
        self.plane_offsets.push(0);
        let Some(first) = members.first() else {
            self.dim = 0;
            self.words_per_plane = 0;
            return Ok(());
        };
        self.dim = first.dim;
        self.words_per_plane = first.words_per_plane;
        for member in members {
            if member.dim != self.dim {
                return Err(HdcError::DimensionMismatch {
                    left: self.dim,
                    right: member.dim,
                });
            }
            self.planes.extend_from_slice(&member.planes);
            self.plane_counts.push(member.plane_count());
            self.plane_offsets
                .push(self.plane_offsets.last().unwrap() + member.plane_count());
            self.norms.push(member.norm_with(kernels));
        }
        self.rebuild_expanded(members);
        Ok(())
    }

    /// Largest per-dimension count the expanded-counts fast path accepts:
    /// `counts_dot_multi` implementations treat the `u16` lanes as
    /// non-negative `i16`s in `vpmaddwd`.
    const EXPANDED_MAX_COUNT: u32 = i16::MAX as u32;

    /// Largest lane count (padded dimension) the expanded path accepts,
    /// keeping the worst-case dot `lanes · i16::MAX` within `i32::MAX` so
    /// the kernels' 32-bit accumulators cannot wrap.
    const EXPANDED_MAX_LANES: usize = 65_536;

    /// Mean planes per member below which the expanded path is disabled:
    /// one `u16`-lane sweep costs roughly as much as seven bit-plane
    /// sweeps (a 256-bit vector covers 16 `u16` lanes versus 256 bits), so
    /// shallow counters — small bundles — are faster bit-sliced, while
    /// K-Means centroids bundling thousands of pixels (11+ planes) gain
    /// substantially. A profitability heuristic only: both paths produce
    /// identical integers.
    const EXPANDED_MIN_MEAN_PLANES: usize = 7;

    /// Populates `expanded` with every member's counts as `u16` lanes when
    /// the exactness gates hold (counts at most 15 planes, dimension at
    /// most [`Self::EXPANDED_MAX_LANES`]) and the members are deep enough
    /// for the lane sweep to win; otherwise leaves the fast path disabled
    /// and the bit-sliced sweep serves every dot.
    fn rebuild_expanded(&mut self, members: &[Accumulator]) {
        let lanes = self.words_per_plane * 64;
        let max_planes = 32 - Self::EXPANDED_MAX_COUNT.leading_zeros() as usize;
        if lanes > Self::EXPANDED_MAX_LANES
            || self.plane_counts.iter().any(|&count| count > max_planes)
            || self.plane_counts.iter().sum::<usize>()
                < Self::EXPANDED_MIN_MEAN_PLANES * members.len()
        {
            return;
        }
        self.expanded.resize(members.len() * lanes, 0);
        for (member, source) in members.iter().enumerate() {
            let target = &mut self.expanded[member * lanes..(member + 1) * lanes];
            for (p, plane) in source.planes.chunks_exact(self.words_per_plane).enumerate() {
                let weight = 1u16 << p;
                for (w, &word) in plane.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        target[w * 64 + bits.trailing_zeros() as usize] += weight;
                        bits &= bits - 1;
                    }
                }
            }
        }
        self.expanded_ok = true;
    }

    /// Number of members in the group.
    pub fn len(&self) -> usize {
        self.plane_counts.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.plane_counts.is_empty()
    }

    /// The members' hypervector dimension (0 for an empty group).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Member `member`'s cached Euclidean norm.
    pub fn norm(&self, member: usize) -> f64 {
        self.norms[member]
    }

    /// Planes contributed by each member, in member order.
    pub fn plane_counts(&self) -> &[usize] {
        &self.plane_counts
    }

    /// Splits the members into contiguous ranges whose stacked planes each
    /// occupy at most `budget_bytes` (every range holds at least one member,
    /// so a single oversized member still forms its own range).
    pub fn cache_ranges(&self, budget_bytes: usize) -> Vec<std::ops::Range<usize>> {
        let budget_words = (budget_bytes / std::mem::size_of::<u64>()).max(1);
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < self.len() {
            let mut end = start + 1;
            let mut words = self.plane_counts[start] * self.words_per_plane;
            while end < self.len() {
                let next = self.plane_counts[end] * self.words_per_plane;
                if words + next > budget_words {
                    break;
                }
                words += next;
                end += 1;
            }
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// Accumulates (`+=`) into `out[i]` the exact dot product between `row`
    /// and member `members.start + i`, for every member in `members` — via
    /// the expanded-counts [`Kernels::counts_dot_multi`] fast path when the
    /// group cached it and the kernel accepts, otherwise via one fused
    /// bit-sliced [`Kernels::plane_dot_multi`] sweep (identical integers
    /// either way).
    ///
    /// Lengths are the caller's contract (`out.len() == members.len()`,
    /// `row` of the group's dimension), matching the kernel layer's
    /// debug-assert policy — the clustering loop validates dimensions once
    /// per call, not once per pixel.
    pub fn dot_row_range_with(
        &self,
        members: std::ops::Range<usize>,
        row: HvRow<'_>,
        out: &mut [u64],
        kernels: &dyn Kernels,
    ) {
        debug_assert!(members.end <= self.len());
        debug_assert_eq!(out.len(), members.len());
        debug_assert_eq!(row.dim(), self.dim);
        if self.expanded_ok {
            let lanes = self.words_per_plane * 64;
            let counts = &self.expanded[members.start * lanes..members.end * lanes];
            if kernels.counts_dot_multi(counts, row.as_words(), out) {
                return;
            }
        }
        let words = &self.planes[self.plane_offsets[members.start] * self.words_per_plane
            ..self.plane_offsets[members.end] * self.words_per_plane];
        kernels.plane_dot_multi(
            words,
            self.words_per_plane,
            &self.plane_counts[members.clone()],
            row.as_words(),
            out,
        );
    }

    /// Cosine distance of member `member` given its exact dot product with
    /// a row of `ones` set bits — arithmetically identical to
    /// [`Accumulator::cosine_distance_row`] (same `cosine_of` funnel, same
    /// norm value).
    pub fn cosine_distance_of(&self, member: usize, dot: u64, ones: usize) -> f64 {
        1.0 - cosine_of(dot, self.norms[member], ones)
    }

    /// [`cosine_distance_of`](Self::cosine_distance_of) with the row's
    /// Euclidean norm (`sqrt(ones)`) precomputed — the assignment loop
    /// takes one square root per pixel instead of one per pixel×member,
    /// with bit-identical results (same `cosine_of` funnel).
    pub fn cosine_distance_with_row_norm(&self, member: usize, dot: u64, row_norm: f64) -> f64 {
        1.0 - cosine_of_prenorm(dot, self.norms[member], row_norm)
    }
}

/// The positions of the set bits of `n`, lowest first.
fn set_bits(mut n: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = n.trailing_zeros() as usize;
        n &= n.wrapping_sub(1);
        (bit < usize::BITS as usize).then_some(bit)
    })
}

/// The single definition of Eq. 7's cosine similarity between an integer
/// bundle (given as exact `dot` and Euclidean norm) and a binary vector
/// with `ones` set bits. Every cosine entry point — `Accumulator` and
/// `BitSlicedGroup` against rows — funnels through here, which is what
/// makes their results bit-identical by construction.
/// Zero vectors have zero similarity with everything by convention.
fn cosine_of(dot: u64, bundle_norm: f64, ones: usize) -> f64 {
    cosine_of_prenorm(dot, bundle_norm, (ones as f64).sqrt())
}

/// [`cosine_of`] with the binary vector's Euclidean norm (`sqrt(ones)`)
/// already computed. `sqrt` on the same operand is IEEE-deterministic, so
/// hoisting it out of a per-centroid loop (one root per pixel instead of
/// one per pixel×centroid) leaves every similarity bit-identical.
fn cosine_of_prenorm(dot: u64, bundle_norm: f64, row_norm: f64) -> f64 {
    if bundle_norm == 0.0 || row_norm == 0.0 {
        return 0.0;
    }
    dot as f64 / (bundle_norm * row_norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryHypervector, HdcRng};

    /// The bundle of `members`, added one row at a time.
    fn bundle_of(members: &[BinaryHypervector]) -> Accumulator {
        let mut acc = Accumulator::zeros(members[0].dim()).unwrap();
        for member in members {
            acc.add_row(member.as_row()).unwrap();
        }
        acc
    }

    #[test]
    fn zero_dim_rejected() {
        assert_eq!(Accumulator::zeros(0).unwrap_err(), HdcError::ZeroDimension);
    }

    #[test]
    fn add_counts_set_bits() {
        let hv = BinaryHypervector::from_bits(&[true, false, true, true]).unwrap();
        let acc = bundle_of(&[hv.clone(), hv]);
        assert_eq!(acc.counts(), [2, 0, 2, 2]);
        assert_eq!(acc.items(), 2);
        // Count 2 needs exactly two planes (binary 10).
        assert_eq!(acc.plane_count(), 2);
    }

    #[test]
    fn counts_match_a_naive_per_index_walk() {
        let mut rng = HdcRng::seed_from(99);
        for dim in [70usize, 256, 1000] {
            let members: Vec<BinaryHypervector> = (0..11)
                .map(|_| BinaryHypervector::random(dim, &mut rng))
                .collect();
            let acc = bundle_of(&members);
            let counts = acc.counts();
            for (i, &count) in counts.iter().enumerate() {
                let naive = members.iter().filter(|m| m.bit(i).unwrap()).count() as u32;
                assert_eq!(count, naive, "dim {dim}, index {i}");
            }
            // Canonical planes: exactly enough for the largest count.
            let max_count = counts.iter().copied().max().unwrap();
            assert_eq!(acc.plane_count(), (32 - max_count.leading_zeros()) as usize);
        }
    }

    #[test]
    fn cosine_similarity_matches_manual_computation() {
        let hv = BinaryHypervector::from_bits(&[true, true, false, false]).unwrap();
        let acc = bundle_of(&[
            BinaryHypervector::from_bits(&[true, false, true, false]).unwrap(),
            hv.clone(),
        ]);
        // counts = [2, 1, 1, 0]; dot with hv = 2 + 1 = 3
        // |acc| = sqrt(4+1+1) = sqrt(6); |hv| = sqrt(2)
        let expected = 3.0 / (6.0f64.sqrt() * 2.0f64.sqrt());
        let got = acc.cosine_similarity_row(hv.as_row()).unwrap();
        assert!((got - expected).abs() < 1e-12);
        let distance = acc.cosine_distance_row(hv.as_row()).unwrap();
        assert!((distance - (1.0 - expected)).abs() < 1e-12);
    }

    #[test]
    fn scaling_invariance_of_cosine() {
        // Adding the same member set twice must not change the cosine
        // similarity — the property the paper uses to justify skipping
        // centroid normalisation.
        let mut rng = HdcRng::seed_from(3);
        let members: Vec<BinaryHypervector> = (0..5)
            .map(|_| BinaryHypervector::random(1024, &mut rng))
            .collect();
        let probe = BinaryHypervector::random(1024, &mut rng);
        let once = bundle_of(&members);
        let twice = bundle_of(&[members.clone(), members].concat());
        let s1 = once.cosine_similarity_row(probe.as_row()).unwrap();
        let s2 = twice.cosine_similarity_row(probe.as_row()).unwrap();
        assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn remove_row_is_the_exact_inverse_of_add_row_with() {
        let mut rng = HdcRng::seed_from(46);
        for dim in [70usize, 1000] {
            let members: Vec<BinaryHypervector> = (0..14)
                .map(|_| BinaryHypervector::random(dim, &mut rng))
                .collect();
            let matrix = crate::HvMatrix::from_vectors(&members).unwrap();
            let mut acc = Accumulator::zeros(dim).unwrap();
            for row in 0..10 {
                acc.add_row(matrix.row(row)).unwrap();
            }
            let original = acc.clone();
            for row in 10..14 {
                for kernels in [kernels::scalar(), kernels::auto()] {
                    acc.add_row_with(matrix.row(row), kernels).unwrap();
                    acc.remove_row(matrix.row(row), 1).unwrap();
                    assert_eq!(acc, original, "dim {dim}, row {row}");
                }
            }
            // Taking members out in any order leaves the bundle of the rest.
            let mut rest = Accumulator::zeros(dim).unwrap();
            for row in [0, 2, 4, 5, 6, 8] {
                rest.add_row(matrix.row(row)).unwrap();
            }
            for row in [9, 1, 7, 3] {
                acc.remove_row(matrix.row(row), 1).unwrap();
            }
            assert_eq!(acc, rest, "dim {dim}");
            assert_eq!(acc.counts(), rest.counts());
        }
    }

    #[test]
    fn clone_from_copies_the_counts_into_the_existing_buffers() {
        let mut rng = HdcRng::seed_from(48);
        let members: Vec<BinaryHypervector> = (0..10)
            .map(|_| BinaryHypervector::random(300, &mut rng))
            .collect();
        let deep = bundle_of(&members[..9]);
        let shallow = bundle_of(&members[9..]);
        let mut target = deep.clone();
        let bytes = target.heap_bytes();
        target.clone_from(&shallow);
        assert_eq!(target, shallow);
        assert_eq!(target.heap_bytes(), bytes, "the buffers are reused");
        target.clone_from(&deep);
        assert_eq!(target, deep);
    }

    #[test]
    fn remove_row_trims_a_top_plane_it_empties() {
        let a = BinaryHypervector::from_bits(&[true, true, false, false]).unwrap();
        let b = BinaryHypervector::from_bits(&[true, false, true, false]).unwrap();
        let matrix = crate::HvMatrix::from_vectors(&[a, b]).unwrap();
        let mut acc = Accumulator::zeros(4).unwrap();
        acc.add_row(matrix.row(1)).unwrap();
        let original = acc.clone();
        // counts [2, 1, 1, 0]: only element 0 needs the second plane.
        acc.add_row(matrix.row(0)).unwrap();
        assert_eq!(acc.plane_count(), 2);
        acc.remove_row(matrix.row(0), 1).unwrap();
        assert_eq!(acc.plane_count(), 1);
        assert_eq!(acc.counts(), [1, 0, 1, 0]);
        assert_eq!(acc, original);
    }

    #[test]
    fn removing_the_only_item_returns_to_zeros() {
        let mut rng = HdcRng::seed_from(47);
        let matrix =
            crate::HvMatrix::from_vectors(&[BinaryHypervector::random(300, &mut rng)]).unwrap();
        let mut acc = Accumulator::zeros(300).unwrap();
        acc.add_row(matrix.row(0)).unwrap();
        acc.remove_row(matrix.row(0), 1).unwrap();
        assert_eq!(acc, Accumulator::zeros(300).unwrap());
        assert_eq!(acc.plane_count(), 0);
        assert_eq!(acc.remove_row(matrix.row(0), 1), Err(HdcError::EmptyInput));
    }

    #[test]
    fn removing_a_row_that_was_never_added_errors_and_changes_nothing() {
        let rows = [
            BinaryHypervector::from_bits(&[true, true, false, true]).unwrap(),
            BinaryHypervector::from_bits(&[true, false, true, false]).unwrap(),
        ];
        let matrix = crate::HvMatrix::from_vectors(&rows).unwrap();
        let mut acc = Accumulator::zeros(4).unwrap();
        acc.add_row(matrix.row(0)).unwrap();
        acc.add_row(matrix.row(0)).unwrap();
        let before = acc.clone();
        // Element 2 has a zero count, so row 1 cannot come out.
        assert!(matches!(
            acc.remove_row(matrix.row(1), 1),
            Err(HdcError::InvalidParameter { .. })
        ));
        assert_eq!(acc, before);
        assert_eq!(acc.counts(), [2, 2, 0, 2]);
        let wrong = crate::HvMatrix::zeros(1, 8).unwrap();
        assert!(matches!(
            acc.remove_row(wrong.row(0), 1),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    /// Random rows, and a bundle of `base` of them to start from.
    fn rows_and_bundle(seed: u64, dim: usize, base: usize) -> (crate::HvMatrix, Accumulator) {
        let mut rng = HdcRng::seed_from(seed);
        let members: Vec<BinaryHypervector> = (0..base + 1)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let matrix = crate::HvMatrix::from_vectors(&members).unwrap();
        let mut acc = Accumulator::zeros(dim).unwrap();
        for row in 1..=base {
            acc.add_row(matrix.row(row)).unwrap();
        }
        (matrix, acc)
    }

    #[test]
    fn a_weighted_add_equals_that_many_single_adds() {
        // 1, 6 = 0b110 and 37 = 0b100101 set several bits; with three rows
        // in the bundle (two planes), 37 reaches past the top plane and 6
        // carries into a new one.
        for copies in [0usize, 1, 2, 6, 37] {
            for dim in [70usize, 1000] {
                let (matrix, start) = rows_and_bundle(51, dim, 3);
                for kernels in [kernels::scalar(), kernels::auto()] {
                    let mut weighted = start.clone();
                    weighted
                        .add_row_weighted_with(matrix.row(0), copies, kernels)
                        .unwrap();
                    let mut single = start.clone();
                    for _ in 0..copies {
                        single.add_row_with(matrix.row(0), kernels).unwrap();
                    }
                    assert_eq!(weighted, single, "{copies} copies, dim {dim}");
                    assert_eq!(weighted.items(), 3 + copies);
                }
            }
        }
        let (_, mut acc) = rows_and_bundle(52, 70, 1);
        let wrong = crate::HvMatrix::zeros(1, 8).unwrap();
        assert!(matches!(
            acc.add_row_weighted_with(wrong.row(0), 3, kernels::auto()),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn removing_copies_is_the_exact_inverse_of_the_weighted_add() {
        for copies in [1usize, 2, 6, 37] {
            let (matrix, start) = rows_and_bundle(53, 1000, 5);
            let mut acc = start.clone();
            acc.add_row_weighted_with(matrix.row(0), copies, kernels::auto())
                .unwrap();
            acc.remove_row(matrix.row(0), copies).unwrap();
            assert_eq!(acc, start, "{copies} copies");
            // From the empty bundle and back: no planes left over.
            let mut only = Accumulator::zeros(1000).unwrap();
            only.add_row_weighted_with(matrix.row(0), copies, kernels::auto())
                .unwrap();
            only.remove_row(matrix.row(0), copies).unwrap();
            assert_eq!(only, Accumulator::zeros(1000).unwrap());
            // Taken out in parts, in any split of `copies`.
            acc.add_row_weighted_with(matrix.row(0), copies, kernels::auto())
                .unwrap();
            acc.remove_row(matrix.row(0), copies / 2).unwrap();
            acc.remove_row(matrix.row(0), copies - copies / 2).unwrap();
            assert_eq!(acc, start, "{copies} copies in two parts");
        }
    }

    #[test]
    fn removing_more_copies_than_were_added_errors_and_changes_nothing() {
        let (matrix, mut acc) = rows_and_bundle(54, 300, 4);
        acc.add_row_weighted_with(matrix.row(0), 5, kernels::auto())
            .unwrap();
        let before = acc.clone();
        // Some set bit of row 0 counts only its 5 copies. 6 = 0b110 and
        // 7 = 0b111 fail at their last set bit, after the lower ones were
        // taken out; 8 fails at its only one; 10 is more than the 9 items
        // held.
        for copies in [6usize, 7, 8, 10] {
            assert!(
                matches!(
                    acc.remove_row(matrix.row(0), copies),
                    Err(HdcError::InvalidParameter { .. })
                ),
                "{copies} copies"
            );
            assert_eq!(acc, before, "{copies} copies");
        }
        // An all-zero row is contained any number of times, but not in
        // more copies than the bundle has items.
        let zero = crate::HvMatrix::zeros(1, 300).unwrap();
        assert!(acc.remove_row(zero.row(0), 10).is_err());
        assert_eq!(acc, before);
    }

    #[test]
    fn clear_resets_state() {
        let mut acc = bundle_of(&[BinaryHypervector::ones(32).unwrap()]);
        assert_eq!(acc.items(), 1);
        acc.clear();
        assert_eq!(acc.items(), 0);
        assert_eq!(acc.plane_count(), 0);
        assert!(acc.counts().iter().all(|&c| c == 0));
        assert_eq!(acc, Accumulator::zeros(32).unwrap());
    }

    #[test]
    fn scalar_and_auto_kernels_accumulate_identically() {
        let mut rng = HdcRng::seed_from(31);
        for dim in [70usize, 1000] {
            let members: Vec<BinaryHypervector> = (0..13)
                .map(|_| BinaryHypervector::random(dim, &mut rng))
                .collect();
            let matrix = crate::HvMatrix::from_vectors(&members).unwrap();
            let mut by_scalar = Accumulator::zeros(dim).unwrap();
            let mut by_auto = Accumulator::zeros(dim).unwrap();
            for i in 0..members.len() {
                by_scalar
                    .add_row_with(matrix.row(i), kernels::scalar())
                    .unwrap();
                by_auto
                    .add_row_with(matrix.row(i), kernels::auto())
                    .unwrap();
            }
            assert_eq!(by_scalar, by_auto);
            assert_eq!(
                by_scalar.norm_with(kernels::scalar()).to_bits(),
                by_auto.norm_with(kernels::auto()).to_bits()
            );
            let probe = matrix.row(0);
            assert_eq!(
                by_scalar.dot_row_with(probe, kernels::scalar()).unwrap(),
                by_auto.dot_row_with(probe, kernels::auto()).unwrap()
            );
            let half = bundle_of(&members[..6]);
            assert_eq!(
                by_scalar.dot_bundle_with(&half, kernels::scalar()).unwrap(),
                by_auto.dot_bundle_with(&half, kernels::auto()).unwrap()
            );
        }
    }

    #[test]
    fn bundle_dot_matches_the_scalar_count_product() {
        let mut rng = HdcRng::seed_from(21);
        for dim in [70usize, 256, 1000] {
            let members: Vec<BinaryHypervector> = (0..19)
                .map(|_| BinaryHypervector::random(dim, &mut rng))
                .collect();
            let a = bundle_of(&members[..7]);
            let b = bundle_of(&members[7..]);
            let b_counts = b.counts();
            let expected: u64 = a
                .counts()
                .iter()
                .zip(&b_counts)
                .map(|(&x, &y)| u64::from(x) * u64::from(y))
                .sum();
            let auto = kernels::auto();
            assert_eq!(a.dot_bundle_with(&b, auto).unwrap(), expected, "dim {dim}");
            assert_eq!(b.dot_bundle_with(&a, auto).unwrap(), expected, "dim {dim}");
            // A bundle's dot with itself is the squared norm, exactly.
            let square: u64 = a.counts().iter().map(|&x| u64::from(x).pow(2)).sum();
            assert_eq!(a.dot_bundle_with(&a, auto).unwrap(), square);
            assert_eq!(a.norm().to_bits(), (square as f64).sqrt().to_bits());
        }
    }

    #[test]
    fn bundle_dot_with_empty_or_mismatched_operands() {
        let auto = kernels::auto();
        let empty = Accumulator::zeros(64).unwrap();
        let full = bundle_of(&[BinaryHypervector::ones(64).unwrap()]);
        assert_eq!(empty.dot_bundle_with(&full, auto).unwrap(), 0);
        assert_eq!(full.dot_bundle_with(&empty, auto).unwrap(), 0);
        let wrong = Accumulator::zeros(128).unwrap();
        assert!(full.dot_bundle_with(&wrong, auto).is_err());
    }

    #[test]
    fn row_dimension_mismatch_detected() {
        let mut acc = Accumulator::zeros(4).unwrap();
        let matrix = crate::HvMatrix::zeros(1, 8).unwrap();
        assert!(acc.add_row(matrix.row(0)).is_err());
        assert!(acc.dot_row(matrix.row(0)).is_err());
        assert!(acc.cosine_similarity_row(matrix.row(0)).is_err());
        let other = Accumulator::zeros(8).unwrap();
        assert!(acc.dot_bundle_with(&other, kernels::auto()).is_err());
    }

    #[test]
    fn cosine_with_zero_operands_is_zero() {
        let acc = Accumulator::zeros(16).unwrap();
        let hv = BinaryHypervector::ones(16).unwrap();
        assert_eq!(acc.dot_row(hv.as_row()).unwrap(), 0);
        assert_eq!(acc.cosine_similarity_row(hv.as_row()).unwrap(), 0.0);
        let zero_hv = BinaryHypervector::zeros(16).unwrap();
        let nonzero = bundle_of(&[hv]);
        assert_eq!(
            nonzero.cosine_similarity_row(zero_hv.as_row()).unwrap(),
            0.0
        );
    }

    #[test]
    fn adding_a_zero_vector_only_bumps_items() {
        let acc = bundle_of(&[BinaryHypervector::zeros(64).unwrap()]);
        assert_eq!(acc.items(), 1);
        assert_eq!(acc.plane_count(), 0);
        assert!(acc.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn group_dots_and_distances_match_per_member_snapshots() {
        let mut rng = HdcRng::seed_from(71);
        for dim in [70usize, 256, 1000] {
            let members: Vec<Accumulator> = (0..5)
                .map(|k| {
                    let mut acc = Accumulator::zeros(dim).unwrap();
                    // Different member sizes -> different plane counts,
                    // including an empty member (zero planes).
                    for _ in 0..(k * 3) {
                        let hv = BinaryHypervector::random(dim, &mut rng);
                        acc.add_row(hv.as_row()).unwrap();
                    }
                    acc
                })
                .collect();
            let kernels = kernels::auto();
            let group = BitSlicedGroup::from_accumulators(&members, kernels).unwrap();
            assert_eq!(group.len(), 5);
            assert_eq!(group.dim(), dim);

            let probe = BinaryHypervector::random(dim, &mut rng);
            let row = probe.as_row();
            let ones = probe.count_ones();

            let mut dots = vec![0u64; group.len()];
            group.dot_row_range_with(0..group.len(), row, &mut dots, kernels);
            for (k, member) in members.iter().enumerate() {
                assert_eq!(dots[k], member.dot_row_with(row, kernels).unwrap());
                assert_eq!(group.norm(k).to_bits(), member.norm().to_bits());
                assert_eq!(
                    group.cosine_distance_of(k, dots[k], ones).to_bits(),
                    member.cosine_distance_row(row).unwrap().to_bits(),
                    "dim {dim}, member {k}"
                );
            }

            // Split ranges accumulate to the same dots as the full sweep.
            let mut split_dots = vec![0u64; group.len()];
            for range in group.cache_ranges(2 * 8 * dim.div_ceil(64)) {
                let (start, len) = (range.start, range.len());
                group.dot_row_range_with(range, row, &mut split_dots[start..start + len], kernels);
            }
            assert_eq!(split_dots, dots);
        }
    }

    #[test]
    fn group_dots_fall_back_when_counts_exceed_the_expanded_gate() {
        // One member's counts need 16 planes (> the 15-bit `i16::MAX` gate
        // of the expanded-counts fast path), so the whole group must stay
        // on the bit-sliced sweep — with identical dots.
        let dim = 70usize; // ragged tail word as well
        let mut rng = HdcRng::seed_from(74);
        let repeated = BinaryHypervector::random(dim, &mut rng);
        let kernels = kernels::auto();
        let mut big = Accumulator::zeros(dim).unwrap();
        big.add_row_weighted_with(repeated.as_row(), 40_000, kernels)
            .unwrap();
        assert!(big.plane_count() > 15);
        let small = bundle_of(&[
            BinaryHypervector::random(dim, &mut rng),
            BinaryHypervector::random(dim, &mut rng),
            BinaryHypervector::random(dim, &mut rng),
        ]);
        let members = vec![big, small];
        let group = BitSlicedGroup::from_accumulators(&members, kernels).unwrap();
        let probe = BinaryHypervector::random(dim, &mut rng);
        let mut dots = vec![0u64; members.len()];
        group.dot_row_range_with(0..members.len(), probe.as_row(), &mut dots, kernels);
        for (k, member) in members.iter().enumerate() {
            assert_eq!(
                dots[k],
                member.dot_row_with(probe.as_row(), kernels).unwrap(),
                "member {k}"
            );
        }
    }

    #[test]
    fn group_rebuild_reuses_buffers_and_validates_dims() {
        let mut rng = HdcRng::seed_from(72);
        let members: Vec<Accumulator> = (0..3)
            .map(|_| bundle_of(&[BinaryHypervector::random(128, &mut rng)]))
            .collect();
        let kernels = kernels::auto();
        let mut group = BitSlicedGroup::new();
        assert!(group.is_empty());
        group.rebuild(&members, kernels).unwrap();
        assert_eq!(group.len(), 3);
        group.rebuild(&members, kernels).unwrap();
        assert_eq!(group.len(), 3);
        assert_eq!(group.plane_counts(), &[1, 1, 1]);

        let mismatched = vec![
            Accumulator::zeros(128).unwrap(),
            Accumulator::zeros(64).unwrap(),
        ];
        assert!(group.rebuild(&mismatched, kernels).is_err());

        group.rebuild(&[], kernels).unwrap();
        assert!(group.is_empty());
        assert_eq!(group.dim(), 0);
        assert!(group.cache_ranges(1024).is_empty());
    }

    #[test]
    fn group_cache_ranges_respect_the_budget_and_cover_all_members() {
        let mut rng = HdcRng::seed_from(73);
        let members: Vec<Accumulator> = (0..7)
            .map(|k| {
                let members: Vec<BinaryHypervector> = (0..(1 << k))
                    .map(|_| BinaryHypervector::random(640, &mut rng))
                    .collect();
                bundle_of(&members)
            })
            .collect();
        let group = BitSlicedGroup::from_accumulators(&members, kernels::auto()).unwrap();
        let words_per_plane = 640usize.div_ceil(64);
        for budget in [1usize, 256, 1024, 4096, usize::MAX / 2] {
            let ranges = group.cache_ranges(budget);
            // Ranges tile 0..len contiguously.
            let mut expected_start = 0;
            for range in &ranges {
                assert_eq!(range.start, expected_start);
                assert!(!range.is_empty());
                expected_start = range.end;
                let words: usize = range
                    .clone()
                    .map(|k| group.plane_counts()[k] * words_per_plane)
                    .sum();
                // Within budget unless the range is a single oversized
                // member.
                assert!(words * 8 <= budget || range.len() == 1);
            }
            assert_eq!(expected_start, group.len());
        }
    }
}
