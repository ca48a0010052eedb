use crate::kernels::{self, Kernels};
use crate::{BinaryHypervector, HdcError, Result};
use rayon::prelude::*;

/// A batch of packed binary hypervectors in one contiguous buffer.
///
/// `HvMatrix` is the structure-of-arrays companion to
/// [`BinaryHypervector`]: `rows` hypervectors of dimension `dim` whose
/// distinct rows are stored in a single `Vec<u64>`, with a fixed row stride
/// of `dim.div_ceil(64)` words. This is the storage the SegHDC hot path
/// runs on — one matrix holds every pixel hypervector of an image, so
/// encoding and clustering touch a single allocation instead of one
/// `Vec<u64>` per pixel.
///
/// Rows are read through [`HvRow`], a lightweight view that operates at
/// word level (popcount, Hamming) and never allocates; stored rows are
/// written through [`HvRowMut`] ([`fill_stored_rows`](Self::fill_stored_rows)).
/// A row round-trips with the single-vector API bit-for-bit:
/// [`HvMatrix::from_vectors`] and [`HvRow::to_hypervector`] are exact
/// inverses.
///
/// # Shared rows
///
/// A matrix stores each distinct row once, plus one `u32` index entry per
/// row naming the stored row it reads. Pixels of one SegHDC position block
/// and one colour encode to the same hypervector, so an image's matrix can
/// hold a few hundred stored rows for tens of thousands of rows
/// ([`reset_shared`](Self::reset_shared), [`share_rows`](Self::share_rows),
/// [`from_shared`](Self::from_shared)); [`zeros`](Self::zeros) and
/// [`from_vectors`](Self::from_vectors) store every row, and row `i` reads
/// stored row `i`. Either way [`rows`](Self::rows), [`row`](Self::row),
/// [`to_vectors`](Self::to_vectors) and `==` see one row per index entry,
/// and a write to a stored row reaches every row that reads it.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::{BinaryHypervector, HdcRng, HvMatrix};
///
/// let mut rng = HdcRng::seed_from(11);
/// let a = BinaryHypervector::random(300, &mut rng);
/// let b = BinaryHypervector::random(300, &mut rng);
///
/// let mut matrix = HvMatrix::from_vectors(&[a.clone(), b.clone()])?;
/// // Bind `a` into row 1 in place, with no allocation.
/// matrix.fill_stored_rows(|stored, row| {
///     if stored == 1 {
///         row.xor_assign(&a).expect("every row has a's dimension");
///     }
/// });
///
/// assert_eq!(matrix.row(0).to_hypervector(), a);
/// assert_eq!(matrix.row(1).to_hypervector(), a.xor(&b)?);
/// assert_eq!(matrix.row(0).hamming(matrix.row(1))?, a.hamming(&a.xor(&b)?)?);
///
/// // Three rows over two stored rows: rows 0 and 2 read the same one.
/// let shared = HvMatrix::from_shared(&[a.clone(), b.clone()], vec![0, 1, 0])?;
/// assert_eq!((shared.rows(), shared.stored_rows()), (3, 2));
/// assert_eq!(shared.to_vectors(), vec![a.clone(), b, a]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HvMatrix {
    rows: usize,
    dim: usize,
    stride: usize,
    /// The stored rows, `stride` words each.
    words: Vec<u64>,
    /// The stored row each row reads. Kept allocated across resets.
    index: Vec<u32>,
}

impl HvMatrix {
    /// Creates an all-zero matrix of `rows` hypervectors of dimension
    /// `dim`, one stored row per row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0` and
    /// [`HdcError::InvalidParameter`] if `rows` does not fit a `u32` index.
    pub fn zeros(rows: usize, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        check_index_len(rows)?;
        let stride = dim.div_ceil(64);
        Ok(Self {
            rows,
            dim,
            stride,
            words: vec![0; rows.saturating_mul(stride)],
            index: (0..rows as u32).collect(),
        })
    }

    /// Reshapes the matrix in place to `rows` all-zero hypervectors of
    /// dimension `dim` that share one stored row: it writes `rows` index
    /// entries and one row, not `rows` rows. This is how an arena is
    /// prepared for [`share_rows`](Self::share_rows).
    ///
    /// The buffers are **reused** whenever their capacity suffices, which
    /// makes a single `HvMatrix` usable as a bounded arena across a
    /// sequence of differently-sized regions, and grow to exactly the size
    /// asked for. No operation shrinks them, so
    /// [`capacity_bytes`](Self::capacity_bytes) is the exact high-water
    /// mark of what the matrix held.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0` and
    /// [`HdcError::InvalidParameter`] if `rows` does not fit a `u32` index.
    pub fn reset_shared(&mut self, rows: usize, dim: usize) -> Result<()> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        check_index_len(rows)?;
        self.rows = rows;
        self.dim = dim;
        self.stride = dim.div_ceil(64);
        self.zero_index();
        self.resize_stored(usize::from(rows > 0));
        Ok(())
    }

    /// Points every row at a stored row and resets the stored rows to
    /// zero, keeping [`rows`](Self::rows) and [`dim`](Self::dim).
    ///
    /// `assign` receives the index (one entry per row, holding whatever a
    /// previous call left there), must write every entry, and returns the
    /// number of stored rows; every entry must name one of them. Write the
    /// stored rows afterwards with
    /// [`fill_stored_rows`](Self::fill_stored_rows).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if an entry names no stored
    /// row; the matrix is then left as
    /// [`reset_shared`](Self::reset_shared) leaves it.
    pub fn share_rows(&mut self, assign: impl FnOnce(&mut [u32]) -> usize) -> Result<()> {
        let stored = assign(&mut self.index);
        if let Err(err) = check_index(&self.index, stored) {
            self.index.fill(0);
            self.resize_stored(usize::from(self.rows > 0));
            return Err(err);
        }
        self.resize_stored(stored);
        Ok(())
    }

    /// Builds a shared matrix: row `i` reads `stored[index[i]]`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if `stored` is empty,
    /// [`HdcError::DimensionMismatch`] if the stored vectors disagree in
    /// dimension, and [`HdcError::InvalidParameter`] if an `index` entry
    /// names no stored vector or `index` does not fit a `u32`.
    pub fn from_shared(stored: &[BinaryHypervector], index: Vec<u32>) -> Result<Self> {
        let packed = Self::from_vectors(stored)?;
        check_index_len(index.len())?;
        check_index(&index, stored.len())?;
        Ok(Self {
            rows: index.len(),
            index,
            ..packed
        })
    }

    /// Bytes currently reserved by the stored rows and the index (their
    /// capacity, not their length) — the number that matters for
    /// peak-memory accounting of arenas built on
    /// [`reset_shared`](Self::reset_shared).
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }

    /// Packs a slice of hypervectors into a matrix of one stored row per
    /// row (row `i` = `vectors[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if `vectors` is empty,
    /// [`HdcError::DimensionMismatch`] if the vectors disagree in dimension
    /// and [`HdcError::InvalidParameter`] if there are more than a `u32`
    /// index holds.
    pub fn from_vectors(vectors: &[BinaryHypervector]) -> Result<Self> {
        let first = vectors.first().ok_or(HdcError::EmptyInput)?;
        let mut matrix = Self::zeros(vectors.len(), first.dim())?;
        for (words, hv) in matrix.words.chunks_exact_mut(matrix.stride).zip(vectors) {
            if hv.dim() != matrix.dim {
                return Err(HdcError::DimensionMismatch {
                    left: matrix.dim,
                    right: hv.dim(),
                });
            }
            words.copy_from_slice(hv.as_words());
        }
        Ok(matrix)
    }

    /// Unpacks every row into an owned [`BinaryHypervector`].
    pub fn to_vectors(&self) -> Vec<BinaryHypervector> {
        (0..self.rows)
            .map(|i| self.row(i).to_hypervector())
            .collect()
    }

    /// Number of hypervectors (rows) in the matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of stored rows.
    pub fn stored_rows(&self) -> usize {
        self.words.len() / self.stride
    }

    /// The stored row each row reads.
    pub fn stored_index(&self) -> &[u32] {
        &self.index
    }

    /// Hypervector dimension (bits per row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per row (`dim.div_ceil(64)`).
    pub fn stride_words(&self) -> usize {
        self.stride
    }

    /// The packed stored rows, concatenated, `stride_words` words each.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// A shared view of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= rows()` (row access is the innermost hot-path
    /// operation, so it uses slice-style indexing rather than `Result`).
    pub fn row(&self, index: usize) -> HvRow<'_> {
        self.stored_row(self.index[index] as usize)
    }

    /// A shared view of stored row `stored` (see
    /// [`stored_rows`](Self::stored_rows)).
    ///
    /// # Panics
    ///
    /// Panics if `stored >= stored_rows()`.
    pub fn stored_row(&self, stored: usize) -> HvRow<'_> {
        let start = stored * self.stride;
        HvRow {
            words: &self.words[start..start + self.stride],
            dim: self.dim,
        }
    }

    /// Fills every **stored** row in parallel: `fill` is called once per
    /// stored row, across worker threads, with an exclusive view of it
    /// (initially whatever it holds). A write reaches every row that reads
    /// that stored row — this is how a keyed encoder writes each distinct
    /// row once.
    pub fn fill_stored_rows<F>(&mut self, fill: F)
    where
        F: Fn(usize, &mut HvRowMut<'_>) + Sync,
    {
        let dim = self.dim;
        self.words
            .as_mut_slice()
            .par_chunks_mut(self.stride)
            .enumerate()
            .for_each(|(index, words)| {
                let mut row = HvRowMut { words, dim };
                fill(index, &mut row);
            });
    }

    /// Points every row at stored row 0, allocating exactly `rows` index
    /// entries when the index has to grow.
    fn zero_index(&mut self) {
        self.index.clear();
        self.index.reserve_exact(self.rows);
        self.index.resize(self.rows, 0);
    }

    /// Resizes the stored rows to `stored` all-zero rows, allocating
    /// exactly that many when the buffer has to grow.
    fn resize_stored(&mut self, stored: usize) {
        let words = stored.saturating_mul(self.stride);
        self.words.clear();
        self.words.reserve_exact(words);
        self.words.resize(words, 0);
    }
}

impl PartialEq for HvMatrix {
    /// Row-by-row equality: matrices holding the same rows are equal,
    /// however their rows are shared.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.dim == other.dim
            && (0..self.rows).all(|i| self.row(i).words == other.row(i).words)
    }
}

impl Eq for HvMatrix {}

/// Rows are indexed by `u32`.
fn check_index_len(rows: usize) -> Result<()> {
    if u32::try_from(rows).is_err() {
        return Err(HdcError::InvalidParameter {
            message: format!("{rows} rows do not fit a u32 row index"),
        });
    }
    Ok(())
}

/// Checks that every entry of `index` names one of `stored` stored rows.
fn check_index(index: &[u32], stored: usize) -> Result<()> {
    match index.iter().max() {
        Some(&entry) if entry as usize >= stored => Err(HdcError::InvalidParameter {
            message: format!("the index reads stored row {entry} of {stored}"),
        }),
        _ => Ok(()),
    }
}

/// A shared, never-allocating view of one [`HvMatrix`] row, or of a whole
/// [`BinaryHypervector`] ([`BinaryHypervector::as_row`]): the one operand
/// type of the bundle operations.
#[derive(Debug, Clone, Copy)]
pub struct HvRow<'a> {
    words: &'a [u64],
    dim: usize,
}

impl<'a> HvRow<'a> {
    /// A view of `words`, which must be exactly `dim.div_ceil(64)` words
    /// with every bit beyond `dim` clear.
    pub(crate) fn new(words: &'a [u64], dim: usize) -> Self {
        debug_assert_eq!(words.len(), dim.div_ceil(64));
        Self { words, dim }
    }

    /// The hypervector dimension of this row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words backing this row.
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of bits set to one.
    pub fn count_ones(&self) -> usize {
        kernels::auto().popcount(self.words) as usize
    }

    /// Iterates over the indices of the set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + 'a {
        kernels::iter_set_bits(self.words)
    }

    /// Hamming distance to another row.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn hamming(&self, other: HvRow<'_>) -> Result<usize> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        Ok(kernels::auto().hamming(self.words, other.words) as usize)
    }

    /// Copies this row into an owned [`BinaryHypervector`] (allocates).
    pub fn to_hypervector(&self) -> BinaryHypervector {
        BinaryHypervector::from_words(self.dim, self.words.to_vec())
            .expect("row views hold exactly dim.div_ceil(64) words")
    }
}

/// An exclusive, never-allocating view of one [`HvMatrix`] row.
#[derive(Debug)]
pub struct HvRowMut<'a> {
    words: &'a mut [u64],
    dim: usize,
}

impl HvRowMut<'_> {
    /// The hypervector dimension of this row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Sets every bit of the row to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites the row with `hv`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn copy_from(&mut self, hv: &BinaryHypervector) -> Result<()> {
        self.check_dim(hv.dim())?;
        self.words.copy_from_slice(hv.as_words());
        Ok(())
    }

    /// XORs `hv` into the row in place (the HDC binding operation).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign(&mut self, hv: &BinaryHypervector) -> Result<()> {
        self.xor_assign_with(hv, kernels::auto())
    }

    /// [`xor_assign`](Self::xor_assign) through an explicit [`Kernels`]
    /// selection — the hot-path variant the batch pixel encoder threads its
    /// backend kernels into.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign_with(&mut self, hv: &BinaryHypervector, kernels: &dyn Kernels) -> Result<()> {
        self.check_dim(hv.dim())?;
        kernels.xor_into(self.words, hv.as_words());
        Ok(())
    }

    fn check_dim(&self, other: usize) -> Result<()> {
        if self.dim != other {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdcRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rng() -> HdcRng {
        HdcRng::seed_from(0xBEEF)
    }

    /// Applies `write` to stored row `stored` only.
    fn write_stored_row(
        matrix: &mut HvMatrix,
        stored: usize,
        write: impl Fn(&mut HvRowMut<'_>) + Sync,
    ) {
        matrix.fill_stored_rows(|s, row| {
            if s == stored {
                write(row);
            }
        });
    }

    #[test]
    fn zero_dimension_is_rejected_and_zero_rows_allowed() {
        assert_eq!(HvMatrix::zeros(4, 0).unwrap_err(), HdcError::ZeroDimension);
        let empty = HvMatrix::zeros(0, 128).unwrap();
        assert_eq!(empty.rows(), 0);
        assert!(empty.to_vectors().is_empty());
    }

    #[test]
    fn stride_matches_packed_word_count() {
        for (dim, stride) in [(1usize, 1usize), (64, 1), (65, 2), (1000, 16), (1024, 16)] {
            let m = HvMatrix::zeros(3, dim).unwrap();
            assert_eq!(m.stride_words(), stride, "dim {dim}");
            assert_eq!(m.as_words().len(), 3 * stride);
        }
    }

    #[test]
    fn rows_round_trip_with_binary_hypervectors() {
        let mut r = rng();
        for dim in [1usize, 63, 64, 65, 500, 1024] {
            let vectors: Vec<BinaryHypervector> = (0..5)
                .map(|_| BinaryHypervector::random(dim, &mut r))
                .collect();
            let matrix = HvMatrix::from_vectors(&vectors).unwrap();
            assert_eq!(matrix.rows(), 5);
            assert_eq!(matrix.dim(), dim);
            for (i, hv) in vectors.iter().enumerate() {
                assert_eq!(&matrix.row(i).to_hypervector(), hv, "dim {dim}, row {i}");
            }
            assert_eq!(matrix.to_vectors(), vectors);
        }
    }

    #[test]
    fn from_vectors_validates_input() {
        assert_eq!(
            HvMatrix::from_vectors(&[]).unwrap_err(),
            HdcError::EmptyInput
        );
        let mut r = rng();
        let mixed = vec![
            BinaryHypervector::random(64, &mut r),
            BinaryHypervector::random(65, &mut r),
        ];
        assert!(matches!(
            HvMatrix::from_vectors(&mixed),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
    }

    #[test]
    fn row_ops_match_vector_ops() {
        let mut r = rng();
        for dim in [70usize, 256, 1000] {
            let a = BinaryHypervector::random(dim, &mut r);
            let b = BinaryHypervector::random(dim, &mut r);
            let mut m = HvMatrix::from_vectors(&[a.clone(), b.clone()]).unwrap();

            assert_eq!(m.row(0).count_ones(), a.count_ones());
            assert_eq!(m.row(0).hamming(m.row(1)).unwrap(), a.hamming(&b).unwrap());
            assert_eq!(
                m.row(0).hamming(b.as_row()).unwrap(),
                a.hamming(&b).unwrap()
            );
            let ones: Vec<usize> = m.row(1).iter_ones().collect();
            let expected: Vec<usize> = b.iter_ones().collect();
            assert_eq!(ones, expected);

            // XOR-bind in place equals the allocating xor, and unbinds.
            write_stored_row(&mut m, 0, |row| row.xor_assign(&b).unwrap());
            assert_eq!(m.row(0).to_hypervector(), a.xor(&b).unwrap());
            write_stored_row(&mut m, 0, |row| row.xor_assign(&b).unwrap());
            assert_eq!(m.row(0).to_hypervector(), a);
        }
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut m = HvMatrix::zeros(2, 128).unwrap();
        let wrong = BinaryHypervector::zeros(64).unwrap();
        let (visited, rejected) = (AtomicUsize::new(0), AtomicUsize::new(0));
        m.fill_stored_rows(|_, row| {
            visited.fetch_add(1, Ordering::Relaxed);
            for result in [row.copy_from(&wrong), row.xor_assign(&wrong)] {
                if result.is_err() {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(visited.into_inner(), 2, "one call per stored row");
        assert_eq!(rejected.into_inner(), 4);
        assert!(m.as_words().iter().all(|&w| w == 0));
        assert!(m.row(0).hamming(wrong.as_row()).is_err());
        let other = HvMatrix::zeros(1, 64).unwrap();
        assert!(m.row(0).hamming(other.row(0)).is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_view_panics() {
        let m = HvMatrix::zeros(2, 64).unwrap();
        let _ = m.row(2);
    }

    #[test]
    fn clear_and_copy_between_rows() {
        let mut r = rng();
        let a = BinaryHypervector::random(130, &mut r);
        let mut m = HvMatrix::zeros(2, 130).unwrap();
        write_stored_row(&mut m, 0, |row| row.copy_from(&a).unwrap());
        let row0 = m.row(0).to_hypervector();
        write_stored_row(&mut m, 1, |row| row.copy_from(&row0).unwrap());
        assert_eq!(m.row(1).to_hypervector(), a);
        write_stored_row(&mut m, 0, |row| row.clear());
        assert_eq!(m.row(0).count_ones(), 0);
        // Clearing row 0 must not touch row 1.
        assert_eq!(m.row(1).to_hypervector(), a);
    }

    #[test]
    fn fill_stored_rows_writes_every_stored_row_in_parallel() {
        let mut r = rng();
        let codebook: Vec<BinaryHypervector> = (0..7)
            .map(|_| BinaryHypervector::random(200, &mut r))
            .collect();
        let mut m = HvMatrix::zeros(100, 200).unwrap();
        m.fill_stored_rows(|i, row| {
            row.copy_from(&codebook[i % 7]).unwrap();
            row.xor_assign(&codebook[(i + 1) % 7]).unwrap();
        });
        for i in 0..100 {
            let expected = codebook[i % 7].xor(&codebook[(i + 1) % 7]).unwrap();
            assert_eq!(m.row(i).to_hypervector(), expected, "row {i}");
        }
    }

    #[test]
    fn shared_rows_read_their_stored_row_and_compare_row_by_row() {
        let mut r = rng();
        let stored: Vec<BinaryHypervector> = (0..3)
            .map(|_| BinaryHypervector::random(130, &mut r))
            .collect();
        let index = vec![0, 1, 0, 2, 1, 0];
        let shared = HvMatrix::from_shared(&stored, index.clone()).unwrap();
        assert_eq!((shared.rows(), shared.stored_rows()), (6, 3));
        assert_eq!(shared.stored_index(), index.as_slice());
        let expanded: Vec<BinaryHypervector> =
            index.iter().map(|&s| stored[s as usize].clone()).collect();
        assert_eq!(shared.to_vectors(), expanded);
        let unshared = HvMatrix::from_vectors(&expanded).unwrap();
        assert_eq!(unshared.stored_index(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(unshared.stored_rows(), 6);
        assert_eq!(shared, unshared);
        let mut other = unshared.clone();
        write_stored_row(&mut other, 5, |row| row.clear());
        assert_ne!(shared, other);
    }

    #[test]
    fn an_index_entry_past_the_stored_rows_is_refused() {
        let mut r = rng();
        let stored: Vec<BinaryHypervector> = (0..2)
            .map(|_| BinaryHypervector::random(70, &mut r))
            .collect();
        assert!(HvMatrix::from_shared(&stored, vec![0, 2, 1]).is_err());
        // Any order of use is accepted, and a stored row nobody reads too.
        let reordered = HvMatrix::from_shared(&stored, vec![1, 0]).unwrap();
        assert_eq!(
            reordered.to_vectors(),
            vec![stored[1].clone(), stored[0].clone()]
        );
        assert_eq!(
            HvMatrix::from_shared(&stored, vec![0, 0])
                .unwrap()
                .stored_rows(),
            2
        );

        let mut m = HvMatrix::zeros(0, 70).unwrap();
        m.reset_shared(4, 70).unwrap();
        m.share_rows(|index| {
            index.copy_from_slice(&[2, 1, 2, 0]);
            3
        })
        .unwrap();
        assert_eq!((m.rows(), m.stored_rows()), (4, 3));
        m.fill_stored_rows(|s, row| row.copy_from(&stored[s % 2]).unwrap());
        assert_eq!(m.row(3).to_hypervector(), stored[0]);
        assert_eq!(m.row(1).to_hypervector(), stored[1]);
        // A count the index reads past leaves the prepared state.
        assert!(m
            .share_rows(|index| {
                index.copy_from_slice(&[0, 1, 0, 2]);
                2
            })
            .is_err());
        assert_eq!((m.rows(), m.stored_rows()), (4, 1));
        assert_eq!(m.stored_index(), [0, 0, 0, 0]);
        assert!(m.as_words().iter().all(|&w| w == 0));
    }

    #[test]
    fn shared_capacity_counts_exactly_the_stored_rows_and_the_index() {
        let mut m = HvMatrix::zeros(0, 1).unwrap();
        assert_eq!(m.capacity_bytes(), 0);
        m.reset_shared(1000, 2048).unwrap();
        assert_eq!(m.capacity_bytes(), 1000 * 4 + 32 * 8);
        assert_eq!(m.row(999).count_ones(), 0);
        m.share_rows(|index| {
            for (i, entry) in index.iter_mut().enumerate() {
                *entry = (i % 5) as u32;
            }
            5
        })
        .unwrap();
        assert_eq!(m.capacity_bytes(), 1000 * 4 + 5 * 32 * 8);
        // Smaller shapes reuse the buffers.
        m.reset_shared(10, 2048).unwrap();
        assert_eq!(m.capacity_bytes(), 1000 * 4 + 5 * 32 * 8);
        assert!(m.reset_shared(3, 0).is_err());
    }

    #[test]
    fn tail_bits_stay_clear_through_row_ops() {
        let mut r = rng();
        let a = BinaryHypervector::random(70, &mut r);
        let b = BinaryHypervector::random(70, &mut r);
        let mut m = HvMatrix::from_vectors(std::slice::from_ref(&a)).unwrap();
        write_stored_row(&mut m, 0, |row| row.xor_assign(&b).unwrap());
        // count_ones over the raw words must equal the logical popcount.
        assert_eq!(m.row(0).count_ones(), a.xor(&b).unwrap().count_ones());
        assert!(m.row(0).iter_ones().all(|i| i < 70));
    }
}
