use crate::{kernels, HdcError, HdcRng, HvRow, Result};

/// A densely packed binary hypervector.
///
/// Bits are stored 64 per `u64` word, least-significant bit first. The
/// dimension does not need to be a multiple of 64; unused bits in the last
/// word are always kept at zero so that popcount-based operations stay exact.
///
/// `BinaryHypervector` is the workhorse of the SegHDC pipeline: position and
/// colour codebooks are built by flipping contiguous bit ranges
/// ([`flip_range`](Self::flip_range)), pixel hypervectors are produced with
/// XOR binding ([`xor`](Self::xor)), and clustering uses Hamming or cosine
/// similarity.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::BinaryHypervector;
///
/// let mut hv = BinaryHypervector::zeros(128)?;
/// hv.flip_range(0, 64)?;
/// assert_eq!(hv.count_ones(), 64);
/// assert_eq!(hv.hamming(&BinaryHypervector::zeros(128)?)?, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryHypervector {
    dim: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryHypervector")
            .field("dim", &self.dim)
            .field("ones", &self.count_ones())
            .finish()
    }
}

impl BinaryHypervector {
    fn word_count(dim: usize) -> usize {
        dim.div_ceil(64)
    }

    /// Clears any bits beyond `dim` in the final word.
    fn mask_tail(&mut self) {
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Creates an all-zero hypervector of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`.
    pub fn zeros(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        Ok(Self {
            dim,
            words: vec![0; Self::word_count(dim)],
        })
    }

    /// Creates an all-one hypervector of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`.
    pub fn ones(dim: usize) -> Result<Self> {
        let mut hv = Self::zeros(dim)?;
        for w in &mut hv.words {
            *w = u64::MAX;
        }
        hv.mask_tail();
        Ok(hv)
    }

    /// Creates a random hypervector where each bit is 0 or 1 with equal
    /// probability.
    ///
    /// Random hypervectors of high dimension are pseudo-orthogonal: their
    /// normalized Hamming distance concentrates around 0.5, which is the
    /// property Lemma 1 of the SegHDC paper relies on.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`; use [`BinaryHypervector::zeros`] for the fallible
    /// checked constructor pattern.
    pub fn random(dim: usize, rng: &mut HdcRng) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        let mut hv = Self {
            dim,
            words: (0..Self::word_count(dim))
                .map(|_| rng.next_word())
                .collect(),
        };
        hv.mask_tail();
        hv
    }

    /// Builds a hypervector of dimension `dim` from packed 64-bit words
    /// (64 bits per word, least-significant bit first) — the inverse of
    /// [`as_words`](Self::as_words). Bits beyond `dim` in the final word are
    /// cleared.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0` and
    /// [`HdcError::DimensionMismatch`] if `words` does not hold exactly
    /// `dim.div_ceil(64)` words.
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        if words.len() != Self::word_count(dim) {
            return Err(HdcError::DimensionMismatch {
                left: Self::word_count(dim) * 64,
                right: words.len() * 64,
            });
        }
        let mut hv = Self { dim, words };
        hv.mask_tail();
        Ok(hv)
    }

    /// Builds a hypervector from a slice of booleans (one per bit).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Result<Self> {
        let mut hv = Self::zeros(bits.len())?;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                hv.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        Ok(hv)
    }

    /// Returns the dimension (number of bits).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the packed 64-bit words backing this hypervector.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Borrows the vector as an [`HvRow`], the operand of every bundle
    /// operation ([`Accumulator::add_row`](crate::Accumulator::add_row),
    /// [`Accumulator::dot_row`](crate::Accumulator::dot_row), …), without
    /// copying.
    pub fn as_row(&self) -> HvRow<'_> {
        HvRow::new(&self.words, self.dim)
    }

    /// Heap bytes held by the packed word buffer — the number that matters
    /// when accounting codebooks (collections of hypervectors) against a
    /// byte-capacity budget, e.g. the segmentation engine's codebook cache.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Returns the value of bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dim`.
    pub fn bit(&self, index: usize) -> Result<bool> {
        if index >= self.dim {
            return Err(HdcError::IndexOutOfBounds {
                index,
                dim: self.dim,
            });
        }
        Ok((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dim`.
    pub fn set_bit(&mut self, index: usize, value: bool) -> Result<()> {
        if index >= self.dim {
            return Err(HdcError::IndexOutOfBounds {
                index,
                dim: self.dim,
            });
        }
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
        Ok(())
    }

    /// Flips (inverts) bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `index >= dim`.
    pub fn flip_bit(&mut self, index: usize) -> Result<()> {
        if index >= self.dim {
            return Err(HdcError::IndexOutOfBounds {
                index,
                dim: self.dim,
            });
        }
        self.words[index / 64] ^= 1u64 << (index % 64);
        Ok(())
    }

    /// Flips `len` consecutive bits starting at `start`.
    ///
    /// This is the primitive used by the Manhattan-distance encoders of the
    /// SegHDC paper: flipping disjoint ranges of length `x` adds exactly `x`
    /// to the Hamming distance per step.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfBounds`] if `start + len > dim`.
    pub fn flip_range(&mut self, start: usize, len: usize) -> Result<()> {
        let end = start.checked_add(len).ok_or(HdcError::IndexOutOfBounds {
            index: usize::MAX,
            dim: self.dim,
        })?;
        if end > self.dim {
            return Err(HdcError::IndexOutOfBounds {
                index: end,
                dim: self.dim,
            });
        }
        if len == 0 {
            return Ok(());
        }
        let first_word = start / 64;
        let last_word = (end - 1) / 64;
        if first_word == last_word {
            let mask = bit_span_mask(start % 64, end - start);
            self.words[first_word] ^= mask;
            return Ok(());
        }
        // Leading partial word.
        self.words[first_word] ^= bit_span_mask(start % 64, 64 - start % 64);
        // Full middle words.
        for word in &mut self.words[first_word + 1..last_word] {
            *word ^= u64::MAX;
        }
        // Trailing partial word.
        let tail_bits = end - last_word * 64;
        self.words[last_word] ^= bit_span_mask(0, tail_bits);
        Ok(())
    }

    /// Returns the number of bits set to one.
    pub fn count_ones(&self) -> usize {
        kernels::auto().popcount(&self.words) as usize
    }

    /// Returns the Hamming distance (number of differing bits) to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn hamming(&self, other: &Self) -> Result<usize> {
        self.check_dim(other)?;
        Ok(kernels::auto().hamming(&self.words, &other.words) as usize)
    }

    /// Returns the normalized Hamming distance (`hamming / dim`) in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn normalized_hamming(&self, other: &Self) -> Result<f64> {
        Ok(self.hamming(other)? as f64 / self.dim as f64)
    }

    /// Returns the cosine similarity between the two `{0, 1}` vectors.
    ///
    /// Zero vectors have zero similarity with everything by convention.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn cosine_similarity(&self, other: &Self) -> Result<f64> {
        self.check_dim(other)?;
        let dot = kernels::auto().and_popcount(&self.words, &other.words) as usize;
        let na = self.count_ones() as f64;
        let nb = other.count_ones() as f64;
        if na == 0.0 || nb == 0.0 {
            return Ok(0.0);
        }
        Ok(dot as f64 / (na.sqrt() * nb.sqrt()))
    }

    /// Returns a new hypervector equal to the element-wise XOR of `self` and
    /// `other` (the HDC *binding* operation).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor(&self, other: &Self) -> Result<Self> {
        self.check_dim(other)?;
        let mut out = self.clone();
        out.xor_assign(other)?;
        Ok(out)
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn xor_assign(&mut self, other: &Self) -> Result<()> {
        self.check_dim(other)?;
        kernels::auto().xor_into(&mut self.words, &other.words);
        Ok(())
    }

    /// Returns a new hypervector equal to the element-wise AND.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensions differ.
    pub fn and(&self, other: &Self) -> Result<Self> {
        self.check_dim(other)?;
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Ok(Self {
            dim: self.dim,
            words,
        })
    }

    /// Returns the bitwise complement of this hypervector.
    pub fn not(&self) -> Self {
        let mut out = Self {
            dim: self.dim,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Concatenates two hypervectors into one of dimension
    /// `self.dim() + other.dim()`.
    ///
    /// The SegHDC colour encoder concatenates one chunk per colour channel.
    pub fn concat(&self, other: &Self) -> Self {
        let mut bits = self.to_bits();
        bits.extend(other.to_bits());
        Self::from_bits(&bits).expect("concatenation of non-empty vectors is non-empty")
    }

    /// Expands this hypervector into a `Vec<bool>` with one entry per bit.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.dim)
            .map(|i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    /// Iterates over the indices of the bits that are set to one.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        kernels::iter_set_bits(&self.words)
    }

    fn check_dim(&self, other: &Self) -> Result<()> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        Ok(())
    }
}

/// A mask with `len` consecutive one bits starting at bit `start` (all within
/// one 64-bit word).
fn bit_span_mask(start: usize, len: usize) -> u64 {
    debug_assert!(start + len <= 64);
    if len == 0 {
        return 0;
    }
    if len == 64 {
        return u64::MAX;
    }
    ((1u64 << len) - 1) << start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HdcRng {
        HdcRng::seed_from(0xC0FFEE)
    }

    #[test]
    fn zeros_and_ones_have_expected_popcount() {
        let z = BinaryHypervector::zeros(1000).unwrap();
        assert_eq!(z.count_ones(), 0);
        let o = BinaryHypervector::ones(1000).unwrap();
        assert_eq!(o.count_ones(), 1000);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert_eq!(
            BinaryHypervector::zeros(0).unwrap_err(),
            HdcError::ZeroDimension
        );
        assert_eq!(
            BinaryHypervector::ones(0).unwrap_err(),
            HdcError::ZeroDimension
        );
        assert_eq!(
            BinaryHypervector::from_bits(&[]).unwrap_err(),
            HdcError::ZeroDimension
        );
    }

    #[test]
    fn tail_bits_stay_clear_for_non_multiple_of_64_dims() {
        let o = BinaryHypervector::ones(70).unwrap();
        assert_eq!(o.count_ones(), 70);
        let mut r = BinaryHypervector::random(70, &mut rng());
        r.flip_range(0, 70).unwrap();
        assert!(r.count_ones() <= 70);
        let n = r.not();
        assert_eq!(n.count_ones() + r.count_ones(), 70);
    }

    #[test]
    fn bit_get_set_flip_roundtrip() {
        let mut hv = BinaryHypervector::zeros(130).unwrap();
        hv.set_bit(129, true).unwrap();
        assert!(hv.bit(129).unwrap());
        hv.flip_bit(129).unwrap();
        assert!(!hv.bit(129).unwrap());
        assert_eq!(hv.count_ones(), 0);
    }

    #[test]
    fn out_of_bounds_accesses_error() {
        let mut hv = BinaryHypervector::zeros(10).unwrap();
        assert!(matches!(
            hv.bit(10),
            Err(HdcError::IndexOutOfBounds { index: 10, dim: 10 })
        ));
        assert!(hv.set_bit(11, true).is_err());
        assert!(hv.flip_bit(10).is_err());
        assert!(hv.flip_range(5, 6).is_err());
    }

    #[test]
    fn flip_range_adds_exact_hamming_distance() {
        let base = BinaryHypervector::random(10_000, &mut rng());
        for (start, len) in [
            (0usize, 37usize),
            (63, 2),
            (64, 64),
            (100, 431),
            (9_000, 1_000),
        ] {
            let mut flipped = base.clone();
            flipped.flip_range(start, len).unwrap();
            assert_eq!(
                base.hamming(&flipped).unwrap(),
                len,
                "start={start} len={len}"
            );
        }
    }

    #[test]
    fn flip_range_twice_is_identity() {
        let base = BinaryHypervector::random(777, &mut rng());
        let mut hv = base.clone();
        hv.flip_range(13, 200).unwrap();
        hv.flip_range(13, 200).unwrap();
        assert_eq!(hv, base);
    }

    #[test]
    fn flip_range_of_zero_length_is_noop() {
        let base = BinaryHypervector::random(100, &mut rng());
        let mut hv = base.clone();
        hv.flip_range(50, 0).unwrap();
        assert_eq!(hv, base);
    }

    #[test]
    fn xor_binding_is_involutive_and_distance_preserving() {
        let mut r = rng();
        let a = BinaryHypervector::random(2048, &mut r);
        let b = BinaryHypervector::random(2048, &mut r);
        let c = BinaryHypervector::random(2048, &mut r);
        let ab = a.xor(&b).unwrap();
        assert_eq!(ab.xor(&b).unwrap(), a);
        // Binding with the same vector preserves pairwise distances.
        let d_before = a.hamming(&c).unwrap();
        let d_after = a.xor(&b).unwrap().hamming(&c.xor(&b).unwrap()).unwrap();
        assert_eq!(d_before, d_after);
    }

    #[test]
    fn random_vectors_are_pseudo_orthogonal() {
        let mut r = rng();
        let a = BinaryHypervector::random(10_000, &mut r);
        let b = BinaryHypervector::random(10_000, &mut r);
        let nh = a.normalized_hamming(&b).unwrap();
        assert!((nh - 0.5).abs() < 0.05, "normalized hamming {nh}");
        let ones = a.count_ones() as f64 / 10_000.0;
        assert!((ones - 0.5).abs() < 0.05);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = BinaryHypervector::zeros(64).unwrap();
        let b = BinaryHypervector::zeros(65).unwrap();
        assert!(matches!(
            a.hamming(&b),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
        assert!(a.xor(&b).is_err());
        assert!(a.and(&b).is_err());
        assert!(a.cosine_similarity(&b).is_err());
    }

    #[test]
    fn cosine_similarity_of_identical_vectors_is_one() {
        let a = BinaryHypervector::random(4096, &mut rng());
        let sim = a.cosine_similarity(&a).unwrap();
        assert!((sim - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_similarity_with_zero_vector_is_zero() {
        let a = BinaryHypervector::random(512, &mut rng());
        let z = BinaryHypervector::zeros(512).unwrap();
        assert_eq!(a.cosine_similarity(&z).unwrap(), 0.0);
        assert_eq!(z.cosine_similarity(&z).unwrap(), 0.0);
    }

    #[test]
    fn concat_preserves_both_halves() {
        let mut r = rng();
        let a = BinaryHypervector::random(100, &mut r);
        let b = BinaryHypervector::random(60, &mut r);
        let c = a.concat(&b);
        assert_eq!(c.dim(), 160);
        for i in 0..100 {
            assert_eq!(c.bit(i).unwrap(), a.bit(i).unwrap());
        }
        for i in 0..60 {
            assert_eq!(c.bit(100 + i).unwrap(), b.bit(i).unwrap());
        }
    }

    #[test]
    fn iter_ones_matches_to_bits() {
        let hv = BinaryHypervector::random(300, &mut rng());
        let from_iter: Vec<usize> = hv.iter_ones().collect();
        let from_bits: Vec<usize> = hv
            .to_bits()
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert_eq!(from_iter, from_bits);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits: Vec<bool> = (0..131).map(|i| i % 3 == 0).collect();
        let hv = BinaryHypervector::from_bits(&bits).unwrap();
        assert_eq!(hv.to_bits(), bits);
    }

    #[test]
    fn debug_output_is_nonempty_and_compact() {
        let hv = BinaryHypervector::zeros(64).unwrap();
        let s = format!("{hv:?}");
        assert!(s.contains("dim"));
        assert!(s.contains("64"));
    }
}
