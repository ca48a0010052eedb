use crate::{BinaryHypervector, HdcError, HdcRng, Result};

/// A codebook of independent random hypervectors ("item memory").
///
/// Each entry is generated independently, so all entries are pseudo-orthogonal
/// to each other. This is the structure used by the paper's **RPos** and
/// **RColor** ablations, where position or colour values are mapped to
/// unrelated random hypervectors instead of Manhattan-distance-preserving
/// ones.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::{HdcRng, ItemMemory};
/// let mut rng = HdcRng::seed_from(9);
/// let memory = ItemMemory::new(16, 2048, &mut rng)?;
/// let a = memory.item(0).ok_or(hdc::HdcError::EmptyInput)?;
/// let b = memory.item(1).ok_or(hdc::HdcError::EmptyInput)?;
/// assert!((a.normalized_hamming(b)? - 0.5).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ItemMemory {
    items: Vec<BinaryHypervector>,
    dim: usize,
}

impl ItemMemory {
    /// Generates `count` independent random hypervectors of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0` and
    /// [`HdcError::InvalidParameter`] if `count == 0`.
    pub fn new(count: usize, dim: usize, rng: &mut HdcRng) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        if count == 0 {
            return Err(HdcError::InvalidParameter {
                message: "item memory must contain at least one item".to_string(),
            });
        }
        let items = (0..count)
            .map(|_| BinaryHypervector::random(dim, rng))
            .collect();
        Ok(Self { items, dim })
    }

    /// Returns the number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the memory holds no items (never the case for a
    /// successfully constructed memory).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns the hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the item at `index`, if it exists.
    pub fn item(&self, index: usize) -> Option<&BinaryHypervector> {
        self.items.get(index)
    }

    /// Returns all items as a slice.
    pub fn items(&self) -> &[BinaryHypervector] {
        &self.items
    }
}

/// A level memory: a codebook whose Hamming distances follow the numeric
/// distance between level indices (progressive flipping).
///
/// Level `0` is a random base vector; level `i` flips the next `flip_unit`
/// bits relative to level `i - 1`, within the configured span of the vector.
/// Consequently `hamming(level(a), level(b)) == |a - b| * flip_unit` as long
/// as the flips fit inside the span, which is exactly the Manhattan-distance
/// property used by the SegHDC colour encoder.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), hdc::HdcError> {
/// use hdc::{HdcRng, LevelMemory};
/// let mut rng = HdcRng::seed_from(10);
/// let levels = LevelMemory::new(8, 1024, 16, &mut rng)?;
/// let d = levels.level(1).hamming(levels.level(6))?;
/// assert_eq!(d, 5 * 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LevelMemory {
    levels: Vec<BinaryHypervector>,
    flip_unit: usize,
}

impl LevelMemory {
    /// Builds a level memory with `levels` entries of dimension `dim`,
    /// flipping `flip_unit` fresh bits per level over the whole vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`,
    /// [`HdcError::InvalidParameter`] if `levels == 0`, or
    /// [`HdcError::IndexOutOfBounds`] if `(levels - 1) * flip_unit > dim`
    /// (the flips would run off the end of the vector).
    pub fn new(levels: usize, dim: usize, flip_unit: usize, rng: &mut HdcRng) -> Result<Self> {
        Self::with_span(levels, dim, flip_unit, 0, dim, rng)
    }

    /// Builds a level memory whose progressive flips are confined to the bit
    /// range `[span_start, span_start + span_len)`.
    ///
    /// Confining flips to disjoint spans is how the SegHDC position encoder
    /// keeps row and column distances from cancelling each other (§III-1).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] if `dim == 0`,
    /// [`HdcError::InvalidParameter`] if `levels == 0` or the span lies
    /// outside the vector, or [`HdcError::IndexOutOfBounds`] if the flips do
    /// not fit inside the span.
    pub fn with_span(
        levels: usize,
        dim: usize,
        flip_unit: usize,
        span_start: usize,
        span_len: usize,
        rng: &mut HdcRng,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        if levels == 0 {
            return Err(HdcError::InvalidParameter {
                message: "level memory must contain at least one level".to_string(),
            });
        }
        if span_start + span_len > dim {
            return Err(HdcError::InvalidParameter {
                message: format!(
                    "span [{span_start}, {}) exceeds dimension {dim}",
                    span_start + span_len
                ),
            });
        }
        let required = (levels - 1) * flip_unit;
        if required > span_len {
            return Err(HdcError::IndexOutOfBounds {
                index: span_start + required,
                dim: span_start + span_len,
            });
        }
        let base = BinaryHypervector::random(dim, rng);
        let mut levels_vec = Vec::with_capacity(levels);
        let mut current = base;
        levels_vec.push(current.clone());
        for i in 1..levels {
            current.flip_range(span_start + (i - 1) * flip_unit, flip_unit)?;
            levels_vec.push(current.clone());
        }
        Ok(Self {
            levels: levels_vec,
            flip_unit,
        })
    }

    /// Returns the number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns `true` if there are no levels (never the case for a
    /// successfully constructed memory).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Returns the flip unit (bits flipped per level step).
    pub fn flip_unit(&self) -> usize {
        self.flip_unit
    }

    /// Returns the hypervector for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= len()`.
    pub fn level(&self, level: usize) -> &BinaryHypervector {
        &self.levels[level]
    }

    /// Returns the hypervector for `level`, or `None` if out of range.
    pub fn get(&self, level: usize) -> Option<&BinaryHypervector> {
        self.levels.get(level)
    }

    /// Returns all level hypervectors.
    pub fn levels(&self) -> &[BinaryHypervector] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HdcRng {
        HdcRng::seed_from(21)
    }

    #[test]
    fn item_memory_rejects_degenerate_parameters() {
        assert!(ItemMemory::new(0, 128, &mut rng()).is_err());
        assert!(ItemMemory::new(4, 0, &mut rng()).is_err());
    }

    #[test]
    fn item_memory_items_are_pseudo_orthogonal() {
        let memory = ItemMemory::new(10, 10_000, &mut rng()).unwrap();
        for i in 0..memory.len() {
            for j in (i + 1)..memory.len() {
                let nh = memory
                    .item(i)
                    .unwrap()
                    .normalized_hamming(memory.item(j).unwrap())
                    .unwrap();
                assert!((nh - 0.5).abs() < 0.05, "items {i},{j}: {nh}");
            }
        }
    }

    #[test]
    fn level_memory_distances_are_linear_in_level_gap() {
        let levels = LevelMemory::new(256, 10_000, 30, &mut rng()).unwrap();
        for (a, b) in [(0usize, 255usize), (10, 20), (100, 101), (5, 5)] {
            let d = levels.level(a).hamming(levels.level(b)).unwrap();
            assert_eq!(d, a.abs_diff(b) * 30, "levels {a},{b}");
        }
    }

    #[test]
    fn level_memory_with_span_flips_only_inside_span() {
        let levels = LevelMemory::with_span(8, 1000, 50, 500, 500, &mut rng()).unwrap();
        let base = levels.level(0);
        let last = levels.level(7);
        // Bits outside the span are untouched.
        for i in 0..500 {
            assert_eq!(base.bit(i).unwrap(), last.bit(i).unwrap());
        }
        assert_eq!(base.hamming(last).unwrap(), 7 * 50);
    }

    #[test]
    fn level_memory_rejects_flips_exceeding_span() {
        assert!(matches!(
            LevelMemory::new(256, 1000, 30, &mut rng()),
            Err(HdcError::IndexOutOfBounds { .. })
        ));
        assert!(LevelMemory::with_span(10, 100, 5, 80, 40, &mut rng()).is_err());
        assert!(LevelMemory::new(0, 100, 5, &mut rng()).is_err());
    }

    #[test]
    fn level_memory_zero_flip_unit_gives_identical_levels() {
        let levels = LevelMemory::new(16, 512, 0, &mut rng()).unwrap();
        for i in 1..16 {
            assert_eq!(levels.level(0), levels.level(i));
        }
    }
}
