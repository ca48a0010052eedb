use crate::keys::vector_ids;
use crate::{PositionEncoding, Result, SegHdcError};
use hdc::{BinaryHypervector, HdcRng, ItemMemory, LevelMemory};

/// Encodes pixel coordinates into hypervectors following the paper's
/// Manhattan-distance construction (§III-1).
///
/// A position hypervector is the XOR of a *row* hypervector and a *column*
/// hypervector. Depending on the [`PositionEncoding`] variant the row/column
/// codebooks are built so that
/// `hamming(p(i, j), p(i + m, j + n))` is proportional to the (block,
/// decayed) Manhattan distance `m + n` — or, for the `Uniform` and `Random`
/// variants, deliberately *not*, reproducing the ablations of Fig. 3 and
/// Table I.
///
/// The Manhattan variants flip `⌊α · d / (2 · n)⌋` bits per step along an
/// axis of `n` pixels (Eq. 5). Once an axis is longer than `α · d / 2`
/// pixels that unit floors to 0: every level of the axis is the same
/// vector, and positions along it stop contributing to the pixel codes.
/// At α = 0.2 and d = 2048 that is any axis over 204 pixels, such as a
/// 512-pixel scan.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), seghdc::SegHdcError> {
/// use hdc::HdcRng;
/// use seghdc::{PositionEncoder, PositionEncoding};
///
/// let mut rng = HdcRng::seed_from(7);
/// let encoder = PositionEncoder::new(
///     PositionEncoding::Manhattan,
///     4096,
///     16,
///     16,
///     1.0,
///     1,
///     &mut rng,
/// )?;
/// let origin = encoder.encode(0, 0)?;
/// let near = encoder.encode(0, 1)?;
/// let far = encoder.encode(0, 8)?;
/// assert!(origin.hamming(&near)? < origin.hamming(&far)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PositionEncoder {
    dimension: usize,
    encoding: PositionEncoding,
    rows: Vec<BinaryHypervector>,
    cols: Vec<BinaryHypervector>,
    row_flip_unit: usize,
    col_flip_unit: usize,
    /// Per row, an id shared by exactly the rows with bit-identical
    /// vectors (see [`crate::keys`]).
    row_ids: Vec<usize>,
    /// Per column, the same for columns.
    col_ids: Vec<usize>,
}

impl PositionEncoder {
    /// Builds the row/column codebooks for a `rows x cols` pixel grid.
    ///
    /// `alpha` is the decay factor of Eq. 5 and `beta` the block size of
    /// Eq. 6; they are ignored by the variants that do not use them.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the grid is empty, or an
    /// [`SegHdcError::Hdc`] error if the codebook construction fails.
    pub fn new(
        encoding: PositionEncoding,
        dimension: usize,
        rows: usize,
        cols: usize,
        alpha: f64,
        beta: usize,
        rng: &mut HdcRng,
    ) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "position grid must have at least one row and one column".to_string(),
            });
        }
        if beta == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "beta (block size) must be at least 1".to_string(),
            });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(SegHdcError::InvalidConfig {
                message: format!("alpha must be in (0, 1], got {alpha}"),
            });
        }

        let half = dimension / 2;
        let (row_hvs, col_hvs, row_unit, col_unit) = match encoding {
            PositionEncoding::Random => {
                let row_memory = ItemMemory::new(rows, dimension, rng)?;
                let col_memory = ItemMemory::new(cols, dimension, rng)?;
                (
                    row_memory.items().to_vec(),
                    col_memory.items().to_vec(),
                    0,
                    0,
                )
            }
            PositionEncoding::Uniform => {
                // Both row and column flips progress over the *same* bit
                // range starting at 0, which is exactly what makes diagonal
                // distances collapse in Fig. 3(a).
                let row_unit = if rows > 1 { dimension / rows } else { 0 };
                let col_unit = if cols > 1 { dimension / cols } else { 0 };
                let row_levels =
                    LevelMemory::with_span(rows, dimension, row_unit, 0, dimension, rng)?;
                let col_levels =
                    LevelMemory::with_span(cols, dimension, col_unit, 0, dimension, rng)?;
                (
                    row_levels.levels().to_vec(),
                    col_levels.levels().to_vec(),
                    row_unit,
                    col_unit,
                )
            }
            PositionEncoding::Manhattan
            | PositionEncoding::DecayManhattan
            | PositionEncoding::BlockDecayManhattan => {
                let effective_alpha = match encoding {
                    PositionEncoding::Manhattan => 1.0,
                    _ => alpha,
                };
                let block = match encoding {
                    PositionEncoding::BlockDecayManhattan => beta,
                    _ => 1,
                };
                let row_unit = flip_unit(effective_alpha, dimension, rows);
                let col_unit = flip_unit(effective_alpha, dimension, cols);
                let row_level_count = rows.div_ceil(block);
                let col_level_count = cols.div_ceil(block);
                let row_levels =
                    LevelMemory::with_span(row_level_count, dimension, row_unit, 0, half, rng)?;
                let col_levels = LevelMemory::with_span(
                    col_level_count,
                    dimension,
                    col_unit,
                    half,
                    dimension - half,
                    rng,
                )?;
                let row_hvs = (0..rows)
                    .map(|i| row_levels.level(i / block).clone())
                    .collect();
                let col_hvs = (0..cols)
                    .map(|j| col_levels.level(j / block).clone())
                    .collect();
                (row_hvs, col_hvs, row_unit, col_unit)
            }
        };

        Ok(Self::assemble(
            encoding, dimension, row_hvs, col_hvs, row_unit, col_unit,
        ))
    }

    /// Reassembles an encoder from previously built codebooks — the
    /// snapshot-restore path. Callers (the [`crate::snapshot`] reader) are
    /// trusted to pass codebooks that [`Self::new`] produced for the same
    /// parameters; only the structural invariants the encode paths rely on
    /// are re-checked.
    pub(crate) fn from_parts(
        encoding: PositionEncoding,
        dimension: usize,
        rows: Vec<BinaryHypervector>,
        cols: Vec<BinaryHypervector>,
        row_flip_unit: usize,
        col_flip_unit: usize,
    ) -> Result<Self> {
        if rows.is_empty() || cols.is_empty() {
            return Err(SegHdcError::InvalidConfig {
                message: "position grid must have at least one row and one column".to_string(),
            });
        }
        if let Some(bad) = rows
            .iter()
            .chain(cols.iter())
            .find(|hv| hv.dim() != dimension)
        {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "position codebook hypervector has dimension {}, expected {dimension}",
                    bad.dim()
                ),
            });
        }
        Ok(Self::assemble(
            encoding,
            dimension,
            rows,
            cols,
            row_flip_unit,
            col_flip_unit,
        ))
    }

    /// The encoder over checked codebooks, with their vector ids.
    fn assemble(
        encoding: PositionEncoding,
        dimension: usize,
        rows: Vec<BinaryHypervector>,
        cols: Vec<BinaryHypervector>,
        row_flip_unit: usize,
        col_flip_unit: usize,
    ) -> Self {
        Self {
            dimension,
            encoding,
            row_ids: vector_ids(&rows),
            col_ids: vector_ids(&cols),
            rows,
            cols,
            row_flip_unit,
            col_flip_unit,
        }
    }

    /// The row codebook, in row order (for persistence).
    pub(crate) fn row_hvs(&self) -> &[BinaryHypervector] {
        &self.rows
    }

    /// The column codebook, in column order (for persistence).
    pub(crate) fn col_hvs(&self) -> &[BinaryHypervector] {
        &self.cols
    }

    /// Per row, an id two rows share exactly when their vectors are
    /// bit-identical, numbered in order of first appearance.
    pub(crate) fn row_ids(&self) -> &[usize] {
        &self.row_ids
    }

    /// Per column, an id two columns share exactly when their vectors are
    /// bit-identical, numbered in order of first appearance.
    pub(crate) fn col_ids(&self) -> &[usize] {
        &self.col_ids
    }

    /// The hypervector dimensionality.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The encoding variant this encoder was built with.
    pub fn encoding(&self) -> PositionEncoding {
        self.encoding
    }

    /// Number of encodable rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of encodable columns.
    pub fn cols(&self) -> usize {
        self.cols.len()
    }

    /// Heap bytes held by the row and column codebooks and their vector
    /// ids — the cost of keeping this encoder resident in the engine's
    /// codebook cache.
    pub fn codebook_bytes(&self) -> usize {
        let ids =
            (self.row_ids.capacity() + self.col_ids.capacity()) * std::mem::size_of::<usize>();
        self.rows
            .iter()
            .chain(self.cols.iter())
            .map(hdc::BinaryHypervector::heap_bytes)
            .sum::<usize>()
            + ids
    }

    /// Number of bits flipped per row step (0 for the `Random` variant).
    pub fn row_flip_unit(&self) -> usize {
        self.row_flip_unit
    }

    /// Number of bits flipped per column step (0 for the `Random` variant).
    pub fn col_flip_unit(&self) -> usize {
        self.col_flip_unit
    }

    /// The codebook hypervector of row `row`.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if `row` is out of range.
    pub fn row_hv(&self, row: usize) -> Result<&BinaryHypervector> {
        self.rows
            .get(row)
            .ok_or_else(|| SegHdcError::InvalidConfig {
                message: format!("row {row} out of range for {} rows", self.rows.len()),
            })
    }

    /// The codebook hypervector of column `col`.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if `col` is out of range.
    pub fn col_hv(&self, col: usize) -> Result<&BinaryHypervector> {
        self.cols
            .get(col)
            .ok_or_else(|| SegHdcError::InvalidConfig {
                message: format!("column {col} out of range for {} columns", self.cols.len()),
            })
    }

    /// Encodes the position at `(row, col)` as `row_hv XOR col_hv`.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the coordinate is out of
    /// range.
    pub fn encode(&self, row: usize, col: usize) -> Result<BinaryHypervector> {
        Ok(self.row_hv(row)?.xor(self.col_hv(col)?)?)
    }

    /// Hamming distances from `p(0, 0)` to `p(i, j)` for `i, j < size` —
    /// the grids visualised in Fig. 3 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if `size` exceeds the grid.
    pub fn distance_grid(&self, size: usize) -> Result<Vec<Vec<usize>>> {
        if size > self.rows() || size > self.cols() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "distance grid of size {size} exceeds the {}x{} position grid",
                    self.rows(),
                    self.cols()
                ),
            });
        }
        let origin = self.encode(0, 0)?;
        let mut grid = vec![vec![0usize; size]; size];
        for (i, grid_row) in grid.iter_mut().enumerate() {
            for (j, cell) in grid_row.iter_mut().enumerate() {
                *cell = origin.hamming(&self.encode(i, j)?)?;
            }
        }
        Ok(grid)
    }
}

/// Flip unit of Eq. 5: `⌊α · d / (2 · n)⌋`.
fn flip_unit(alpha: f64, dimension: usize, steps: usize) -> usize {
    if steps <= 1 {
        return 0;
    }
    ((alpha * dimension as f64) / (2.0 * steps as f64)).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HdcRng {
        HdcRng::seed_from(42)
    }

    fn encoder(encoding: PositionEncoding, alpha: f64, beta: usize) -> PositionEncoder {
        PositionEncoder::new(encoding, 10_000, 16, 16, alpha, beta, &mut rng()).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(
            PositionEncoder::new(PositionEncoding::Manhattan, 1024, 0, 4, 0.5, 1, &mut rng())
                .is_err()
        );
        assert!(
            PositionEncoder::new(PositionEncoding::Manhattan, 1024, 4, 4, 0.0, 1, &mut rng())
                .is_err()
        );
        assert!(
            PositionEncoder::new(PositionEncoding::Manhattan, 1024, 4, 4, 0.5, 0, &mut rng())
                .is_err()
        );
    }

    #[test]
    fn manhattan_encoding_satisfies_equation_four() {
        // d1(p(i,j), p(i+m0, j+n0)) == d1(p(i,j), p(i+m1, j+n1)) iff m0+n0 == m1+n1.
        let enc = encoder(PositionEncoding::Manhattan, 1.0, 1);
        let x_row = enc.row_flip_unit();
        let x_col = enc.col_flip_unit();
        assert!(x_row > 0 && x_col > 0);
        let base = enc.encode(2, 3).unwrap();
        for (m, n) in [(0usize, 3usize), (1, 2), (2, 1), (3, 0)] {
            let other = enc.encode(2 + m, 3 + n).unwrap();
            assert_eq!(
                base.hamming(&other).unwrap(),
                m * x_row + n * x_col,
                "offset ({m},{n})"
            );
        }
    }

    #[test]
    fn manhattan_diagonal_distances_do_not_collapse() {
        let enc = encoder(PositionEncoding::Manhattan, 1.0, 1);
        let d = enc
            .encode(0, 0)
            .unwrap()
            .hamming(&enc.encode(1, 1).unwrap())
            .unwrap();
        assert_eq!(d, enc.row_flip_unit() + enc.col_flip_unit());
        assert!(d > 0);
    }

    #[test]
    fn uniform_encoding_collapses_diagonal_distances() {
        // Fig. 3(a): with shared flip sites and equal flip units the distance
        // between p(0,0) and p(i,i) is |i*x - i*x| = 0.
        let enc = encoder(PositionEncoding::Uniform, 1.0, 1);
        let origin = enc.encode(0, 0).unwrap();
        let diag = enc.encode(3, 3).unwrap();
        assert_eq!(origin.hamming(&diag).unwrap(), 0);
    }

    #[test]
    fn decay_alpha_shrinks_the_flip_unit() {
        let full = encoder(PositionEncoding::DecayManhattan, 1.0, 1);
        let half = encoder(PositionEncoding::DecayManhattan, 0.5, 1);
        assert_eq!(half.row_flip_unit() * 2, full.row_flip_unit());
        // Distances shrink proportionally.
        let d_full = full
            .encode(0, 0)
            .unwrap()
            .hamming(&full.encode(4, 0).unwrap())
            .unwrap();
        let d_half = half
            .encode(0, 0)
            .unwrap()
            .hamming(&half.encode(4, 0).unwrap())
            .unwrap();
        assert_eq!(d_half * 2, d_full);
    }

    #[test]
    fn block_decay_groups_beta_rows_per_block() {
        let enc = encoder(PositionEncoding::BlockDecayManhattan, 0.5, 2);
        // Rows inside the same block share a hypervector.
        assert_eq!(enc.encode(0, 0).unwrap(), enc.encode(1, 0).unwrap());
        assert_eq!(enc.encode(4, 5).unwrap(), enc.encode(5, 4).unwrap());
        // Across blocks the distance is one flip unit per block step.
        let d = enc
            .encode(0, 0)
            .unwrap()
            .hamming(&enc.encode(2, 0).unwrap())
            .unwrap();
        assert_eq!(d, enc.row_flip_unit());
        let far = enc
            .encode(0, 0)
            .unwrap()
            .hamming(&enc.encode(6, 0).unwrap())
            .unwrap();
        assert_eq!(far, 3 * enc.row_flip_unit());
    }

    #[test]
    fn random_positions_are_pseudo_orthogonal() {
        let enc = encoder(PositionEncoding::Random, 0.2, 26);
        let a = enc.encode(0, 0).unwrap();
        let b = enc.encode(0, 1).unwrap();
        let c = enc.encode(15, 15).unwrap();
        for other in [&b, &c] {
            let nh = a.normalized_hamming(other).unwrap();
            assert!((nh - 0.5).abs() < 0.05, "nh {nh}");
        }
    }

    #[test]
    fn row_and_column_hvs_are_pseudo_orthogonal_to_each_other() {
        // Lemma 1 of the paper: vectors that are XOR-ed together are
        // pseudo-orthogonal.
        let enc = encoder(PositionEncoding::BlockDecayManhattan, 0.2, 2);
        let nh = enc
            .row_hv(3)
            .unwrap()
            .normalized_hamming(enc.col_hv(7).unwrap())
            .unwrap();
        assert!((nh - 0.5).abs() < 0.05, "nh {nh}");
    }

    #[test]
    fn distance_grid_matches_pairwise_encoding() {
        let enc = encoder(PositionEncoding::Manhattan, 1.0, 1);
        let grid = enc.distance_grid(5).unwrap();
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0][0], 0);
        assert_eq!(
            grid[2][3],
            2 * enc.row_flip_unit() + 3 * enc.col_flip_unit()
        );
        assert!(enc.distance_grid(99).is_err());
    }

    #[test]
    fn out_of_range_coordinates_error() {
        let enc = encoder(PositionEncoding::Manhattan, 1.0, 1);
        assert!(enc.encode(16, 0).is_err());
        assert!(enc.encode(0, 16).is_err());
        assert!(enc.row_hv(99).is_err());
        assert!(enc.col_hv(99).is_err());
    }

    #[test]
    fn rectangular_grids_use_per_axis_flip_units() {
        let enc =
            PositionEncoder::new(PositionEncoding::Manhattan, 8192, 8, 32, 1.0, 1, &mut rng())
                .unwrap();
        assert_eq!(enc.rows(), 8);
        assert_eq!(enc.cols(), 32);
        assert_eq!(enc.row_flip_unit(), 8192 / (2 * 8));
        assert_eq!(enc.col_flip_unit(), 8192 / (2 * 32));
    }
}
