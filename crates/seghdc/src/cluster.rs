use crate::{Result, SegHdcError};
use hdc::kernels::{self, Kernels};
use hdc::{Accumulator, BinaryHypervector, BitSlicedGroup, HvMatrix, IntervalGroup, RowToggles};
use rayon::prelude::*;
use std::ops::Range;

/// Rows per parallel assignment work unit: large enough to amortise the
/// per-block scratch, small enough to keep every worker busy on small
/// tiles.
const ASSIGN_BLOCK_ROWS: usize = 256;

/// Cache budget for one run of stacked centroid planes during assignment.
/// When `K × planes × words` exceeds this, the centroid sweep is tiled into
/// runs that stay resident in L2 across a whole row block (partial dot
/// products are exact integer adds, so tiling cannot change any label).
const PLANE_CHUNK_BYTES: usize = 192 * 1024;

/// Most toggle points a stored row may have against stored row 0 for the
/// passes to run in closed form ([`IntervalGroup`]). Level codes give at
/// most `2 · (2 + channels)` = 10; a Random codebook gives about `d / 2`,
/// and its first row past this bound sends the run down the bit-sliced
/// path.
const MAX_ROW_TOGGLES: usize = 16;

/// Cosine assignment for one block of stored rows (`pixels` stored row
/// `rows.start + i` labelled into `out[i]`): accumulate every centroid dot
/// product through the fused multi-centroid kernel (one cache-blocked run
/// of centroid planes at a time), then pick each row's argmin with one
/// popcount per row — where the per-centroid path popcounted each row once
/// per centroid.
fn assign_block_cosine(
    pixels: &HvMatrix,
    rows: Range<usize>,
    out: &mut [u32],
    group: &BitSlicedGroup,
    chunk_ranges: &[Range<usize>],
    kernels: &dyn Kernels,
) {
    let clusters = group.len();
    let mut dots = vec![0u64; out.len() * clusters];
    for range in chunk_ranges {
        for (row, row_dots) in rows.clone().zip(dots.chunks_mut(clusters)) {
            group.dot_row_range_with(
                range.clone(),
                pixels.stored_row(row),
                &mut row_dots[range.clone()],
                kernels,
            );
        }
    }
    for ((label, row_dots), row) in out.iter_mut().zip(dots.chunks(clusters)).zip(rows) {
        let ones = kernels.popcount(pixels.stored_row(row).as_words()) as usize;
        let row_norm = (ones as f64).sqrt();
        *label = nearest(row_dots, |k, dot| {
            group.cosine_distance_with_row_norm(k, dot, row_norm)
        });
    }
}

/// The cluster whose centroid is nearest a row, given the row's exact dot
/// with every centroid and the cosine distance each dot makes: the
/// smallest distance, the lowest index winning ties. Both assignment paths
/// pick through this one rule, so their labels agree byte for byte.
fn nearest(dots: &[u64], distance: impl Fn(usize, u64) -> f64) -> u32 {
    let mut best = 0usize;
    let mut best_distance = f64::INFINITY;
    for (k, &dot) in dots.iter().enumerate() {
        let candidate = distance(k, dot);
        if candidate < best_distance {
            best_distance = candidate;
            best = k;
        }
    }
    best as u32
}

/// One label per row of `pixels` from one per stored row.
fn expand(pixels: &HvMatrix, labels: &[u32]) -> Vec<u32> {
    pixels
        .stored_index()
        .iter()
        .map(|&stored| labels[stored as usize])
        .collect()
}

/// The previous label of a row before the first assignment pass, so that
/// pass's update moves every row into its first cluster.
const UNASSIGNED: u32 = u32::MAX;

/// How many rows read each stored row.
fn copy_counts(pixels: &HvMatrix) -> Vec<usize> {
    let mut copies = vec![0usize; pixels.stored_rows()];
    for &row in pixels.stored_index() {
        copies[row as usize] += 1;
    }
    copies
}

/// What the K-Means passes measure stored rows against and bundle them
/// into: one implementation per way of computing the dots.
trait PassState {
    /// Assignment step: labels every stored row with its nearest centroid
    /// by cosine distance, the lowest cluster index winning ties.
    fn assign(&mut self, labels: &mut [u32]) -> Result<()>;

    /// Moves `copies` copies of stored row `row` out of cluster `from`'s
    /// bundle (none in the first pass) and into cluster `to`'s.
    fn move_row(&mut self, row: usize, from: Option<usize>, to: usize, copies: usize)
        -> Result<()>;

    /// Makes every non-empty bundle its cluster's centroid. Empty clusters
    /// keep their previous centroid so they can win pixels back in a later
    /// pass.
    fn refresh_centroids(&mut self);

    /// The final bundles, in cluster order.
    fn into_bundles(self) -> Vec<Accumulator>;
}

/// The general passes: bit-sliced centroids swept against every stored
/// row through the fused multi-centroid kernels.
struct BitSlicedPasses<'a> {
    pixels: &'a HvMatrix,
    kernels: &'a dyn Kernels,
    /// What the assignment step measures against: one seed row per cluster
    /// at first, afterwards each cluster's bundle.
    centroids: Vec<Accumulator>,
    /// The exact bundle of each cluster's current rows.
    bundles: Vec<Accumulator>,
    /// The stacked bit-sliced centroid group, reused (cleared, not
    /// reallocated) across passes.
    group: BitSlicedGroup,
}

impl<'a> BitSlicedPasses<'a> {
    fn new(
        pixels: &'a HvMatrix,
        seeds: &[usize],
        clusters: usize,
        kernels: &'a dyn Kernels,
    ) -> Result<Self> {
        let dim = pixels.dim();
        let mut centroids = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let mut accumulator = Accumulator::zeros(dim)?;
            accumulator.add_row_with(pixels.stored_row(seed), kernels)?;
            centroids.push(accumulator);
        }
        let bundles = (0..clusters)
            .map(|_| Accumulator::zeros(dim))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Self {
            pixels,
            kernels,
            centroids,
            bundles,
            group: BitSlicedGroup::new(),
        })
    }
}

impl PassState for BitSlicedPasses<'_> {
    fn assign(&mut self, labels: &mut [u32]) -> Result<()> {
        // Per-pass precomputation: the contiguous bit-sliced plane stack
        // plus cached norms (what the fused multi-centroid dot kernel
        // consumes), which yield distances bit-identical to the
        // per-vector path.
        self.group.rebuild(&self.centroids, self.kernels)?;
        let chunk_ranges = self.group.cache_ranges(PLANE_CHUNK_BYTES);
        let (pixels, group, kernels) = (self.pixels, &self.group, self.kernels);
        // Parallel over blocks of stored rows; each block sweeps the fused
        // multi-centroid kernels one cache-sized centroid run at a time.
        labels
            .par_chunks_mut(ASSIGN_BLOCK_ROWS)
            .enumerate()
            .for_each(|(block, out)| {
                let start = block * ASSIGN_BLOCK_ROWS;
                let rows = start..start + out.len();
                assign_block_cosine(pixels, rows, out, group, &chunk_ranges, kernels);
            });
        Ok(())
    }

    fn move_row(
        &mut self,
        row: usize,
        from: Option<usize>,
        to: usize,
        copies: usize,
    ) -> Result<()> {
        let stored = self.pixels.stored_row(row);
        if let Some(from) = from {
            self.bundles[from].remove_row(stored, copies)?;
        }
        self.bundles[to].add_row_weighted_with(stored, copies, self.kernels)?;
        Ok(())
    }

    fn refresh_centroids(&mut self) {
        for (centroid, bundle) in self.centroids.iter_mut().zip(&self.bundles) {
            if bundle.items() > 0 {
                centroid.clone_from(bundle);
            }
        }
    }

    fn into_bundles(self) -> Vec<Accumulator> {
        self.bundles
    }
}

/// The closed-form passes over level-coded rows: every stored row given by
/// its few toggle points against stored row 0, and every dot a handful of
/// prefix-sum lookups ([`IntervalGroup`]).
struct IntervalPasses {
    toggles: RowToggles,
    /// Each stored row's Euclidean norm, `sqrt(popcount)`.
    row_norms: Vec<f64>,
    group: IntervalGroup,
}

impl IntervalPasses {
    fn new(pixels: &HvMatrix, toggles: RowToggles, seeds: &[usize], kernels: &dyn Kernels) -> Self {
        let row_norms = (0..pixels.stored_rows())
            .map(|row| (kernels.popcount(pixels.stored_row(row).as_words()) as f64).sqrt())
            .collect();
        // Each centroid starts as its seed row: bundle the seeds, take
        // them as centroids, and empty the bundles again.
        let mut group = IntervalGroup::new(pixels.stored_row(0), seeds.len());
        for (k, &seed) in seeds.iter().enumerate() {
            group.add(k, toggles.row(seed), 1);
        }
        group.refresh_centroids();
        for (k, &seed) in seeds.iter().enumerate() {
            group
                .remove(k, toggles.row(seed), 1)
                .expect("the seed was just added");
        }
        Self {
            toggles,
            row_norms,
            group,
        }
    }
}

impl PassState for IntervalPasses {
    fn assign(&mut self, labels: &mut [u32]) -> Result<()> {
        let (toggles, row_norms, group) = (&self.toggles, &self.row_norms, &self.group);
        labels
            .par_chunks_mut(ASSIGN_BLOCK_ROWS)
            .enumerate()
            .for_each(|(block, out)| {
                let start = block * ASSIGN_BLOCK_ROWS;
                let mut dots = vec![0u64; group.len()];
                for (row, label) in (start..).zip(out.iter_mut()) {
                    group.dots(toggles.row(row), &mut dots);
                    *label = nearest(&dots, |k, dot| {
                        group.cosine_distance_with_row_norm(k, dot, row_norms[row])
                    });
                }
            });
        Ok(())
    }

    fn move_row(
        &mut self,
        row: usize,
        from: Option<usize>,
        to: usize,
        copies: usize,
    ) -> Result<()> {
        let toggles = self.toggles.row(row);
        if let Some(from) = from {
            self.group.remove(from, toggles, copies)?;
        }
        self.group.add(to, toggles, copies);
        Ok(())
    }

    fn refresh_centroids(&mut self) {
        self.group.refresh_centroids();
    }

    fn into_bundles(self) -> Vec<Accumulator> {
        (0..self.group.len())
            .map(|k| self.group.bundle(k))
            .collect()
    }
}

/// Outcome of clustering one image's pixel hypervectors.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Cluster index per pixel, in the same order as the input hypervectors.
    pub labels: Vec<u32>,
    /// Number of assignment passes executed, including the one that
    /// reproduced the previous labels and so confirmed the fixed point; at
    /// most the configured iteration count.
    pub iterations_run: usize,
    /// Per-iteration label assignments (only populated when snapshots are
    /// requested; used by the Fig. 8 reproduction). Always one per
    /// configured iteration: passes skipped after the fixed point repeat
    /// its labels, exactly as running them would have.
    pub snapshots: Vec<Vec<u32>>,
    /// Number of pixels assigned to each cluster after the final iteration.
    pub cluster_sizes: Vec<usize>,
    /// The exact bundle of each cluster's final pixels, in cluster order
    /// (empty for a cluster that ended with no pixels).
    pub bundles: Vec<Accumulator>,
}

/// The revised K-Means clusterer of §III-4.
///
/// Differences from textbook K-Means, following the paper:
///
/// * centroids are **integer bundles** (element-wise sums) of the member
///   hypervectors rather than float means;
/// * the distance is **cosine distance** (Eq. 7), which is invariant to the
///   bundle's length so the sums never need normalising;
/// * the initial centroids are the pixels with the **largest colour
///   difference** — the darkest and brightest pixels (and evenly spaced
///   intensity quantiles for more than two clusters) — instead of random
///   picks.
///
/// Two equivalent entry points are provided:
/// [`cluster_matrix`](Self::cluster_matrix) runs over an [`HvMatrix`] of
/// packed pixel rows (the pipeline's hot path), while
/// [`cluster`](Self::cluster) accepts individual [`BinaryHypervector`]s as
/// the single-vector reference path. Both produce identical labels,
/// snapshots, sizes and bundles for the same inputs; the matrix path gets
/// there with less work, clustering each stored row of a shared matrix
/// once for all the pixels that read it, stopping once the labels reach a
/// fixed point and re-bundling only the rows that changed cluster. When
/// the rows are level-coded, as every level codebook of the paper makes
/// them, its passes also run in closed form: each row is a few bit
/// intervals away from the first, and each dot a few prefix-sum lookups
/// (see [`cluster_matrix_with`](Self::cluster_matrix_with)).
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use hdc::{BinaryHypervector, HdcRng};
/// use seghdc::HvKmeans;
///
/// let mut rng = HdcRng::seed_from(2);
/// let a = BinaryHypervector::random(1024, &mut rng);
/// let b = BinaryHypervector::random(1024, &mut rng);
/// // Two tight groups around a and b.
/// let pixels = vec![a.clone(), a.clone(), b.clone(), b.clone()];
/// let intensities = vec![0, 10, 240, 250];
/// let kmeans = HvKmeans::new(2, 5, false)?;
/// let outcome = kmeans.cluster(&pixels, &intensities)?;
/// assert_eq!(outcome.labels[0], outcome.labels[1]);
/// assert_ne!(outcome.labels[0], outcome.labels[2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HvKmeans {
    clusters: usize,
    iterations: usize,
    record_snapshots: bool,
}

impl HvKmeans {
    /// Creates a clusterer.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if fewer than two clusters or
    /// zero iterations are requested.
    pub fn new(clusters: usize, iterations: usize, record_snapshots: bool) -> Result<Self> {
        if clusters < 2 {
            return Err(SegHdcError::InvalidConfig {
                message: format!("at least 2 clusters are required, got {clusters}"),
            });
        }
        if iterations == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "at least one iteration is required".to_string(),
            });
        }
        Ok(Self {
            clusters,
            iterations,
            record_snapshots,
        })
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Picks the initial centroid pixels: the darkest pixel, the brightest
    /// pixel, and — for more than two clusters — pixels at evenly spaced
    /// intensity quantiles in between ("the pixels with the largest colour
    /// difference", §III-4).
    ///
    /// A quantile is a position in the pixels ordered by (intensity,
    /// index). A 256-bin intensity histogram gives the intensity at each
    /// position and its rank among that intensity's pixels. The seed is
    /// then the pixel of that rank, found by scanning for the intensity
    /// from whichever end of the pixels is nearer in rank, so no order is
    /// sorted and the extreme seeds stop at their first match.
    fn initial_indices(&self, intensities: &[u8]) -> Vec<usize> {
        let mut histogram = [0usize; 256];
        for &intensity in intensities {
            histogram[intensity as usize] += 1;
        }
        let picks = self
            .seed_positions(intensities.len())
            .map(|mut rank| {
                let mut intensity = 0;
                while rank >= histogram[intensity] {
                    rank -= histogram[intensity];
                    intensity += 1;
                }
                let count = histogram[intensity];
                let mut pixels = intensities
                    .iter()
                    .enumerate()
                    .filter(|&(_, &value)| usize::from(value) == intensity);
                let pick = if rank < count - rank {
                    pixels.nth(rank)
                } else {
                    pixels.nth_back(count - 1 - rank)
                };
                pick.expect("the histogram counts the picked pixel").0
            })
            .collect();
        self.distinct_seeds(picks, intensities.len())
    }

    /// The positions of the seed pixels in the (intensity, index) order of
    /// `pixel_count` pixels.
    fn seed_positions(&self, pixel_count: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.clusters).map(move |k| {
            if self.clusters == 1 {
                0
            } else {
                k * (pixel_count - 1) / (self.clusters - 1)
            }
        })
    }

    /// Drops repeated consecutive picks, then pads with the lowest unused
    /// pixel indices up to one seed per cluster.
    fn distinct_seeds(&self, mut picks: Vec<usize>, pixel_count: usize) -> Vec<usize> {
        picks.dedup();
        // If intensity ties collapsed some picks, pad with distinct indices.
        let mut next = 0usize;
        while picks.len() < self.clusters && next < pixel_count {
            if !picks.contains(&next) {
                picks.push(next);
            }
            next += 1;
        }
        picks
    }

    /// [`initial_indices`](Self::initial_indices) by sorting every pixel,
    /// the reference the histogram search is tested against.
    #[cfg(test)]
    fn initial_indices_by_sort(&self, intensities: &[u8]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..intensities.len()).collect();
        order.sort_by_key(|&i| (intensities[i], i));
        let picks = self
            .seed_positions(intensities.len())
            .map(|position| order[position])
            .collect();
        self.distinct_seeds(picks, intensities.len())
    }

    fn validate_inputs(&self, pixel_count: usize, intensity_count: usize) -> Result<()> {
        if pixel_count == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "cannot cluster an empty set of pixels".to_string(),
            });
        }
        if pixel_count != intensity_count {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "{pixel_count} pixel hypervectors but {intensity_count} intensities"
                ),
            });
        }
        if pixel_count < self.clusters {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "cannot form {} clusters from {pixel_count} pixels",
                    self.clusters
                ),
            });
        }
        Ok(())
    }

    /// Clusters pixel hypervectors stored as an [`HvMatrix`] — the batched
    /// hot path used by the pipeline.
    ///
    /// The loop runs over the matrix's **stored** rows, each weighted by
    /// the number of rows that read it: the matrix
    /// [`crate::PixelEncoder::encode_region_into`] produces, one stored row
    /// per distinct pixel key, is clustered once per key. Identical rows
    /// always get identical labels and the bundles are exact integer sums,
    /// so this is the same clustering as one pass per pixel. The update
    /// step keeps one bundle per cluster and moves only the rows whose
    /// label changed, with all their copies, and the loop stops at
    /// the first pass that reproduces the previous labels: the centroids
    /// are a pure function of the labels (an emptied cluster keeps its
    /// previous centroid), so every later pass would repeat that fixed
    /// point. The outcome — labels, snapshots (padded to the configured
    /// iteration count), sizes and bundles — is equal to that of the
    /// per-vector reference path [`cluster`](Self::cluster) for the same
    /// inputs; only [`ClusterOutcome::iterations_run`] reports the passes
    /// actually run.
    ///
    /// `intensities` must hold one scalar intensity per pixel (used only
    /// for centroid initialisation) in the same row order as `pixels`.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the matrix is empty, if
    /// the row and intensity counts disagree, or if there are fewer rows
    /// than clusters.
    pub fn cluster_matrix(&self, pixels: &HvMatrix, intensities: &[u8]) -> Result<ClusterOutcome> {
        self.cluster_matrix_with(pixels, intensities, kernels::auto())
    }

    /// [`cluster_matrix`](Self::cluster_matrix) through an explicit
    /// [`Kernels`] selection — the variant an execution backend threads its
    /// kernels into. Beyond its outcome it allocates nothing per pixel:
    /// its labels and copy counts are per stored row.
    ///
    /// The passes take one of two paths, with the same integers and the
    /// same tie-break on both:
    ///
    /// * **Closed form**, when every stored row has at most 16 toggle
    ///   points against stored row 0 (positions where the rows' XOR turns
    ///   on or off; level codes give at most `2 · (2 + channels)`, Random
    ///   codes about `d / 2`, and the scan stops at the first row past the
    ///   bound) and the clusters' `K × (d + 1)` prefix and difference
    ///   arrays ([`IntervalGroup::state_bytes`]) fit within the matrix's
    ///   own [`HvMatrix::capacity_bytes`]. A row's dot with a centroid is
    ///   then a few prefix-sum lookups ([`IntervalGroup`]), a row that
    ///   changes cluster moves its copies at its toggle points, and the
    ///   final bundles are built once. Each stored row is popcounted once.
    /// * **Bit-sliced** otherwise: every centroid's counter planes are
    ///   swept against every stored row through the fused multi-centroid
    ///   kernels ([`BitSlicedGroup`]), in parallel across rows, and a row
    ///   that changes cluster is carry-added into its new bundle
    ///   ([`Accumulator::add_row_weighted_with`]) and borrowed out of its
    ///   old one ([`Accumulator::remove_row`]).
    ///
    /// Kernels are bit-exact with each other (see the
    /// [`hdc::kernels`] contract), so the labels are byte-identical for
    /// every selection and on either path, and the outcome equals the
    /// per-vector [`cluster`](Self::cluster)'s.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the matrix is empty, if
    /// the row and intensity counts disagree, or if there are fewer rows
    /// than clusters.
    pub fn cluster_matrix_with(
        &self,
        pixels: &HvMatrix,
        intensities: &[u8],
        kernels: &dyn Kernels,
    ) -> Result<ClusterOutcome> {
        self.validate_inputs(pixels.rows(), intensities.len())?;
        // One stored row per seed pixel: each cluster starts as that row.
        let seeds: Vec<usize> = self
            .initial_indices(intensities)
            .into_iter()
            .map(|pixel| pixels.stored_index()[pixel] as usize)
            .collect();
        let copies = copy_counts(pixels);
        let fits = IntervalGroup::state_bytes(self.clusters, pixels.dim())
            .is_some_and(|bytes| bytes <= pixels.capacity_bytes());
        match fits
            .then(|| RowToggles::scan(pixels, MAX_ROW_TOGGLES))
            .flatten()
        {
            Some(toggles) => self.run_passes(
                pixels,
                &copies,
                IntervalPasses::new(pixels, toggles, &seeds, kernels),
            ),
            None => self.run_passes(
                pixels,
                &copies,
                BitSlicedPasses::new(pixels, &seeds, self.clusters, kernels)?,
            ),
        }
    }

    /// The pass loop of [`cluster_matrix_with`](Self::cluster_matrix_with)
    /// over stored rows, each standing for its `copies`, whichever way
    /// `state` measures and bundles them.
    fn run_passes(
        &self,
        pixels: &HvMatrix,
        copies: &[usize],
        mut state: impl PassState,
    ) -> Result<ClusterOutcome> {
        // `labels` receives each pass's assignment and `previous` holds the
        // pass before it (swapped in at the top of every pass).
        let stored = pixels.stored_rows();
        let mut labels = vec![UNASSIGNED; stored];
        let mut previous = vec![0u32; stored];
        let mut snapshots = Vec::new();
        let mut iterations_run = 0;

        while iterations_run < self.iterations {
            iterations_run += 1;
            std::mem::swap(&mut labels, &mut previous);
            state.assign(&mut labels)?;
            if self.record_snapshots {
                snapshots.push(expand(pixels, &labels));
            }

            // Update step: move each row whose label changed, with all its
            // copies, out of its old bundle and into its new one (pass 1
            // moves every row in). Integer adds and removes are exact, so
            // the bundles equal a full re-bundle of the current labels.
            let mut moved = false;
            for (row, (&label, &old)) in labels.iter().zip(&previous).enumerate() {
                if label != old {
                    let from = (old != UNASSIGNED).then_some(old as usize);
                    state.move_row(row, from, label as usize, copies[row])?;
                    moved = true;
                }
            }
            // A pass that reproduces the previous labels leaves every
            // bundle — and so every centroid — as it was, and every later
            // pass would reproduce the same labels: stop at the fixed
            // point (Lloyd's stopping rule, exact here).
            if !moved {
                break;
            }
            state.refresh_centroids();
        }

        let labels = expand(pixels, &labels);
        if self.record_snapshots {
            snapshots.resize(self.iterations, labels.clone());
        }
        let bundles = state.into_bundles();
        Ok(ClusterOutcome {
            cluster_sizes: bundles.iter().map(Accumulator::items).collect(),
            labels,
            iterations_run,
            snapshots,
            bundles,
        })
    }

    /// Clusters pixel hypervectors given as individual vectors.
    ///
    /// This is the single-vector *reference path*: it allocates per-pixel
    /// (fresh accumulators every iteration), runs every configured
    /// iteration and re-bundles every pixel in each, and exists as the
    /// convenience API and as the oracle the incremental
    /// [`cluster_matrix`](Self::cluster_matrix) is tested against. The two
    /// paths produce identical labels, snapshots, sizes and bundles for the
    /// same inputs.
    ///
    /// `intensities` must hold one scalar intensity per pixel (used only for
    /// centroid initialisation) in the same order as `pixels`.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the input is empty, if
    /// `pixels` and `intensities` disagree in length, or if there are fewer
    /// pixels than clusters.
    pub fn cluster(
        &self,
        pixels: &[BinaryHypervector],
        intensities: &[u8],
    ) -> Result<ClusterOutcome> {
        self.validate_inputs(pixels.len(), intensities.len())?;
        let dim = pixels[0].dim();

        // Initial centroids: bundles containing a single seed pixel each.
        let mut centroids: Vec<Accumulator> = Vec::with_capacity(self.clusters);
        for i in self.initial_indices(intensities) {
            let mut centroid = Accumulator::zeros(dim)?;
            centroid.add_row(pixels[i].as_row())?;
            centroids.push(centroid);
        }

        let mut labels = vec![0u32; pixels.len()];
        let mut snapshots = Vec::new();
        let mut iterations_run = 0;
        let mut bundles = Vec::new();

        for _ in 0..self.iterations {
            iterations_run += 1;
            // Assignment step (parallel over pixels).
            let assignment: Vec<u32> = pixels
                .par_iter()
                .map(|pixel| {
                    let mut best = 0usize;
                    let mut best_distance = f64::INFINITY;
                    for (k, centroid) in centroids.iter().enumerate() {
                        let distance = centroid
                            .cosine_distance_row(pixel.as_row())
                            .unwrap_or(f64::INFINITY);
                        if distance < best_distance {
                            best_distance = distance;
                            best = k;
                        }
                    }
                    best as u32
                })
                .collect();
            labels = assignment;
            if self.record_snapshots {
                snapshots.push(labels.clone());
            }

            // Update step: rebuild each centroid as the sum of its members.
            bundles = (0..self.clusters)
                .map(|_| Accumulator::zeros(dim))
                .collect::<std::result::Result<_, _>>()?;
            for (pixel, &label) in pixels.iter().zip(&labels) {
                bundles[label as usize].add_row(pixel.as_row())?;
            }
            // Empty clusters keep their previous centroid so they can win
            // pixels back in a later iteration.
            centroids = bundles
                .iter()
                .zip(centroids)
                .map(|(bundle, previous)| {
                    if bundle.items() == 0 {
                        previous
                    } else {
                        bundle.clone()
                    }
                })
                .collect();
        }

        let mut cluster_sizes = vec![0usize; self.clusters];
        for &label in &labels {
            cluster_sizes[label as usize] += 1;
        }
        Ok(ClusterOutcome {
            labels,
            iterations_run,
            snapshots,
            cluster_sizes,
            bundles,
        })
    }
}

/// Checks a matrix-path pass count against the full-pass oracle
/// ([`HvKmeans::cluster`] with snapshots): at most the oracle's passes, and
/// fewer only if the oracle's labels never changed again from the pass
/// before the confirming one on.
#[cfg(test)]
pub(crate) fn assert_true_pass_count(iterations_run: usize, oracle: &ClusterOutcome) {
    assert!(
        (1..=oracle.iterations_run).contains(&iterations_run),
        "{iterations_run} passes against the oracle's {}",
        oracle.iterations_run
    );
    if iterations_run < oracle.iterations_run {
        let settled = iterations_run
            .checked_sub(2)
            .expect("a fixed point takes two passes to confirm");
        assert!(
            oracle.snapshots[settled..]
                .iter()
                .all(|labels| labels == &oracle.snapshots[settled]),
            "stopped after {iterations_run} passes but the oracle's labels kept changing"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::HdcRng;

    fn noisy_copies(
        base: &BinaryHypervector,
        count: usize,
        noise_bits: usize,
        rng: &mut HdcRng,
    ) -> Vec<BinaryHypervector> {
        (0..count)
            .map(|_| {
                let mut hv = base.clone();
                let start = (rng.next_below((base.dim() - noise_bits) as u64)) as usize;
                hv.flip_range(start, noise_bits).unwrap();
                hv
            })
            .collect()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(HvKmeans::new(1, 5, false).is_err());
        assert!(HvKmeans::new(2, 0, false).is_err());
        assert!(HvKmeans::new(3, 10, true).is_ok());
    }

    #[test]
    fn separates_two_well_separated_groups() {
        let mut rng = HdcRng::seed_from(8);
        let centre_a = BinaryHypervector::random(2048, &mut rng);
        let centre_b = BinaryHypervector::random(2048, &mut rng);
        let mut pixels = noisy_copies(&centre_a, 20, 50, &mut rng);
        pixels.extend(noisy_copies(&centre_b, 20, 50, &mut rng));
        // Intensities correlate with the groups (dark group, bright group).
        let intensities: Vec<u8> = (0..20).map(|_| 10).chain((0..20).map(|_| 240)).collect();

        let outcome = HvKmeans::new(2, 5, false)
            .unwrap()
            .cluster(&pixels, &intensities)
            .unwrap();
        let first = outcome.labels[0];
        assert!(outcome.labels[..20].iter().all(|&l| l == first));
        assert!(outcome.labels[20..].iter().all(|&l| l != first));
        assert_eq!(outcome.cluster_sizes.iter().sum::<usize>(), 40);
        assert_eq!(outcome.iterations_run, 5);
    }

    #[test]
    fn snapshots_record_one_assignment_per_iteration() {
        let mut rng = HdcRng::seed_from(10);
        let pixels: Vec<BinaryHypervector> = (0..12)
            .map(|_| BinaryHypervector::random(512, &mut rng))
            .collect();
        let intensities: Vec<u8> = (0..12).map(|i| (i * 20) as u8).collect();
        let outcome = HvKmeans::new(3, 4, true)
            .unwrap()
            .cluster(&pixels, &intensities)
            .unwrap();
        assert_eq!(outcome.snapshots.len(), 4);
        assert_eq!(outcome.snapshots.last().unwrap(), &outcome.labels);
    }

    #[test]
    fn input_validation_errors() {
        let kmeans = HvKmeans::new(2, 2, false).unwrap();
        assert!(kmeans.cluster(&[], &[]).is_err());
        let mut rng = HdcRng::seed_from(11);
        let pixels = vec![BinaryHypervector::random(256, &mut rng)];
        assert!(kmeans.cluster(&pixels, &[1, 2]).is_err());
        assert!(kmeans.cluster(&pixels, &[1]).is_err()); // fewer pixels than clusters
        let matrix = HvMatrix::from_vectors(&pixels).unwrap();
        assert!(kmeans.cluster_matrix(&matrix, &[1, 2]).is_err());
        assert!(kmeans.cluster_matrix(&matrix, &[1]).is_err());
        let empty = HvMatrix::zeros(0, 256).unwrap();
        assert!(kmeans.cluster_matrix(&empty, &[]).is_err());
    }

    #[test]
    fn matrix_and_vector_paths_agree_bitwise() {
        let mut rng = HdcRng::seed_from(77);
        let centre_a = BinaryHypervector::random(1000, &mut rng); // not a multiple of 64
        let centre_b = BinaryHypervector::random(1000, &mut rng);
        let mut pixels = noisy_copies(&centre_a, 15, 60, &mut rng);
        pixels.extend(noisy_copies(&centre_b, 15, 60, &mut rng));
        let intensities: Vec<u8> = (0..30).map(|i| (i * 8) as u8).collect();
        let matrix = HvMatrix::from_vectors(&pixels).unwrap();

        let kmeans = HvKmeans::new(3, 5, true).unwrap();
        let by_vector = kmeans.cluster(&pixels, &intensities).unwrap();
        let by_matrix = kmeans.cluster_matrix(&matrix, &intensities).unwrap();
        assert_eq!(by_vector.labels, by_matrix.labels);
        assert_eq!(by_vector.snapshots, by_matrix.snapshots);
        assert_eq!(by_vector.cluster_sizes, by_matrix.cluster_sizes);
        assert_eq!(by_vector.bundles, by_matrix.bundles);
        assert_true_pass_count(by_matrix.iterations_run, &by_vector);
    }

    #[test]
    fn kernel_selections_produce_identical_labels() {
        let mut rng = HdcRng::seed_from(78);
        let centre_a = BinaryHypervector::random(1000, &mut rng);
        let centre_b = BinaryHypervector::random(1000, &mut rng);
        let mut pixels = noisy_copies(&centre_a, 12, 60, &mut rng);
        pixels.extend(noisy_copies(&centre_b, 12, 60, &mut rng));
        let intensities: Vec<u8> = (0..24).map(|i| (i * 10) as u8).collect();
        let matrix = HvMatrix::from_vectors(&pixels).unwrap();
        let kmeans = HvKmeans::new(3, 5, true).unwrap();
        let scalar = kmeans
            .cluster_matrix_with(&matrix, &intensities, hdc::kernels::scalar())
            .unwrap();
        let auto = kmeans
            .cluster_matrix_with(&matrix, &intensities, hdc::kernels::auto())
            .unwrap();
        assert_eq!(scalar.labels, auto.labels);
        assert_eq!(scalar.snapshots, auto.snapshots);
        assert_eq!(scalar.cluster_sizes, auto.cluster_sizes);
    }

    #[test]
    fn matrix_path_handles_empty_clusters() {
        let mut rng = HdcRng::seed_from(12);
        let hv = BinaryHypervector::random(512, &mut rng);
        let matrix = HvMatrix::from_vectors(&vec![hv; 8]).unwrap();
        let outcome = HvKmeans::new(2, 3, false)
            .unwrap()
            .cluster_matrix(&matrix, &[128u8; 8])
            .unwrap();
        assert!(outcome.cluster_sizes.contains(&8));
        assert!(outcome.cluster_sizes.contains(&0));
    }

    #[test]
    fn initial_indices_pick_extreme_intensities() {
        let kmeans = HvKmeans::new(2, 1, false).unwrap();
        let intensities = vec![50u8, 200, 10, 130, 255];
        let picks = kmeans.initial_indices(&intensities);
        assert_eq!(picks.len(), 2);
        assert_eq!(intensities[picks[0]], 10);
        assert_eq!(intensities[picks[1]], 255);

        let three = HvKmeans::new(3, 1, false).unwrap();
        let picks = three.initial_indices(&intensities);
        assert_eq!(picks.len(), 3);
        assert_eq!(intensities[picks[0]], 10);
        assert_eq!(intensities[picks[2]], 255);
    }

    #[test]
    fn histogram_seeds_match_the_sorted_reference() {
        let mut rng = HdcRng::seed_from(79);
        for case in 0..600 {
            let clusters = 2 + rng.next_below(7) as usize;
            let len = clusters + rng.next_below(300) as usize;
            // From a single intensity (every pick a tie) to all 256.
            let spread = 1 + rng.next_below(256);
            let low = rng.next_below(257 - spread);
            let intensities: Vec<u8> = (0..len)
                .map(|_| (low + rng.next_below(spread)) as u8)
                .collect();
            let kmeans = HvKmeans::new(clusters, 1, false).unwrap();
            assert_eq!(
                kmeans.initial_indices(&intensities),
                kmeans.initial_indices_by_sort(&intensities),
                "case {case}: {clusters} clusters over {len} pixels, spread {spread}"
            );
        }
    }

    #[test]
    fn constant_intensity_input_still_yields_distinct_seeds() {
        let kmeans = HvKmeans::new(3, 2, false).unwrap();
        let intensities = vec![100u8; 10];
        let picks = kmeans.initial_indices(&intensities);
        assert_eq!(picks.len(), 3);
        let unique: std::collections::BTreeSet<usize> = picks.iter().copied().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn all_identical_pixels_collapse_into_one_cluster_without_panicking() {
        let mut rng = HdcRng::seed_from(12);
        let hv = BinaryHypervector::random(512, &mut rng);
        let pixels = vec![hv.clone(); 8];
        let intensities = vec![128u8; 8];
        let outcome = HvKmeans::new(2, 3, false)
            .unwrap()
            .cluster(&pixels, &intensities)
            .unwrap();
        assert_eq!(outcome.labels.len(), 8);
        // Everything lands in a single cluster; the other stays empty.
        assert!(outcome.cluster_sizes.contains(&8));
        assert!(outcome.cluster_sizes.contains(&0));
    }
}
