//! Streaming tiled segmentation: encode and cluster one halo-padded tile at
//! a time inside a bounded, reusable scratch arena, then stitch the
//! per-tile cluster labels into one globally consistent
//! [`imaging::LabelMap`]. [`crate::SegEngine`] runs this path for a
//! request in [`crate::ExecutionMode::Tiled`] (or when its planner picks
//! tiles); [`TileConfig`] is the geometry such a request carries.
//!
//! A whole-image run prices its hypervector matrix at one packed row per
//! pixel — a 512×512 scan at `d = 4096` up to ~128 MB of transient matrix,
//! which rules out exactly the edge devices the SegHDC paper targets.
//! Streaming mode bounds that transient to roughly **one halo-padded
//! tile** regardless of the image size:
//!
//! 1. [`imaging::TileGrid`] plans interiors (an exact partition of
//!    the image) plus halo-padded processing regions.
//! 2. Each padded region is encoded into the arena's single reused
//!    [`HvMatrix`] (positions are taken from the *global* codebooks, so tile
//!    rows are bit-identical to the whole-image rows) and clustered with the
//!    same revised K-Means as the whole-image path.
//! 3. Interior labels are written to the output map a row slice at a
//!    time, under a provisional id per cluster the tile formed (so the ids
//!    grow with the clusters the tiles formed, never with tiles × the
//!    requested clusters); each tile keeps its clusterer's final bundles
//!    ([`Accumulator`]s, moved, not copied) with their norms. An id's
//!    interior size is its bundle's item count (one per pixel of the
//!    padded region) less its pixels in the halo ring.
//! 4. Each tile is then stitched onto its earlier neighbours (west,
//!    north-west, north and north-east, the only tiles labelled before it
//!    that a halo narrower than a tile can reach). Every pixel where the
//!    tile's halo overlaps a neighbour's interior is a co-occurrence
//!    **vote**, the pair of the two tiles' labels there, kept for that one
//!    pair only. The pair's bundles are matched by the cosine of their
//!    exact plane-against-plane dot product
//!    ([`Accumulator::dot_bundle_with`]) — with the halo-overlap majority
//!    vote as the tie-breaker when two candidate matches are nearly as
//!    similar — and matched labels merge in a union-find. When a halo is
//!    configured, the votes also gate each merge: a cluster with no
//!    co-occurrence evidence at a boundary (say, an object wholly interior
//!    to one tile) keeps its own stitched label instead of being absorbed
//!    into the least-dissimilar neighbour group.
//! 5. After the last tile, each provisional id resolves to its group's
//!    representative once, the group sizes add up their members' counts,
//!    and relabelling the provisional map in place, each group under its
//!    representative's `tile × clusters + local cluster` label, makes it
//!    the final, globally consistent label map.

use crate::engine::{ExecutedMode, SegmentOutput};
use crate::observe::ImageObserver;
use crate::{ExecBackend, HvKmeans, PixelEncoder, Result, SegHdcConfig, SegHdcError};
use hdc::kernels::Kernels;
use hdc::{Accumulator, HvMatrix};
use imaging::{ImageView, LabelMap, TileGrid, TileRect};
use std::time::{Duration, Instant};

/// Two candidate centroid matches whose cosine similarities are closer than
/// this are considered tied, and the halo-overlap majority vote decides.
const STITCH_TIE_EPSILON: f64 = 0.01;

/// The earlier neighbours of a tile, as grid offsets `(dx, dy)`: west,
/// north-west, north and north-east. Tiles stream in row-major order, so
/// these are the neighbours already labelled when a tile is written. The
/// halo is narrower than a full tile, and only a grid's last column and row
/// may be narrower than that, so every pixel of a padded region that an
/// earlier tile labelled lies in one of them.
const EARLIER_NEIGHBOURS: [(isize, isize); 4] = [(-1, 0), (-1, -1), (0, -1), (1, -1)];

/// Tile geometry of a streaming tiled run
/// ([`crate::ExecutionMode::Tiled`]).
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), seghdc::SegHdcError> {
/// use seghdc::TileConfig;
/// let tiles = TileConfig::square(128, 8)?;
/// assert_eq!((tiles.tile_width, tiles.tile_height, tiles.halo), (128, 128, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Interior tile width in pixels.
    pub tile_width: usize,
    /// Interior tile height in pixels.
    pub tile_height: usize,
    /// Halo width in pixels: how far each tile's processing region extends
    /// into its neighbours. Larger halos give boundary pixels more context
    /// and the stitcher more voting evidence, at the cost of re-encoding
    /// the overlap.
    pub halo: usize,
}

impl TileConfig {
    /// Creates a tile configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if a tile dimension is zero
    /// or the halo is not smaller than both tile edges.
    pub fn new(tile_width: usize, tile_height: usize, halo: usize) -> Result<Self> {
        if tile_width == 0 || tile_height == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "tile dimensions must be non-zero".to_string(),
            });
        }
        if halo >= tile_width || halo >= tile_height {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "halo {halo} must be smaller than the tile edges ({tile_width}x{tile_height})"
                ),
            });
        }
        Ok(Self {
            tile_width,
            tile_height,
            halo,
        })
    }

    /// Creates a square tile configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if `edge` is zero or
    /// `halo >= edge`.
    pub fn square(edge: usize, halo: usize) -> Result<Self> {
        Self::new(edge, edge, halo)
    }

    /// Plans the tile grid for a `width × height` view.
    ///
    /// # Errors
    ///
    /// Propagates [`imaging::TileGrid::new`] validation errors (for
    /// example a halo that is no longer smaller than a tile edge after the
    /// tile is clamped to a small image).
    pub fn grid_for(&self, width: usize, height: usize) -> Result<TileGrid> {
        Ok(TileGrid::new(
            width,
            height,
            self.tile_width,
            self.tile_height,
            self.halo,
        )?)
    }
}

/// Reusable bounded working memory for streaming tiled segmentation.
///
/// The arena owns the single [`HvMatrix`] every tile is encoded into (reset
/// — not reallocated — between tiles) and the per-tile intensity buffer.
/// Its byte counter is the high-water mark of the matrix allocation, which
/// is what the streaming memory guarantee is asserted against: segmenting
/// an image of any size must never allocate more matrix bytes than one
/// halo-padded tile's worth. The matrix is shared (see
/// [`PixelEncoder::encode_region_into`]), so that is one `u32` index entry
/// per tile pixel plus one row per distinct pixel key.
#[derive(Debug)]
pub(crate) struct TileArena {
    pub(crate) matrix: HvMatrix,
    pub(crate) intensities: Vec<u8>,
}

impl TileArena {
    /// Creates an empty arena; buffers are grown on first use and reused
    /// afterwards.
    pub(crate) fn new() -> Self {
        Self {
            matrix: HvMatrix::zeros(0, 1).expect("dimension 1 is valid"),
            intensities: Vec::new(),
        }
    }

    /// High-water mark, in bytes, of the arena's matrix allocation over its
    /// whole lifetime (across every tile and every segmentation run that
    /// used this arena). The matrix buffers only ever grow, so this is
    /// their current capacity.
    pub(crate) fn peak_matrix_bytes(&self) -> usize {
        self.matrix.capacity_bytes()
    }

    /// Shapes the arena for a region of `rows` pixels at dimension `dim`
    /// and clears the intensity buffer.
    ///
    /// This is step 1 of the [`ExecBackend`] scratch-matrix lifecycle: the
    /// matrix is reshaped with [`HvMatrix::reset_shared`], which writes a
    /// `u32` per pixel (not a row per pixel) and **reuses** the backing
    /// allocations whenever their capacity suffices, so a sequence of
    /// `prepare` → encode → cluster rounds touches one set of buffers
    /// whose [`HvMatrix::capacity_bytes`] is the number the streaming
    /// memory guarantee is asserted against.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` is zero or `rows` does not fit a `u32`.
    pub(crate) fn prepare(&mut self, rows: usize, dim: usize) -> Result<()> {
        self.matrix.reset_shared(rows, dim)?;
        self.intensities.clear();
        Ok(())
    }

    /// Appends the intensity of every pixel of `region` (in view
    /// coordinates, within the view), row-major, reading the view a row at
    /// a time ([`ImageView::row_bytes`]): a gray row is copied as it is,
    /// and an RGB pixel gets its [`imaging::colorspace::luma`], the same
    /// value the view's per-pixel intensity accessor returns.
    ///
    /// # Errors
    ///
    /// Returns an error if a row of `region` is not a row of the view.
    pub(crate) fn read_intensities(
        &mut self,
        view: &ImageView<'_>,
        region: &TileRect,
    ) -> Result<()> {
        let channels = view.channels();
        for y in region.y..region.bottom() {
            let bytes = &view.row_bytes(y)?[region.x * channels..region.right() * channels];
            if channels == 1 {
                self.intensities.extend_from_slice(bytes);
            } else {
                self.intensities.extend(
                    bytes
                        .chunks_exact(channels)
                        .map(|px| imaging::colorspace::luma(px[0], px[1], px[2])),
                );
            }
        }
        Ok(())
    }
}

impl Default for TileArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Union-find over provisional tile-cluster ids, with path halving.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `len` singleton ids; `len` must fit a `u32`.
    fn new(len: usize) -> Self {
        Self {
            parent: (0..len as u32).collect(),
        }
    }

    fn find(&mut self, mut id: u32) -> u32 {
        while self.parent[id as usize] != id {
            let grandparent = self.parent[self.parent[id as usize] as usize];
            self.parent[id as usize] = grandparent;
            id = grandparent;
        }
        id
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Root at the smaller id so representatives are stable and the
            // single-tile case keeps its raw cluster indices.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }

    /// Every id's representative, the smallest id in its group. Neither
    /// `union` nor path halving ever points an id at a larger one, so one
    /// ascending pass finds each id's parent already resolved.
    fn into_representatives(mut self) -> Vec<u32> {
        for id in 0..self.parent.len() {
            self.parent[id] = self.parent[self.parent[id] as usize];
        }
        self.parent
    }
}

/// One tile's clustering summary kept for stitching: each local cluster's
/// bundle with its Euclidean norm, `None` for an empty cluster.
type TileCentroids = Vec<Option<(Accumulator, f64)>>;

/// Runs the streaming engine and returns the view's stitched output.
/// `encoder` must have been built for the view's exact shape; `arena`
/// supplies (and keeps) the bounded working memory; every per-tile encode
/// and cluster executes through `backend`. The `observed` hooks fire once
/// per completed tile row (progress) and are polled between tiles
/// (cancellation).
///
/// Each stitched group is labelled `tile × clusters + local cluster` after
/// its first member; for a single-tile run the labels equal the raw
/// cluster indices, so the output is byte-identical to a whole-image run.
/// Those labels must fit a `u32`, which [`crate::SegEngine::plan`]
/// checks.
pub(crate) fn segment_streaming_with(
    config: &SegHdcConfig,
    encoder: &PixelEncoder,
    view: &ImageView<'_>,
    tiles: &TileConfig,
    arena: &mut TileArena,
    backend: &dyn ExecBackend,
    observed: ImageObserver<'_, '_>,
) -> Result<SegmentOutput> {
    let grid = tiles.grid_for(view.width(), view.height())?;
    let width = view.width();
    let clusters = config.clusters;
    let kmeans = HvKmeans::new(clusters, config.iterations, config.distance_metric, false)?;
    // Host-side glue (centroid bundling, stitch similarity) runs on the
    // backend's kernel selection too, so a scalar-pinned backend keeps the
    // whole request — and its `kernel_isa` telemetry — scalar.
    let host_kernels = backend.host_kernels();

    let tiles_x = grid.tiles_x();
    // One id per cluster a tile forms: all of them, or one for a tile too
    // small to form them all. So the ids number at most the padded pixels,
    // and at most tiles × clusters, which `SegEngine::plan` keeps within
    // a `u32`.
    let ids = grid
        .iter()
        .map(|tile| {
            if tile.padded.area() < clusters {
                1
            } else {
                clusters
            }
        })
        .sum();
    // Provisional per-pixel label: the id of the tile cluster that labels
    // the pixel. Tile `t`'s clusters take the ids from `size_starts[t]`.
    let mut provisional = vec![u32::MAX; view.pixel_count()];
    // Interior pixels per id.
    let mut sizes: Vec<usize> = Vec::new();
    let mut size_starts: Vec<usize> = Vec::with_capacity(grid.tile_count());
    let mut centroids: Vec<TileCentroids> = Vec::with_capacity(grid.tile_count());
    // One tile pair's halo-overlap co-occurrence votes: per pixel where
    // the later tile's padded region overlaps the earlier tile's interior,
    // the earlier tile's local label and the later tile's. One overlap at a
    // time, so the votes never outgrow a padded tile.
    let mut votes: Vec<(u32, u32)> = Vec::new();
    let mut union_find = UnionFind::new(ids);

    // Stitch: merge each cluster of a later tile with its most similar
    // centroid of an earlier neighbour; near-ties are decided by the
    // halo-overlap majority vote. With a halo, the votes also *gate* the
    // merge: a cluster with zero co-occurrence evidence at a boundary is
    // simply not present there (e.g. an object wholly interior to its own
    // tile), and force-merging it into whatever earlier centroid is least
    // dissimilar would absorb a genuinely distinct class into an unrelated
    // group. Diagonal neighbours share only a `halo²` corner, so they are
    // stitched exclusively on vote evidence. Without a halo there is no
    // overlap evidence at all and orthogonal pairs fall back to pure
    // similarity matching. A decision reads no union-find state, and the
    // union-find roots every group at its smallest member, so stitching
    // each pair as soon as its later tile is labelled gives the same
    // groups as stitching every pair after the last tile.
    let halo = grid.halo();
    let mut present: Vec<bool> = Vec::new();
    let mut stitch_pair = |centroids: &[TileCentroids],
                           size_starts: &[usize],
                           earlier: usize,
                           later: usize,
                           votes: &[(u32, u32)],
                           votes_required: bool| {
        present.clear();
        present.resize(centroids[later].len(), false);
        for &(_, local) in votes {
            present[local as usize] = true;
        }
        for (local, centroid) in centroids[later].iter().enumerate() {
            let Some(centroid) = centroid else { continue };
            if (votes_required || halo > 0) && !present[local] {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            let mut second: Option<(usize, f64)> = None;
            for (candidate, reference) in centroids[earlier].iter().enumerate() {
                let Some(reference) = reference else { continue };
                let similarity = bundle_cosine(reference, centroid, host_kernels);
                match best {
                    Some((_, best_similarity)) if similarity <= best_similarity => {
                        if second.is_none_or(|(_, s)| similarity > s) {
                            second = Some((candidate, similarity));
                        }
                    }
                    _ => {
                        second = best;
                        best = Some((candidate, similarity));
                    }
                }
            }
            let Some((mut chosen, best_similarity)) = best else {
                continue;
            };
            if let Some((runner_up, runner_similarity)) = second {
                let pair_votes = |candidate: usize| {
                    let pair = (candidate as u32, local as u32);
                    votes.iter().filter(|&&vote| vote == pair).count()
                };
                if best_similarity - runner_similarity < STITCH_TIE_EPSILON
                    && pair_votes(runner_up) > pair_votes(chosen)
                {
                    chosen = runner_up;
                }
            }
            union_find.union(
                (size_starts[earlier] + chosen) as u32,
                (size_starts[later] + local) as u32,
            );
        }
    };

    let mut encode_time = Duration::ZERO;
    let mut cluster_time = Duration::ZERO;
    let mut stitch_time = Duration::ZERO;
    let mut iterations_run = 0;

    // Size the arena's row index for the largest padded tile up front:
    // one exact allocation instead of amortised doubling while the first
    // tiles grow, so the recorded peak is genuinely "one halo-padded
    // tile's worth".
    arena.prepare(grid.max_padded_pixels(), config.dimension)?;

    for (tile_index, tile) in grid.iter().enumerate() {
        // Cooperative cancellation: polled between tiles, so a fired token
        // costs at most one tile of extra work before the run unwinds. The
        // arena is left in a reusable state — nothing is poisoned.
        if observed.is_cancelled() {
            return Err(SegHdcError::Cancelled);
        }
        let padded = tile.padded;
        let rows = padded.area();

        let encode_start = Instant::now();
        arena.prepare(rows, config.dimension)?;
        backend.encode_region(encoder, view, &padded, &mut arena.matrix)?;
        arena.read_intensities(view, &padded)?;
        encode_time += encode_start.elapsed();

        let cluster_start = Instant::now();
        let (labels, bundles) = if rows < clusters {
            // A tile too small to form every cluster collapses to a single
            // local cluster; stitching merges it into a neighbour group.
            let mut bundle = Accumulator::zeros(config.dimension)?;
            for row in 0..rows {
                bundle.add_row_with(arena.matrix.row(row), host_kernels)?;
            }
            (vec![0u32; rows], vec![bundle])
        } else {
            let outcome = backend.cluster_matrix(&kmeans, &arena.matrix, &arena.intensities)?;
            iterations_run = iterations_run.max(outcome.iterations_run);
            (outcome.labels, outcome.bundles)
        };

        // The clusterer's final bundles are the centroids stitching
        // compares; each norm is computed once here, not once per pair.
        centroids.push(
            bundles
                .into_iter()
                .map(|bundle| {
                    (bundle.items() > 0).then(|| {
                        let norm = bundle.norm_with(host_kernels);
                        (bundle, norm)
                    })
                })
                .collect(),
        );
        cluster_time += cluster_start.elapsed();

        // `rect`'s pixels, row by row, as (view slice, tile-label slice).
        let tile_rows = |rect: TileRect| {
            (rect.y..rect.bottom()).map(move |y| {
                let pixels = y * width + rect.x..y * width + rect.right();
                let local = (y - padded.y) * padded.width + rect.x - padded.x;
                (pixels, local..local + rect.width)
            })
        };

        // Write the interior labels.
        let base = sizes.len();
        for (pixels, local) in tile_rows(tile.interior) {
            for (id, &label) in provisional[pixels].iter_mut().zip(&labels[local]) {
                *id = base as u32 + label;
            }
        }
        // Count the tile's clusters without a pass over the interior: a
        // cluster's bundle holds one item per pixel of the padded region,
        // so its interior size is that count less its pixels in the halo
        // ring around the interior, a small part of the tile.
        size_starts.push(base);
        sizes.extend(
            centroids[tile_index]
                .iter()
                .map(|centroid| centroid.as_ref().map_or(0, |(bundle, _)| bundle.items())),
        );
        let tile_sizes = &mut sizes[base..];
        let interior = tile.interior;
        for (y, row) in (padded.y..).zip(labels.chunks_exact(padded.width)) {
            let ring = if (interior.y..interior.bottom()).contains(&y) {
                let left = interior.x - padded.x;
                [&row[..left], &row[left + interior.width..]]
            } else {
                [row, &[]]
            };
            for &label in ring.into_iter().flatten() {
                tile_sizes[label as usize] -= 1;
            }
        }

        // Stitch the tile onto each earlier neighbour, voting where its
        // padded region overlaps that neighbour's labelled interior.
        let stitch_start = Instant::now();
        for &(dx, dy) in &EARLIER_NEIGHBOURS {
            let (Some(grid_x), Some(grid_y)) = (
                tile.grid_x.checked_add_signed(dx),
                tile.grid_y.checked_add_signed(dy),
            ) else {
                continue;
            };
            if grid_x >= tiles_x {
                continue;
            }
            let earlier = grid_y * tiles_x + grid_x;
            votes.clear();
            if let Some(overlap) = intersection(&padded, &grid.tile(grid_x, grid_y)?.interior) {
                let earlier_base = size_starts[earlier] as u32;
                for (pixels, local) in tile_rows(overlap) {
                    votes.extend(
                        provisional[pixels]
                            .iter()
                            .zip(&labels[local])
                            .map(|(&earlier_id, &label)| (earlier_id - earlier_base, label)),
                    );
                }
            }
            let diagonal = dx != 0 && dy != 0;
            stitch_pair(
                &centroids,
                &size_starts,
                earlier,
                tile_index,
                &votes,
                diagonal,
            );
        }
        stitch_time += stitch_start.elapsed();

        // Tiles stream in row-major order, so finishing the last tile of a
        // grid row completes that row: report it.
        if (tile_index + 1) % tiles_x == 0 {
            observed.emit_rows((tile_index + 1) / tiles_x, grid.tiles_y());
        }
    }

    // Every id's group representative: the smallest id in the group, so a
    // single-tile run keeps raw cluster indices. Each cluster's interior
    // count moves onto its representative's, so the group sizes come out
    // in ascending label order and the report shape matches whole-image
    // outputs. Ids and `tile × clusters + local` labels both order the
    // clusters by (tile, local), so each group's label is its
    // representative's, and relabelling the provisional map in place
    // makes it the label map.
    debug_assert_eq!(sizes.len(), ids, "every tile formed the clusters counted");
    let stitch_start = Instant::now();
    let mut group_labels = union_find.into_representatives();
    for (tile_index, &start) in size_starts.iter().enumerate() {
        for local in 0..centroids[tile_index].len() {
            let id = start + local;
            let representative = group_labels[id] as usize;
            if representative == id {
                group_labels[id] = (tile_index * clusters + local) as u32;
            } else {
                // A smaller id, already relabelled.
                let moved = std::mem::take(&mut sizes[id]);
                sizes[representative] += moved;
                group_labels[id] = group_labels[representative];
            }
        }
    }
    relabel(&mut provisional, &group_labels);
    let cluster_sizes: Vec<usize> = sizes.into_iter().filter(|&size| size > 0).collect();
    let stitched_labels = cluster_sizes.len();
    let label_map = LabelMap::from_raw(width, view.height(), provisional)?;
    stitch_time += stitch_start.elapsed();

    Ok(SegmentOutput {
        label_map,
        snapshots: Vec::new(),
        iterations_run,
        cluster_sizes,
        mode: ExecutedMode::Tiled {
            tiles_x,
            tiles_y: grid.tiles_y(),
            stitched_labels,
        },
        encode_time,
        cluster_time,
        stitch_time,
    })
}

/// Replaces every provisional id with its group's label.
///
/// Kept out of line: inlined into [`segment_streaming_with`], the loop
/// reloaded its bound from the stack at every pixel and took about 1.6×
/// as long (a 512² scan in 2×2 tiles, x86-64).
#[inline(never)]
fn relabel(labels: &mut [u32], representatives: &[u32]) {
    for label in labels {
        debug_assert_ne!(*label, u32::MAX, "tile interiors must cover every pixel");
        *label = representatives[*label as usize];
    }
}

/// The pixels two rectangles share, `None` when they share none.
fn intersection(a: &TileRect, b: &TileRect) -> Option<TileRect> {
    let x = a.x.max(b.x);
    let y = a.y.max(b.y);
    let right = a.right().min(b.right());
    let bottom = a.bottom().min(b.bottom());
    (x < right && y < bottom).then(|| TileRect {
        x,
        y,
        width: right - x,
        height: bottom - y,
    })
}

/// Cosine similarity between two bundles, each given with its norm: the
/// exact integer dot over the product of the norms, 0 when either norm is
/// zero, and `-∞` for bundles of different dimensions (which the tiles of
/// one run never are).
fn bundle_cosine(
    (a, norm_a): &(Accumulator, f64),
    (b, norm_b): &(Accumulator, f64),
    kernels: &dyn Kernels,
) -> f64 {
    let Ok(dot) = a.dot_bundle_with(b, kernels) else {
        return f64::NEG_INFINITY;
    };
    if *norm_a == 0.0 || *norm_b == 0.0 {
        return 0.0;
    }
    dot as f64 / (norm_a * norm_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_config_validation() {
        assert!(TileConfig::new(0, 4, 0).is_err());
        assert!(TileConfig::new(4, 0, 0).is_err());
        assert!(TileConfig::new(4, 4, 4).is_err());
        assert!(TileConfig::new(8, 4, 3).is_ok());
        let square = TileConfig::square(16, 2).unwrap();
        assert_eq!(square, TileConfig::new(16, 16, 2).unwrap());
        let grid = square.grid_for(40, 20).unwrap();
        assert_eq!((grid.tiles_x(), grid.tiles_y()), (3, 2));
        // Clamping to a small image can invalidate the halo.
        assert!(TileConfig::square(16, 2).unwrap().grid_for(2, 2).is_err());
    }

    #[test]
    fn arena_tracks_its_high_water_mark() {
        let mut arena = TileArena::new();
        assert_eq!(arena.peak_matrix_bytes(), 0);
        arena.prepare(10, 128).unwrap();
        let after_large = arena.peak_matrix_bytes();
        // Ten u32 index entries and the one all-zero stored row of two
        // words that every prepared row reads.
        assert_eq!(after_large, 10 * 4 + 2 * 8);
        arena.prepare(2, 64).unwrap();
        assert_eq!(
            arena.peak_matrix_bytes(),
            after_large,
            "shrinking must not shrink the recorded peak"
        );
        assert_eq!(arena.matrix.rows(), 2);
        assert!(arena.intensities.is_empty());
    }

    #[test]
    fn intersection_is_the_shared_rectangle() {
        let rect = |x, y, width, height| TileRect {
            x,
            y,
            width,
            height,
        };
        let padded = rect(12, 0, 24, 20);
        assert_eq!(
            intersection(&padded, &rect(0, 0, 16, 16)),
            Some(rect(12, 0, 4, 16))
        );
        assert_eq!(
            intersection(&padded, &rect(16, 0, 16, 16)),
            Some(rect(16, 0, 16, 16))
        );
        // Rectangles that only touch share no pixel.
        assert_eq!(intersection(&padded, &rect(36, 0, 4, 16)), None);
        assert_eq!(intersection(&padded, &rect(0, 20, 40, 4)), None);
    }

    #[test]
    fn union_find_roots_at_the_smallest_member() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(2, 5);
        assert_eq!(uf.find(5), 2);
        assert_eq!(uf.find(4), 2);
        uf.union(0, 5);
        assert_eq!(uf.find(4), 0);
        assert_eq!(uf.find(1), 1);
        assert_eq!(uf.find(3), 3);
        uf.union(3, 1);
        assert_eq!(uf.into_representatives(), [0, 1, 0, 1, 0, 0]);
    }
}
