//! Pixel keys: which pixels of a region encode to the same hypervector,
//! found before any row is encoded.
//!
//! A pixel's row is `row_hv(y) ⊕ col_hv(x) ⊕ colour codes` (§III-3). The
//! position and colour encoders number their codebook vectors so that two
//! vectors share an id exactly when they are bit-identical
//! ([`vector_ids`]). A pixel's key is (row id, column id, colour ids), and
//! pixels with equal keys have bit-identical rows, so a region needs one
//! encoded row per distinct key. Two keys whose rows happen to coincide
//! are encoded twice, which changes no label: identical rows always get
//! identical labels.

use crate::{ColorEncoder, PositionEncoder};
use hdc::BinaryHypervector;
use imaging::{ImageView, TileRect};
use std::collections::HashMap;

/// An unassigned entry of a dense table.
const FREE: u32 = u32::MAX;

/// An id per vector, equal for two vectors exactly when they are
/// bit-identical, numbered in order of first appearance.
pub(crate) fn vector_ids(vectors: &[BinaryHypervector]) -> Vec<usize> {
    let mut first: HashMap<&[u64], usize> = HashMap::with_capacity(vectors.len());
    vectors
        .iter()
        .map(|hv| {
            let next = first.len();
            *first.entry(hv.as_words()).or_insert(next)
        })
        .collect()
}

/// Keys every pixel of `region` (region-local row-major): writes the
/// stored row of each pixel into `index`, numbering stored rows in order
/// of first use, and returns the region-local pixel that first used each
/// stored row. `index` holds `region.area()` entries, and the region fits
/// the encoders' grid.
///
/// A gray region with no more (position vector, gray code) combinations
/// than pixels is keyed through a dense table of one slot per
/// combination, which then costs no more memory than `index` itself; any
/// other region (RGB, or many distinct position vectors) goes through a
/// `HashMap`, whose hashing costs tens of nanoseconds a pixel against a
/// dense table's array read.
pub(crate) fn key_region(
    position: &PositionEncoder,
    color: &ColorEncoder,
    view: &ImageView<'_>,
    region: &TileRect,
    index: &mut [u32],
) -> Vec<u32> {
    let (row_ranks, row_count) = ranks(
        &position.row_ids()[region.y..region.bottom()],
        position.rows(),
    );
    let (col_ranks, col_count) = ranks(
        &position.col_ids()[region.x..region.right()],
        position.cols(),
    );
    let channels = color.channels();
    // Position ranks count distinct position vectors within the region,
    // so every rank below fits the region's `u32`-indexed pixel count.
    let position_rank =
        |lx: usize, ly: usize| row_ranks[ly] as usize * col_count + col_ranks[lx] as usize;
    let pixel = |lx: usize, ly: usize| {
        view.channels_at(region.x + lx, region.y + ly)
            .expect("pixel coordinate is within the validated view")
    };

    let gray_levels = color.code_levels(0);
    let dense_slots = (row_count * col_count).checked_mul(gray_levels);
    match dense_slots {
        Some(slots) if channels == 1 && slots <= region.area() => {
            let mut table = vec![FREE; slots];
            assign(region, index, |lx, ly, next| {
                let key = position_rank(lx, ly) * gray_levels
                    + usize::from(color.code_id(0, pixel(lx, ly)[0]));
                let slot = &mut table[key];
                if *slot == FREE {
                    *slot = next;
                }
                *slot
            })
        }
        _ => {
            // The default hasher: pixel bytes come from clients, and its
            // per-map keys stop them from choosing pixels whose keys
            // collide.
            let mut table: HashMap<u64, u32> = HashMap::new();
            assign(region, index, |lx, ly, next| {
                let px = pixel(lx, ly);
                let colour = (0..channels).fold(0u64, |key, channel| {
                    key << 8 | u64::from(color.code_id(channel, px[channel]))
                });
                *table
                    .entry((position_rank(lx, ly) as u64) << 24 | colour)
                    .or_insert(next)
            })
        }
    }
}

/// The pixel loop shared by both tables: `stored_row(lx, ly, next)`
/// looks the pixel's key up, inserts it as stored row `next` (the next
/// unused one) if it is new, and returns the key's stored row.
fn assign(
    region: &TileRect,
    index: &mut [u32],
    mut stored_row: impl FnMut(usize, usize, u32) -> u32,
) -> Vec<u32> {
    let mut firsts: Vec<u32> = Vec::new();
    for ly in 0..region.height {
        for lx in 0..region.width {
            let pixel = ly * region.width + lx;
            let next = firsts.len() as u32;
            let stored = stored_row(lx, ly, next);
            if stored == next {
                firsts.push(pixel as u32);
            }
            index[pixel] = stored;
        }
    }
    firsts
}

/// Region-local ranks of a slice of axis ids (`ids[i] < axis_len`): equal
/// ids get equal ranks, numbered in order of first appearance. Returns the
/// ranks and how many there are.
fn ranks(ids: &[usize], axis_len: usize) -> (Vec<u32>, usize) {
    let mut rank_of = vec![FREE; axis_len];
    let mut count = 0u32;
    let ranks = ids
        .iter()
        .map(|&id| {
            if rank_of[id] == FREE {
                rank_of[id] = count;
                count += 1;
            }
            rank_of[id]
        })
        .collect();
    (ranks, count as usize)
}
