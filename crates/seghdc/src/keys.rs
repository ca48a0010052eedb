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
//!
//! [`key_region`] walks a region a row at a time: it borrows each row's
//! channel bytes from the view ([`ImageView::row_bytes`]) and looks the
//! row's position rank up once, so a pixel costs its column rank, a
//! code-id table read per channel and one key-table probe.

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
    // Region row `ly`, its pixel bytes and its slice of `index`.
    let rows = index
        .chunks_exact_mut(region.width)
        .enumerate()
        .map(|(ly, stored)| {
            let bytes = view
                .row_bytes(region.y + ly)
                .expect("region row is within the validated view");
            let bytes = &bytes[region.x * channels..region.right() * channels];
            (ly, bytes, stored)
        });
    let mut firsts: Vec<u32> = Vec::new();
    // Position ranks count distinct position vectors within the region,
    // so every rank below fits the region's `u32`-indexed pixel count.
    let gray_levels = color.code_levels(0);
    let dense_slots = (row_count * col_count).checked_mul(gray_levels);
    match dense_slots {
        Some(slots) if channels == 1 && slots <= region.area() => {
            let code_ids = color.code_ids(0);
            let col_keys: Vec<usize> = col_ranks
                .iter()
                .map(|&rank| rank as usize * gray_levels)
                .collect();
            let mut table = vec![FREE; slots];
            for (ly, bytes, stored) in rows {
                let row_key = row_ranks[ly] as usize * col_count * gray_levels;
                // Equal lengths, so the loop below indexes without checks.
                let (bytes, stored) = (&bytes[..col_keys.len()], &mut stored[..col_keys.len()]);
                for lx in 0..col_keys.len() {
                    let value = usize::from(bytes[lx]);
                    let slot = &mut table[row_key + col_keys[lx] + usize::from(code_ids[value])];
                    if *slot == FREE {
                        *slot = firsts.len() as u32;
                        firsts.push((ly * region.width + lx) as u32);
                    }
                    stored[lx] = *slot;
                }
            }
        }
        _ => {
            let code_ids: Vec<&[u8; 256]> = (0..channels).map(|c| color.code_ids(c)).collect();
            // The default hasher: pixel bytes come from clients, and its
            // per-map keys stop them from choosing pixels whose keys
            // collide.
            let mut table: HashMap<u64, u32> = HashMap::new();
            for (ly, bytes, stored) in rows {
                let row_key = u64::from(row_ranks[ly]) * col_count as u64;
                let pixels = bytes.chunks_exact(channels).zip(&col_ranks);
                for (lx, (px, &col_rank)) in pixels.enumerate() {
                    let colour = code_ids.iter().zip(px).fold(0u64, |key, (ids, &value)| {
                        key << 8 | u64::from(ids[usize::from(value)])
                    });
                    stored[lx] = *table
                        .entry((row_key + u64::from(col_rank)) << 24 | colour)
                        .or_insert_with(|| {
                            firsts.push((ly * region.width + lx) as u32);
                            firsts.len() as u32 - 1
                        });
                }
            }
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
