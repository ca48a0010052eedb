//! The streaming tiled path's memory grows with the pixels, never with
//! tiles × clusters or the square of the cluster count. The cluster count
//! and the tile geometry both come from the request, and a tile with fewer
//! pixels than clusters collapses to one cluster rather than failing, so a
//! small image cut into small tiles may ask for 65,535 clusters. A stitch
//! that kept `clusters × clusters` vote counters per tile pair would ask
//! for terabytes there, one `u32` per (tile, requested cluster) a
//! gigabyte for a 64×64 image in 1×1 tiles, and a failed allocation
//! aborts the process.
//!
//! This binary holds one test, so the largest allocation its global
//! allocator records belongs to that test's runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use imaging::{DynamicImage, GrayImage};
use seghdc::{ExecutedMode, SegEngine, SegHdcConfig, SegmentRequest, TileConfig};

/// The system allocator, recording the size of the largest allocation it
/// has been asked for.
struct LargestAllocation(AtomicUsize);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; recording a size has no effect on the allocation.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation(AtomicUsize::new(0));

/// The most a tiled run may allocate at once, per pixel of its image.
const BYTES_PER_PIXEL: usize = 64;

/// A gray `width × height` test pattern.
fn pattern(width: usize, height: usize) -> DynamicImage {
    let mut image = GrayImage::new(width, height).unwrap();
    for y in 0..height {
        for x in 0..width {
            image.set(x, y, ((x * 7 + y * 13) % 256) as u8).unwrap();
        }
    }
    DynamicImage::Gray(image)
}

/// Runs `image` in `tiles` through `engine`, checks the output covers
/// every pixel, and returns the largest allocation of the run with its
/// grid.
fn largest_allocation_of_a_tiled_run(
    engine: &SegEngine,
    image: &DynamicImage,
    tiles: TileConfig,
) -> (usize, (usize, usize)) {
    ALLOCATOR.0.store(0, Ordering::Relaxed);
    let report = engine
        .run(&SegmentRequest::image(image).tiled(tiles))
        .unwrap();
    let largest = ALLOCATOR.0.load(Ordering::Relaxed);
    let output = report.single();
    let ExecutedMode::Tiled {
        tiles_x, tiles_y, ..
    } = output.mode
    else {
        panic!("a tiled request must execute tiled");
    };
    let pixels = image.pixel_count();
    assert_eq!(output.label_map.as_raw().len(), pixels);
    assert_eq!(output.cluster_sizes.iter().sum::<usize>(), pixels);
    (largest, (tiles_x, tiles_y))
}

#[test]
fn clusters_far_above_the_tile_pixels_allocate_per_pixel() {
    let clusters = 65_535;
    let config = SegHdcConfig::builder()
        .dimension(1024)
        .beta(4)
        .clusters(clusters)
        .build()
        .unwrap();
    let engine = SegEngine::new(config).unwrap();

    // 12×12 tiles with a 2 px halo: no padded tile reaches 65,535 pixels.
    // One `u32` per (tile, cluster) would be 3 MiB here, counters of
    // `clusters²` per tile pair 16 GiB for each pair.
    let image = pattern(40, 36);
    let tiles = TileConfig::square(12, 2).unwrap();
    let (largest, grid) = largest_allocation_of_a_tiled_run(&engine, &image, tiles);
    assert_eq!(grid, (4, 3));
    let bound = BYTES_PER_PIXEL * 40 * 36;
    assert!(
        largest <= bound,
        "largest allocation {largest} B exceeds {bound} B for 40x36 pixels"
    );

    // 1×1 tiles without a halo: 4,096 tiles of one pixel each, where one
    // `u32` per (tile, cluster) would be 1 GiB.
    let image = pattern(64, 64);
    let tiles = TileConfig::square(1, 0).unwrap();
    let (largest, grid) = largest_allocation_of_a_tiled_run(&engine, &image, tiles);
    assert_eq!(grid, (64, 64));
    let bound = BYTES_PER_PIXEL * 64 * 64;
    assert!(
        largest <= bound,
        "largest allocation {largest} B exceeds {bound} B for 64x64 pixels"
    );
}
