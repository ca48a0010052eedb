//! The streaming tiled path's memory grows with tiles × clusters, never
//! with the square of the cluster count. The cluster count and the tile
//! geometry both come from the request, and a tile with fewer pixels than
//! clusters collapses to one cluster rather than failing, so a small image
//! cut into small tiles may ask for 65,535 clusters. A stitch that kept
//! `clusters × clusters` vote counters per tile pair would ask for
//! terabytes there, and a failed allocation aborts the process.
//!
//! This binary holds one test, so the largest allocation its global
//! allocator records belongs to that test's run.

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

#[test]
fn clusters_far_above_the_tile_pixels_allocate_per_tile_and_cluster() {
    let clusters = 65_535;
    let config = SegHdcConfig::builder()
        .dimension(1024)
        .beta(4)
        .clusters(clusters)
        .build()
        .unwrap();
    let engine = SegEngine::new(config).unwrap();
    let mut image = GrayImage::new(40, 36).unwrap();
    for y in 0..36 {
        for x in 0..40 {
            image.set(x, y, ((x * 7 + y * 13) % 256) as u8).unwrap();
        }
    }
    let image = DynamicImage::Gray(image);
    // 12×12 tiles with a 2 px halo: no padded tile reaches 65,535 pixels.
    let tiles = TileConfig::square(12, 2).unwrap();

    let report = engine
        .run(&SegmentRequest::image(&image).tiled(tiles))
        .unwrap();
    let output = report.single();
    let ExecutedMode::Tiled {
        tiles_x, tiles_y, ..
    } = output.mode
    else {
        panic!("a tiled request must execute tiled");
    };
    assert_eq!((tiles_x, tiles_y), (4, 3));
    assert_eq!(output.label_map.as_raw().len(), 40 * 36);
    assert_eq!(output.cluster_sizes.iter().sum::<usize>(), 40 * 36);

    // The run's largest buffer is its union-find, one `u32` per
    // provisional id, one id per (tile, cluster): 3 MiB here. Counters of
    // `clusters²` per tile pair would be 16 GiB for each pair.
    let union_find = std::mem::size_of::<u32>() * tiles_x * tiles_y * clusters;
    let largest = ALLOCATOR.0.load(Ordering::Relaxed);
    assert!(
        largest <= union_find,
        "largest allocation {largest} B exceeds the {union_find} B union-find"
    );
}
