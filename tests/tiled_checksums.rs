//! Tiled label maps of odd tile grids pinned across commits. The
//! equivalence suites compare tiled runs with whole-image runs inside one
//! build, and `label_checksums.rs` pins one even 2×2 grid; this test pins
//! the grids whose bookkeeping is easiest to get wrong:
//!
//! * a 3×2 grid whose last column and last row are narrower than the halo;
//! * a one-column grid;
//! * a 2×2 grid, where a later tile's north-east neighbour and another
//!   later tile's west neighbour sit at the same index distance;
//! * another 2×2 grid, where one merge is made only by the stitch of the
//!   lower-left tile onto its north-east neighbour;
//! * a grid without a halo, so no tile votes;
//! * a 3×2 grid over an `ImageView::crop` at a non-zero origin;
//! * a 3×2 grid asking for more clusters than its last column has pixels,
//!   so those tiles collapse to one cluster while the others form every
//!   cluster;
//! * a 4×3 grid asking for 65,535 clusters, far more than any tile has
//!   pixels, so every tile collapses.
//!
//! Each case runs gray and RGB and records the FNV-1a of the label map,
//! the stitched-group sizes, the stitched label count and the passes run.
//! The images are drawn with integer arithmetic only, so the same case
//! gives the same pixels, and therefore the same record, on every
//! platform and kernel ISA. A change that is meant to alter labels
//! re-records the table from the failure message.

use seghdc_suite::prelude::*;

/// One tiled run: the image drawn, the rectangle of it that is segmented,
/// the tile geometry and the cluster count.
struct Case {
    name: &'static str,
    /// `(width, height)` of the drawn image.
    image: (usize, usize),
    /// `(x, y, width, height)` of the segmented view.
    crop: (usize, usize, usize, usize),
    /// `(tile width, tile height, halo)`.
    tiles: (usize, usize, usize),
    clusters: usize,
}

const CASES: [Case; 8] = [
    Case {
        name: "3x2 narrow last column and row",
        image: (35, 19),
        crop: (0, 0, 35, 19),
        tiles: (16, 16, 5),
        clusters: 2,
    },
    Case {
        name: "one column",
        image: (20, 44),
        crop: (0, 0, 20, 44),
        tiles: (24, 12, 3),
        clusters: 3,
    },
    Case {
        name: "2x2",
        image: (34, 30),
        crop: (0, 0, 34, 30),
        tiles: (18, 16, 4),
        clusters: 3,
    },
    Case {
        name: "2x2 north-east merge",
        image: (30, 32),
        crop: (0, 0, 30, 32),
        tiles: (16, 16, 4),
        clusters: 3,
    },
    Case {
        name: "no halo",
        image: (40, 24),
        crop: (0, 0, 40, 24),
        tiles: (16, 16, 0),
        clusters: 2,
    },
    Case {
        name: "crop at (7, 5)",
        image: (50, 44),
        crop: (7, 5, 34, 30),
        tiles: (16, 16, 3),
        clusters: 3,
    },
    Case {
        name: "clusters above the last column's pixels",
        image: (17, 4),
        crop: (0, 0, 17, 4),
        tiles: (8, 2, 1),
        clusters: 9,
    },
    Case {
        name: "clusters above every tile's pixels",
        image: (40, 36),
        crop: (0, 0, 40, 36),
        tiles: (12, 12, 2),
        clusters: 65_535,
    },
];

/// What one case records.
#[derive(Debug, PartialEq)]
struct Record {
    name: &'static str,
    rgb: bool,
    fnv: u64,
    cluster_sizes: Vec<usize>,
    stitched_labels: usize,
    iterations_run: usize,
}

/// `(case name, rgb, FNV-1a of the label map, cluster sizes, stitched
/// labels, iterations run)`.
type Recorded = (&'static str, bool, u64, &'static [usize], usize, usize);

#[rustfmt::skip]
const RECORDED: [Recorded; 16] = [
    ("3x2 narrow last column and row", false, 0x33e89aea2d485955, &[289, 376], 2, 6),
    ("3x2 narrow last column and row", true, 0x68963d54dc329434, &[290, 375], 2, 6),
    ("one column", false, 0x1c4b822e720a01d1, &[107, 349, 241, 183], 4, 6),
    ("one column", true, 0xdc62bd554e3d0e56, &[186, 451, 243], 3, 6),
    ("2x2", false, 0x3e140f63b9ca5507, &[135, 570, 315], 3, 6),
    ("2x2", true, 0xe6da988e75cfaf35, &[132, 582, 306], 3, 6),
    ("2x2 north-east merge", false, 0x4cbd719ddb782ca5, &[186, 774], 2, 6),
    ("2x2 north-east merge", true, 0xee90b3dfba9f5a67, &[773, 187], 2, 6),
    ("no halo", false, 0x6298b96b627001e5, &[184, 776], 2, 5),
    ("no halo", true, 0xe8115a97afc917d5, &[194, 766], 2, 5),
    ("crop at (7, 5)", false, 0xe101819f2c77de84, &[517, 201, 302], 3, 6),
    ("crop at (7, 5)", true, 0xe101819f2c77de84, &[517, 201, 302], 3, 6),
    ("clusters above the last column's pixels", false, 0x58f225dd43e8ab60, &[11, 8, 7, 2, 7, 1, 5, 2, 6, 2, 1, 7, 4, 1, 1, 1, 2], 17, 3),
    ("clusters above the last column's pixels", true, 0xa1b210f20dde66c4, &[6, 10, 2, 6, 1, 7, 1, 5, 2, 9, 1, 8, 3, 3, 4], 15, 4),
    ("clusters above every tile's pixels", false, 0x1f968d47cc6fa525, &[1440], 1, 0),
    ("clusters above every tile's pixels", true, 0x1f968d47cc6fa525, &[1440], 1, 0),
];

/// A 64-bit xorshift* stream.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % bound
    }
}

/// Noisy discs of three brightness classes on a noisy background that
/// brightens from top to bottom, with overlapping noise ranges: one
/// intensity per pixel, from integer draws only.
fn intensities(width: usize, height: usize, seed: u64) -> Vec<u8> {
    let mut stream = Stream::new(seed);
    let discs: Vec<(i64, i64, i64, u64)> = (0..6)
        .map(|i| {
            let x = stream.below(width as u64) as i64;
            let y = stream.below(height as u64) as i64;
            let radius = 3 + stream.below(7) as i64;
            (x, y, radius, 90 + 50 * (i % 3) + stream.below(20))
        })
        .collect();
    let mut pixels = Vec::with_capacity(width * height);
    for y in 0..height as i64 {
        for x in 0..width as i64 {
            let inside = discs
                .iter()
                .find(|&&(cx, cy, r, _)| (x - cx).pow(2) + (y - cy).pow(2) <= r * r);
            let level = inside.map_or(30 + y as u64, |&(_, _, _, level)| level);
            pixels.push((level + stream.below(40)) as u8);
        }
    }
    pixels
}

/// The case's image, single-channel or a tinted three-channel copy.
fn image(case: &Case, rgb: bool) -> DynamicImage {
    let (width, height) = case.image;
    let gray = intensities(width, height, width as u64 * 131 + height as u64);
    if rgb {
        let rgb = gray
            .iter()
            .flat_map(|&v| [v, (v as u16 * 3 / 4) as u8, v / 2 + 40])
            .collect();
        DynamicImage::Rgb(RgbImage::from_raw(width, height, rgb).unwrap())
    } else {
        DynamicImage::Gray(GrayImage::from_raw(width, height, gray).unwrap())
    }
}

fn fnv1a(labels: &[u32]) -> u64 {
    labels
        .iter()
        .flat_map(|label| label.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
            (hash ^ byte as u64).wrapping_mul(0x0100_0000_01B3)
        })
}

fn run(case: &Case, rgb: bool) -> Record {
    let config = SegHdcConfig::builder()
        .dimension(1024)
        .iterations(6)
        .alpha(0.5)
        .beta(4)
        .clusters(case.clusters)
        .build()
        .unwrap();
    let engine = SegEngine::new(config).unwrap();
    let image = image(case, rgb);
    let (x, y, width, height) = case.crop;
    let view = ImageView::crop(&image, x, y, width, height).unwrap();
    let (tile_width, tile_height, halo) = case.tiles;
    let tiles = TileConfig::new(tile_width, tile_height, halo).unwrap();
    let report = engine
        .run(&SegmentRequest::view(view).tiled(tiles))
        .unwrap();
    let output = report.single();
    let ExecutedMode::Tiled {
        stitched_labels, ..
    } = output.mode
    else {
        panic!("{}: a tiled request must execute tiled", case.name);
    };
    Record {
        name: case.name,
        rgb,
        fnv: fnv1a(output.label_map.as_raw()),
        cluster_sizes: output.cluster_sizes.clone(),
        stitched_labels,
        iterations_run: output.iterations_run,
    }
}

#[test]
fn odd_tile_grids_match_the_recorded_checksums() {
    let measured: Vec<Record> = CASES
        .iter()
        .flat_map(|case| [run(case, false), run(case, true)])
        .collect();
    let expected: Vec<Record> = RECORDED
        .iter()
        .map(
            |&(name, rgb, fnv, cluster_sizes, stitched_labels, iterations_run)| Record {
                name,
                rgb,
                fnv,
                cluster_sizes: cluster_sizes.to_vec(),
                stitched_labels,
                iterations_run,
            },
        )
        .collect();
    let table: String = measured
        .iter()
        .map(|record| {
            format!(
                "    ({:?}, {}, {:#018x}, &{:?}, {}, {}),\n",
                record.name,
                record.rgb,
                record.fnv,
                record.cluster_sizes,
                record.stitched_labels,
                record.iterations_run
            )
        })
        .collect();
    assert_eq!(
        measured, expected,
        "tiled label maps changed; the new records are\n{table}"
    );
}
