//! Label maps pinned across commits. The equivalence suites compare two
//! paths inside one build, so a change that alters the labels every path
//! produces would pass them all; this test compares the label maps of a
//! few seeded images, segmented whole and tiled under the DSB2018 and
//! BBBC005 presets at d = 2048, with FNV-1a checksums recorded by an
//! earlier commit.
//!
//! The images are drawn with integer arithmetic only (no floating point,
//! no libm), so the same seed gives the same pixels, and therefore the
//! same checksums, on every platform and kernel ISA. A change that is
//! meant to alter labels re-records the table from the failure message.

use seghdc_suite::prelude::*;

/// Side of every test image.
const SIZE: usize = 64;

/// `(preset, image seed, tiled, FNV-1a of the label map)`.
const RECORDED: [(&str, u64, bool, u64); 8] = [
    ("dsb2018", 1, false, 0x5bde094be2d67815),
    ("dsb2018", 1, true, 0xdf6b76e0db5e4914),
    ("dsb2018", 2, false, 0xbc7e90ab7ab9cfd4),
    ("dsb2018", 2, true, 0x58599b988f87ef54),
    ("bbbc005", 1, false, 0xaeed1b6b9d61a424),
    ("bbbc005", 1, true, 0xdf6b76e0db5e4914),
    ("bbbc005", 2, false, 0x78f0f3530a668c05),
    ("bbbc005", 2, true, 0x3668119a89775c57),
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

/// Noisy discs on a noisy background that brightens from left to right,
/// with contrast low enough that the noise ranges overlap, so the labels
/// near every boundary depend on the position codes: one intensity per
/// pixel, from integer draws only.
fn nuclei_intensities(seed: u64) -> Vec<u8> {
    let mut stream = Stream::new(seed);
    let discs: Vec<(i64, i64, i64, u64)> = (0..5)
        .map(|_| {
            let x = stream.below(SIZE as u64) as i64;
            let y = stream.below(SIZE as u64) as i64;
            let radius = 4 + stream.below(9) as i64;
            (x, y, radius, 105 + stream.below(40))
        })
        .collect();
    let mut pixels = Vec::with_capacity(SIZE * SIZE);
    for y in 0..SIZE as i64 {
        for x in 0..SIZE as i64 {
            let inside = discs
                .iter()
                .find(|&&(cx, cy, r, _)| (x - cx).pow(2) + (y - cy).pow(2) <= r * r);
            let level = inside.map_or(40 + x as u64 / 2, |&(_, _, _, level)| level);
            pixels.push((level + stream.below(48)) as u8);
        }
    }
    pixels
}

/// The DSB2018 stand-in is three-channel (a tinted copy of the
/// intensities), the BBBC005 one single-channel.
fn image(preset: &str, seed: u64) -> DynamicImage {
    let gray = nuclei_intensities(seed);
    match preset {
        "dsb2018" => {
            let rgb = gray
                .iter()
                .flat_map(|&v| [v, (v as u16 * 3 / 4) as u8, v / 2 + 40])
                .collect();
            DynamicImage::Rgb(RgbImage::from_raw(SIZE, SIZE, rgb).unwrap())
        }
        _ => DynamicImage::Gray(GrayImage::from_raw(SIZE, SIZE, gray).unwrap()),
    }
}

/// The preset at d = 2048 with β scaled from the paper's ~256-pixel axes,
/// as the repository benchmark configures it.
fn config(preset: &str) -> SegHdcConfig {
    let preset = match preset {
        "dsb2018" => SegHdcConfig::dsb2018(),
        _ => SegHdcConfig::bbbc005(),
    };
    SegHdcConfig {
        dimension: 2048,
        beta: (preset.beta * SIZE / 256).max(1),
        ..preset
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

#[test]
fn label_maps_match_the_recorded_checksums() {
    let tiles = TileConfig::square(SIZE / 2, 4).unwrap();
    let measured: Vec<(&str, u64, bool, u64)> = RECORDED
        .iter()
        .map(|&(preset, seed, tiled, _)| {
            let engine = SegEngine::new(config(preset)).unwrap();
            let image = image(preset, seed);
            let request = SegmentRequest::image(&image);
            let request = if tiled {
                request.tiled(tiles)
            } else {
                request.whole_image()
            };
            let report = engine.run(&request).unwrap();
            (
                preset,
                seed,
                tiled,
                fnv1a(report.single().label_map.as_raw()),
            )
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|&(preset, seed, tiled, hash)| {
            format!("    ({preset:?}, {seed}, {tiled}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(
        measured, RECORDED,
        "label maps changed; the new checksums are\n{table}"
    );
}
