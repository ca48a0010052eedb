//! Seeded inputs and the SegHDC configurations each workload runs.
//!
//! Every image comes from the `synthdata` generators, so each one has an
//! exact ground truth to score IoU against.

use imaging::{DynamicImage, LabelMap};
use seghdc::SegHdcConfig;
use synthdata::{DatasetProfile, NucleiImageGenerator};

/// One generated image and its binary ground truth.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The image the program sees.
    pub image: DynamicImage,
    /// Foreground/background ground truth.
    pub truth: LabelMap,
}

/// A well-mixed 64-bit value from `seed` and a stream index (SplitMix64),
/// so every input stream of a run is independent of the others.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` images of `profile` from the generator seeded by
/// `mix(seed, stream)`.
pub fn nuclei(profile: DatasetProfile, seed: u64, stream: u64, count: usize) -> Vec<Sample> {
    let generator =
        NucleiImageGenerator::new(profile, mix(seed, stream)).expect("benchmark profile is valid");
    (0..count)
        .map(|index| {
            let sample = generator.generate(index).expect("synthetic image renders");
            Sample {
                image: sample.image,
                truth: sample.ground_truth.to_binary(),
            }
        })
        .collect()
}

/// Edge of the `edge-images` frames.
pub const EDGE_SIZE: usize = 128;

/// The Table I presets of `edge-images`, DSB2018 first: d = 2048, the
/// presets' 10 iterations, and β scaled from the paper's ~256-pixel axes
/// to 128 pixels.
pub fn edge_configs(codebook_seed: u64) -> [SegHdcConfig; 2] {
    [SegHdcConfig::dsb2018(), SegHdcConfig::bbbc005()].map(|preset| SegHdcConfig {
        dimension: 2048,
        beta: (preset.beta * EDGE_SIZE / 256).max(1),
        seed: codebook_seed,
        ..preset
    })
}

/// The `examples/large_scan.rs` configuration: d = 2048, 3 iterations,
/// β = 16.
pub fn scan_config(codebook_seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(2048)
        .iterations(3)
        .beta(16)
        .seed(codebook_seed)
        .build()
        .expect("scan configuration is valid")
}

/// The small service configuration of both `serve-*` workloads.
pub fn serve_config(codebook_seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(512)
        .iterations(3)
        .beta(4)
        .seed(codebook_seed)
        .build()
        .expect("service configuration is valid")
}

/// `count` gray BBBC005-like frames of `edge`².
pub fn gray_frames(edge: usize, seed: u64, stream: u64, count: usize) -> Vec<Sample> {
    nuclei(
        DatasetProfile::bbbc005_like().scaled(edge, edge),
        seed,
        stream,
        count,
    )
}
