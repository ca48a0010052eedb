//! Which K-Means passes an engine run takes, and that either way its
//! labels are the per-vector `HvKmeans::cluster` oracle's.
//!
//! Every level codebook flips one prefix of its bit span, so level-coded
//! pixel rows differ from one another in a few bit intervals and the
//! clusterer runs its closed-form interval passes: no bit-sliced centroid
//! sweep (`plane_dot_multi`, `counts_dot_multi`) and no counter add
//! (`bundle_add_planes`). Random codebooks (the RPos and RColor ablations)
//! and runs whose interval state would outgrow the matrix take the
//! bit-sliced passes. A counting kernel selection installed in each
//! engine tells the two apart.

mod common;

use common::BitSlicedCalls;
use hdc::kernels;
use hdc::IntervalGroup;
use imaging::DynamicImage;
use seghdc::{
    ColorEncoding, ExecutedMode, HvKmeans, PixelEncoder, PositionEncoding, SegEngine, SegHdcConfig,
    SegmentRequest, SimdCpuBackend,
};
use synthdata::{DatasetProfile, NucleiImageGenerator};

/// A seeded synthetic nuclei image of `edge`², RGB (DSB2018-like) or gray
/// (BBBC005-like).
fn nuclei(edge: usize, rgb: bool, seed: u64) -> DynamicImage {
    let profile = if rgb {
        DatasetProfile::dsb2018_like()
    } else {
        DatasetProfile::bbbc005_like()
    };
    NucleiImageGenerator::new(profile.scaled(edge, edge), seed)
        .unwrap()
        .generate(0)
        .unwrap()
        .image
}

/// Runs `image` whole through an engine on the counting kernels, checks
/// its labels and sizes against the oracle's, and returns the number of
/// bit-sliced kernel calls the run made.
fn bit_sliced_calls_of_an_oracle_equal_run(config: &SegHdcConfig, image: &DynamicImage) -> usize {
    // An engine's kernels live as long as the program.
    let counting = Box::leak(Box::new(BitSlicedCalls::new(kernels::auto())));
    let engine = SegEngine::builder(config.clone())
        .backend(Box::new(SimdCpuBackend::with_kernels(counting)))
        .build()
        .unwrap();
    let report = engine.run(&SegmentRequest::image(image)).unwrap();
    let calls = counting.calls();
    let output = report.single();
    assert!(matches!(output.mode, ExecutedMode::WholeImage));

    let encoder =
        PixelEncoder::for_shape(config, image.width(), image.height(), image.channels()).unwrap();
    let pixels = encoder.encode_matrix(image).unwrap().to_vectors();
    let intensities: Vec<u8> = (0..image.height())
        .flat_map(|y| (0..image.width()).map(move |x| image.intensity_at(x, y).unwrap()))
        .collect();
    let oracle = HvKmeans::new(config.clusters, config.iterations, false)
        .unwrap()
        .cluster(&pixels, &intensities)
        .unwrap();
    assert_eq!(output.label_map.as_raw(), &oracle.labels[..], "{config:?}");
    assert_eq!(output.cluster_sizes, oracle.cluster_sizes, "{config:?}");
    calls
}

fn config(
    position: PositionEncoding,
    color: ColorEncoding,
    dimension: usize,
    gamma: usize,
) -> SegHdcConfig {
    SegHdcConfig::builder()
        .position_encoding(position)
        .color_encoding(color)
        .dimension(dimension)
        .gamma(gamma)
        .alpha(0.5)
        .beta(4)
        .iterations(4)
        .seed(7)
        .build()
        .unwrap()
}

/// Every level position encoding, each with Manhattan colour on gray and
/// RGB images: γ = 1 and γ = 3 (whose widened flips saturate at the end
/// of each chunk, the last one at bit `d`), dimensions on and off the
/// 64-bit word grid, and chunks under 256 bits, whose codes flip a
/// proportional prefix.
#[test]
fn level_coded_runs_make_no_bit_sliced_kernel_call() {
    let positions = [
        PositionEncoding::Uniform,
        PositionEncoding::Manhattan,
        PositionEncoding::DecayManhattan,
        PositionEncoding::BlockDecayManhattan,
    ];
    // (RGB, d, γ); d = 600 gives 200-bit RGB chunks, d = 200 a 200-bit
    // gray chunk. Each position encoding runs two of them, and each of
    // them runs under two position encodings.
    let colours = [
        (false, 1000, 1),
        (true, 1536, 3),
        (true, 600, 1),
        (false, 200, 3),
    ];
    for (i, position) in positions.into_iter().enumerate() {
        for j in [i, (i + 1) % colours.len()] {
            let (rgb, dimension, gamma) = colours[j];
            let config = config(position, ColorEncoding::Manhattan, dimension, gamma);
            let image = nuclei(48, rgb, (4 * i + j) as u64);
            let calls = bit_sliced_calls_of_an_oracle_equal_run(&config, &image);
            assert_eq!(
                calls, 0,
                "{position:?}, RGB {rgb}, d {dimension}, γ {gamma}"
            );
        }
    }
}

/// Random position codes (RPos) and random colour codes (RColor) differ
/// from one another in about half their bits, so their runs sweep
/// bit-sliced centroids.
#[test]
fn random_ablations_take_the_bit_sliced_passes() {
    for (position, color) in [
        (PositionEncoding::Random, ColorEncoding::Manhattan),
        (PositionEncoding::Manhattan, ColorEncoding::Random),
    ] {
        let config = config(position, color, 1000, 1);
        for rgb in [false, true] {
            let calls = bit_sliced_calls_of_an_oracle_equal_run(&config, &nuclei(48, rgb, 3));
            assert!(calls > 0, "{position:?}, {color:?}, RGB {rgb}");
        }
    }
}

/// The interval state holds `clusters × (d + 1)` prefix and difference
/// entries, and clusters come from the wire (up to 65,535), so a run whose
/// state would outgrow its own matrix takes the bit-sliced passes instead:
/// here 1,024 clusters at d = 2,048 would need 33.6 MB against a matrix of
/// at most 0.27 MB for 32×32 pixels. (A 64×64 image with 4,096 clusters
/// shows the same, but gives the per-vector oracle 16 times the work.)
#[test]
fn a_state_larger_than_the_matrix_takes_the_bit_sliced_passes() {
    let config = SegHdcConfig::builder()
        .dimension(2048)
        .clusters(1024)
        .iterations(1)
        .beta(4)
        .build()
        .unwrap();
    let state = IntervalGroup::state_bytes(1024, 2048).unwrap();
    assert!(state > 100 * (32 * 32 * (2048 / 8 + 4)));
    let calls = bit_sliced_calls_of_an_oracle_equal_run(&config, &nuclei(32, false, 5));
    assert!(calls > 0);
}
