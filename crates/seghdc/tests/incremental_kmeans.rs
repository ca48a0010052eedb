//! The incremental matrix clusterer (`HvKmeans::cluster_matrix_with`,
//! which clusters each stored row of a matrix once for every row that
//! reads it, stops at the label fixed point and re-bundles only the rows
//! that changed cluster, with all their copies) against the per-vector
//! `HvKmeans::cluster`, which runs every configured pass and re-bundles
//! every pixel in each: the oracle. Rows repeat, as pixels of one position
//! block and one colour do, with multiplicities that set several bits;
//! each input is clustered both as a matrix of one stored row per pixel
//! and as one of one stored row per distinct pixel, as the keyed pixel
//! encoder builds it.
//!
//! Random rows with scattered noise run the bit-sliced passes. Level-coded
//! rows — a base with one prefix of each of a few spans flipped, as every
//! SegHDC level codebook builds them — run the closed-form interval passes
//! whenever their state fits the matrix, and each check asserts which path
//! ran.

mod common;

use common::BitSlicedCalls;
use hdc::kernels::{self, Kernels};
use hdc::{BinaryHypervector, HdcRng, HvMatrix, IntervalGroup};
use proptest::prelude::*;
use proptest::TestCaseError;
use seghdc::{ClusterOutcome, HvKmeans};

/// Which passes a matrix run is checked to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Closed-form interval passes exactly when their state fits the
    /// matrix.
    IntervalIfItFits,
    /// Not asserted: noisy rows may or may not stay under the toggle
    /// bound.
    Either,
}

/// `distinct` rows around `centres` random centres, each a random centre
/// with `noise` random bits flipped (noise near `dim / 2` leaves little
/// structure) and repeated 1 to `max_copies` times, in shuffled order,
/// every copy with its own random intensity.
fn noisy_pixels(
    seed: u64,
    (distinct, max_copies): (usize, u64),
    dim: usize,
    centres: usize,
    noise: usize,
) -> (Vec<BinaryHypervector>, Vec<u8>) {
    let mut rng = HdcRng::seed_from(seed);
    let centres: Vec<BinaryHypervector> = (0..centres)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let mut pixels = Vec::new();
    for _ in 0..distinct {
        let mut pixel = centres[rng.next_below(centres.len() as u64) as usize].clone();
        for _ in 0..noise {
            pixel
                .flip_bit(rng.next_below(dim as u64) as usize)
                .expect("index below dim");
        }
        let copies = 1 + rng.next_below(max_copies) as usize;
        pixels.extend(std::iter::repeat_n(pixel, copies));
    }
    shuffled_with_intensities(pixels, &mut rng)
}

/// `pixels` in shuffled order, every one with its own random intensity.
fn shuffled_with_intensities(
    mut pixels: Vec<BinaryHypervector>,
    rng: &mut HdcRng,
) -> (Vec<BinaryHypervector>, Vec<u8>) {
    for i in (1..pixels.len()).rev() {
        pixels.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let intensities = (0..pixels.len())
        .map(|_| rng.next_below(256) as u8)
        .collect();
    (pixels, intensities)
}

/// `distinct` level-coded rows of `dim` bits, repeated 1 to `max_copies`
/// times in shuffled order, every copy with its own random intensity.
/// `[0, dim)` is cut into `spans` contiguous spans, the last ending at bit
/// `dim`; each row is one random base with a prefix of each span flipped —
/// the whole span a quarter of the time, so intervals reach bit `dim` —
/// and so differs from any other row in at most one interval per span.
fn level_coded_pixels(
    seed: u64,
    (distinct, max_copies): (usize, u64),
    dim: usize,
    spans: usize,
) -> (Vec<BinaryHypervector>, Vec<u8>) {
    let mut rng = HdcRng::seed_from(seed);
    let base = BinaryHypervector::random(dim, &mut rng);
    let bounds: Vec<usize> = (0..=spans).map(|span| span * dim / spans).collect();
    let mut pixels = Vec::new();
    for _ in 0..distinct {
        let mut pixel = base.clone();
        for span in bounds.windows(2) {
            let len = span[1] - span[0];
            let flipped = if rng.next_below(4) == 0 {
                len
            } else {
                rng.next_below(len as u64 + 1) as usize
            };
            pixel.flip_range(span[0], flipped).unwrap();
        }
        let copies = 1 + rng.next_below(max_copies) as usize;
        pixels.extend(std::iter::repeat_n(pixel, copies));
    }
    shuffled_with_intensities(pixels, &mut rng)
}

/// Checks level-coded pixels against the oracle on the unshared, the
/// shared and a roomy shared matrix, which always holds the interval
/// passes' state; every matrix takes the interval passes exactly when the
/// state fits. Returns the oracle outcome.
fn check_level_coded(
    kmeans: &HvKmeans,
    pixels: &[BinaryHypervector],
    intensities: &[u8],
    kernels: &dyn Kernels,
) -> Result<ClusterOutcome, TestCaseError> {
    let oracle =
        check_against_oracle(kmeans, pixels, intensities, kernels, Path::IntervalIfItFits)?;
    let roomy = roomy_shared_matrix(pixels, kmeans.clusters());
    check_matrix_outcome(
        kmeans,
        &roomy,
        intensities,
        kernels,
        &oracle,
        Path::IntervalIfItFits,
    )?;
    Ok(oracle)
}

/// The pixels as a shared matrix: one stored row per distinct pixel, in
/// order of first appearance.
fn shared_matrix(pixels: &[BinaryHypervector]) -> HvMatrix {
    let mut stored: Vec<BinaryHypervector> = Vec::new();
    let index = pixels
        .iter()
        .map(|pixel| {
            let row = stored
                .iter()
                .position(|row| row == pixel)
                .unwrap_or_else(|| {
                    stored.push(pixel.clone());
                    stored.len() - 1
                });
            row as u32
        })
        .collect();
    HvMatrix::from_shared(&stored, index).unwrap()
}

/// Runs both paths, the matrix path on the unshared and on the shared
/// matrix, and checks each matrix outcome against the oracle's: identical
/// labels, snapshots, sizes and bundles, and a pass count that is at most
/// the oracle's and smaller only once the oracle's labels had settled.
/// Returns the oracle outcome.
fn check_against_oracle(
    kmeans: &HvKmeans,
    pixels: &[BinaryHypervector],
    intensities: &[u8],
    kernels: &dyn Kernels,
    path: Path,
) -> Result<ClusterOutcome, TestCaseError> {
    let oracle = kmeans.cluster(pixels, intensities).unwrap();
    for matrix in [
        HvMatrix::from_vectors(pixels).unwrap(),
        shared_matrix(pixels),
    ] {
        check_matrix_outcome(kmeans, &matrix, intensities, kernels, &oracle, path)?;
    }
    Ok(oracle)
}

/// The pixels as a shared matrix, like [`shared_matrix`], held in an arena
/// that earlier held a larger region, so its capacity leaves room for the
/// interval passes' state however few pixels it holds now.
fn roomy_shared_matrix(pixels: &[BinaryHypervector], clusters: usize) -> HvMatrix {
    let packed = shared_matrix(pixels);
    let dim = packed.dim();
    let state = IntervalGroup::state_bytes(clusters, dim).unwrap();
    let mut arena = HvMatrix::zeros(state.div_ceil(4), dim).unwrap();
    arena.reset_shared(packed.rows(), dim).unwrap();
    arena
        .share_rows(|index| {
            index.copy_from_slice(packed.stored_index());
            packed.stored_rows()
        })
        .unwrap();
    arena.fill_stored_rows(|stored, row| {
        row.copy_from(&packed.stored_row(stored).to_hypervector())
            .unwrap();
    });
    assert!(arena.capacity_bytes() >= state);
    arena
}

/// Checks one matrix outcome against the oracle's (see
/// [`check_against_oracle`]).
fn check_matrix_outcome(
    kmeans: &HvKmeans,
    matrix: &HvMatrix,
    intensities: &[u8],
    kernels: &dyn Kernels,
    oracle: &ClusterOutcome,
    path: Path,
) -> Result<(), TestCaseError> {
    let counted = BitSlicedCalls::new(kernels);
    let outcome = kmeans
        .cluster_matrix_with(matrix, intensities, &counted)
        .unwrap();
    if path == Path::IntervalIfItFits {
        let fits = IntervalGroup::state_bytes(kmeans.clusters(), matrix.dim())
            .is_some_and(|bytes| bytes <= matrix.capacity_bytes());
        let bit_sliced_calls = counted.calls();
        prop_assert!(
            (bit_sliced_calls == 0) == fits,
            "{} bit-sliced kernel calls; the interval state fits: {}",
            bit_sliced_calls,
            fits
        );
    }
    prop_assert_eq!(&outcome.labels, &oracle.labels);
    prop_assert_eq!(&outcome.snapshots, &oracle.snapshots);
    prop_assert_eq!(outcome.snapshots.len(), kmeans.iterations());
    prop_assert_eq!(&outcome.cluster_sizes, &oracle.cluster_sizes);
    prop_assert_eq!(&outcome.bundles, &oracle.bundles);
    prop_assert_eq!(oracle.iterations_run, kmeans.iterations());
    let run = outcome.iterations_run;
    prop_assert!(
        (1..=kmeans.iterations()).contains(&run),
        "{} passes of {}",
        run,
        kmeans.iterations()
    );
    if run < kmeans.iterations() {
        // The confirming pass reproduced the one before it, and the
        // oracle's labels never changed again from there.
        prop_assert!(run >= 2, "stopped after {} pass", run);
        let settled = &oracle.snapshots[run - 2];
        prop_assert!(
            oracle.snapshots[run - 2..].iter().all(|s| s == settled),
            "stopped after {} passes but the oracle kept moving",
            run
        );
    }
    Ok(())
}

/// Whether some cluster held pixels after one pass and none after a later
/// one, so its carried-over centroid took part in an assignment.
fn a_cluster_emptied_mid_run(oracle: &ClusterOutcome, clusters: usize) -> bool {
    (0..clusters as u32).any(|k| {
        let held: Vec<bool> = oracle
            .snapshots
            .iter()
            .map(|labels| labels.contains(&k))
            .collect();
        held.windows(2).any(|pair| pair[0] && !pair[1])
    })
}

/// Whether a row with at least two set bits in its multiplicity changed
/// cluster between two passes, so all its copies left a bundle at once.
fn a_repeated_row_changed_cluster(oracle: &ClusterOutcome, pixels: &[BinaryHypervector]) -> bool {
    let heavy: Vec<bool> = pixels
        .iter()
        .map(|pixel| {
            pixels
                .iter()
                .filter(|&row| row == pixel)
                .count()
                .count_ones()
                >= 2
        })
        .collect();
    oracle
        .snapshots
        .windows(2)
        .any(|pair| (0..pixels.len()).any(|pixel| heavy[pixel] && pair[0][pixel] != pair[1][pixel]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_cluster_matrix_matches_the_full_pass_oracle(
        seed in any::<u64>(),
        clusters in 2usize..6,
        iterations in 1usize..11,
        shape in (4usize..24, 64usize..400),
        noise_share in 0usize..6,
    ) {
        let (distinct, dim) = shape;
        // noise_share 0..6 sweeps tight groups (fast fixed points) up to
        // near-random rows that may never settle within the budget.
        let (pixels, intensities) =
            noisy_pixels(seed, (distinct.max(clusters), 40), dim, clusters, noise_share * dim / 10);
        let kmeans = HvKmeans::new(clusters, iterations, true).unwrap();
        for kernels in [kernels::scalar(), kernels::auto()] {
            check_against_oracle(&kmeans, &pixels, &intensities, kernels, Path::Either)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interval_passes_over_level_coded_rows_match_the_full_pass_oracle(
        seed in any::<u64>(),
        clusters in 2usize..6,
        iterations in 1usize..11,
        shape in (4usize..16, 64usize..330),
        spans in 1usize..6,
        max_copies in 1u64..100,
    ) {
        let (distinct, dim) = shape;
        let (pixels, intensities) =
            level_coded_pixels(seed, (distinct.max(clusters), max_copies), dim, spans);
        let kmeans = HvKmeans::new(clusters, iterations, true).unwrap();
        for kernels in [kernels::scalar(), kernels::auto()] {
            check_level_coded(&kmeans, &pixels, &intensities, kernels)?;
        }
    }
}

/// Intervals that end at bit `d`, with `d` on the 64-bit word grid and
/// off it, and rows equal to stored row 0, which have no toggle points:
/// the first pixel's row is repeated, and the base itself is a pixel.
#[test]
fn intervals_that_end_at_the_last_bit_match_the_oracle() {
    for dim in [256usize, 200] {
        let mut rng = HdcRng::seed_from(dim as u64);
        let base = BinaryHypervector::random(dim, &mut rng);
        let flip = |prefixes: [usize; 2]| {
            let mut row = base.clone();
            row.flip_range(0, prefixes[0]).unwrap();
            row.flip_range(dim / 2, prefixes[1]).unwrap();
            row
        };
        let half = dim - dim / 2;
        let distinct = [
            flip([3, half]),
            base.clone(),
            flip([0, half]),
            flip([dim / 2, half]),
            flip([10, 5]),
            flip([dim / 2, 0]),
            flip([20, half - 1]),
        ];
        let mut pixels = Vec::new();
        for (i, row) in distinct.iter().enumerate() {
            pixels.extend(std::iter::repeat_n(row.clone(), 1 + 13 * i));
        }
        pixels.push(distinct[0].clone());
        let intensities: Vec<u8> = (0..pixels.len()).map(|i| (i * 37 % 256) as u8).collect();
        for clusters in [2, 3] {
            let kmeans = HvKmeans::new(clusters, 6, true).unwrap();
            for kernels in [kernels::scalar(), kernels::auto()] {
                check_level_coded(&kmeans, &pixels, &intensities, kernels).unwrap();
            }
        }
    }
}

/// The interval passes' counterpart of the next test: level-coded inputs
/// whose runs empty a cluster, which then keeps its centroid, and move a
/// heavy row between clusters, all on matrices roomy enough for the
/// interval passes.
#[test]
fn level_coded_clusters_that_empty_and_heavy_rows_that_move_match_the_oracle() {
    let kmeans = HvKmeans::new(8, 8, true).unwrap();
    let (mut emptied, mut moved) = (0, 0);
    for seed in 0..100u64 {
        let (pixels, intensities) = level_coded_pixels(seed, (12, 6), 128, 3);
        let oracle = check_level_coded(&kmeans, &pixels, &intensities, kernels::auto()).unwrap();
        if a_cluster_emptied_mid_run(&oracle, 8) {
            emptied += 1;
        }
        if a_repeated_row_changed_cluster(&oracle, &pixels) {
            moved += 1;
        }
    }
    assert!(emptied > 0, "no input emptied a cluster mid-run");
    assert!(moved > 0, "no input moved a heavy row");
}

/// A cluster whose last pixels leave it mid-run: its bundle is emptied
/// and its size drops to zero in both paths; and a row repeated with a
/// multiplicity of several set bits that changes cluster, so the update
/// takes all its copies out of one bundle and into another. Such inputs
/// are searched for among five-cluster runs over two natural groups; the
/// search must find both, so neither case can silently drop out.
#[test]
fn clusters_that_empty_and_heavy_rows_that_move_match_the_oracle() {
    let kmeans = HvKmeans::new(5, 8, true).unwrap();
    let (mut emptied, mut moved) = (0, 0);
    for seed in 0..200u64 {
        let (pixels, intensities) = noisy_pixels(seed, (30, 6), 128, 2, 10);
        let oracle = check_against_oracle(
            &kmeans,
            &pixels,
            &intensities,
            kernels::auto(),
            Path::Either,
        )
        .unwrap();
        if a_cluster_emptied_mid_run(&oracle, 5) {
            emptied += 1;
        }
        if a_repeated_row_changed_cluster(&oracle, &pixels) {
            moved += 1;
        }
    }
    assert!(emptied > 0, "no input emptied a cluster mid-run");
    assert!(moved > 0, "no input moved a heavy row");
}

/// An empty cluster keeps its previous centroid, which can win pixels back
/// later. Both seeds are copies of one vector `a`, so pass 1 ties every
/// pixel into cluster 0 and empties cluster 1; pass 2 measures against
/// cluster 1's carried seed, and the copies of `a` move back to it.
#[test]
fn an_empty_cluster_wins_pixels_back_with_its_carried_centroid() {
    let mut rng = HdcRng::seed_from(5);
    let a = BinaryHypervector::random(200, &mut rng);
    let b = BinaryHypervector::random(200, &mut rng);
    // Five copies of `a`, the darkest and brightest among them, and seven
    // of `b`, so `b` holds the majority of cluster 0 after pass 1.
    let mut pixels = vec![a; 5];
    pixels.extend(std::iter::repeat_n(b, 7));
    let intensities = [0u8, 255, 100, 100, 100, 90, 90, 90, 90, 90, 90, 90];
    let kmeans = HvKmeans::new(2, 6, true).unwrap();
    for kernels in [kernels::scalar(), kernels::auto()] {
        let oracle =
            check_against_oracle(&kmeans, &pixels, &intensities, kernels, Path::Either).unwrap();
        assert!(!oracle.snapshots[0].contains(&1), "pass 1");
        assert_eq!(&oracle.snapshots[1][..5], &[1; 5], "pass 2");
        assert_eq!(oracle.cluster_sizes, [7, 5]);
    }
}
