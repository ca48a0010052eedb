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

use hdc::kernels::{self, Kernels};
use hdc::{BinaryHypervector, HdcRng, HvMatrix};
use proptest::prelude::*;
use proptest::TestCaseError;
use seghdc::{ClusterOutcome, DistanceMetric, HvKmeans};

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
    for i in (1..pixels.len()).rev() {
        pixels.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let intensities = (0..pixels.len())
        .map(|_| rng.next_below(256) as u8)
        .collect();
    (pixels, intensities)
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
) -> Result<ClusterOutcome, TestCaseError> {
    let oracle = kmeans.cluster(pixels, intensities).unwrap();
    for matrix in [
        HvMatrix::from_vectors(pixels).unwrap(),
        shared_matrix(pixels),
    ] {
        check_matrix_outcome(kmeans, &matrix, intensities, kernels, &oracle)?;
    }
    Ok(oracle)
}

/// Checks one matrix outcome against the oracle's (see
/// [`check_against_oracle`]).
fn check_matrix_outcome(
    kmeans: &HvKmeans,
    matrix: &HvMatrix,
    intensities: &[u8],
    kernels: &dyn Kernels,
    oracle: &ClusterOutcome,
) -> Result<(), TestCaseError> {
    let outcome = kmeans
        .cluster_matrix_with(matrix, intensities, kernels)
        .unwrap();
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
        hamming in any::<bool>(),
    ) {
        let (distinct, dim) = shape;
        let metric = if hamming {
            DistanceMetric::Hamming
        } else {
            DistanceMetric::Cosine
        };
        // noise_share 0..6 sweeps tight groups (fast fixed points) up to
        // near-random rows that may never settle within the budget.
        let (pixels, intensities) =
            noisy_pixels(seed, (distinct.max(clusters), 40), dim, clusters, noise_share * dim / 10);
        let kmeans = HvKmeans::new(clusters, iterations, metric, true).unwrap();
        for kernels in [kernels::scalar(), kernels::auto()] {
            check_against_oracle(&kmeans, &pixels, &intensities, kernels)?;
        }
    }
}

/// A cluster whose last pixels leave it mid-run: its bundle is emptied
/// and its size drops to zero in both paths; and a row repeated with a
/// multiplicity of several set bits that changes cluster, so the update
/// takes all its copies out of one bundle and into another. Such inputs
/// are searched for among five-cluster runs over two natural groups; the
/// search must find both for each metric, so neither case can silently
/// drop out.
#[test]
fn clusters_that_empty_and_heavy_rows_that_move_match_the_oracle() {
    for metric in [DistanceMetric::Cosine, DistanceMetric::Hamming] {
        let kmeans = HvKmeans::new(5, 8, metric, true).unwrap();
        let (mut emptied, mut moved) = (0, 0);
        for seed in 0..200u64 {
            let (pixels, intensities) = noisy_pixels(seed, (30, 6), 128, 2, 10);
            let oracle =
                check_against_oracle(&kmeans, &pixels, &intensities, kernels::auto()).unwrap();
            if a_cluster_emptied_mid_run(&oracle, 5) {
                emptied += 1;
            }
            if a_repeated_row_changed_cluster(&oracle, &pixels) {
                moved += 1;
            }
        }
        assert!(emptied > 0, "no {metric:?} input emptied a cluster mid-run");
        assert!(moved > 0, "no {metric:?} input moved a heavy row");
    }
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
    for metric in [DistanceMetric::Cosine, DistanceMetric::Hamming] {
        let kmeans = HvKmeans::new(2, 6, metric, true).unwrap();
        for kernels in [kernels::scalar(), kernels::auto()] {
            let oracle = check_against_oracle(&kmeans, &pixels, &intensities, kernels).unwrap();
            assert!(!oracle.snapshots[0].contains(&1), "{metric:?}: pass 1");
            assert_eq!(&oracle.snapshots[1][..5], &[1; 5], "{metric:?}: pass 2");
            assert_eq!(oracle.cluster_sizes, [7, 5], "{metric:?}");
        }
    }
}
