//! Property-based tests for the hypervector substrate.

use hdc::{Accumulator, BinaryHypervector, HdcRng, HvMatrix};
use proptest::prelude::*;

fn arb_dim() -> impl Strategy<Value = usize> {
    1usize..1500
}

fn arb_seed() -> impl Strategy<Value = u64> {
    any::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_is_a_metric(dim in arb_dim(), seed in arb_seed()) {
        let mut rng = HdcRng::seed_from(seed);
        let a = BinaryHypervector::random(dim, &mut rng);
        let b = BinaryHypervector::random(dim, &mut rng);
        let c = BinaryHypervector::random(dim, &mut rng);
        let ab = a.hamming(&b).unwrap();
        let ba = b.hamming(&a).unwrap();
        let ac = a.hamming(&c).unwrap();
        let cb = c.hamming(&b).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(a.hamming(&a).unwrap(), 0);
        // Triangle inequality.
        prop_assert!(ab <= ac + cb);
        // Bounded by dimension.
        prop_assert!(ab <= dim);
    }

    #[test]
    fn xor_binding_preserves_distances(dim in arb_dim(), seed in arb_seed()) {
        let mut rng = HdcRng::seed_from(seed);
        let a = BinaryHypervector::random(dim, &mut rng);
        let b = BinaryHypervector::random(dim, &mut rng);
        let key = BinaryHypervector::random(dim, &mut rng);
        let before = a.hamming(&b).unwrap();
        let after = a.xor(&key).unwrap().hamming(&b.xor(&key).unwrap()).unwrap();
        prop_assert_eq!(before, after);
        // Unbinding recovers the original.
        prop_assert_eq!(a.xor(&key).unwrap().xor(&key).unwrap(), a);
    }

    #[test]
    fn flip_range_distance_equals_length(
        dim in 64usize..2000,
        seed in arb_seed(),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let mut rng = HdcRng::seed_from(seed);
        let base = BinaryHypervector::random(dim, &mut rng);
        let start = ((dim - 1) as f64 * start_frac) as usize;
        let len = ((dim - start) as f64 * len_frac) as usize;
        let mut flipped = base.clone();
        flipped.flip_range(start, len).unwrap();
        prop_assert_eq!(base.hamming(&flipped).unwrap(), len);
    }

    #[test]
    fn cosine_similarity_is_bounded_and_symmetric(dim in arb_dim(), seed in arb_seed()) {
        let mut rng = HdcRng::seed_from(seed);
        let a = BinaryHypervector::random(dim, &mut rng);
        let b = BinaryHypervector::random(dim, &mut rng);
        let sab = a.cosine_similarity(&b).unwrap();
        let sba = b.cosine_similarity(&a).unwrap();
        prop_assert!((sab - sba).abs() < 1e-12);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&sab));
    }

    #[test]
    fn accumulator_dot_matches_naive(dim in arb_dim(), seed in arb_seed(), n in 1usize..6) {
        let mut rng = HdcRng::seed_from(seed);
        let members: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let probe = BinaryHypervector::random(dim, &mut rng);
        let mut acc = Accumulator::zeros(dim).unwrap();
        for m in &members {
            acc.add_row(m.as_row()).unwrap();
        }
        // Naive count-based dot product.
        let mut naive = 0u64;
        for i in 0..dim {
            if probe.bit(i).unwrap() {
                let count = members.iter().filter(|m| m.bit(i).unwrap()).count() as u64;
                naive += count;
            }
        }
        prop_assert_eq!(acc.dot_row(probe.as_row()).unwrap(), naive);
    }

    #[test]
    fn majority_bundle_is_closer_to_members_than_random(seed in arb_seed()) {
        let dim = 2048usize;
        let mut rng = HdcRng::seed_from(seed);
        let members: Vec<BinaryHypervector> =
            (0..5).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let outsider = BinaryHypervector::random(dim, &mut rng);
        let mut acc = Accumulator::zeros(dim).unwrap();
        for m in &members {
            acc.add_row(m.as_row()).unwrap();
        }
        let bundle = acc.to_majority().unwrap();
        let mean_member: f64 = members
            .iter()
            .map(|m| bundle.hamming(m).unwrap() as f64)
            .sum::<f64>()
            / members.len() as f64;
        let outsider_dist = bundle.hamming(&outsider).unwrap() as f64;
        prop_assert!(mean_member < outsider_dist);
    }

    #[test]
    fn to_bits_from_bits_roundtrip(dim in arb_dim(), seed in arb_seed()) {
        let mut rng = HdcRng::seed_from(seed);
        let hv = BinaryHypervector::random(dim, &mut rng);
        let rebuilt = BinaryHypervector::from_bits(&hv.to_bits()).unwrap();
        prop_assert_eq!(hv, rebuilt);
    }

    /// `HvMatrix` rows round-trip with `BinaryHypervector` bit-for-bit for
    /// any dimension, including non-multiples of 64.
    #[test]
    fn matrix_rows_roundtrip_with_vectors(dim in arb_dim(), seed in arb_seed(), n in 1usize..8) {
        let mut rng = HdcRng::seed_from(seed);
        let vectors: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let matrix = HvMatrix::from_vectors(&vectors).unwrap();
        prop_assert_eq!(matrix.rows(), n);
        prop_assert_eq!(matrix.stride_words(), dim.div_ceil(64));
        prop_assert_eq!(matrix.to_vectors(), vectors);
    }

    /// XOR binding into a matrix row equals the allocating vector XOR, and
    /// row Hamming distances equal vector Hamming distances.
    #[test]
    fn matrix_bind_and_hamming_match_vector_path(dim in arb_dim(), seed in arb_seed()) {
        let mut rng = HdcRng::seed_from(seed);
        let a = BinaryHypervector::random(dim, &mut rng);
        let b = BinaryHypervector::random(dim, &mut rng);
        let key = BinaryHypervector::random(dim, &mut rng);
        let mut matrix = HvMatrix::from_vectors(&[a.clone(), b.clone()]).unwrap();
        matrix.fill_stored_rows(|_, row| row.xor_assign(&key).unwrap());
        prop_assert_eq!(matrix.row(0).to_hypervector(), a.xor(&key).unwrap());
        prop_assert_eq!(
            matrix.row(0).hamming(matrix.row(1)).unwrap(),
            a.hamming(&b).unwrap()
        );
        prop_assert_eq!(matrix.row(0).count_ones(), a.xor(&key).unwrap().count_ones());
    }

    /// Bundling matrix rows into an accumulator matches bundling the
    /// equivalent vectors borrowed as rows: identical counts, majority
    /// vector and bit-identical cosine similarities.
    #[test]
    fn matrix_bundling_matches_vector_bundling(dim in arb_dim(), seed in arb_seed(), n in 1usize..6) {
        let mut rng = HdcRng::seed_from(seed);
        let members: Vec<BinaryHypervector> =
            (0..n).map(|_| BinaryHypervector::random(dim, &mut rng)).collect();
        let probe = BinaryHypervector::random(dim, &mut rng);
        let matrix = HvMatrix::from_vectors(&members).unwrap();

        let mut by_vector = Accumulator::zeros(dim).unwrap();
        let mut by_row = Accumulator::zeros(dim).unwrap();
        for (i, member) in members.iter().enumerate() {
            by_vector.add_row(member.as_row()).unwrap();
            by_row.add_row(matrix.row(i)).unwrap();
        }
        prop_assert_eq!(&by_vector, &by_row);
        prop_assert_eq!(by_vector.to_majority().unwrap(), by_row.to_majority().unwrap());

        let probe_matrix = HvMatrix::from_vectors(std::slice::from_ref(&probe)).unwrap();
        prop_assert_eq!(
            by_vector.dot_row(probe.as_row()).unwrap(),
            by_row.dot_row(probe_matrix.row(0)).unwrap()
        );
        prop_assert_eq!(
            by_vector.cosine_similarity_row(probe.as_row()).unwrap().to_bits(),
            by_row.cosine_similarity_row(probe_matrix.row(0)).unwrap().to_bits()
        );
    }
}
