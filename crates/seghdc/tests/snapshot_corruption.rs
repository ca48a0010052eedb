//! Hardening tests for the snapshot decoder: corrupt input of every kind
//! must map to a typed [`SnapshotError`] — never a panic, never an
//! allocation beyond the input's own size.

use proptest::prelude::*;
use seghdc::cache::CodebookKey;
use seghdc::snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC};
use seghdc::{PixelEncoder, SegHdcConfig};
use std::sync::Arc;

fn config(seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(192)
        .beta(2)
        .iterations(1)
        .seed(seed)
        .build()
        .unwrap()
}

/// One representative snapshot: a header and one codebook section.
fn sample_bytes() -> Vec<u8> {
    let cfg = config(11);
    let key = CodebookKey::for_shape(&cfg, 7, 5, 1);
    let encoder = PixelEncoder::for_shape(&cfg, 7, 5, 1).unwrap();
    let mut snapshot = Snapshot::new();
    snapshot.push_codebook(key, Arc::new(encoder)).unwrap();
    snapshot.to_bytes()
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::BadMagic { found }) => assert_eq!(&found[1..], &SNAPSHOT_MAGIC[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_rejected_with_the_declared_version() {
    let mut bytes = sample_bytes();
    // Version bytes sit right after the 4-byte magic. Patch, then re-seal
    // the checksum so the version check (not the checksum) is what fires.
    bytes[4] = 0x2a;
    bytes[5] = 0x00;
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion(version)) => assert_eq!(version, 0x2a),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn every_truncation_length_is_a_typed_error() {
    let bytes = sample_bytes();
    for len in 0..bytes.len() {
        match Snapshot::from_bytes(&bytes[..len]) {
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch
                | SnapshotError::BadMagic { .. },
            ) => {}
            other => panic!("truncation to {len} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn oversized_declared_counts_are_capped_before_allocation() {
    let bytes = sample_bytes();
    // The codebook-count field lives at offset 6 (magic 4 + version 2).
    // Declare u32::MAX sections: the cap check must fire without the
    // decoder attempting to materialize them.
    let mut patched = bytes.clone();
    patched[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut patched);
    match Snapshot::from_bytes(&patched) {
        Err(SnapshotError::LengthCap { len, .. }) => assert_eq!(len, u64::from(u32::MAX)),
        other => panic!("expected LengthCap, got {other:?}"),
    }

    // Same for the centroid-set count at offset 10.
    let mut patched = bytes.clone();
    patched[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut patched);
    assert!(matches!(
        Snapshot::from_bytes(&patched),
        Err(SnapshotError::LengthCap { .. })
    ));
}

#[test]
fn a_declared_centroid_set_is_refused_at_the_header() {
    // The centroid-set count at offset 10 must be 0. Declare one and also
    // corrupt the first codebook key's dimension (offset 22): the header
    // check must fire first, before any section is decoded or allocated.
    let mut patched = sample_bytes();
    patched[10..14].copy_from_slice(&1u32.to_le_bytes());
    patched[22..30].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut patched);
    match Snapshot::from_bytes(&patched) {
        Err(SnapshotError::LengthCap { field, len, cap }) => {
            assert_eq!((field, len, cap), ("centroid set count", 1, 0));
        }
        other => panic!("expected LengthCap on the centroid-set count, got {other:?}"),
    }
}

#[test]
fn a_huge_dimension_inside_a_key_is_capped() {
    let bytes = sample_bytes();
    // The first codebook key starts at offset 14; its dimension is the
    // u64 after the 8-byte seed.
    let mut patched = bytes.clone();
    patched[22..30].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut patched);
    match Snapshot::from_bytes(&patched) {
        Err(SnapshotError::LengthCap { field, .. }) => assert_eq!(field, "key dimension"),
        other => panic!("expected LengthCap on the dimension, got {other:?}"),
    }
}

#[test]
fn flipped_checksum_bytes_are_detected() {
    let bytes = sample_bytes();
    let len = bytes.len();
    for offset in len - 8..len {
        let mut patched = bytes.clone();
        patched[offset] ^= 0x01;
        assert!(
            matches!(
                Snapshot::from_bytes(&patched),
                Err(SnapshotError::ChecksumMismatch)
            ),
            "flip at trailer offset {offset}"
        );
    }
}

#[test]
fn trailing_garbage_inside_the_sealed_body_is_rejected() {
    // Append bytes between the last section and the checksum, re-seal:
    // the checksum passes but the decoder must notice the leftovers.
    let mut bytes = sample_bytes();
    let trailer_at = bytes.len() - 8;
    bytes.splice(trailer_at..trailer_at, [0xAA, 0xBB, 0xCC]);
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        // Depending on where the cursor lands the spare bytes are either
        // left over after the sections or consumed into a field that then
        // fails validation; both are acceptable typed outcomes, a silent
        // success is not.
        Err(
            SnapshotError::TrailingBytes(_)
            | SnapshotError::Truncated { .. }
            | SnapshotError::InvalidField { .. }
            | SnapshotError::LengthCap { .. },
        ) => {}
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// Recomputes the FNV-1a-64 trailer after a deliberate body patch.
fn reseal(bytes: &mut [u8]) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let body_len = bytes.len() - 8;
    for &byte in &bytes[..body_len] {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    bytes[body_len..].copy_from_slice(&hash.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single flipped byte decodes to a typed error or (for flips that
    /// cancel out semantically, which a checksum can in principle admit) a
    /// well-formed snapshot — never a panic.
    #[test]
    fn random_single_byte_flips_never_panic(offset_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = sample_bytes();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[offset] ^= 1 << bit;
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// Any flipped byte with a re-sealed checksum — so corruption reaches
    /// the section decoders instead of stopping at the trailer — still
    /// never panics and never silently corrupts a length check.
    #[test]
    fn resealed_body_corruption_never_panics(offset_frac in 0.0f64..1.0, byte in any::<u8>()) {
        let mut bytes = sample_bytes();
        let body_len = bytes.len() - 8;
        let offset = ((body_len - 1) as f64 * offset_frac) as usize;
        bytes[offset] = byte;
        reseal(&mut bytes);
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// Random truncation points (with the remainder re-sealed so the
    /// checksum is valid for the shortened body) hit the per-field
    /// truncation guards, not the trailer check.
    #[test]
    fn resealed_truncations_report_truncated_fields(keep_frac in 0.0f64..1.0) {
        let bytes = sample_bytes();
        let body_len = bytes.len() - 8;
        let keep = 14 + ((body_len - 14) as f64 * keep_frac) as usize;
        if keep >= body_len {
            return Ok(());
        }
        let mut shortened = bytes[..keep].to_vec();
        shortened.extend_from_slice(&[0u8; 8]);
        reseal(&mut shortened);
        match Snapshot::from_bytes(&shortened) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncated body decoded successfully"),
        }
    }

    /// Arbitrary random bytes with a valid header and sealed checksum:
    /// the decoder walks garbage sections and must always return an error
    /// (the sample's section counts guarantee content follows).
    #[test]
    fn sealed_random_bodies_never_panic(len in 0usize..512, seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut bytes = Vec::with_capacity(14 + len + 8);
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one codebook section
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for _ in 0..len {
            // xorshift64* keeps the generator dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8);
        }
        bytes.extend_from_slice(&[0u8; 8]);
        reseal(&mut bytes);
        prop_assert!(Snapshot::from_bytes(&bytes).is_err());
    }
}
