//! Snapshot bytes pinned across commits. The snapshot round-trip tests
//! compare a file with its own reload inside one build, so a change that
//! moves what the writer emits would pass them all, and every file an
//! older build saved would stop loading. This test exports a fixed
//! two-codebook cache, one gray and one RGB, and compares the FNV-1a of
//! its `SGSN` bytes with a checksum recorded by an earlier commit.
//!
//! Codebooks are a pure function of their key, so the same key gives the
//! same bytes on every platform and kernel ISA. A change that is meant to
//! alter the format bumps `SNAPSHOT_VERSION` and re-records the value
//! from the failure message.

use seghdc_suite::prelude::*;
use seghdc_suite::seghdc::{CodebookKey, PixelEncoder};

/// FNV-1a of the exported bytes, and their length.
const RECORDED: (u64, usize) = (0x280f09650305f939, 21940);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A cache holding two built codebooks: a 12×9 gray one at d = 256 and a
/// 10×6 RGB one at d = 320 with random colour codes.
fn two_codebook_cache() -> CodebookCache {
    let gray = SegHdcConfig::builder()
        .dimension(256)
        .beta(2)
        .seed(7)
        .build()
        .unwrap();
    let rgb = SegHdcConfig::builder()
        .dimension(320)
        .beta(3)
        .seed(8)
        .color_encoding(ColorEncoding::Random)
        .build()
        .unwrap();
    let cache = CodebookCache::with_capacity(usize::MAX);
    for (config, width, height, channels) in [(&gray, 12, 9, 1), (&rgb, 10, 6, 3)] {
        let key = CodebookKey::for_shape(config, width, height, channels);
        cache
            .get_or_build(key, || {
                PixelEncoder::for_shape(config, width, height, channels)
            })
            .unwrap();
    }
    cache
}

#[test]
fn exported_snapshot_bytes_match_the_recorded_checksum() {
    let bytes = two_codebook_cache().export_snapshot().to_bytes();
    let found = (fnv1a64(&bytes), bytes.len());
    assert_eq!(
        found, RECORDED,
        "snapshot bytes moved: found ({:#018x}, {})",
        found.0, found.1
    );
    // The recorded bytes load back into a cache that exports them again.
    let restored = CodebookCache::with_capacity(usize::MAX);
    assert_eq!(
        restored.install_snapshot(&Snapshot::from_bytes(&bytes).unwrap()),
        2
    );
    assert_eq!(restored.export_snapshot().to_bytes(), bytes);
}
