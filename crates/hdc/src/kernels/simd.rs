//! Explicit SIMD implementations of the [`Kernels`] trait.
//!
//! Compiled only with the `simd` crate feature on `x86_64` (AVX2) and
//! `aarch64` (NEON). Selection happens at runtime through
//! [`available`]: the instruction sets are probed and the matching
//! implementations are handed out as `&'static dyn Kernels`, so a binary
//! built on one machine runs correctly (falling back to scalar) on another.
//! The AVX-512 implementations live in the sibling `avx512` module.
//!
//! This module (with `avx512`) is where the crate allows `unsafe`: the
//! vendor intrinsics require it. Every unsafe function is private, guarded
//! by the corresponding `#[target_feature]`, and only reachable after the
//! runtime probe in [`available`] has confirmed the CPU supports that
//! feature. Results are bit-exact with [`super::ScalarKernels`] — the
//! popcount algorithms differ (nibble-lookup vs `count_ones`) but both are
//! exact integer popcounts, so there is nothing approximate to diverge.
#![allow(unsafe_code)]

use super::Kernels;

/// Probes the running CPU and returns the 128/256-bit SIMD kernels it
/// supports (AVX2 on `x86_64`, NEON on `aarch64`); empty when unsupported.
pub(super) fn available() -> Vec<&'static dyn Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::Avx2Kernels::is_supported() {
            return vec![&x86::Avx2Kernels];
        }
        Vec::new()
    }
    #[cfg(target_arch = "aarch64")]
    {
        if aarch64::NeonKernels::is_supported() {
            return vec![&aarch64::NeonKernels];
        }
        Vec::new()
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Kernels;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8,
        _mm256_and_si256, _mm256_cmpeq_epi16, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_sad_epu8, _mm256_set1_epi16, _mm256_set1_epi8,
        _mm256_setr_epi16, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Number of `u64` words per 256-bit AVX2 lane group.
    const LANES: usize = 4;

    /// AVX2 kernels: 256-bit XOR/AND passes and the Muła nibble-lookup
    /// vector popcount (`pshufb` + `psadbw`), four words per step.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Avx2Kernels;

    impl Avx2Kernels {
        /// Runtime probe for every feature the kernels are compiled with.
        pub(super) fn is_supported() -> bool {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
        }
    }

    /// Per-64-bit-lane popcount of a 256-bit vector: nibble lookup via
    /// `pshufb`, horizontal byte sums via `psadbw`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount256(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Sums the four 64-bit lanes of an accumulator vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum(v: __m256i) -> u64 {
        let mut lanes = [0u64; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().sum()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(words: &[u64]) -> __m256i {
        debug_assert_eq!(words.len(), LANES);
        _mm256_loadu_si256(words.as_ptr().cast())
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn popcount_avx2(words: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = words.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            acc = _mm256_add_epi64(acc, popcount256(load(chunk)));
        }
        // `count_ones` compiles to `popcnt` here: the feature is enabled on
        // this function, so the scalar tail is still hardware popcount.
        horizontal_sum(acc) + tail.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn hamming_avx2(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = a.chunks_exact(LANES);
        let a_tail = chunks.remainder();
        for (chunk, other) in chunks.zip(b.chunks_exact(LANES)) {
            acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(load(chunk), load(other))));
        }
        let tail_start = a.len() - a_tail.len();
        horizontal_sum(acc)
            + a_tail
                .iter()
                .zip(&b[tail_start..])
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum::<u64>()
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = a.chunks_exact(LANES);
        let a_tail = chunks.remainder();
        for (chunk, other) in chunks.zip(b.chunks_exact(LANES)) {
            acc = _mm256_add_epi64(acc, popcount256(_mm256_and_si256(load(chunk), load(other))));
        }
        let tail_start = a.len() - a_tail.len();
        horizontal_sum(acc)
            + a_tail
                .iter()
                .zip(&b[tail_start..])
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum::<u64>()
    }

    /// Fused bit-sliced dot product of `row` against one plane group,
    /// computed in the **byte domain**: the row chunk is loaded once per
    /// lane group and reused across every plane; each masked plane's
    /// per-byte popcounts (Muła nibble LUT) are multiplied by the plane
    /// weight `2^p` and pair-summed into 16-bit lanes with one
    /// `vpmaddubsw`, skipping both the per-chunk `vpsadbw` reduction and
    /// the per-plane horizontal sum of the per-centroid path — one 32-bit
    /// reduction finishes a whole weight group.
    ///
    /// `vpmaddubsw` saturates at `i16::MAX`, so exactness is kept by
    /// construction: plane weights are capped at `2^6` (planes are
    /// processed in weight groups of ≤ 7, each group's partial total
    /// shifted by `2^(7g)` at the end), which bounds one chunk's
    /// contribution to a 16-bit lane by `2·8·(2^7 − 1) = 2032`, and the
    /// 16-bit accumulator is drained into 32-bit lanes (`vpmaddwd` by 1)
    /// every `⌊32767 / per-chunk-bound⌋` chunks — the saturation point is
    /// unreachable.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn plane_dot_group_avx2(group: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        debug_assert_eq!(row.len(), words_per_plane);
        debug_assert!(words_per_plane == 0 || group.len().is_multiple_of(words_per_plane));
        let planes = group.len().checked_div(words_per_plane).unwrap_or(0);
        let full = words_per_plane / LANES * LANES;
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let one16 = _mm256_set1_epi16(1);
        let mut total = 0u64;
        let mut base = 0usize;
        while base < planes {
            let group_planes = (planes - base).min(7);
            let mut weights = [_mm256_setzero_si256(); 7];
            for (p, weight) in weights.iter_mut().take(group_planes).enumerate() {
                *weight = _mm256_set1_epi8(1i8 << p);
            }
            // One chunk adds at most `2·8·2^p` per plane to a 16-bit lane;
            // summed over the weight group that is `16·(2^group_planes − 1)`.
            let drain_every = 32_767 / (16 * ((1usize << group_planes) - 1));
            let mut acc32 = _mm256_setzero_si256();
            let mut acc16 = _mm256_setzero_si256();
            let mut chunks_held = 0usize;
            let mut chunk_start = 0usize;
            while chunk_start < full {
                // Raw-pointer loads: the slice-indexed form re-checks
                // bounds on every strided plane access (the optimiser
                // cannot see `start + LANES ≤ group.len()` through the
                // multiplication), which costs ~15% on this hot loop. The
                // asserts above pin the invariants that make these in
                // bounds: `chunk_start + LANES ≤ full ≤ words_per_plane`
                // and `base + p < planes`.
                let row_vec = _mm256_loadu_si256(row.as_ptr().add(chunk_start).cast());
                for (p, weight) in weights.iter().take(group_planes).enumerate() {
                    let start = (base + p) * words_per_plane + chunk_start;
                    let masked = _mm256_and_si256(
                        row_vec,
                        _mm256_loadu_si256(group.as_ptr().add(start).cast()),
                    );
                    let lo = _mm256_and_si256(masked, low_mask);
                    let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(masked), low_mask);
                    let bytes = _mm256_add_epi8(
                        _mm256_shuffle_epi8(lookup, lo),
                        _mm256_shuffle_epi8(lookup, hi),
                    );
                    acc16 = _mm256_add_epi16(acc16, _mm256_maddubs_epi16(bytes, *weight));
                }
                chunks_held += 1;
                if chunks_held == drain_every {
                    acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(acc16, one16));
                    acc16 = _mm256_setzero_si256();
                    chunks_held = 0;
                }
                chunk_start += LANES;
            }
            acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(acc16, one16));
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc32);
            total += lanes.iter().map(|&lane| u64::from(lane)).sum::<u64>() << base;
            for w in full..words_per_plane {
                let row_word = row[w];
                for p in 0..group_planes {
                    let word = group[(base + p) * words_per_plane + w];
                    total += u64::from((word & row_word).count_ones()) << (base + p);
                }
            }
            base += group_planes;
        }
        total
    }

    /// Members per block in [`counts_dot_multi_avx2`]: enough to amortise
    /// the shared row-bit mask expansion, few enough that the per-member
    /// 32-bit accumulators stay in registers.
    const COUNT_MEMBERS: usize = 4;

    /// Fused multi-centroid dot product over expanded `u16` counts (the
    /// [`Kernels::counts_dot_multi`] contract). Every 16 row bits are
    /// expanded **once** into a 16-lane `0xFFFF`/`0x0000` mask (broadcast +
    /// `vpand` against per-lane bit selectors + `vpcmpeqw`) and shared by
    /// all members of a block: each member then costs one counts load, one
    /// `vpand`, and one `vpmaddwd`-by-1 into its 32-bit accumulator. All
    /// planes of the counter are consumed at once, so for K centroids of P
    /// planes this does O(K + 3) vector ops per 16 dimensions where the
    /// bit-sliced path does O(10·K·P / 4).
    ///
    /// Exactness relies on the caller's gates (counts ≤ `i16::MAX`,
    /// `lanes · i16::MAX ≤ i32::MAX`): masked counts are non-negative
    /// `i16`s, so `vpmaddwd` pair sums and the 32-bit lane accumulators
    /// never wrap.
    #[target_feature(enable = "avx2")]
    unsafe fn counts_dot_multi_avx2(counts: &[u16], row: &[u64], out: &mut [u64]) {
        debug_assert_eq!(counts.len(), row.len() * 64 * out.len());
        let mut member = 0usize;
        while out.len() - member >= COUNT_MEMBERS {
            counts_dot_block_avx2::<COUNT_MEMBERS>(counts, member, row, out);
            member += COUNT_MEMBERS;
        }
        match out.len() - member {
            3 => counts_dot_block_avx2::<3>(counts, member, row, out),
            2 => counts_dot_block_avx2::<2>(counts, member, row, out),
            1 => counts_dot_block_avx2::<1>(counts, member, row, out),
            _ => {}
        }
    }

    /// One member block of [`counts_dot_multi_avx2`]. The block width is a
    /// const generic so the member loops fully unroll and the `MEMBERS`
    /// 32-bit accumulators live in registers — with a runtime bound the
    /// compiler kept the accumulator array in memory, which tripled the
    /// loop's cost.
    #[target_feature(enable = "avx2")]
    unsafe fn counts_dot_block_avx2<const MEMBERS: usize>(
        counts: &[u16],
        member_base: usize,
        row: &[u64],
        out: &mut [u64],
    ) {
        debug_assert!(member_base + MEMBERS <= out.len());
        let lanes_per_member = row.len() * 64;
        let bit_sel = _mm256_setr_epi16(
            1,
            2,
            4,
            8,
            16,
            32,
            64,
            128,
            256,
            512,
            1024,
            2048,
            4096,
            8192,
            16384,
            i16::MIN,
        );
        let one16 = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); MEMBERS];
        for (w, &word) in row.iter().enumerate() {
            for quarter in 0..4 {
                let piece = (word >> (16 * quarter)) & 0xFFFF;
                if piece == 0 {
                    continue;
                }
                let broadcast = _mm256_set1_epi16(piece as i16);
                let mask = _mm256_cmpeq_epi16(_mm256_and_si256(broadcast, bit_sel), bit_sel);
                let lane = w * 64 + quarter * 16;
                for (member, slot) in acc.iter_mut().enumerate() {
                    // SAFETY: `lane + 16 ≤ lanes_per_member` (16 lanes per
                    // quarter word) and `member_base + member < out.len()`,
                    // so the 16 `u16`s read here sit inside `counts` per
                    // the length contract asserted by the caller.
                    let member_counts = _mm256_loadu_si256(
                        counts
                            .as_ptr()
                            .add((member_base + member) * lanes_per_member + lane)
                            .cast(),
                    );
                    let selected = _mm256_and_si256(member_counts, mask);
                    *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(selected, one16));
                }
            }
        }
        for (member, acc32) in acc.into_iter().enumerate() {
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc32);
            out[member_base + member] += lanes.iter().map(|&lane| u64::from(lane)).sum::<u64>();
        }
    }

    impl Kernels for Avx2Kernels {
        fn name(&self) -> &'static str {
            "avx2"
        }

        fn popcount(&self, words: &[u64]) -> u64 {
            // SAFETY: `is_supported` gated construction of this kernel on
            // runtime AVX2 support.
            unsafe { popcount_avx2(words) }
        }

        fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
            debug_assert_eq!(a.len(), b.len());
            // SAFETY: see `popcount`.
            unsafe { hamming_avx2(a, b) }
        }

        fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
            debug_assert_eq!(a.len(), b.len());
            // SAFETY: see `popcount`.
            unsafe { and_popcount_avx2(a, b) }
        }

        fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
            debug_assert_ne!(words_per_plane, 0);
            debug_assert_eq!(planes.len() % words_per_plane, 0);
            debug_assert_eq!(row.len(), words_per_plane);
            // SAFETY: see `popcount`.
            unsafe { plane_dot_group_avx2(planes, words_per_plane, row) }
        }

        fn plane_dot_multi(
            &self,
            planes: &[u64],
            words_per_plane: usize,
            group_plane_counts: &[usize],
            row: &[u64],
            out: &mut [u64],
        ) {
            debug_assert_ne!(words_per_plane, 0);
            debug_assert_eq!(row.len(), words_per_plane);
            debug_assert_eq!(out.len(), group_plane_counts.len());
            let mut offset = 0;
            for (slot, &count) in out.iter_mut().zip(group_plane_counts) {
                let end = offset + count * words_per_plane;
                // SAFETY: see `popcount`.
                *slot +=
                    unsafe { plane_dot_group_avx2(&planes[offset..end], words_per_plane, row) };
                offset = end;
            }
        }

        fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
            debug_assert_eq!(stacked.len(), row.len() * out.len());
            for (k, slot) in out.iter_mut().enumerate() {
                // SAFETY: see `popcount`. Direct internal call keeps the
                // per-centroid loop free of virtual dispatch.
                *slot = unsafe { hamming_avx2(row, &stacked[k * row.len()..][..row.len()]) };
            }
        }

        fn counts_dot_multi(&self, counts: &[u16], row: &[u64], out: &mut [u64]) -> bool {
            debug_assert_eq!(counts.len(), row.len() * 64 * out.len());
            // SAFETY: see `popcount`.
            unsafe { counts_dot_multi_avx2(counts, row, out) };
            true
        }

        // `xor_into` and `bundle_add_planes` deliberately keep the trait's
        // default bodies: both are pure AND/XOR data movement, which the
        // compiler already auto-vectorizes. In the `kernels` bench a
        // hand-written AVX2 `xor_into` tied it, and a hand-written
        // `bundle_add_planes` measured *slower* (an extra liveness
        // reduction per plane).
    }
}

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use super::Kernels;
    use core::arch::aarch64::{
        uint64x2_t, vaddlvq_u8, vandq_u64, vcntq_u8, veorq_u64, vld1q_u64, vreinterpretq_u8_u64,
    };

    /// Number of `u64` words per 128-bit NEON vector.
    const LANES: usize = 2;

    /// NEON kernels: 128-bit XOR/AND passes and the `cnt` byte popcount
    /// with an across-vector widening sum.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct NeonKernels;

    impl NeonKernels {
        pub(super) fn is_supported() -> bool {
            std::arch::is_aarch64_feature_detected!("neon")
        }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn load(words: &[u64]) -> uint64x2_t {
        debug_assert_eq!(words.len(), LANES);
        vld1q_u64(words.as_ptr())
    }

    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn popcount128(v: uint64x2_t) -> u64 {
        u64::from(vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))))
    }

    #[target_feature(enable = "neon")]
    unsafe fn popcount_neon(words: &[u64]) -> u64 {
        let chunks = words.chunks_exact(LANES);
        let tail = chunks.remainder();
        let mut total = 0u64;
        for chunk in chunks {
            total += popcount128(load(chunk));
        }
        total + tail.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
    }

    #[target_feature(enable = "neon")]
    unsafe fn hamming_neon(a: &[u64], b: &[u64]) -> u64 {
        let chunks = a.chunks_exact(LANES);
        let a_tail = chunks.remainder();
        let tail_start = a.len() - a_tail.len();
        let mut total = 0u64;
        for (chunk, other) in chunks.zip(b.chunks_exact(LANES)) {
            total += popcount128(veorq_u64(load(chunk), load(other)));
        }
        total
            + a_tail
                .iter()
                .zip(&b[tail_start..])
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum::<u64>()
    }

    #[target_feature(enable = "neon")]
    unsafe fn and_popcount_neon(a: &[u64], b: &[u64]) -> u64 {
        let chunks = a.chunks_exact(LANES);
        let a_tail = chunks.remainder();
        let tail_start = a.len() - a_tail.len();
        let mut total = 0u64;
        for (chunk, other) in chunks.zip(b.chunks_exact(LANES)) {
            total += popcount128(vandq_u64(load(chunk), load(other)));
        }
        total
            + a_tail
                .iter()
                .zip(&b[tail_start..])
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum::<u64>()
    }

    /// Fused bit-sliced dot product of `row` against one plane group: the
    /// row chunk is loaded once per vector and reused across every plane.
    #[target_feature(enable = "neon")]
    unsafe fn plane_dot_group_neon(group: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        let full = words_per_plane / LANES * LANES;
        let mut total = 0u64;
        for chunk_start in (0..full).step_by(LANES) {
            let row_vec = load(&row[chunk_start..chunk_start + LANES]);
            for (p, plane) in group.chunks_exact(words_per_plane).enumerate() {
                let masked = vandq_u64(row_vec, load(&plane[chunk_start..chunk_start + LANES]));
                total += popcount128(masked) << p;
            }
        }
        for w in full..words_per_plane {
            let row_word = row[w];
            for (p, plane) in group.chunks_exact(words_per_plane).enumerate() {
                total += u64::from((plane[w] & row_word).count_ones()) << p;
            }
        }
        total
    }

    impl Kernels for NeonKernels {
        fn name(&self) -> &'static str {
            "neon"
        }

        fn popcount(&self, words: &[u64]) -> u64 {
            // SAFETY: `is_supported` gated construction of this kernel on
            // runtime NEON support.
            unsafe { popcount_neon(words) }
        }

        fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
            debug_assert_eq!(a.len(), b.len());
            // SAFETY: see `popcount`.
            unsafe { hamming_neon(a, b) }
        }

        fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
            debug_assert_eq!(a.len(), b.len());
            // SAFETY: see `popcount`.
            unsafe { and_popcount_neon(a, b) }
        }

        fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
            debug_assert_ne!(words_per_plane, 0);
            debug_assert_eq!(planes.len() % words_per_plane, 0);
            debug_assert_eq!(row.len(), words_per_plane);
            // SAFETY: see `popcount`.
            unsafe { plane_dot_group_neon(planes, words_per_plane, row) }
        }

        fn plane_dot_multi(
            &self,
            planes: &[u64],
            words_per_plane: usize,
            group_plane_counts: &[usize],
            row: &[u64],
            out: &mut [u64],
        ) {
            debug_assert_ne!(words_per_plane, 0);
            debug_assert_eq!(row.len(), words_per_plane);
            debug_assert_eq!(out.len(), group_plane_counts.len());
            let mut offset = 0;
            for (slot, &count) in out.iter_mut().zip(group_plane_counts) {
                let end = offset + count * words_per_plane;
                // SAFETY: see `popcount`.
                *slot +=
                    unsafe { plane_dot_group_neon(&planes[offset..end], words_per_plane, row) };
                offset = end;
            }
        }

        fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
            debug_assert_eq!(stacked.len(), row.len() * out.len());
            for (k, slot) in out.iter_mut().enumerate() {
                // SAFETY: see `popcount`. Direct internal call keeps the
                // per-centroid loop free of virtual dispatch.
                *slot = unsafe { hamming_neon(row, &stacked[k * row.len()..][..row.len()]) };
            }
        }
    }
}
