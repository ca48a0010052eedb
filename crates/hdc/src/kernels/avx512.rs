//! AVX-512 implementations of the [`Kernels`] trait.
//!
//! Two variants share one code shape through a macro:
//!
//! * [`Avx512VpopcntKernels`] (`"avx512-vpopcnt"`) uses the VPOPCNTDQ
//!   extension's native per-lane popcount (`_mm512_popcnt_epi64`) — one
//!   instruction where the lookup variant needs five.
//! * [`Avx512Kernels`] (`"avx512"`) is the fallback for CPUs without
//!   VPOPCNTDQ: the Muła nibble-lookup popcount widened to 512 bits. The
//!   512-bit `vpshufb`/`vpsadbw` it needs are AVX-512BW instructions, so
//!   this variant probes `avx512f` + `avx512bw` (present on effectively
//!   every AVX-512 CPU; a hypothetical F-only part falls back to AVX2).
//!
//! Ragged tails never leave the vector unit: both variants use AVX-512's
//! masked loads (`_mm512_maskz_loadu_epi64`), so a 67-word row is
//! eight full vectors plus one three-lane masked vector — no scalar tail
//! loop to keep in sync.
//!
//! Like the sibling `simd` module this is allowed `unsafe`: every unsafe
//! function is private, guarded by `#[target_feature]`, and only reachable
//! after the runtime probe in [`available`] has confirmed support. Results
//! are bit-exact with [`super::ScalarKernels`].
#![allow(unsafe_code)]

use super::Kernels;

/// Probes the running CPU and returns the AVX-512 kernels it supports,
/// best first (VPOPCNTDQ before the Muła fallback); empty when unsupported.
pub(super) fn available() -> Vec<&'static dyn Kernels> {
    let mut found: Vec<&'static dyn Kernels> = Vec::new();
    if std::arch::is_x86_feature_detected!("avx512f") {
        if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
            found.push(&Avx512VpopcntKernels);
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            found.push(&Avx512Kernels);
        }
    }
    found
}

/// AVX-512 kernels with the native VPOPCNTDQ per-lane popcount.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx512VpopcntKernels;

/// AVX-512 kernels with the Muła nibble-lookup popcount (AVX-512F + BW).
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx512Kernels;

/// Generates one variant's operation set: identical 512-bit loops, differing
/// only in the enabled feature string and the per-lane popcount primitive.
macro_rules! avx512_ops {
    ($modname:ident, $feat:literal, $popcnt:path) => {
        mod $modname {
            use core::arch::x86_64::{
                __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64,
                _mm512_maskz_loadu_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512,
                _mm512_sll_epi64, _mm512_xor_si512, _mm_cvtsi32_si128,
            };

            /// `u64` words per 512-bit vector.
            const LANES: usize = 8;

            /// Load mask selecting the low `rem` lanes (callers guarantee
            /// `0 < rem < LANES`).
            #[inline]
            fn tail_mask(rem: usize) -> u8 {
                debug_assert!(rem > 0 && rem < LANES);
                (1u8 << rem) - 1
            }

            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn load(words: &[u64], offset: usize) -> __m512i {
                debug_assert!(offset + LANES <= words.len());
                _mm512_loadu_epi64(words.as_ptr().add(offset).cast())
            }

            #[inline]
            #[target_feature(enable = $feat)]
            unsafe fn load_tail(words: &[u64], offset: usize, rem: usize) -> __m512i {
                debug_assert_eq!(offset + rem, words.len());
                _mm512_maskz_loadu_epi64(tail_mask(rem), words.as_ptr().add(offset).cast())
            }

            #[target_feature(enable = $feat)]
            pub(super) unsafe fn popcount_words(words: &[u64]) -> u64 {
                let full = words.len() / LANES * LANES;
                let rem = words.len() - full;
                let mut acc = _mm512_setzero_si512();
                for offset in (0..full).step_by(LANES) {
                    acc = _mm512_add_epi64(acc, $popcnt(load(words, offset)));
                }
                if rem != 0 {
                    acc = _mm512_add_epi64(acc, $popcnt(load_tail(words, full, rem)));
                }
                _mm512_reduce_add_epi64(acc) as u64
            }

            #[target_feature(enable = $feat)]
            pub(super) unsafe fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
                let full = a.len() / LANES * LANES;
                let rem = a.len() - full;
                let mut acc = _mm512_setzero_si512();
                for offset in (0..full).step_by(LANES) {
                    let x = _mm512_xor_si512(load(a, offset), load(b, offset));
                    acc = _mm512_add_epi64(acc, $popcnt(x));
                }
                if rem != 0 {
                    let x = _mm512_xor_si512(load_tail(a, full, rem), load_tail(b, full, rem));
                    acc = _mm512_add_epi64(acc, $popcnt(x));
                }
                _mm512_reduce_add_epi64(acc) as u64
            }

            #[target_feature(enable = $feat)]
            pub(super) unsafe fn and_popcount_words(a: &[u64], b: &[u64]) -> u64 {
                let full = a.len() / LANES * LANES;
                let rem = a.len() - full;
                let mut acc = _mm512_setzero_si512();
                for offset in (0..full).step_by(LANES) {
                    let x = _mm512_and_si512(load(a, offset), load(b, offset));
                    acc = _mm512_add_epi64(acc, $popcnt(x));
                }
                if rem != 0 {
                    let x = _mm512_and_si512(load_tail(a, full, rem), load_tail(b, full, rem));
                    acc = _mm512_add_epi64(acc, $popcnt(x));
                }
                _mm512_reduce_add_epi64(acc) as u64
            }

            /// Fused bit-sliced dot product of `row` against one plane
            /// group: each row vector (full or masked) is loaded once and
            /// reused across every plane of the group, plane popcounts are
            /// weighted by `2^p` in the vector domain (`vpsllq`), and a
            /// single lane reduction finishes the whole group.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn plane_dot_group(
                group: &[u64],
                words_per_plane: usize,
                row: &[u64],
            ) -> u64 {
                let full = words_per_plane / LANES * LANES;
                let rem = words_per_plane - full;
                let mut acc = _mm512_setzero_si512();
                for offset in (0..full).step_by(LANES) {
                    let row_vec = load(row, offset);
                    for (p, plane) in group.chunks_exact(words_per_plane).enumerate() {
                        let masked = _mm512_and_si512(row_vec, load(plane, offset));
                        acc = _mm512_add_epi64(
                            acc,
                            _mm512_sll_epi64($popcnt(masked), _mm_cvtsi32_si128(p as i32)),
                        );
                    }
                }
                if rem != 0 {
                    let row_vec = load_tail(row, full, rem);
                    for (p, plane) in group.chunks_exact(words_per_plane).enumerate() {
                        let masked = _mm512_and_si512(row_vec, load_tail(plane, full, rem));
                        acc = _mm512_add_epi64(
                            acc,
                            _mm512_sll_epi64($popcnt(masked), _mm_cvtsi32_si128(p as i32)),
                        );
                    }
                }
                _mm512_reduce_add_epi64(acc) as u64
            }
        }
    };
}

/// Per-64-bit-lane popcount via VPOPCNTDQ.
#[inline]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcnt512_hw(v: core::arch::x86_64::__m512i) -> core::arch::x86_64::__m512i {
    core::arch::x86_64::_mm512_popcnt_epi64(v)
}

/// Per-64-bit-lane popcount via the Muła nibble lookup widened to 512 bits
/// (`vpshufb` + `vpsadbw`, both AVX-512BW).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn popcnt512_mula(v: core::arch::x86_64::__m512i) -> core::arch::x86_64::__m512i {
    use core::arch::x86_64::{
        _mm512_add_epi8, _mm512_and_si512, _mm512_broadcast_i32x4, _mm512_sad_epu8,
        _mm512_set1_epi8, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_srli_epi64,
        _mm_setr_epi8,
    };
    let lookup = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    ));
    let low_mask = _mm512_set1_epi8(0x0f);
    let lo = _mm512_and_si512(v, low_mask);
    let hi = _mm512_and_si512(_mm512_srli_epi64::<4>(v), low_mask);
    let counts = _mm512_add_epi8(
        _mm512_shuffle_epi8(lookup, lo),
        _mm512_shuffle_epi8(lookup, hi),
    );
    _mm512_sad_epu8(counts, _mm512_setzero_si512())
}

avx512_ops!(vpopcnt, "avx512f,avx512vpopcntdq", super::popcnt512_hw);
avx512_ops!(mula, "avx512f,avx512bw", super::popcnt512_mula);

/// Members per block in [`counts_dot_multi_bw`] — see the AVX2 sibling.
const COUNT_MEMBERS: usize = 4;

/// Fused multi-centroid dot product over expanded `u16` counts (the
/// [`Kernels::counts_dot_multi`] contract), shared by both variants. Here
/// the bit→lane expansion is free: 32 row bits move straight into a
/// `__mmask32` register (`kmov`) that zero-masks the counts load, so each
/// member costs one masked load plus one `vpmaddwd`-by-1 per 32 dimensions.
/// Needs AVX-512BW for the 16-bit masked loads, which the VPOPCNTDQ
/// variant's probe does not cover — its trait method re-probes BW and
/// declines without it.
///
/// Exactness relies on the caller's gates (counts ≤ `i16::MAX`,
/// `lanes · i16::MAX ≤ i32::MAX`): pair sums and the 32-bit accumulators —
/// including the final signed lane reduction — never wrap.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn counts_dot_multi_bw(counts: &[u16], row: &[u64], out: &mut [u64]) {
    debug_assert_eq!(counts.len(), row.len() * 64 * out.len());
    let mut member = 0usize;
    while out.len() - member >= COUNT_MEMBERS {
        counts_dot_block_bw::<COUNT_MEMBERS>(counts, member, row, out);
        member += COUNT_MEMBERS;
    }
    match out.len() - member {
        3 => counts_dot_block_bw::<3>(counts, member, row, out),
        2 => counts_dot_block_bw::<2>(counts, member, row, out),
        1 => counts_dot_block_bw::<1>(counts, member, row, out),
        _ => {}
    }
}

/// One member block of [`counts_dot_multi_bw`]. The block width is a const
/// generic so the member loops fully unroll and the `MEMBERS` accumulators
/// live in `zmm` registers (a runtime bound kept them in memory).
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn counts_dot_block_bw<const MEMBERS: usize>(
    counts: &[u16],
    member_base: usize,
    row: &[u64],
    out: &mut [u64],
) {
    use core::arch::x86_64::{
        __mmask32, _mm512_add_epi32, _mm512_madd_epi16, _mm512_maskz_loadu_epi16,
        _mm512_reduce_add_epi32, _mm512_set1_epi16, _mm512_setzero_si512,
    };
    debug_assert!(member_base + MEMBERS <= out.len());
    let lanes_per_member = row.len() * 64;
    let one16 = _mm512_set1_epi16(1);
    let mut acc = [_mm512_setzero_si512(); MEMBERS];
    for (w, &word) in row.iter().enumerate() {
        for half in 0..2 {
            let mask = ((word >> (32 * half)) & 0xFFFF_FFFF) as __mmask32;
            if mask == 0 {
                continue;
            }
            let lane = w * 64 + half * 32;
            for (member, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `lane + 32 ≤ lanes_per_member` (32 lanes per half
                // word) and `member_base + member < out.len()`, so the
                // masked 32-`u16` load sits inside `counts` per the length
                // contract asserted by the caller.
                let selected = _mm512_maskz_loadu_epi16(
                    mask,
                    counts
                        .as_ptr()
                        .add((member_base + member) * lanes_per_member + lane)
                        .cast(),
                );
                *slot = _mm512_add_epi32(*slot, _mm512_madd_epi16(selected, one16));
            }
        }
    }
    for (member, acc32) in acc.into_iter().enumerate() {
        out[member_base + member] += _mm512_reduce_add_epi32(acc32) as u64;
    }
}

/// Implements the trait for one variant by delegating to its ops module.
macro_rules! avx512_kernels_impl {
    ($struct:ident, $name:literal, $ops:ident) => {
        impl Kernels for $struct {
            fn name(&self) -> &'static str {
                $name
            }

            fn popcount(&self, words: &[u64]) -> u64 {
                // SAFETY: `available` gated construction of this kernel on
                // runtime support for every enabled feature.
                unsafe { $ops::popcount_words(words) }
            }

            fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
                debug_assert_eq!(a.len(), b.len());
                // SAFETY: see `popcount`.
                unsafe { $ops::hamming_words(a, b) }
            }

            fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
                debug_assert_eq!(a.len(), b.len());
                // SAFETY: see `popcount`.
                unsafe { $ops::and_popcount_words(a, b) }
            }

            fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
                debug_assert_ne!(words_per_plane, 0);
                debug_assert_eq!(planes.len() % words_per_plane, 0);
                debug_assert_eq!(row.len(), words_per_plane);
                // SAFETY: see `popcount`.
                unsafe { $ops::plane_dot_group(planes, words_per_plane, row) }
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
                    *slot += unsafe {
                        $ops::plane_dot_group(&planes[offset..end], words_per_plane, row)
                    };
                    offset = end;
                }
            }

            fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
                debug_assert_eq!(stacked.len(), row.len() * out.len());
                for (k, slot) in out.iter_mut().enumerate() {
                    // SAFETY: see `popcount`. Direct internal call keeps
                    // the per-centroid loop free of virtual dispatch.
                    *slot =
                        unsafe { $ops::hamming_words(row, &stacked[k * row.len()..][..row.len()]) };
                }
            }

            fn counts_dot_multi(&self, counts: &[u16], row: &[u64], out: &mut [u64]) -> bool {
                debug_assert_eq!(counts.len(), row.len() * 64 * out.len());
                // The shared implementation needs 16-bit masked loads
                // (AVX-512BW), which the VPOPCNTDQ probe does not imply;
                // `is_x86_feature_detected!` caches, so this is one atomic
                // load per call.
                if !std::arch::is_x86_feature_detected!("avx512bw") {
                    return false;
                }
                // SAFETY: `avx512f` was gated by `available`, `avx512bw`
                // re-probed just above.
                unsafe { counts_dot_multi_bw(counts, row, out) };
                true
            }
        }
    };
}

avx512_kernels_impl!(Avx512VpopcntKernels, "avx512-vpopcnt", vpopcnt);
avx512_kernels_impl!(Avx512Kernels, "avx512", mula);
