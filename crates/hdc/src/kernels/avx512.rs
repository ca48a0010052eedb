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
        }
    };
}

avx512_kernels_impl!(Avx512VpopcntKernels, "avx512-vpopcnt", vpopcnt);
avx512_kernels_impl!(Avx512Kernels, "avx512", mula);
