//! The unified word-level bit-kernel layer.
//!
//! Every hot loop in the SegHDC pipeline — XOR binding during encoding,
//! Hamming distances during clustering, the `AND` + popcount passes behind
//! bit-sliced centroid dot products, and the bit-serial carry adds of the
//! vertical-counter [`crate::Accumulator`] — reduces to a handful of
//! word-wide operations over packed `u64` slices. This module extracts those
//! operations into one dispatchable [`Kernels`] trait so a single selection
//! decides, for the whole stack, whether they run as portable scalar Rust or
//! as explicit SIMD (AVX2 on `x86_64`, NEON on `aarch64`).
//!
//! # Dispatch
//!
//! * [`scalar()`] always returns the portable reference implementation.
//! * [`auto()`] returns the best implementation for the running CPU: with
//!   the `simd` crate feature enabled it probes the CPU once (at first use)
//!   and picks AVX-512 (VPOPCNTDQ when present) / AVX2 / NEON when
//!   supported, otherwise it falls back to scalar. The environment variable
//!   `SEGHDC_KERNELS` (checked once, at the same first use) forces a
//!   specific ISA by name — any of [`KNOWN_ISAS`] — and falls back to the
//!   best available implementation (with a one-time warning on stderr) when
//!   the forced ISA is not supported by the host or the build.
//! * [`simd()`] returns the best SIMD implementation when one is compiled
//!   in *and* supported by the running CPU, `None` otherwise.
//! * [`available()`] lists every implementation usable on this host, best
//!   first; [`by_name()`] looks one up by its ISA name.
//!
//! All implementations are **bit-exact**: for identical inputs every kernel
//! returns identical integers (and mutates buffers identically) regardless
//! of ISA. The pipeline's float math consumes only these exact integers, so
//! segmentation labels are byte-identical across kernel selections — the
//! invariant pinned by the `kernel_equivalence` test suite.

use std::sync::OnceLock;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512;
mod scalar;
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod simd;

pub use scalar::ScalarKernels;

/// Every ISA name a kernel implementation can report, best first within
/// each architecture — also the set of values `SEGHDC_KERNELS` accepts
/// (plus `auto`). Which of these are actually usable on the running host is
/// what [`available()`] reports.
pub const KNOWN_ISAS: &[&str] = &["avx512-vpopcnt", "avx512", "avx2", "neon", "scalar"];

/// Word-wide bit kernels over packed `u64` slices.
///
/// # Contract
///
/// * Paired slices (`dst`/`src`, `a`/`b`, plane/`row`) must have equal
///   lengths; callers validate dimensions before dispatch, so length
///   mismatches are caller bugs (checked with `debug_assert!`, unspecified
///   garbage in release).
/// * Slices are packed 64 bits per word, least-significant bit first. Bits
///   beyond a caller's logical dimension must already be masked to zero —
///   kernels operate on whole words and never re-mask tails.
/// * Implementations must be **bit-exact** with [`ScalarKernels`]: same
///   integers returned, same buffer contents written, for every input.
///   There is no tolerance; the scalar implementation is the specification.
/// * Implementations are stateless and must be `Send + Sync`; the same
///   kernel object is shared freely across threads.
pub trait Kernels: std::fmt::Debug + Send + Sync {
    /// A short ISA name for telemetry (`"scalar"`, `"avx2"`, `"neon"`).
    fn name(&self) -> &'static str;

    /// XORs `src` into `dst` element-wise (the HDC binding operation).
    ///
    /// Every implementation keeps this body. The compiler vectorises the
    /// loop: hand-written AVX2/AVX-512 versions tied it at d = 16,384 in
    /// the `kernels` bench, and saved at most a few ns a call on the
    /// 8–32-word rows the encoder binds at d = 512–2,048, under 2% of an
    /// engine run.
    fn xor_into(&self, dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    /// Total number of set bits across `words`.
    fn popcount(&self, words: &[u64]) -> u64;

    /// Number of differing bits between `a` and `b` (`popcount(a ^ b)`).
    fn hamming(&self, a: &[u64], b: &[u64]) -> u64;

    /// Number of shared set bits between `a` and `b` (`popcount(a & b)`).
    fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64;

    /// Dot product between a bit-sliced integer vector and a binary row:
    /// `Σ_p 2^p · popcount(plane_p AND row)`.
    ///
    /// `planes` holds `planes.len() / words_per_plane` bit planes
    /// back-to-back, least-significant plane first; `row` holds
    /// `words_per_plane` words.
    fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        debug_assert_ne!(words_per_plane, 0);
        debug_assert_eq!(planes.len() % words_per_plane, 0);
        debug_assert_eq!(row.len(), words_per_plane);
        planes
            .chunks_exact(words_per_plane)
            .enumerate()
            .map(|(p, plane)| self.and_popcount(plane, row) << p)
            .sum()
    }

    /// Fused multi-centroid form of [`plane_dot`](Kernels::plane_dot): one
    /// row against several bit-sliced counters stacked back-to-back.
    ///
    /// `planes` holds the plane stacks of `out.len()` counters
    /// concatenated; `group_plane_counts[k]` is how many planes counter `k`
    /// contributes (so `planes.len()` is the sum of the counts times
    /// `words_per_plane`). Each `out[k]` is **accumulated** (`+=`) with the
    /// dot product of counter `k` and `row`, allowing callers to sum
    /// partial dots across cache-blocked plane chunks. Implementations load
    /// each row word once and carry the per-counter sums in registers.
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
        debug_assert_eq!(
            planes.len(),
            group_plane_counts.iter().sum::<usize>() * words_per_plane
        );
        let mut offset = 0;
        for (slot, &count) in out.iter_mut().zip(group_plane_counts) {
            let end = offset + count * words_per_plane;
            *slot += self.plane_dot(&planes[offset..end], words_per_plane, row);
            offset = end;
        }
    }

    /// Fused multi-centroid form of [`hamming`](Kernels::hamming): one row
    /// against `out.len()` equal-width vectors stacked back-to-back in
    /// `stacked`. Writes each distance into `out[k]`, loading the row words
    /// once per vector at most (fused implementations keep them resident).
    fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
        debug_assert_eq!(stacked.len(), row.len() * out.len());
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.hamming(row, &stacked[k * row.len()..][..row.len()]);
        }
    }

    /// Optional fused multi-centroid dot product over *expanded* counts:
    /// member `k`'s per-dimension counts occupy
    /// `counts[k * L..(k + 1) * L]` as `u16` lanes, with `L = row.len() * 64`
    /// (lanes past the logical dimension zero), and `out[k]` is
    /// **accumulated** (`+=`) with `Σ_i counts_k[i] · bit_i(row)` — the same
    /// integer [`plane_dot_multi`](Kernels::plane_dot_multi) produces from
    /// the bit-sliced form of the same counters.
    ///
    /// Returns `true` when the implementation handled the computation and
    /// `false` (leaving `out` untouched) when the caller should fall back
    /// to the bit-sliced path. The default declines: in the scalar domain
    /// bit-sliced `AND` + popcount is faster than a per-lane walk, so only
    /// SIMD implementations with a cheap bit→lane-mask expansion (AVX2's
    /// `vpmaddwd` over compare masks, AVX-512BW's native `u16` load masks)
    /// opt in. Implementations that opt in are bit-exact with the
    /// bit-sliced path but assume the caller's gates: every count at most
    /// `i16::MAX` and `L · i16::MAX` at most `i32::MAX`, so lane sums never
    /// overflow the 32-bit accumulators (`BitSlicedGroup` enforces both
    /// before choosing this path).
    fn counts_dot_multi(&self, counts: &[u16], row: &[u64], out: &mut [u64]) -> bool {
        debug_assert_eq!(counts.len(), row.len() * 64 * out.len());
        let _ = (counts, row, out);
        false
    }

    /// Bit-serial ripple-carry add of a binary vector into a vertical
    /// counter.
    ///
    /// `planes` is a little-endian stack of bit planes (`words_per_plane`
    /// words each) holding one integer counter per bit position; `carry`
    /// enters holding the binary vector to add and is used as the carry
    /// word buffer. Each plane consumes the incoming carry
    /// (`plane' = plane XOR carry`, `carry' = plane AND carry`) and the add
    /// stops early once the carry dies.
    ///
    /// Returns `true` when a carry survives past the last plane; the caller
    /// must then append `carry`'s contents as a new most-significant plane.
    /// On early exit `carry` is all zeros.
    fn bundle_add_planes(
        &self,
        planes: &mut [u64],
        words_per_plane: usize,
        carry: &mut [u64],
    ) -> bool {
        debug_assert_ne!(words_per_plane, 0);
        debug_assert_eq!(planes.len() % words_per_plane, 0);
        debug_assert_eq!(carry.len(), words_per_plane);
        for plane in planes.chunks_exact_mut(words_per_plane) {
            let mut live = 0u64;
            for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
                let overflow = *p & *c;
                *p ^= *c;
                *c = overflow;
                live |= overflow;
            }
            if live == 0 {
                return false;
            }
        }
        carry.iter().any(|&word| word != 0)
    }
}

/// The portable scalar reference kernels (always available).
pub fn scalar() -> &'static dyn Kernels {
    &ScalarKernels
}

/// Every kernel implementation usable on the running host, best first
/// (AVX-512 VPOPCNTDQ, then plain AVX-512, then AVX2/NEON, scalar last).
///
/// Only implementations both compiled in (`simd` feature, matching target
/// arch) and supported by the CPU's feature flags appear; the scalar
/// reference is always present.
pub fn available() -> Vec<&'static dyn Kernels> {
    let mut all: Vec<&'static dyn Kernels> = Vec::with_capacity(4);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    all.extend(avx512::available());
    #[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
    all.extend(simd::available());
    all.push(scalar());
    all
}

/// Looks up a usable implementation by ISA name (case-insensitive); `None`
/// when the name is unknown or the implementation is not usable here.
pub fn by_name(name: &str) -> Option<&'static dyn Kernels> {
    available()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

/// The best SIMD kernels, when compiled in (`simd` feature) and supported
/// by the running CPU; `None` otherwise.
pub fn simd() -> Option<&'static dyn Kernels> {
    available().into_iter().find(|k| k.name() != "scalar")
}

/// What a `SEGHDC_KERNELS` value asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KernelRequest {
    /// Unset, empty, or `auto`: pick the best available implementation.
    Auto,
    /// A known ISA name (canonical spelling from [`KNOWN_ISAS`]).
    Force(&'static str),
    /// An unrecognised value, preserved for the warning message.
    Unknown(String),
}

fn parse_kernel_request(value: Option<&str>) -> KernelRequest {
    let Some(raw) = value else {
        return KernelRequest::Auto;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("auto") {
        return KernelRequest::Auto;
    }
    match KNOWN_ISAS
        .iter()
        .find(|isa| isa.eq_ignore_ascii_case(trimmed))
    {
        Some(isa) => KernelRequest::Force(isa),
        None => KernelRequest::Unknown(trimmed.to_string()),
    }
}

/// The best kernels for the running CPU, probed once at first use.
///
/// Honours the `SEGHDC_KERNELS` environment variable (checked at the same
/// first use): any name in [`KNOWN_ISAS`] forces that implementation, and
/// `auto` (or unset/empty) picks the best available. A forced ISA that is
/// not usable on this host — or an unrecognised value — warns once on
/// stderr and falls back to the best available implementation.
pub fn auto() -> &'static dyn Kernels {
    static AUTO: OnceLock<&'static dyn Kernels> = OnceLock::new();
    *AUTO.get_or_init(|| {
        let best = available()[0];
        match parse_kernel_request(std::env::var("SEGHDC_KERNELS").ok().as_deref()) {
            KernelRequest::Auto => best,
            KernelRequest::Force(isa) => by_name(isa).unwrap_or_else(|| {
                eprintln!(
                    "seghdc: SEGHDC_KERNELS={isa} is not supported on this host/build; \
                     using {} instead",
                    best.name()
                );
                best
            }),
            KernelRequest::Unknown(value) => {
                eprintln!(
                    "seghdc: SEGHDC_KERNELS={value} is not a known ISA (expected auto or one \
                     of {KNOWN_ISAS:?}); using {} instead",
                    best.name()
                );
                best
            }
        }
    })
}

/// Iterates over the indices of the set bits of a packed word slice, in
/// ascending order.
///
/// This is the single definition of the set-bit walk that used to be
/// duplicated between `BinaryHypervector::iter_ones` and `HvRow::iter_ones`.
/// It is inherently scalar (one index out per set bit), so it lives beside
/// the kernels rather than on the trait.
pub fn iter_set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut word = w;
        std::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + bit)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdcRng;

    fn words(len: usize, seed: u64) -> Vec<u64> {
        let mut rng = HdcRng::seed_from(seed);
        (0..len).map(|_| rng.next_word()).collect()
    }

    /// Every kernel implementation reachable in this build.
    fn implementations() -> Vec<&'static dyn Kernels> {
        let mut all = available();
        all.push(auto());
        all
    }

    #[test]
    fn scalar_env_override_forces_the_scalar_kernels() {
        // Only bites when the harness sets the variable (the CI
        // scalar-fallback job runs this suite under
        // `SEGHDC_KERNELS=scalar` on a SIMD build); without it the test is
        // a no-op rather than mutating process-global env state.
        if std::env::var("SEGHDC_KERNELS").is_ok_and(|v| v.eq_ignore_ascii_case("scalar")) {
            assert_eq!(auto().name(), "scalar");
        }
    }

    #[test]
    fn selection_is_consistent() {
        assert_eq!(scalar().name(), "scalar");
        let auto_name = auto().name();
        assert!(
            KNOWN_ISAS.contains(&auto_name),
            "unexpected kernel name {auto_name}"
        );
        if let Some(simd) = simd() {
            assert_ne!(simd.name(), "scalar");
        }
    }

    #[test]
    fn available_lists_known_isas_best_first_with_scalar_last() {
        let names: Vec<&str> = available().iter().map(|k| k.name()).collect();
        assert_eq!(names.last(), Some(&"scalar"));
        for name in &names {
            assert!(KNOWN_ISAS.contains(name), "unexpected ISA {name}");
        }
        // `available()` preserves KNOWN_ISAS' best-first order.
        let ranks: Vec<usize> = names
            .iter()
            .map(|n| KNOWN_ISAS.iter().position(|isa| isa == n).unwrap())
            .collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "order: {names:?}");
    }

    #[test]
    fn by_name_round_trips_every_available_isa() {
        for kernels in available() {
            let found = by_name(kernels.name()).expect("available ISA must resolve");
            assert_eq!(found.name(), kernels.name());
            let upper = kernels.name().to_ascii_uppercase();
            assert_eq!(by_name(&upper).unwrap().name(), kernels.name());
        }
        assert!(by_name("riscv-vector").is_none());
    }

    #[test]
    fn kernel_request_parsing() {
        assert_eq!(parse_kernel_request(None), KernelRequest::Auto);
        assert_eq!(parse_kernel_request(Some("")), KernelRequest::Auto);
        assert_eq!(parse_kernel_request(Some("  ")), KernelRequest::Auto);
        assert_eq!(parse_kernel_request(Some("auto")), KernelRequest::Auto);
        assert_eq!(parse_kernel_request(Some("AUTO")), KernelRequest::Auto);
        assert_eq!(
            parse_kernel_request(Some("scalar")),
            KernelRequest::Force("scalar")
        );
        assert_eq!(
            parse_kernel_request(Some("AVX2")),
            KernelRequest::Force("avx2")
        );
        assert_eq!(
            parse_kernel_request(Some(" neon ")),
            KernelRequest::Force("neon")
        );
        assert_eq!(
            parse_kernel_request(Some("avx512")),
            KernelRequest::Force("avx512")
        );
        assert_eq!(
            parse_kernel_request(Some("Avx512-Vpopcnt")),
            KernelRequest::Force("avx512-vpopcnt")
        );
        assert_eq!(
            parse_kernel_request(Some("sse9")),
            KernelRequest::Unknown("sse9".to_string())
        );
    }

    #[test]
    fn popcount_and_hamming_match_scalar_for_all_lengths() {
        // Lengths straddle the SIMD lane width (4 words on AVX2, 2 on
        // NEON), including non-lane-multiple tails and the empty slice.
        for len in 0..40 {
            let a = words(len, 0xA + len as u64);
            let b = words(len, 0xB + len as u64);
            let reference = scalar();
            for kernels in implementations() {
                assert_eq!(kernels.popcount(&a), reference.popcount(&a), "len {len}");
                assert_eq!(
                    kernels.hamming(&a, &b),
                    reference.hamming(&a, &b),
                    "len {len}"
                );
                assert_eq!(
                    kernels.and_popcount(&a, &b),
                    reference.and_popcount(&a, &b),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn xor_into_matches_scalar() {
        for len in 0..20 {
            let src = words(len, 7);
            let base = words(len, 11);
            let mut expected = base.clone();
            scalar().xor_into(&mut expected, &src);
            for kernels in implementations() {
                let mut buffer = base.clone();
                kernels.xor_into(&mut buffer, &src);
                assert_eq!(buffer, expected, "len {len}");
            }
        }
    }

    #[test]
    fn plane_dot_matches_a_naive_count_walk() {
        let wpp = 5usize;
        let planes = words(3 * wpp, 21);
        let row = words(wpp, 22);
        let mut naive = 0u64;
        for (p, plane) in planes.chunks_exact(wpp).enumerate() {
            for (pw, rw) in plane.iter().zip(&row) {
                naive += u64::from((pw & rw).count_ones()) << p;
            }
        }
        for kernels in implementations() {
            assert_eq!(kernels.plane_dot(&planes, wpp, &row), naive);
        }
    }

    #[test]
    fn plane_dot_multi_accumulates_per_group_dots() {
        let wpp = 5usize;
        let counts = [3usize, 0, 1, 4];
        let total: usize = counts.iter().sum();
        let planes = words(total * wpp, 31);
        let row = words(wpp, 32);

        // Per-group reference through the scalar `plane_dot` spec.
        let mut expected = vec![10u64; counts.len()];
        let mut offset = 0;
        for (slot, &count) in expected.iter_mut().zip(&counts) {
            let end = offset + count * wpp;
            *slot += scalar().plane_dot(&planes[offset..end], wpp, &row);
            offset = end;
        }

        for kernels in implementations() {
            // Pre-seeded output: the contract is `+=`, not overwrite.
            let mut out = vec![10u64; counts.len()];
            kernels.plane_dot_multi(&planes, wpp, &counts, &row, &mut out);
            assert_eq!(out, expected, "{}", kernels.name());
        }
    }

    #[test]
    fn counts_dot_multi_accumulates_or_leaves_out_untouched() {
        let words_per_row = 3usize;
        let members = 5usize; // odd count -> exercises a partial block
        let lanes = words_per_row * 64;
        let row = words(words_per_row, 61);
        // Counts spanning the whole admissible range, `i16::MAX` included.
        let counts: Vec<u16> = (0..members * lanes)
            .map(|i| {
                let mixed = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17);
                (mixed % (i16::MAX as u64 + 1)) as u16
            })
            .collect();
        let expected: Vec<u64> = (0..members)
            .map(|k| {
                let member = &counts[k * lanes..(k + 1) * lanes];
                // Pre-seeded by 10: the contract is `+=`, not overwrite.
                10 + member
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (row[i / 64] >> (i % 64)) & 1 == 1)
                    .map(|(_, &count)| u64::from(count))
                    .sum::<u64>()
            })
            .collect();
        let seeded = vec![10u64; members];
        for kernels in implementations() {
            let mut out = seeded.clone();
            if kernels.counts_dot_multi(&counts, &row, &mut out) {
                assert_eq!(out, expected, "{}", kernels.name());
            } else {
                assert_eq!(out, seeded, "{} declined but wrote", kernels.name());
            }
        }
        // The scalar reference always declines: bit-sliced AND + popcount
        // beats a scalar per-lane walk, so there is no scalar fast path.
        let mut out = seeded.clone();
        assert!(!scalar().counts_dot_multi(&counts, &row, &mut out));
        assert_eq!(out, seeded);
    }

    #[test]
    fn hamming_multi_matches_per_vector_hamming() {
        for width in [0usize, 1, 3, 8, 17, 33] {
            let k = 5usize;
            let row = words(width, 41);
            let stacked = words(k * width, 42);
            let expected: Vec<u64> = (0..k)
                .map(|c| scalar().hamming(&row, &stacked[c * width..][..width]))
                .collect();
            for kernels in implementations() {
                let mut out = vec![0u64; k];
                kernels.hamming_multi(&row, &stacked, &mut out);
                assert_eq!(out, expected, "{} width {width}", kernels.name());
            }
        }
    }

    #[test]
    fn bundle_add_planes_counts_in_binary() {
        let wpp = 3usize;
        for kernels in implementations() {
            let mut planes: Vec<u64> = Vec::new();
            let ones = vec![u64::MAX; wpp];
            // Add the all-ones vector seven times; every bit counter must
            // read 7 (planes 0..3 all ones, never a fourth plane).
            for round in 0..7 {
                let mut carry = ones.clone();
                let overflow = kernels.bundle_add_planes(&mut planes, wpp, &mut carry);
                if overflow {
                    planes.extend_from_slice(&carry);
                }
                let expected_planes =
                    usize::BITS as usize - ((round + 1) as usize).leading_zeros() as usize;
                assert_eq!(planes.len() / wpp, expected_planes, "round {round}");
            }
            assert_eq!(planes.len() / wpp, 3);
            assert!(planes.iter().all(|&w| w == u64::MAX), "{}", kernels.name());
        }
    }

    #[test]
    fn bundle_add_planes_matches_scalar_on_random_input() {
        let wpp = 7usize;
        for trial in 0..16u64 {
            let base_planes = words(4 * wpp, 100 + trial);
            let row = words(wpp, 200 + trial);
            let mut scalar_planes = base_planes.clone();
            let mut scalar_carry = row.clone();
            let scalar_overflow =
                scalar().bundle_add_planes(&mut scalar_planes, wpp, &mut scalar_carry);
            for kernels in implementations() {
                let mut planes = base_planes.clone();
                let mut carry = row.clone();
                let overflow = kernels.bundle_add_planes(&mut planes, wpp, &mut carry);
                assert_eq!(overflow, scalar_overflow, "trial {trial}");
                assert_eq!(planes, scalar_planes, "trial {trial}");
                assert_eq!(carry, scalar_carry, "trial {trial}");
            }
        }
    }

    #[test]
    fn iter_set_bits_walks_ascending() {
        let w = [0b1011u64, 0, 1u64 << 63];
        let indices: Vec<usize> = iter_set_bits(&w).collect();
        assert_eq!(indices, vec![0, 1, 3, 191]);
        assert_eq!(iter_set_bits(&[]).count(), 0);
    }
}
