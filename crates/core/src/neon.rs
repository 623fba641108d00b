//! NEON match-count backend: 16 lanes per 128-bit register on
//! `aarch64`, where Advanced SIMD is part of the architectural
//! baseline (no runtime detection needed).
//!
//! The §III-A predicate maps onto packed byte ops exactly as in
//! `crate::simd` (the `x86_64` module — see its docs for the predicate
//! derivation and the three design rules this module mirrors):
//!
//! ```text
//! keys  = (x ⊕ y) ∧ 0x7F..7F          per-lane key difference
//! eq    = vceqq_u8(keys, 0)            0xFF where keys agree
//! hit   = eq ∧ (x ∨ y)                 MSB set iff counted match
//! count += vaddvq_u8(hit >> 7)         horizontal add of the MSBs
//! ```
//!
//! NEON has no `movemask`; instead the per-lane MSB is shifted down to
//! bit 0 and `vaddvq_u8` adds the sixteen 0/1 lanes in one
//! instruction — the same cost class as `popcount(movemask)`.
//!
//! Bulk loops run the whole slice per call (one dispatch per
//! intersection), ragged tails finish through
//! [`swar::match_count_slices`], and the wrapped comparison reuses the
//! equal-width loop per chunk — the same structure as the `x86_64`
//! backends.

use crate::kernel::MatchKernel;
use crate::swar;
use std::arch::aarch64::*;

/// Candidates per accumulator block of the batched one-vs-many loop
/// (same register-blocking rationale as `crate::simd::MANY_BLOCK`).
pub const MANY_BLOCK: usize = 4;

/// Matching lanes of two 128-bit registers of 16 slots each.
///
/// # Safety
/// NEON (Advanced SIMD) is mandatory on `aarch64`, so the intrinsics
/// are always executable; the caller must uphold no extra invariants.
#[inline]
unsafe fn hit_count_neon(x: uint8x16_t, y: uint8x16_t) -> u32 {
    let keys = vandq_u8(veorq_u8(x, y), vdupq_n_u8(0x7F));
    let eq = vceqq_u8(keys, vdupq_n_u8(0));
    let hit = vandq_u8(eq, vorrq_u8(x, y));
    vaddvq_u8(vshrq_n_u8::<7>(hit)) as u32
}

/// Equal-width count over the 16-byte body, tail through the shared
/// SWAR path. Asserts its own length precondition — the vector loads
/// below read both slices up to the body bound.
fn neon_count_equal_width(xs: &[u8], ys: &[u8]) -> u64 {
    assert_eq!(xs.len(), ys.len(), "batmap slices must have equal width");
    let body = xs.len() & !15;
    let mut count = 0u64;
    let mut base = 0;
    while base < body {
        // SAFETY: `base + 16 <= body <= len` on both slices; `vld1q_u8`
        // permits unaligned loads, and NEON is baseline on aarch64.
        let (x, y) = unsafe {
            (
                vld1q_u8(xs.as_ptr().add(base)),
                vld1q_u8(ys.as_ptr().add(base)),
            )
        };
        // SAFETY: NEON is baseline on aarch64.
        count += unsafe { hit_count_neon(x, y) } as u64;
        base += 16;
    }
    count + swar::match_count_slices(&xs[body..], &ys[body..])
}

/// One probe against a block of equal-width candidates, chunk-major:
/// each 16-byte probe register is loaded once per block. Asserts the
/// width precondition itself (the loads index every candidate up to
/// the probe's body bound).
fn neon_count_many(probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
    for c in candidates {
        assert_eq!(
            c.len(),
            probe.len(),
            "batched candidates must match the probe width"
        );
    }
    for (block, out_block) in candidates
        .chunks(MANY_BLOCK)
        .zip(out.chunks_mut(MANY_BLOCK))
    {
        let mut acc = [0u64; MANY_BLOCK];
        let body = probe.len() & !15;
        let mut base = 0;
        while base < body {
            // SAFETY: every candidate has the probe's length (asserted
            // above) and `base + 16 <= body`; NEON is baseline.
            unsafe {
                let p = vld1q_u8(probe.as_ptr().add(base));
                for (j, c) in block.iter().enumerate() {
                    let q = vld1q_u8(c.as_ptr().add(base));
                    acc[j] += hit_count_neon(p, q) as u64;
                }
            }
            base += 16;
        }
        for (j, c) in block.iter().enumerate() {
            out_block[j] = acc[j] + swar::match_count_slices(&probe[body..], &c[body..]);
        }
    }
}

/// 16 lanes per step through 128-bit NEON registers — the `aarch64`
/// baseline SIMD backend (always available on that architecture, no
/// runtime check on the hot path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeonKernel;

impl MatchKernel for NeonKernel {
    fn name(&self) -> &'static str {
        "neon"
    }
    fn lanes(&self) -> usize {
        16
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        // A single staged word cannot fill a register; use the paper's
        // u32 formulation.
        swar::match_count_u32(x, y)
    }
    fn ops_per_staged_word(&self) -> u64 {
        // Four staged 32-bit words per 128-bit comparison sequence:
        // the paper's per-u32 charge of 8 amortizes to 2.
        2
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        neon_count_equal_width(xs, ys)
    }
    // `count_wrapped` keeps the trait default: NEON needs no feature
    // gate, so the default's per-chunk `count_equal_width` call inlines
    // without a `#[target_feature]` boundary.
    fn count_equal_width_many(&self, probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
        assert_eq!(candidates.len(), out.len(), "one output slot per candidate");
        neon_count_many(probe, candidates, out);
    }
    fn value_eq(&self, x: u64, y: u64) -> bool {
        crate::kernel::branchless_eq(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScalarKernel;

    fn sample(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let gen = |next: &mut dyn FnMut() -> u64| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    let r = next();
                    if r.is_multiple_of(4) {
                        0x7F
                    } else {
                        ((r >> 8) as u8 % 0x7F) | if r & 1 == 1 { 0x80 } else { 0 }
                    }
                })
                .collect()
        };
        (gen(&mut next), gen(&mut next))
    }

    #[test]
    fn neon_matches_scalar_on_ragged_widths() {
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255, 1024] {
            let (xs, ys) = sample(len, 0xAE0 + len as u64);
            assert_eq!(
                NeonKernel.count_equal_width(&xs, &ys),
                ScalarKernel.count_equal_width(&xs, &ys),
                "len {len}"
            );
        }
    }

    #[test]
    fn neon_wrapped_matches_scalar() {
        for small_len in [4usize, 12, 20, 48, 100] {
            let (small, _) = sample(small_len, 3);
            let (large, _) = sample(small_len * 5, 4);
            assert_eq!(
                NeonKernel.count_wrapped(&large, &small),
                ScalarKernel.count_wrapped(&large, &small)
            );
        }
    }

    #[test]
    fn neon_batched_many_matches_pointwise() {
        let (probe, _) = sample(200, 7);
        let stores: Vec<Vec<u8>> = (0..11).map(|i| sample(200, 100 + i).0).collect();
        let cands: Vec<&[u8]> = stores.iter().map(Vec::as_slice).collect();
        let expect: Vec<u64> = cands
            .iter()
            .map(|c| ScalarKernel.count_equal_width(&probe, c))
            .collect();
        let mut out = vec![0u64; cands.len()];
        NeonKernel.count_equal_width_many(&probe, &cands, &mut out);
        assert_eq!(out, expect, "neon batched");
    }
}
