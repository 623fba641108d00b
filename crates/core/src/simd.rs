//! True SIMD match-count backends: AVX2 (32 lanes) and AVX-512 (64
//! lanes) via `std::arch`, with runtime CPU-feature detection.
//!
//! The §III-A predicate — count the byte lanes whose 7 key bits agree
//! *and* whose indicator bits OR to 1 — maps directly onto packed byte
//! compares:
//!
//! ```text
//! keys  = (x ⊕ y) ∧ 0x7F..7F          per-lane key difference
//! eq    = cmpeq_epi8(keys, 0)          0xFF where keys agree
//! hit   = eq ∧ (x ∨ y)                 MSB set iff counted match
//! count += popcount(movemask_epi8(hit))
//! ```
//!
//! `movemask_epi8` extracts exactly the per-lane MSB — which is the
//! indicator bit of `x ∨ y` masked by the key-equality verdict — so one
//! `popcount` per register finishes the horizontal add that costs the
//! SWAR formulations four shifts (u32) or a scalar `popcnt` per eight
//! lanes (u64).
//!
//! The AVX-512 backend evaluates the whole predicate in one
//! `vpternlogd` and keeps its counts in vector registers:
//!
//! ```text
//! f     = ternlog₀ₓ₆₁(0x7F..7F, x, y)   bits 0–6: x ⊕ y; bit 7: ¬(x ∨ y)
//! miss  = min_epu8(f, 1)                0 iff counted match, else 1
//! acc  += miss                          64 byte counters per candidate
//! every ≤ 255 chunks: wide += sad_epu8(acc, 0); acc = 0
//! count = 64·chunks − Σ wide + SWAR tail
//! ```
//!
//! With `0x7F` as the first operand, immediate `0x61` selects `x ⊕ y`
//! where that operand's bit is 1 and `¬(x ∨ y)` where it is 0, so a lane
//! is zero exactly when its keys agree and an indicator bit is set.
//! Three vector instructions per chunk and candidate (ternlog, min,
//! add) replace a compare, a mask extraction, a mask AND, a mask move
//! and a scalar `popcnt`, and the byte counters cannot wrap because a
//! lane gains at most 1 per chunk and is folded (`vpsadbw`) before 255.
//!
//! Three design rules shared by both backends (and mirrored by the SWAR
//! slice kernels in [`crate::swar`]):
//!
//! * **bulk loops, one dispatch** — the slice entry points
//!   ([`MatchKernel::count_equal_width`], `count_wrapped`, and the
//!   batched `count_equal_width_many`) each run the whole input inside
//!   a single monomorphized `#[target_feature]` function, so selecting
//!   a backend costs one virtual call per *intersection*, never one per
//!   word;
//! * **shared tail handling** — widths are rarely register multiples
//!   (`3·r` bytes); every backend finishes the ragged tail through
//!   [`swar::match_count_slices`] (u64 body + scalar edge), so a width
//!   shorter than one register degrades gracefully instead of reading
//!   out of bounds;
//! * **wrapped chunk layout** — the §II different-width comparison
//!   walks the large batmap in `|small|`-byte chunks; each chunk reuses
//!   the equal-width loop, tails included, inside the same
//!   `#[target_feature]` region.
//!
//! Safety: the public kernel types are safe. The AVX2 and AVX-512
//! entry points assert feature support before entering
//! `#[target_feature]` code (the check is one cached atomic load). The
//! whole module is compiled only on `x86_64` —
//! [`crate::kernel::KernelBackend`] reports these backends unavailable
//! elsewhere and `resolve()` falls back to the portable SWAR kernels
//! (or, on `aarch64`, the NEON backend in `crate::neon`).

use crate::kernel::MatchKernel;
use crate::swar;
use std::arch::x86_64::*;

/// Candidates processed per accumulator block of the batched
/// one-vs-many loops: enough to amortize each probe-register load
/// across several comparisons, few enough that the per-candidate
/// accumulators stay in registers.
pub const MANY_BLOCK: usize = 4;

// `avx512_count_many` has one arm per block size up to four.
const _: () = assert!(MANY_BLOCK == 4);

/// Abort if `candidates`/`out` disagree or a candidate's width differs
/// from the probe's (the batched loops index all arrays in lockstep).
fn check_many(probe: &[u8], candidates: &[&[u8]], out: &[u64]) {
    assert_eq!(candidates.len(), out.len(), "one output slot per candidate");
    for c in candidates {
        assert_eq!(
            c.len(),
            probe.len(),
            "batched candidates must match the probe width"
        );
    }
}

// ---------------------------------------------------------------------
// AVX2 — 32 lanes per 256-bit register (runtime-detected).
// ---------------------------------------------------------------------

/// True iff this CPU supports the AVX2 backend.
#[inline]
pub fn avx2_available() -> bool {
    // `is_x86_feature_detected!` caches its CPUID probe in an atomic,
    // so this is one relaxed load after the first call.
    is_x86_feature_detected!("avx2")
}

/// Abort rather than execute AVX2 code on a CPU without it. Guards the
/// safe entry points of [`Avx2Kernel`]; dispatch normally prevents this
/// (``resolve()`` never selects an unavailable backend), but the kernel
/// type itself is public.
#[inline]
fn assert_avx2() {
    assert!(
        avx2_available(),
        "AVX2 match kernel selected on a CPU without AVX2 \
         (use KernelBackend::Auto or resolve() to pick an available backend)"
    );
}

/// Matching lanes of two 256-bit registers of 32 slots each.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hit_count_256(x: __m256i, y: __m256i) -> u32 {
    let keys = _mm256_and_si256(_mm256_xor_si256(x, y), _mm256_set1_epi8(0x7F));
    let eq = _mm256_cmpeq_epi8(keys, _mm256_setzero_si256());
    let hit = _mm256_and_si256(eq, _mm256_or_si256(x, y));
    (_mm256_movemask_epi8(hit) as u32).count_ones()
}

/// Equal-width count over the 32-byte body, tail through the shared
/// SWAR path.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn avx2_count_equal_width(xs: &[u8], ys: &[u8]) -> u64 {
    debug_assert_eq!(xs.len(), ys.len());
    let body = xs.len() & !31;
    let mut count = 0u64;
    let mut base = 0;
    while base < body {
        let x = _mm256_loadu_si256(xs.as_ptr().add(base) as *const __m256i);
        let y = _mm256_loadu_si256(ys.as_ptr().add(base) as *const __m256i);
        count += hit_count_256(x, y) as u64;
        base += 32;
    }
    count + swar::match_count_slices(&xs[body..], &ys[body..])
}

/// The wrapped (§II folded) comparison, entirely inside one AVX2
/// region: each `|small|`-byte chunk of `large` reuses the equal-width
/// loop, ragged tails included.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn avx2_count_wrapped(large: &[u8], small: &[u8]) -> u64 {
    let mut count = 0u64;
    for chunk in large.chunks_exact(small.len()) {
        count += avx2_count_equal_width(chunk, small);
    }
    count
}

/// One probe against a block of equal-width candidates, chunk-major:
/// each 32-byte probe register is loaded once and compared against the
/// same offset of every candidate in the block.
///
/// # Safety
/// The CPU must support AVX2; every candidate must have the probe's
/// length.
#[target_feature(enable = "avx2")]
unsafe fn avx2_count_many(probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
    for (block, out_block) in candidates
        .chunks(MANY_BLOCK)
        .zip(out.chunks_mut(MANY_BLOCK))
    {
        let mut acc = [0u64; MANY_BLOCK];
        let body = probe.len() & !31;
        let mut base = 0;
        while base < body {
            let p = _mm256_loadu_si256(probe.as_ptr().add(base) as *const __m256i);
            for (j, c) in block.iter().enumerate() {
                let q = _mm256_loadu_si256(c.as_ptr().add(base) as *const __m256i);
                acc[j] += hit_count_256(p, q) as u64;
            }
            base += 32;
        }
        for (j, c) in block.iter().enumerate() {
            out_block[j] = acc[j] + swar::match_count_slices(&probe[body..], &c[body..]);
        }
    }
}

/// 32 lanes per step through 256-bit AVX2 registers — the widest CPU
/// backend. Requires runtime detection ([`avx2_available`]); the safe
/// entry points assert support before entering vector code.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2Kernel;

impl MatchKernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }
    fn lanes(&self) -> usize {
        32
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        // A single staged word cannot fill a register; use the paper's
        // u32 formulation. Cost is modelled by `ops_per_staged_word`
        // for the staged loop instead.
        swar::match_count_u32(x, y)
    }
    fn ops_per_staged_word(&self) -> u64 {
        // Eight staged 32-bit words per 256-bit comparison sequence:
        // the paper's per-u32 charge of 8 amortizes to 1.
        1
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        assert_eq!(xs.len(), ys.len(), "batmap slices must have equal width");
        assert_avx2();
        // SAFETY: AVX2 support just asserted.
        unsafe { avx2_count_equal_width(xs, ys) }
    }
    fn count_wrapped(&self, large: &[u8], small: &[u8]) -> u64 {
        assert!(!small.is_empty());
        assert_eq!(
            large.len() % small.len(),
            0,
            "large width {} must be a multiple of small width {}",
            large.len(),
            small.len()
        );
        assert_avx2();
        // SAFETY: AVX2 support just asserted.
        unsafe { avx2_count_wrapped(large, small) }
    }
    fn count_equal_width_many(&self, probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
        check_many(probe, candidates, out);
        assert_avx2();
        // SAFETY: AVX2 support asserted; widths checked by check_many.
        unsafe { avx2_count_many(probe, candidates, out) }
    }
    fn value_eq(&self, x: u64, y: u64) -> bool {
        crate::kernel::branchless_eq(x, y)
    }
}

// ---------------------------------------------------------------------
// AVX-512 — 64 lanes per 512-bit register (runtime-detected).
// ---------------------------------------------------------------------

/// True iff this CPU supports the AVX-512 backend. The byte compares
/// need AVX-512BW on top of the AVX-512F foundation (both are present
/// on every shipping AVX-512 server part, but they are distinct CPUID
/// bits, so both are probed).
#[inline]
pub fn avx512_available() -> bool {
    // `is_x86_feature_detected!` caches its CPUID probe in an atomic,
    // so this is two relaxed loads after the first call.
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
}

/// Abort rather than execute AVX-512 code on a CPU without it (see
/// [`assert_avx2`] — same rationale, the kernel type is public).
#[inline]
fn assert_avx512() {
    assert!(
        avx512_available(),
        "AVX-512 match kernel selected on a CPU without AVX-512BW \
         (use KernelBackend::Auto or resolve() to pick an available backend)"
    );
}

/// Chunks a byte counter may absorb before it is folded: each absorbs
/// at most 1 per lane, so 255 cannot wrap a `u8`.
const FOLD_CHUNKS: usize = 255;

/// Per-lane mismatch flags of two 512-bit registers of 64 slots each:
/// 0 in a lane that is a counted match, 1 in every other lane. One
/// `vpternlogd` (immediate `0x61`, operands `0x7F`, `x`, `y`) leaves
/// `x ⊕ y` in bits 0–6 and `¬(x ∨ y)` in bit 7, so a lane is zero
/// exactly when the keys agree and an indicator bit is set; the
/// unsigned minimum with `ones` (1 in every lane) turns every other
/// lane into 1.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn mismatch_512(x: __m512i, y: __m512i, ones: __m512i) -> __m512i {
    let f = _mm512_ternarylogic_epi32::<0x61>(_mm512_set1_epi8(0x7F), x, y);
    _mm512_min_epu8(f, ones)
}

/// `_mm512_set1_epi8(1)`, hidden from the optimizer. Told that the
/// operand is 1, LLVM rewrites `min(f, 1)` as a compare into a mask
/// register, a mask-to-vector move and a subtract: one more instruction
/// per chunk and candidate. The empty `asm!` emits no instruction.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn opaque_ones() -> __m512i {
    let mut ones = _mm512_set1_epi8(1);
    // SAFETY: an empty template that reads and writes only its operand.
    std::arch::asm!(
        "/* {0} */",
        inout(zmm_reg) ones,
        options(pure, nomem, nostack, preserves_flags)
    );
    ones
}

/// One probe against `N` equal-width candidates, chunk-major: each
/// 64-byte probe register is loaded once and compared against the same
/// offset of every candidate. Mismatches accumulate in one ZMM byte
/// counter per candidate, folded into 64-bit lanes by `vpsadbw` every
/// [`FOLD_CHUNKS`] chunks; a count is `64·chunks − mismatches` plus the
/// ragged tail through the shared SWAR path.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512BW; every candidate must
/// have the probe's length.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_count_block<const N: usize>(probe: &[u8], block: &[&[u8]], out: &mut [u64]) {
    debug_assert!(block.len() == N && out.len() == N);
    let chunks = probe.len() / 64;
    let body = chunks * 64;
    let cands: [*const u8; N] = std::array::from_fn(|j| block[j].as_ptr());
    let zero = _mm512_setzero_si512();
    let ones = opaque_ones();
    let mut wide = [zero; N];
    let mut chunk = 0;
    while chunk < chunks {
        let stop = (chunk + FOLD_CHUNKS).min(chunks);
        let mut narrow = [zero; N];
        while chunk < stop {
            let at = chunk * 64;
            let p = _mm512_loadu_si512(probe.as_ptr().add(at) as *const __m512i);
            for j in 0..N {
                let q = _mm512_loadu_si512(cands[j].add(at) as *const __m512i);
                narrow[j] = _mm512_add_epi8(narrow[j], mismatch_512(p, q, ones));
            }
            chunk += 1;
        }
        for j in 0..N {
            wide[j] = _mm512_add_epi64(wide[j], _mm512_sad_epu8(narrow[j], zero));
        }
    }
    for j in 0..N {
        let mismatches = _mm512_reduce_add_epi64(wide[j]) as u64;
        out[j] =
            body as u64 - mismatches + swar::match_count_slices(&probe[body..], &block[j][body..]);
    }
}

/// The wrapped (§II folded) comparison, entirely inside one AVX-512
/// region: each `|small|`-byte chunk of `large` is swept against
/// `small` into one byte counter, folded every [`FOLD_CHUNKS`] chunks
/// whichever part of `large` they came from, so the horizontal sum runs
/// once per pair rather than once per part.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512BW.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_count_wrapped(large: &[u8], small: &[u8]) -> u64 {
    let chunks = small.len() / 64;
    let body = chunks * 64;
    let zero = _mm512_setzero_si512();
    let ones = opaque_ones();
    let (mut narrow, mut wide, mut pending) = (zero, zero, 0);
    let mut count = 0u64;
    for part in large.chunks_exact(small.len()) {
        let mut chunk = 0;
        while chunk < chunks {
            let stop = (chunk + FOLD_CHUNKS - pending).min(chunks);
            pending += stop - chunk;
            while chunk < stop {
                let at = chunk * 64;
                let x = _mm512_loadu_si512(part.as_ptr().add(at) as *const __m512i);
                let y = _mm512_loadu_si512(small.as_ptr().add(at) as *const __m512i);
                narrow = _mm512_add_epi8(narrow, mismatch_512(x, y, ones));
                chunk += 1;
            }
            if pending == FOLD_CHUNKS {
                wide = _mm512_add_epi64(wide, _mm512_sad_epu8(narrow, zero));
                (narrow, pending) = (zero, 0);
            }
        }
        count += body as u64 + swar::match_count_slices(&part[body..], &small[body..]);
    }
    wide = _mm512_add_epi64(wide, _mm512_sad_epu8(narrow, zero));
    count - _mm512_reduce_add_epi64(wide) as u64
}

/// One probe against equal-width candidates, [`MANY_BLOCK`] at a time
/// (see [`avx512_count_block`]); the remainder block runs at its own
/// size, so every accumulator stays in a register.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512BW; every candidate must
/// have the probe's length.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn avx512_count_many(probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
    for (block, out_block) in candidates
        .chunks(MANY_BLOCK)
        .zip(out.chunks_mut(MANY_BLOCK))
    {
        match block.len() {
            MANY_BLOCK => avx512_count_block::<MANY_BLOCK>(probe, block, out_block),
            3 => avx512_count_block::<3>(probe, block, out_block),
            2 => avx512_count_block::<2>(probe, block, out_block),
            _ => avx512_count_block::<1>(probe, block, out_block),
        }
    }
}

/// 64 lanes per step through 512-bit ZMM registers — the widest CPU
/// backend. Requires runtime detection ([`avx512_available`]); the safe
/// entry points assert support before entering vector code.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx512Kernel;

impl MatchKernel for Avx512Kernel {
    fn name(&self) -> &'static str {
        "avx512"
    }
    fn lanes(&self) -> usize {
        64
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        // Single staged word: the vector width buys nothing here (see
        // `Avx2Kernel::count_word_u32`).
        swar::match_count_u32(x, y)
    }
    fn ops_per_staged_word(&self) -> u64 {
        // Sixteen staged 32-bit words per 512-bit comparison sequence
        // would amortize the paper's per-u32 charge of 8 to 0.5, but
        // the simulator's unit of account is one scalar op — the charge
        // floors at 1 (matching AVX2; the win over AVX2 shows up in the
        // measured CPU scenarios, not the simulated cost model).
        1
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        assert_eq!(xs.len(), ys.len(), "batmap slices must have equal width");
        assert_avx512();
        let mut out = [0u64];
        // SAFETY: AVX-512 support just asserted; equal widths checked.
        unsafe { avx512_count_block::<1>(xs, &[ys], &mut out) };
        out[0]
    }
    fn count_wrapped(&self, large: &[u8], small: &[u8]) -> u64 {
        assert!(!small.is_empty());
        assert_eq!(
            large.len() % small.len(),
            0,
            "large width {} must be a multiple of small width {}",
            large.len(),
            small.len()
        );
        assert_avx512();
        // SAFETY: AVX-512 support just asserted.
        unsafe { avx512_count_wrapped(large, small) }
    }
    fn count_equal_width_many(&self, probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
        check_many(probe, candidates, out);
        assert_avx512();
        // SAFETY: AVX-512 support asserted; widths checked by check_many.
        unsafe { avx512_count_many(probe, candidates, out) }
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
    fn avx2_matches_scalar_on_ragged_widths() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        for len in [0usize, 1, 15, 16, 31, 32, 33, 63, 64, 65, 96, 255, 1024] {
            let (xs, ys) = sample(len, 0xBEE + len as u64);
            assert_eq!(
                Avx2Kernel.count_equal_width(&xs, &ys),
                ScalarKernel.count_equal_width(&xs, &ys),
                "len {len}"
            );
        }
    }

    #[test]
    fn avx512_matches_scalar_on_ragged_widths() {
        if !avx512_available() {
            eprintln!("skipping: no AVX-512BW on this CPU");
            return;
        }
        for len in [0usize, 1, 31, 32, 63, 64, 65, 96, 127, 128, 129, 255, 1024] {
            let (xs, ys) = sample(len, 0xFAB + len as u64);
            assert_eq!(
                Avx512Kernel.count_equal_width(&xs, &ys),
                ScalarKernel.count_equal_width(&xs, &ys),
                "len {len}"
            );
        }
    }

    #[test]
    fn wrapped_matches_scalar() {
        for small_len in [4usize, 12, 20, 48, 100] {
            let (small, _) = sample(small_len, 3);
            let (large, _) = sample(small_len * 5, 4);
            let expect = ScalarKernel.count_wrapped(&large, &small);
            if avx2_available() {
                assert_eq!(Avx2Kernel.count_wrapped(&large, &small), expect);
            }
            if avx512_available() {
                assert_eq!(Avx512Kernel.count_wrapped(&large, &small), expect);
            }
        }
    }

    #[test]
    fn batched_many_matches_pointwise() {
        let (probe, _) = sample(200, 7);
        let stores: Vec<Vec<u8>> = (0..11).map(|i| sample(200, 100 + i).0).collect();
        let cands: Vec<&[u8]> = stores.iter().map(Vec::as_slice).collect();
        let expect: Vec<u64> = cands
            .iter()
            .map(|c| ScalarKernel.count_equal_width(&probe, c))
            .collect();
        let mut out = vec![0u64; cands.len()];
        if avx2_available() {
            Avx2Kernel.count_equal_width_many(&probe, &cands, &mut out);
            assert_eq!(out, expect, "avx2 batched");
        }
        if avx512_available() {
            out.fill(0);
            Avx512Kernel.count_equal_width_many(&probe, &cands, &mut out);
            assert_eq!(out, expect, "avx512 batched");
        }
    }

    #[test]
    #[should_panic(expected = "batched candidates must match the probe width")]
    fn batched_rejects_width_mismatch() {
        // The width check runs before the feature check, so this holds
        // on a CPU without AVX2 too.
        let probe = vec![0x7Fu8; 32];
        let narrow = vec![0x7Fu8; 16];
        let mut out = [0u64; 1];
        Avx2Kernel.count_equal_width_many(&probe, &[&narrow], &mut out);
    }
}
