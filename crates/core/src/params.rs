//! Shared parameters of a batmap universe.
//!
//! A *universe* is the transaction-id domain `{0..m-1}` plus everything
//! all batmaps over it must agree on: the three permutations, the
//! compression shift `s`, the base range `r₀ = 2^s`, and the insertion
//! loop bound. Two batmaps are only comparable if they were built from
//! the same [`BatmapParams`] (enforced via a cheap fingerprint).

use crate::hash::PermutationTriple;
use crate::kernel::{KernelBackend, MatchKernel};
use crate::options::EngineOptions;
use crate::parallel::Parallelism;
use crate::repr::ReprPolicy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of hash tables (`d=2` copies out of `2d−1=3` tables, §II).
pub const TABLES: usize = 3;

/// The 7-bit key reserved for the empty slot ⊥.
///
/// Deviation from the paper (ARCHITECTURE.md, "Deviations from the
/// paper", item 3): the paper does
/// not say how ⊥ is encoded under 8-bit compression; we reserve the
/// all-ones key and choose `s` so no live element can produce it.
pub const NULL_KEY: u8 = 0x7F;

/// Byte value of an empty slot: key = ⊥, indicator bit clear.
pub const EMPTY_SLOT: u8 = NULL_KEY;

/// Default bound on cuckoo-insertion element moves before the insertion
/// is declared failed (§II-A `MaxLoop`). With ranges `r ≥ 3n/2`
/// ([`BatmapParams::range_for`]) failures are rare (§II-B bounds the
/// probability by `O((ε³nr)⁻¹)` for `r ≥ (2+ε)n`; at the narrower rule
/// ≈ 0.05% of the uniform instance's elements fail), so a modest
/// constant suffices.
pub const DEFAULT_MAX_LOOP: u32 = 128;

/// Parameters shared by every batmap over one universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatmapParams {
    /// Universe size: elements are `0..m`.
    m: u64,
    /// Compression shift: slots store `π(x) >> s` (7 bits).
    s: u32,
    /// Base (minimum) hash range `r₀ = 2^s`; also the block width of the
    /// interleaved layout (Fig. 4).
    r0: u64,
    /// Cuckoo insertion move bound.
    max_loop: u32,
    /// Master seed (kept for fingerprinting / serialization).
    seed: u64,
    /// Match-count backend used by intersections over this universe.
    /// Excluded from the fingerprint: the backend changes how counts
    /// are computed, never what they are, so differently-configured
    /// batmaps stay comparable. Defaults on absence so parameters
    /// serialized before this field existed stay readable.
    #[serde(default)]
    kernel: KernelBackend,
    /// Host-parallelism knob for phases that build or scan many batmaps
    /// of this universe at once (construction, the tiled CPU engine).
    /// Excluded from the fingerprint for the same reason as the kernel
    /// backend: it changes how work is scheduled, never what is
    /// computed.
    #[serde(default)]
    threads: Parallelism,
    /// Storage-representation policy for corpora built over this
    /// universe (which layout each set's bytes use). Excluded from the
    /// fingerprint like the kernel backend: it changes layout and
    /// speed, never what any intersection counts.
    #[serde(default)]
    repr: ReprPolicy,
    /// The shared permutations π₁..π₃.
    perms: PermutationTriple,
}

impl BatmapParams {
    /// Create parameters for universe `{0..m-1}` with the default
    /// `MaxLoop` bound.
    ///
    /// The shift is the smallest `s ≥ 2` with `m − 1 < 127·2^s`, so every
    /// live 7-bit key is at most 126 and [`NULL_KEY`] is never produced
    /// by a real element. (`s ≥ 2` keeps every batmap word-aligned:
    /// widths are `3·r` bytes with `4 | r`.)
    ///
    /// # Panics
    /// Panics if `m == 0` or `m` exceeds `2^44` (keys must fit 7 bits
    /// above a 37-bit shift; far beyond any realistic transaction count).
    pub fn new(m: u64, seed: u64) -> Self {
        Self::with_max_loop(m, seed, DEFAULT_MAX_LOOP)
    }

    /// Like [`Self::new`] with an explicit `MaxLoop` bound (exposed for
    /// the failure-injection tests and the MaxLoop ablation).
    pub fn with_max_loop(m: u64, seed: u64, max_loop: u32) -> Self {
        Self::with_options(m, seed, max_loop, 2)
    }

    /// Fully explicit constructor: `MaxLoop` plus a floor on the
    /// compression shift.
    ///
    /// A larger shift is always sound (it only widens the minimum
    /// range); the GPU pipeline requires `s ≥ 6` so every batmap width
    /// (`3·r` bytes, `r ≥ 2^s`) is a multiple of the 64-byte slice the
    /// §III-B kernel stages through shared memory.
    pub fn with_options(m: u64, seed: u64, max_loop: u32, min_shift: u32) -> Self {
        assert!(m > 0, "universe must be non-empty");
        assert!(m <= 1 << 44, "universe too large for 7-bit keys");
        assert!(max_loop > 0, "MaxLoop must be positive");
        let mut s = min_shift.max(2);
        while (m - 1) >> s >= NULL_KEY as u64 {
            s += 1;
        }
        BatmapParams {
            m,
            s,
            r0: 1 << s,
            max_loop,
            seed,
            kernel: KernelBackend::Auto,
            threads: Parallelism::Auto,
            repr: ReprPolicy::Auto,
            perms: PermutationTriple::new(m, seed),
        }
    }

    /// Pin all three engine knobs — match-count backend, host
    /// parallelism, storage representation — from one
    /// [`EngineOptions`] value. This is the canonical way to configure
    /// a universe: knobs left at `Auto` in the options follow the
    /// documented resolution order (explicit > `BATMAP_*` environment >
    /// auto) at first use.
    pub fn with_engine_options(mut self, options: EngineOptions) -> Self {
        self.kernel = options.kernel;
        self.threads = options.threads;
        self.repr = options.repr;
        self
    }

    /// The configured engine knobs as one [`EngineOptions`] value
    /// (inverse of [`Self::with_engine_options`]).
    #[inline]
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            kernel: self.kernel,
            threads: self.threads,
            repr: self.repr,
            // The snapshot load path is a per-process serving concern,
            // not a universe parameter; parameters always report Auto.
            load: crate::arena::SnapshotLoad::Auto,
        }
    }

    /// The configured match-count backend identifier.
    #[inline]
    pub fn kernel_backend(&self) -> KernelBackend {
        self.kernel
    }

    /// The configured host-parallelism knob.
    #[inline]
    pub fn parallelism(&self) -> Parallelism {
        self.threads
    }

    /// The configured storage-representation policy.
    #[inline]
    pub fn repr_policy(&self) -> ReprPolicy {
        self.repr
    }

    /// The match-count kernel implementation intersections over this
    /// universe dispatch to, as a trait object. The intersection
    /// drivers themselves go through
    /// [`KernelBackend::dispatch`](crate::kernel::KernelBackend::dispatch)
    /// on [`Self::kernel_backend`] instead, so their bulk loops
    /// monomorphize (one indirect step per intersection, none per
    /// word).
    #[inline]
    pub fn kernel(&self) -> &'static dyn MatchKernel {
        self.kernel.kernel()
    }

    /// Universe size `m`.
    #[inline]
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Compression shift `s`.
    #[inline]
    pub fn shift(&self) -> u32 {
        self.s
    }

    /// Base range `r₀ = 2^s`: the minimum per-table range of any batmap,
    /// and the per-table block width of the layout.
    #[inline]
    pub fn r0(&self) -> u64 {
        self.r0
    }

    /// Width in bytes of one layout block (`|B₀| = 3·r₀`, Fig. 4).
    #[inline]
    pub fn block_bytes(&self) -> usize {
        (TABLES as u64 * self.r0) as usize
    }

    /// `MaxLoop` insertion bound.
    #[inline]
    pub fn max_loop(&self) -> u32 {
        self.max_loop
    }

    /// The shared permutations.
    #[inline]
    pub fn perms(&self) -> &PermutationTriple {
        &self.perms
    }

    /// Per-table hash range for a set of `set_size` elements:
    /// `r = max(r₀, 2^⌈log₂ ⌈3·size/2⌉⌉)`.
    ///
    /// Ranges stay powers of two, as §II folding needs. Each element
    /// takes 2 of the `3·r` slots, so the load `2n/3r` is at most 4/9.
    /// Deviation from the paper (ARCHITECTURE.md, "Deviations from the
    /// paper", item 7): §III-A sizes `r = 2·2^⌈log₂|Sᵢ|⌉` (load ≤ 1/3,
    /// inside the `r ≥ (2+ε)n` regime of the §II-B analysis). That rule
    /// puts a doubling boundary through the middle of clustered set
    /// sizes, and the sweep then reads up to twice the bytes. The
    /// narrower rule raises the failed-insertion rate (≈ 0.05% of
    /// elements on the uniform instance), and the exact correction path
    /// repairs every failure. The `r₀` floor is the compression
    /// constraint that causes the low-density uptick in Fig. 8.
    pub fn range_for(&self, set_size: usize) -> u64 {
        let natural = (set_size.max(1) as u64 * 3).div_ceil(2).next_power_of_two();
        natural.max(self.r0)
    }

    /// The 7-bit stored key of permuted value `pi`.
    #[inline]
    pub fn key_of(&self, pi: u64) -> u8 {
        debug_assert!(pi < self.m);
        let k = (pi >> self.s) as u8;
        debug_assert!(k < NULL_KEY);
        k
    }

    /// Position of `πₜ(x) = pi` inside a batmap of range `r`, in *slot*
    /// units (bytes), following the interleaved layout of §III-A:
    ///
    /// `h(pi) = |B₀|·⌊(pi mod r)/r₀⌋ + (pi mod r₀) + t·r₀`
    #[inline]
    pub fn slot_of(&self, t: usize, pi: u64, r: u64) -> usize {
        debug_assert!(t < TABLES);
        debug_assert!(r.is_power_of_two() && r >= self.r0);
        let in_range = pi & (r - 1);
        let block = in_range >> self.s;
        let offset = pi & (self.r0 - 1);
        (TABLES as u64 * self.r0 * block + offset + t as u64 * self.r0) as usize
    }

    /// Reconstruct the permuted value `pi` from a slot index and its
    /// stored key, for a batmap of range `r` (inverse of
    /// [`Self::slot_of`] + [`Self::key_of`]). Returns `None` for a slot
    /// holding ⊥ or an inconsistent (impossible) encoding.
    pub fn decode_slot(&self, slot: usize, key: u8, r: u64) -> Option<u64> {
        if key >= NULL_KEY {
            return None;
        }
        let slot = slot as u64;
        let block_bytes = TABLES as u64 * self.r0;
        let block = slot / block_bytes;
        let offset = (slot % block_bytes) % self.r0;
        let in_range = (block << self.s) | offset;
        // `in_range` = pi mod r; the key carries bits [s, s+7).
        // Consistency: overlap bits [s, log2 r) must agree.
        let pi = ((key as u64) << self.s) | (in_range & (self.r0 - 1));
        if pi & (r - 1) != in_range || pi >= self.m {
            return None;
        }
        Some(pi)
    }

    /// Which table a slot index belongs to.
    #[inline]
    pub fn table_of_slot(&self, slot: usize) -> usize {
        ((slot as u64 % (TABLES as u64 * self.r0)) / self.r0) as usize
    }

    /// A fingerprint that two parameter sets share iff they are
    /// interoperable (same universe, seed, shift, MaxLoop).
    pub fn fingerprint(&self) -> u64 {
        // Mix the defining scalars; permutations are derived from them.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [self.m, self.s as u64, self.max_loop as u64, self.seed] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Shared handle to universe parameters.
///
/// Building a batmap per item over tens of thousands of items must not
/// clone the permutation tables, so everything downstream holds an `Arc`.
pub type ParamsHandle = Arc<BatmapParams>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_reserves_null_key() {
        for m in [1u64, 5, 127, 128, 508, 509, 1 << 20, 50_000, 10_000_000] {
            let p = BatmapParams::new(m, 1);
            // Largest live key must stay below NULL_KEY.
            assert!(
                (m - 1) >> p.shift() < NULL_KEY as u64,
                "m={m} s={} leaks into the null key",
                p.shift()
            );
            assert!(p.shift() >= 2);
        }
    }

    #[test]
    fn shift_is_minimal() {
        let p = BatmapParams::new(1_000_000, 1);
        if p.shift() > 2 {
            // One bit less would overflow into NULL_KEY.
            assert!((1_000_000u64 - 1) >> (p.shift() - 1) >= NULL_KEY as u64);
        }
    }

    #[test]
    fn paper_example_shift() {
        // m = 50,000 transactions: the paper's §III-A arithmetic gives
        // s = 9 (2^s = 512 ≥ (m+1)/128 ≈ 391).
        let p = BatmapParams::new(50_000, 7);
        assert_eq!(p.shift(), 9);
        assert_eq!(p.r0(), 512);
    }

    #[test]
    fn range_for_matches_paper_sizing() {
        let p = BatmapParams::new(50_000, 7);
        // Average set of 2500 elements: r = 2^⌈log₂ 3750⌉ = 4096, so the
        // batmap is 3·4096 = 12288 bytes. Deviation 7: the paper's
        // §IV-A throughput computation sizes it at 3·2^13 = 24576 bytes
        // (r = 2·2^⌈log₂ 2500⌉ = 8192).
        assert_eq!(p.range_for(2500), 4096);
        assert_eq!(p.range_for(0), p.r0());
        assert_eq!(p.range_for(1), p.r0().max(2));
        // The load 2n/3r never exceeds 4/9, and the range is the least
        // power of two that keeps it there.
        for n in 1..20_000usize {
            let r = p.range_for(n);
            assert!(r.is_power_of_two() && r >= p.r0());
            assert!(9 * 2 * n as u64 <= 4 * 3 * r, "n={n} r={r}");
            if r > p.r0() {
                assert!(9 * 2 * n as u64 > 4 * 3 * (r / 2), "n={n} r={r} not least");
            }
        }
    }

    #[test]
    fn range_floor_kicks_in_for_sparse_sets() {
        // m large, sets tiny: the compression floor forces r = r0 > 2|S|.
        let p = BatmapParams::new(1 << 22, 3);
        assert!(p.r0() > 2 * 64);
        assert_eq!(p.range_for(64), p.r0());
    }

    #[test]
    fn slot_roundtrip() {
        let p = BatmapParams::new(50_000, 11);
        for r in [p.r0(), 2 * p.r0(), 8 * p.r0()] {
            for t in 0..TABLES {
                for x in (0..50_000u64).step_by(997) {
                    let pi = p.perms().apply(t, x);
                    let slot = p.slot_of(t, pi, r);
                    assert!(slot < (TABLES as u64 * r) as usize);
                    assert_eq!(p.table_of_slot(slot), t);
                    let key = p.key_of(pi);
                    assert_eq!(p.decode_slot(slot, key, r), Some(pi));
                }
            }
        }
    }

    #[test]
    fn decode_rejects_null_and_inconsistent() {
        let p = BatmapParams::new(50_000, 11);
        let r = 4 * p.r0();
        assert_eq!(p.decode_slot(0, NULL_KEY, r), None);
        // An overlap-inconsistent key at slot 0 (in_range = 0) must not
        // decode: key bits [0, log r - s) must be zero for slot 0.
        let bad_key = 1u8; // overlap bit 0 set, but in_range says 0
        if p.r0() < r {
            assert_eq!(p.decode_slot(0, bad_key, r), None);
        }
    }

    #[test]
    fn folding_congruence() {
        // h⁽ⁱ⁾(x) relates to h⁽ʲ⁾(x) by block wrap-around: the slot in
        // the smaller batmap equals the slot in the larger batmap taken
        // modulo the smaller batmap's byte width.
        let p = BatmapParams::new(100_000, 13);
        let ri = 2 * p.r0();
        let rj = 8 * p.r0();
        let wi = (TABLES as u64 * ri) as usize;
        for t in 0..TABLES {
            for x in (0..100_000u64).step_by(1009) {
                let pi = p.perms().apply(t, x);
                let si = p.slot_of(t, pi, ri);
                let sj = p.slot_of(t, pi, rj);
                assert_eq!(si, sj % wi, "t={t} x={x}");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes() {
        let a = BatmapParams::new(1000, 1);
        let b = BatmapParams::new(1000, 2);
        let c = BatmapParams::new(1001, 1);
        let a2 = BatmapParams::new(1000, 1);
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    #[should_panic]
    fn zero_universe_panics() {
        let _ = BatmapParams::new(0, 1);
    }

    #[test]
    fn parallelism_choice_does_not_change_fingerprint() {
        let auto = BatmapParams::new(1000, 1);
        let pinned = BatmapParams::new(1000, 1)
            .with_engine_options(EngineOptions::auto().threads(Parallelism::Threads(4)));
        assert_eq!(auto.fingerprint(), pinned.fingerprint());
        assert_eq!(pinned.parallelism(), Parallelism::Threads(4));
        assert_eq!(auto.parallelism(), Parallelism::Auto);
    }

    #[test]
    fn kernel_choice_does_not_change_fingerprint() {
        use crate::kernel::KernelBackend;
        let auto = BatmapParams::new(1000, 1);
        let scalar = BatmapParams::new(1000, 1)
            .with_engine_options(EngineOptions::auto().kernel(KernelBackend::Scalar));
        assert_eq!(auto.fingerprint(), scalar.fingerprint());
        assert_eq!(scalar.kernel_backend(), KernelBackend::Scalar);
        assert_eq!(scalar.kernel().name(), "scalar");
        assert_eq!(auto.kernel_backend(), KernelBackend::Auto);
    }

    #[test]
    fn repr_choice_does_not_change_fingerprint() {
        let auto = BatmapParams::new(1000, 1);
        let hybrid = BatmapParams::new(1000, 1)
            .with_engine_options(EngineOptions::auto().repr(ReprPolicy::Hybrid));
        assert_eq!(auto.fingerprint(), hybrid.fingerprint());
        assert_eq!(hybrid.repr_policy(), ReprPolicy::Hybrid);
        assert_eq!(auto.repr_policy(), ReprPolicy::Auto);
    }

    #[test]
    fn engine_options_roundtrip() {
        let opts = EngineOptions::auto()
            .kernel(crate::kernel::KernelBackend::SwarU32)
            .threads(Parallelism::Threads(3))
            .repr(ReprPolicy::Tidlist);
        let via_options = BatmapParams::new(1000, 1).with_engine_options(opts);
        assert_eq!(via_options.engine_options(), opts);
    }
}
