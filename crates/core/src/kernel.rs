//! Pluggable match-count kernel backends.
//!
//! The §III-A branch-free word comparison is the workhorse of the whole
//! paper, and the natural seam for hardware specialization. The same
//! positional predicate is evaluated at every lane width the host
//! offers:
//!
//! | backend  | lanes/step | register        | availability |
//! |----------|-----------:|-----------------|--------------|
//! | `scalar` | 1          | byte            | everywhere (test oracle) |
//! | `swar32` | 4          | `u32`           | everywhere (the paper's printed form) |
//! | `swar64` | 8          | `u64`           | everywhere (widest portable) |
//! | `neon`   | 16         | 128-bit NEON    | `aarch64` baseline |
//! | `avx2`   | 32         | 256-bit YMM     | `x86_64` with AVX2 (runtime-detected) |
//! | `avx512` | 64         | 512-bit ZMM     | `x86_64` with AVX-512BW (runtime-detected) |
//!
//! [`MatchKernel`] abstracts that choice. Every consumer of match
//! counting — [`crate::intersect`], [`crate::multiway`], and the
//! `pairminer` engines — dispatches through this trait; the raw
//! formulations in [`crate::swar`] and `crate::simd` (the latter
//! `x86_64`-only, hence no doc link) are backend internals (and
//! ablation material for the benches).
//!
//! **Dispatch happens once per intersection, not once per word.** Each
//! backend implements the slice entry points (`count_equal_width`,
//! `count_wrapped`, and the batched `count_equal_width_many`) as a
//! monomorphized bulk loop over the whole input, and the intersection
//! drivers select the backend through [`KernelBackend::dispatch`], so
//! the inner loops contain no indirect calls at all. All wide backends
//! share one tail path ([`crate::swar::match_count_slices`]) for widths
//! that are not register multiples.
//!
//! Backend selection is runtime data, not a compile-time feature:
//! [`KernelBackend::Auto`] resolves to the widest backend *available on
//! this CPU* (AVX-512 where detected, else AVX2; NEON on `aarch64`;
//! SWAR-u64 elsewhere), honouring a
//! `BATMAP_KERNEL` environment override, and
//! can be pinned per universe via [`crate::BatmapParams::with_engine_options`]
//! or per mining run via the miner configuration. Requesting a backend
//! the CPU lacks downgrades (with a one-time warning) to the widest
//! available one — counts are backend-independent, so a downgrade never
//! changes results, only speed. The §III-B GPU simulator charges each
//! backend its own amortized cost per staged word
//! ([`MatchKernel::ops_per_staged_word`]), so simulated `--kernel`
//! sweeps reflect lane width too.

#[cfg(target_arch = "aarch64")]
use crate::neon;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::swar;
use std::fmt;
use std::sync::OnceLock;

/// A positional match-counting backend.
///
/// Implementations must all compute the paper's exact predicate: a slot
/// position counts iff the two 7-bit keys agree **and** at least one of
/// the two indicator bits is set.
pub trait MatchKernel: fmt::Debug + Send + Sync {
    /// Stable human-readable backend name (used in bench labels and the
    /// `BATMAP_KERNEL` override).
    fn name(&self) -> &'static str;

    /// Lanes processed per inner-loop step (1 for scalar, 4 for u32
    /// words, 8 for u64 words, 16 for NEON, 32 for AVX2, 64 for
    /// AVX-512).
    fn lanes(&self) -> usize;

    /// Count matching slots of one 32-bit word of four slots — the
    /// granularity the §III-B GPU kernel stages through shared memory.
    fn count_word_u32(&self, x: u32, y: u32) -> u32;

    /// Scalar ops the §III-B GPU simulator charges per staged 32-bit
    /// comparison with this backend (the paper's amortized accounting
    /// for its u32 formulation is 8; wider or narrower backends scale
    /// accordingly so simulated `--kernel` sweeps reflect backend
    /// cost).
    fn ops_per_staged_word(&self) -> u64 {
        8
    }

    /// Count matching slots between two equal-width slot arrays.
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64;

    /// Count matches between `large` and `small` where `small` is
    /// logically tiled (wrapped) along `large` — the §II comparison of
    /// batmaps with different ranges, reduced to chunk wrap-around by
    /// the block layout.
    ///
    /// # Panics
    /// Panics if `small` is empty or `large.len()` is not a multiple of
    /// `small.len()`.
    fn count_wrapped(&self, large: &[u8], small: &[u8]) -> u64 {
        assert!(!small.is_empty());
        assert_eq!(
            large.len() % small.len(),
            0,
            "large width {} must be a multiple of small width {}",
            large.len(),
            small.len()
        );
        large
            .chunks_exact(small.len())
            .map(|chunk| self.count_equal_width(chunk, small))
            .sum()
    }

    /// Count one probe array against many equal-width candidates,
    /// writing `|probe ∩ candidateᵢ|` into `out[i]` — the kernel of the
    /// batched one-vs-many driver ([`crate::intersect`]). The SIMD
    /// backends override this with a chunk-major loop that loads each
    /// probe register once per block of candidates, keeping the probe
    /// hot in registers/L1 while sweeping the block.
    ///
    /// # Panics
    /// Panics if `candidates` and `out` have different lengths or any
    /// candidate's width differs from the probe's.
    fn count_equal_width_many(&self, probe: &[u8], candidates: &[&[u8]], out: &mut [u64]) {
        assert_eq!(candidates.len(), out.len(), "one output slot per candidate");
        for (c, o) in candidates.iter().zip(out) {
            *o = self.count_equal_width(probe, c);
        }
    }

    /// Equality of two full positional values (the §V multiway sweep,
    /// which stores uncompressed permuted values rather than slot
    /// bytes). Branch-free in the SWAR and SIMD backends.
    fn value_eq(&self, x: u64, y: u64) -> bool {
        x == y
    }
}

/// Byte-at-a-time reference backend: the predicate with ordinary
/// control flow. The test oracle, and the "branchy CPU" ablation point.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl MatchKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }
    fn lanes(&self) -> usize {
        1
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        swar::match_count_bytes(&x.to_le_bytes(), &y.to_le_bytes()) as u32
    }
    fn ops_per_staged_word(&self) -> u64 {
        // Four byte lanes, each a branchy compare-mask-test sequence.
        32
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        assert_eq!(xs.len(), ys.len(), "batmap slices must have equal width");
        swar::match_count_bytes(xs, ys)
    }
}

/// The paper's printed formulation: four slots per 32-bit word.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwarU32Kernel;

impl MatchKernel for SwarU32Kernel {
    fn name(&self) -> &'static str {
        "swar32"
    }
    fn lanes(&self) -> usize {
        4
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        swar::match_count_u32(x, y)
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        assert_eq!(xs.len(), ys.len(), "batmap slices must have equal width");
        let mut count = 0u64;
        let mut chunks_x = xs.chunks_exact(4);
        let mut chunks_y = ys.chunks_exact(4);
        for (cx, cy) in (&mut chunks_x).zip(&mut chunks_y) {
            let wx = u32::from_le_bytes(cx.try_into().unwrap());
            let wy = u32::from_le_bytes(cy.try_into().unwrap());
            count += swar::match_count_u32(wx, wy) as u64;
        }
        count + swar::match_count_bytes(chunks_x.remainder(), chunks_y.remainder())
    }
    fn value_eq(&self, x: u64, y: u64) -> bool {
        branchless_eq(x, y)
    }
}

/// Popcount widening: eight slots per 64-bit word (the widest portable
/// backend; the AVX2/AVX-512 backends in `crate::simd` slot in
/// behind the same trait on `x86_64`, and NEON in `crate::neon` on
/// `aarch64`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwarU64Kernel;

impl MatchKernel for SwarU64Kernel {
    fn name(&self) -> &'static str {
        "swar64"
    }
    fn lanes(&self) -> usize {
        8
    }
    fn count_word_u32(&self, x: u32, y: u32) -> u32 {
        // A single staged word: widen through the u64 kernel. At this
        // granularity the 8-lane width buys nothing (the upper lanes
        // are padding), so the simulated cost stays at the default 8
        // ops — pairing adjacent staged words into one u64 comparison
        // is the future optimization that would earn a discount here.
        swar::match_count_u64(x as u64, y as u64)
    }
    fn count_equal_width(&self, xs: &[u8], ys: &[u8]) -> u64 {
        swar::match_count_slices(xs, ys)
    }
    fn value_eq(&self, x: u64, y: u64) -> bool {
        branchless_eq(x, y)
    }
}

/// Branch-free `x == y` for 64-bit values: `x ^ y` is zero iff equal,
/// and `d | -d` has its top bit set iff `d != 0`.
#[inline]
pub(crate) fn branchless_eq(x: u64, y: u64) -> bool {
    let d = x ^ y;
    (d | d.wrapping_neg()) >> 63 == 0
}

/// Runtime-selectable backend identifier.
///
/// Carried by [`crate::BatmapParams`] (and the miner configuration), so
/// the choice travels with the data it applies to. `Auto` defers the
/// decision to [`KernelBackend::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Pick the widest backend available on this CPU at runtime,
    /// honouring the `BATMAP_KERNEL` environment override.
    #[default]
    Auto,
    /// Byte-at-a-time reference.
    Scalar,
    /// Four lanes per 32-bit word (the paper's formulation).
    SwarU32,
    /// Eight lanes per 64-bit word.
    SwarU64,
    /// Sixteen lanes per 128-bit NEON register (`aarch64` only, where
    /// Advanced SIMD is baseline).
    Neon,
    /// Thirty-two lanes per 256-bit AVX2 register (`x86_64` with AVX2).
    Avx2,
    /// Sixty-four lanes per 512-bit ZMM register (`x86_64` with
    /// AVX-512F + AVX-512BW).
    Avx512,
}

/// The concrete (non-`Auto`) backends, widest last. Iterate
/// [`available_backends`] instead when the code will actually
/// *execute* the backend — the tail of this list is not available on
/// every CPU.
pub const ALL_BACKENDS: [KernelBackend; 6] = [
    KernelBackend::Scalar,
    KernelBackend::SwarU32,
    KernelBackend::SwarU64,
    KernelBackend::Neon,
    KernelBackend::Avx2,
    KernelBackend::Avx512,
];

/// The concrete backends available on this CPU, widest last (bench axes
/// and the CI kernel matrix iterate this so AVX2-less runners skip
/// gracefully).
pub fn available_backends() -> impl Iterator<Item = KernelBackend> {
    ALL_BACKENDS.into_iter().filter(|b| b.is_available())
}

impl KernelBackend {
    /// Parse a backend name as used by `BATMAP_KERNEL` and bench labels.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelBackend::Auto),
            "scalar" => Some(KernelBackend::Scalar),
            "swar32" | "u32" => Some(KernelBackend::SwarU32),
            "swar64" | "u64" => Some(KernelBackend::SwarU64),
            "neon" => Some(KernelBackend::Neon),
            // A retired 16-lane backend that matched swar64 on
            // L2-resident rows; still read so that universes stored
            // with it pinned keep loading.
            "sse2" => Some(KernelBackend::SwarU64),
            "avx2" => Some(KernelBackend::Avx2),
            "avx512" => Some(KernelBackend::Avx512),
            _ => None,
        }
    }

    /// Stable name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Auto => "auto",
            KernelBackend::Scalar => "scalar",
            KernelBackend::SwarU32 => "swar32",
            KernelBackend::SwarU64 => "swar64",
            KernelBackend::Neon => "neon",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Whether this backend can execute on the current CPU. `Auto` and
    /// the portable backends are always available; `neon` requires
    /// `aarch64` (where it is baseline); `avx2` and `avx512` require
    /// `x86_64` plus runtime feature detection.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Auto
            | KernelBackend::Scalar
            | KernelBackend::SwarU32
            | KernelBackend::SwarU64 => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => simd::avx2_available(),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => simd::avx512_available(),
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => true,
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2 | KernelBackend::Avx512 => false,
            #[cfg(not(target_arch = "aarch64"))]
            KernelBackend::Neon => false,
        }
    }

    /// The widest backend available on this CPU (what `Auto` resolves
    /// to absent an override): AVX-512 where detected, else AVX2; NEON
    /// on `aarch64`; SWAR-u64 elsewhere.
    pub fn widest_available() -> KernelBackend {
        ALL_BACKENDS
            .into_iter()
            .rev()
            .find(|b| b.is_available())
            .expect("portable backends are always available")
    }

    /// The pure resolution rule behind [`KernelBackend::resolve`]:
    /// map an optional `BATMAP_KERNEL` override string to a concrete,
    /// *available* backend. Exposed so the resolution policy is unit
    /// testable without mutating process environment.
    ///
    /// * `None` / `Some("auto")` → [`KernelBackend::widest_available`];
    /// * a valid, available backend name → that backend;
    /// * a valid but unavailable name (e.g. `avx2` on a CPU without
    ///   AVX2) → the widest available backend, with a warning;
    /// * an invalid name → the widest available backend, with a
    ///   warning.
    pub fn resolve_override(var: Option<&str>) -> KernelBackend {
        let widest = Self::widest_available();
        match var.map(KernelBackend::from_name) {
            None | Some(Some(KernelBackend::Auto)) => widest,
            Some(Some(concrete)) if concrete.is_available() => concrete,
            Some(Some(concrete)) => {
                // CI runs the kernel matrix on heterogeneous runners:
                // degrade, don't die — counts are backend-independent.
                eprintln!(
                    "warning: BATMAP_KERNEL={} is not available on this CPU; using {}",
                    concrete.name(),
                    widest.name()
                );
                widest
            }
            Some(None) => {
                // Never abort someone else's run over an env var, but
                // don't let a typo silently produce data for the wrong
                // experiment either.
                eprintln!(
                    "warning: ignoring invalid BATMAP_KERNEL={} \
                     (expected auto|scalar|swar32|swar64|neon|avx2|avx512); using {}",
                    var.unwrap_or_default(),
                    widest.name()
                );
                widest
            }
        }
    }

    /// Resolve to a concrete, available backend. `Auto` consults the
    /// `BATMAP_KERNEL` environment variable once (cached) and otherwise
    /// picks the widest backend this CPU supports; a concrete backend
    /// resolves to itself when available and downgrades to the widest
    /// available one (with a one-time warning) when not.
    pub fn resolve(self) -> KernelBackend {
        if self != KernelBackend::Auto {
            if self.is_available() {
                return self;
            }
            static DOWNGRADED: std::sync::Once = std::sync::Once::new();
            DOWNGRADED.call_once(|| {
                eprintln!(
                    "warning: kernel backend {} is not available on this CPU; using {}",
                    self.name(),
                    KernelBackend::widest_available().name()
                );
            });
            return KernelBackend::widest_available();
        }
        static AUTO: OnceLock<KernelBackend> = OnceLock::new();
        *AUTO.get_or_init(|| KernelBackend::resolve_override(crate::options::kernel_env()))
    }

    /// The kernel implementation this identifier selects, as a trait
    /// object. Handy for code that makes a handful of coarse calls (the
    /// bench axes, the Fig. 11 sweep); hot loops should go through
    /// [`KernelBackend::dispatch`] instead so the whole intersection
    /// monomorphizes.
    pub fn kernel(self) -> &'static dyn MatchKernel {
        match self.resolve() {
            KernelBackend::Scalar => &ScalarKernel,
            KernelBackend::SwarU32 => &SwarU32Kernel,
            KernelBackend::SwarU64 => &SwarU64Kernel,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => &simd::Avx2Kernel,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => &simd::Avx512Kernel,
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => &neon::NeonKernel,
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2 | KernelBackend::Avx512 => {
                unreachable!("resolve() never selects an unavailable backend")
            }
            #[cfg(not(target_arch = "aarch64"))]
            KernelBackend::Neon => {
                unreachable!("resolve() never selects an unavailable backend")
            }
            KernelBackend::Auto => unreachable!("resolve() returns a concrete backend"),
        }
    }

    /// Monomorphizing dispatch: resolve the backend and run `op` with
    /// the concrete kernel type, so hot loops written against
    /// `K: MatchKernel` pay no virtual call per position — the one
    /// indirect step happens here, once per intersection. This is the
    /// single place that maps identifiers to types — new backends are
    /// added here once and every dispatch site inherits them.
    pub fn dispatch<D: KernelDispatch>(self, op: D) -> D::Output {
        match self.resolve() {
            KernelBackend::Scalar => op.run(ScalarKernel),
            KernelBackend::SwarU32 => op.run(SwarU32Kernel),
            KernelBackend::SwarU64 => op.run(SwarU64Kernel),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => op.run(simd::Avx2Kernel),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => op.run(simd::Avx512Kernel),
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => op.run(neon::NeonKernel),
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2 | KernelBackend::Avx512 => {
                unreachable!("resolve() never selects an unavailable backend")
            }
            #[cfg(not(target_arch = "aarch64"))]
            KernelBackend::Neon => {
                unreachable!("resolve() never selects an unavailable backend")
            }
            KernelBackend::Auto => unreachable!("resolve() returns a concrete backend"),
        }
    }
}

/// An operation generic over the concrete kernel type, for
/// [`KernelBackend::dispatch`] (monomorphized per backend).
pub trait KernelDispatch {
    /// Result of the operation.
    type Output;
    /// Run with the concrete backend.
    fn run<K: MatchKernel>(self, kernel: K) -> Self::Output;
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Serialized as the backend name, so parameter fingerprints and stored
// universes stay readable and forward-compatible with new backends.
impl serde::Serialize for KernelBackend {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.name())
    }
}

impl<'de> serde::Deserialize<'de> for KernelBackend {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let name = String::deserialize(d)?;
        KernelBackend::from_name(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown kernel backend `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sl(key: u8, ind: bool) -> u8 {
        key | if ind { 0x80 } else { 0 }
    }

    fn sample_arrays(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
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
                    if r.is_multiple_of(5) {
                        0x7F // empty slot
                    } else {
                        sl((r >> 8) as u8 % 0x7F, r & 1 == 1)
                    }
                })
                .collect()
        };
        (gen(&mut next), gen(&mut next))
    }

    #[test]
    fn backends_agree_on_equal_width() {
        for len in [0usize, 1, 3, 4, 7, 8, 15, 17, 31, 33, 64, 257] {
            let (xs, ys) = sample_arrays(len, 0xBEEF + len as u64);
            let expect = ScalarKernel.count_equal_width(&xs, &ys);
            for backend in available_backends() {
                assert_eq!(
                    backend.kernel().count_equal_width(&xs, &ys),
                    expect,
                    "backend {backend} len {len}"
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_wrapped() {
        let (small_x, _) = sample_arrays(64, 1);
        let (large, _) = sample_arrays(256, 2);
        let expect = ScalarKernel.count_wrapped(&large, &small_x);
        for backend in available_backends() {
            assert_eq!(
                backend.kernel().count_wrapped(&large, &small_x),
                expect,
                "backend {backend}"
            );
        }
    }

    #[test]
    fn backends_agree_on_batched_many() {
        let (probe, _) = sample_arrays(96, 5);
        let stores: Vec<Vec<u8>> = (0..9).map(|i| sample_arrays(96, 50 + i).0).collect();
        let cands: Vec<&[u8]> = stores.iter().map(Vec::as_slice).collect();
        let mut expect = vec![0u64; cands.len()];
        ScalarKernel.count_equal_width_many(&probe, &cands, &mut expect);
        for backend in available_backends() {
            let mut out = vec![0u64; cands.len()];
            backend
                .kernel()
                .count_equal_width_many(&probe, &cands, &mut out);
            assert_eq!(out, expect, "backend {backend}");
        }
    }

    #[test]
    fn wrapped_tiles_small_over_large() {
        let small = vec![sl(1, true), sl(2, false), sl(3, true), 0x7F];
        let mut large = small.clone();
        large.extend_from_slice(&[sl(1, false), 0x7F, sl(3, false), 0x7F]);
        // Chunk 0 vs small: lanes 0 and 2 match with indicators set,
        // lane 1 keys equal but both indicators clear, lane 3 empty
        // => 2. Chunk 1 vs small: lanes 0 and 2 match 1|0 => 2.
        for backend in available_backends() {
            assert_eq!(backend.kernel().count_wrapped(&large, &small), 2 + 2);
        }
    }

    #[test]
    #[should_panic]
    fn wrapped_requires_divisible_width() {
        let _ = ScalarKernel.count_wrapped(&[0u8; 6], &[0u8; 4]);
    }

    #[test]
    fn backends_agree_per_word() {
        let (xs, ys) = sample_arrays(4 * 512, 3);
        for (cx, cy) in xs.chunks_exact(4).zip(ys.chunks_exact(4)) {
            let x = u32::from_le_bytes(cx.try_into().unwrap());
            let y = u32::from_le_bytes(cy.try_into().unwrap());
            let expect = ScalarKernel.count_word_u32(x, y);
            for backend in available_backends() {
                assert_eq!(backend.kernel().count_word_u32(x, y), expect);
            }
        }
    }

    #[test]
    fn branchless_eq_is_eq() {
        let values = [0u64, 1, u64::MAX, 1 << 63, 0x0123_4567_89AB_CDEF];
        for &x in &values {
            for &y in &values {
                assert_eq!(branchless_eq(x, y), x == y, "x={x:#x} y={y:#x}");
                for backend in available_backends() {
                    assert_eq!(backend.kernel().value_eq(x, y), x == y);
                }
            }
        }
    }

    #[test]
    fn auto_resolves_concrete_and_names_roundtrip() {
        let resolved = KernelBackend::Auto.resolve();
        assert_ne!(resolved, KernelBackend::Auto);
        assert!(resolved.is_available());
        for backend in ALL_BACKENDS {
            assert_eq!(KernelBackend::from_name(backend.name()), Some(backend));
        }
        for backend in available_backends() {
            assert_eq!(backend.resolve(), backend);
        }
        assert_eq!(KernelBackend::from_name("AUTO"), Some(KernelBackend::Auto));
        assert_eq!(KernelBackend::from_name("nope"), None);
        // The retired `sse2` name still parses, as `swar64`.
        assert_eq!(
            KernelBackend::from_name("sse2"),
            Some(KernelBackend::SwarU64)
        );
    }

    #[test]
    fn override_resolution_policy() {
        let widest = KernelBackend::widest_available();
        assert!(widest.is_available());
        // No override / explicit auto → widest available.
        assert_eq!(KernelBackend::resolve_override(None), widest);
        assert_eq!(KernelBackend::resolve_override(Some("auto")), widest);
        // Typos degrade to widest available, never panic.
        assert_eq!(KernelBackend::resolve_override(Some("bogus")), widest);
        // Every concrete override resolves to something available:
        // itself when the CPU has it, the widest fallback when not.
        for backend in ALL_BACKENDS {
            let resolved = KernelBackend::resolve_override(Some(backend.name()));
            assert!(resolved.is_available(), "{backend} -> {resolved}");
            if backend.is_available() {
                assert_eq!(resolved, backend);
            } else {
                assert_eq!(resolved, widest);
            }
        }
    }

    #[test]
    fn unavailable_backend_downgrades_in_resolve() {
        for backend in ALL_BACKENDS {
            let resolved = backend.resolve();
            assert!(resolved.is_available(), "{backend} -> {resolved}");
            // And the kernel it selects actually computes.
            assert_eq!(backend.kernel().count_equal_width(&[], &[]), 0);
        }
    }

    #[test]
    fn lanes_are_ordered_widest_last() {
        let lanes: Vec<usize> = ALL_BACKENDS.iter().map(|b| b.kernel().lanes()).collect();
        // `kernel()` resolves unavailable backends to the widest
        // available one, so the observed lane count is a floor of the
        // nominal one on the tail of the list; the available entries
        // must match the nominal ladder exactly.
        let nominal = [1usize, 4, 8, 16, 32, 64];
        for (i, backend) in ALL_BACKENDS.iter().enumerate() {
            if backend.is_available() {
                assert_eq!(lanes[i], nominal[i], "backend {backend}");
            }
        }
        let avail: Vec<usize> = available_backends().map(|b| b.kernel().lanes()).collect();
        assert!(
            avail.windows(2).all(|w| w[0] < w[1]),
            "widest last: {avail:?}"
        );
    }

    #[test]
    fn staged_word_cost_scales_down_with_lanes() {
        // The GPU simulator's per-staged-word charge must be monotone
        // non-increasing in lane width: scalar 32, the paper's u32 8,
        // u64 8 (no staged-word pairing), neon 2, avx2 1, avx512 1
        // (the charge floors at one scalar op).
        let costs: Vec<u64> = [
            KernelBackend::Scalar,
            KernelBackend::SwarU32,
            KernelBackend::SwarU64,
        ]
        .iter()
        .map(|b| b.kernel().ops_per_staged_word())
        .collect();
        assert_eq!(costs, vec![32, 8, 8]);
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(crate::simd::Avx2Kernel.ops_per_staged_word(), 1);
            assert_eq!(crate::simd::Avx512Kernel.ops_per_staged_word(), 1);
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(crate::neon::NeonKernel.ops_per_staged_word(), 2);
    }
}
