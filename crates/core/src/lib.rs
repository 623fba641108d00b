//! # batmap — the BATMAP set layout
//!
//! Rust implementation of the data structure from *A New Data Layout for
//! Set Intersection on GPUs* (Amossen & Pagh, IPDPS 2011).
//!
//! A **batmap** stores each element of a set in 2 of 3 cuckoo hash
//! tables that are shared (same hash functions) across *all* sets of a
//! universe. Any element present in two sets is then guaranteed to
//! occupy at least one common position, so the intersection size of two
//! batmaps can be computed by a fixed, data-independent, position-by-
//! position sweep — no branches, no random access, perfect for SIMD/GPU
//! execution. A per-slot indicator bit (cyclic-order trick, §II) makes
//! the sweep count every common element exactly once, and an 8-bit
//! compression (§III-A) packs four slots per 32-bit word while keeping
//! counts exact.
//!
//! ## Quick start
//!
//! ```
//! use batmap::{Batmap, BatmapParams};
//! use std::sync::Arc;
//!
//! // One universe of m = 100_000 transaction ids.
//! let params = Arc::new(BatmapParams::new(100_000, 0xB47));
//!
//! // Build batmaps for two sets (tidlists).
//! let a = Batmap::build(params.clone(), &[10, 20, 30, 40, 99_999]).batmap;
//! let b = Batmap::build(params.clone(), &[20, 40, 60, 99_999]).batmap;
//!
//! // Count the intersection with the branch-free positional sweep.
//! assert_eq!(a.intersect_count(&b), 3);
//! ```
//!
//! ## Module map
//!
//! * [`params`] — universe parameters: shared permutations, compression
//!   shift, range policy.
//! * [`hash`] — the seeded Feistel permutations `π₁..π₃`.
//! * [`slot`] — the 8-bit slot encoding (7-bit key + indicator bit).
//! * [`builder`] — cuckoo 2-of-3 construction, failure handling.
//! * [`batmap`] — the immutable [`Batmap`] itself, and the [`AsSlots`]
//!   storage seam every counting path is generic over.
//! * [`arena`] — contiguous corpus storage: [`arena::BatmapArena`],
//!   zero-copy [`arena::BatmapRef`] views, versioned snapshot
//!   persistence, and the [`arena::SnapshotLoad`] knob selecting the
//!   heap-buffered or mmap-backed load path (`BATMAP_LOAD`).
//! * `mmap` — the read-only memory-map wrapper behind
//!   [`arena::SnapshotLoad::Mmap`] (64-bit Unix only, hence no doc
//!   link).
//! * [`repr`] — per-set storage representations ([`SetRepr`]: batmap,
//!   uncompressed bitmap, sorted tidlist), the density-based
//!   [`ReprPolicy`] selection knob (`BATMAP_REPR`), and the typed
//!   [`SetView`] the mixed kernels consume.
//! * [`kernel`] — the pluggable [`kernel::MatchKernel`] backend layer
//!   (scalar reference, SWAR-u32, SWAR-u64, NEON, AVX2, AVX-512;
//!   runtime-selectable with CPU-feature detection).
//! * `simd` — the true-SIMD AVX2/AVX-512 kernels (`x86_64` only).
//! * `neon` — the NEON kernel (`aarch64` only, baseline SIMD there).
//! * [`parallel`] — the [`Parallelism`] knob host-parallel phases share
//!   (`BATMAP_THREADS` override, same plumbing style as the kernels).
//! * [`swar`] — the paper's raw branch-free formulations (backend
//!   internals and ablation material).
//! * [`intersect`] — equal-width and folded intersection counting.
//! * [`uncompressed`] — the abstract `3×r` reference structure.
//! * [`delta`] — mutable delta sets layered over an immutable corpus
//!   (the storage half of the live write path), and
//!   [`exact_pair_count`], the one correction that turns a stored×stored
//!   count into an exact answer over failed insertions and live deltas.
//! * [`analysis`] — empirical validation of the §II-B bounds.
//! * [`multiway`] — the §V extensions, reproduced: d-of-(d+1) batmaps
//!   and probe counting.
//! * [`space`] — space accounting vs the information-theoretic minimum.
//!
//! ## Environment overrides
//!
//! This is the canonical description of the runtime knobs every binary
//! in the workspace honours; README and the figure binaries point
//! here.
//!
//! ### `BATMAP_KERNEL` — match-count backend
//!
//! `BATMAP_KERNEL=scalar|swar32|swar64|neon|avx2|avx512` steers
//! what [`KernelBackend::Auto`] resolves to. Resolution rules
//! ([`KernelBackend::resolve_override`] is the pure form):
//!
//! 1. An explicit backend ([`EngineOptions::kernel`](EngineOptions#structfield.kernel),
//!    `MinerConfig::kernel`, `--kernel NAME`) wins; `Auto` consults the
//!    environment.
//! 2. `Auto` with no (valid) override resolves to the **widest backend
//!    available on this CPU**: avx512 where detected, else avx2; neon
//!    on aarch64; swar64 elsewhere.
//! 3. Requesting a backend the CPU lacks (e.g. `avx512` on a host
//!    without AVX-512BW) **downgrades** to the widest available one
//!    with a one-time warning. Counts are backend-independent, so a
//!    downgrade only changes speed, never results.
//! 4. An unparseable value is ignored, also with a one-time warning.
//!
//! The variable is read once per process and cached.
//!
//! ### `BATMAP_LOAD` — snapshot load path
//!
//! `BATMAP_LOAD=buffered|mmap` steers what
//! [`arena::SnapshotLoad::Auto`] resolves to — how snapshot files are
//! brought into memory by the load-aware open paths
//! ([`arena::BatmapArena::read_from_file_with`], the `pairminer`
//! corpus open, and the server's corpus loading):
//!
//! 1. An explicit knob ([`EngineOptions::load`](EngineOptions#structfield.load),
//!    `--load NAME`) wins; `Auto` consults the environment.
//! 2. `Auto` with no (valid) override resolves to **`buffered`** — the
//!    eager read that checksums the whole payload before serving.
//! 3. `mmap` maps the file read-only and defers the payload checksum
//!    to an explicit [`arena::BatmapArena::verify`] call, so a cold
//!    multi-GiB corpus serves its first query in milliseconds (the
//!    server's live corpus rebuilds the transaction mirror that only
//!    writes need on the first write, compaction or mine). Headers
//!    and directories are still validated eagerly. On platforms
//!    without the mmap backing (non-Unix or 32-bit), `mmap` downgrades
//!    to `buffered` with a one-time warning.
//! 4. An unparseable value is ignored, also with a one-time warning.
//!
//! The variable is read once per process and cached.
//!
//! ### `BATMAP_THREADS` — host parallelism
//!
//! `BATMAP_THREADS=serial|<count>` steers what [`Parallelism::Auto`]
//! resolves to, for every host-parallel phase (batmap construction,
//! the parallel tiled CPU mining engine, the levelwise miner's
//! candidate counting):
//!
//! 1. An explicit knob (`Parallelism::Serial` / `Parallelism::Threads`,
//!    `--threads`, `MinerConfig::threads`) wins; `Auto` consults the
//!    environment.
//! 2. `Auto` with no (valid) override follows the **ambient rayon
//!    pool** — so `hpcutil::scoped_pool(cores, …)` sweeps keep working
//!    unchanged.
//! 3. `serial` (or `1`) selects strictly sequential execution; `0` and
//!    `auto` mean `Auto`; an unparseable value is ignored with a
//!    one-time warning. The variable is read once per process and
//!    cached.
//!
//! ### `BATMAP_REPR` — storage representation policy
//!
//! `BATMAP_REPR=auto|batmap|bitmap|tidlist|hybrid` steers what
//! [`ReprPolicy::Auto`] resolves to — which layout each set of a
//! preprocessed corpus is stored in (see [`repr`] for the selection
//! thresholds):
//!
//! 1. An explicit policy ([`EngineOptions::repr`](EngineOptions#structfield.repr),
//!    `MinerConfig::repr`, `--repr NAME`) wins; `Auto` consults the
//!    environment.
//! 2. `Auto` with no (valid) override resolves to **`batmap`** — the
//!    legacy pure-batmap corpus; hybrid storage is opt-in.
//! 3. `hybrid` picks the cheapest representation per set by density
//!    (dense → bitmap, sparse tail → tidlist, middle band → batmap);
//!    `bitmap`/`tidlist` force one layout everywhere (ablation modes).
//! 4. An unparseable value is ignored with a warning, falling back to
//!    `batmap`. The variable is read once per process and cached.
//!
//! The GPU-sim engine requires an all-batmap corpus, so it pins
//! `batmap` regardless of this knob (with a one-time warning if the
//! configuration asked for something else).
//!
//! None of these knobs ever changes *what* is computed — all are pure
//! speed/placement choices, which is why they are runtime data rather
//! than compile-time features. In particular every representation's
//! intersection kernel is exact, so hybrid and pure-batmap runs report
//! identical counts.

#![warn(missing_docs)]

pub mod analysis;
pub mod arena;
pub mod batmap;
pub mod builder;
pub mod delta;
pub mod error;
pub mod hash;
pub mod intersect;
pub mod kernel;
#[cfg(all(unix, target_pointer_width = "64"))]
pub mod mmap;
pub mod multiway;
#[cfg(target_arch = "aarch64")]
pub mod neon;
pub mod options;
pub mod parallel;
pub mod params;
pub mod repr;
#[cfg(target_arch = "x86_64")]
pub mod simd;
pub mod slot;
pub mod space;
pub mod swar;
pub mod uncompressed;

pub use arena::{
    ArenaBuilder, ArenaStage, BatmapArena, BatmapRef, SetSpec, SnapshotBytes, SnapshotLoad,
};
pub use batmap::{AsSlots, Batmap};
pub use builder::{ArenaSetOutcome, BatmapBuilder, BuildOutcome, InsertOutcome, InsertStats};
pub use delta::{exact_pair_count, DeltaRegion, DeltaSet, PairSide};
pub use error::{BatmapError, SnapshotError};
/// Fault-injection sites (re-export of [`hpcutil::faultpoint`]): arm
/// named sites with error/panic/delay actions — explicitly or via
/// `BATMAP_FAULTPOINTS` on the first [`EngineOptions::resolve`] — and
/// mark sites with `hpcutil::fault_point!`.
pub use hpcutil::faultpoint as fault;
pub use kernel::{available_backends, KernelBackend, MatchKernel, ALL_BACKENDS};
pub use multiway::{intersect_count_probe, MultiwayBatmap, MultiwayParams};
pub use options::EngineOptions;
pub use parallel::Parallelism;
pub use params::{BatmapParams, ParamsHandle, TABLES};
pub use repr::{BitmapRef, ReprPolicy, SetRepr, SetView, TidlistRef, ALL_REPR_POLICIES};
pub use uncompressed::UncompressedBatmap;
