//! Unified engine configuration: one builder for the engine tuning
//! knobs, one documented resolution order, and the only place in the
//! workspace that reads the `BATMAP_*` environment variables.
//!
//! Before this module the configuration surface was sprawled across
//! three env vars (`BATMAP_KERNEL` / `BATMAP_THREADS` / `BATMAP_REPR`),
//! per-field `BatmapParams::with_*` setters, `MinerConfig` fields, and
//! hand-rolled per-binary flags. [`EngineOptions`] folds them into one
//! value with a single rule, applied independently per knob:
//!
//! 1. **explicit** — a concrete value set on the builder wins
//!    unconditionally (`EngineOptions::auto().kernel(KernelBackend::Scalar)`);
//! 2. **environment** — a knob left at `Auto` consults its `BATMAP_*`
//!    variable (read once per process, cached), through the same pure
//!    `resolve_override` rules the knobs have always used;
//! 3. **auto** — with no override either, the knob picks its documented
//!    default: the widest kernel this CPU supports, the ambient rayon
//!    pool, the legacy pure-batmap representation.
//!
//! Everything configurable — `MinerConfig`, `LevelwiseConfig`, the
//! bench `HarnessConfig`, the figure binaries, and the snapshot server —
//! consumes an `EngineOptions`.

use crate::arena::SnapshotLoad;
use crate::kernel::KernelBackend;
use crate::parallel::Parallelism;
use crate::repr::ReprPolicy;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The engine tuning knobs as one value.
///
/// Construct with [`EngineOptions::auto`] and pin individual knobs with
/// the consuming builder methods; every field is also public for
/// struct-literal updates and pattern matching.
///
/// ```
/// use batmap::{EngineOptions, KernelBackend, Parallelism, ReprPolicy};
///
/// let opts = EngineOptions::auto()
///     .kernel(KernelBackend::SwarU64)
///     .threads(Parallelism::Serial)
///     .repr(ReprPolicy::Hybrid);
/// assert_eq!(opts.kernel, KernelBackend::SwarU64);
/// // Knobs left at `Auto` defer to the environment, then to the
/// // documented defaults — nothing is resolved until first use.
/// assert_eq!(EngineOptions::auto(), EngineOptions::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Match-count backend (`BATMAP_KERNEL` when left at `Auto`).
    #[serde(default)]
    pub kernel: KernelBackend,
    /// Host-parallelism knob (`BATMAP_THREADS` when left at `Auto`).
    #[serde(default)]
    pub threads: Parallelism,
    /// Storage-representation policy (`BATMAP_REPR` when left at
    /// `Auto`).
    #[serde(default)]
    pub repr: ReprPolicy,
    /// Snapshot load path (`BATMAP_LOAD` when left at `Auto`).
    #[serde(default)]
    pub load: SnapshotLoad,
}

/// Usage text for the shared CLI flags, for binaries that fold
/// [`EngineOptions::set_flag`] into their `--help` output.
pub const FLAGS_USAGE: &str = "\
  --kernel <auto|scalar|swar32|swar64|neon|avx2|avx512>   match-count backend (default: auto)
  --threads <auto|serial|N>                        host parallelism (default: auto)
  --repr <auto|batmap|bitmap|tidlist|hybrid>       storage representation (default: auto)
  --load <auto|buffered|mmap>                      snapshot load path (default: auto)";

impl EngineOptions {
    /// All three knobs at `Auto`: environment overrides apply, then the
    /// documented defaults. This is the canonical starting point.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Pin the match-count backend (consuming builder).
    pub fn kernel(mut self, kernel: KernelBackend) -> Self {
        self.kernel = kernel;
        self
    }

    /// Pin the host-parallelism knob (consuming builder).
    pub fn threads(mut self, threads: Parallelism) -> Self {
        self.threads = threads;
        self
    }

    /// Pin the storage-representation policy (consuming builder).
    pub fn repr(mut self, repr: ReprPolicy) -> Self {
        self.repr = repr;
        self
    }

    /// Pin the snapshot load path (consuming builder).
    pub fn load(mut self, load: SnapshotLoad) -> Self {
        self.load = load;
        self
    }

    /// Resolve every knob to its concrete value under the documented
    /// order (explicit > env > auto). The returned options contain no
    /// `Auto` kernel or repr; `threads` resolves to `Serial` /
    /// `Threads(n)` when anything pins a count and stays `Auto` when
    /// the ambient pool should decide.
    pub fn resolve(self) -> Self {
        // Fault-point arming rides the same explicit>env>auto rule:
        // sites armed explicitly through `hpcutil::faultpoint::arm`
        // always win (arming replaces), and a knob nobody pins falls
        // back to the env spec, applied once per process on the first
        // resolve. There is no `Auto` tier — disarmed is the default.
        arm_faultpoints_from_env();
        EngineOptions {
            kernel: self.kernel.resolve(),
            threads: match self.threads.pinned() {
                Some(n) => Parallelism::threads(n.max(1)),
                None => Parallelism::Auto,
            },
            repr: self.repr.resolve(),
            load: self.load.resolve(),
        }
    }

    /// Handle one `--flag value` pair if it is one of the shared engine
    /// flags (`--kernel`, `--threads`, `--repr`, `--load`). Returns
    /// `Ok(true)`
    /// when consumed, `Ok(false)` when the flag is not an engine flag
    /// (the caller keeps parsing), and `Err` with a user-facing message
    /// for an engine flag with an invalid value.
    pub fn set_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--kernel" => {
                self.kernel = KernelBackend::from_name(value)
                    .ok_or_else(|| format!("unknown kernel backend `{value}`"))?;
                Ok(true)
            }
            "--threads" => {
                self.threads = Parallelism::from_name(value)
                    .ok_or_else(|| format!("invalid thread count `{value}`"))?;
                Ok(true)
            }
            "--repr" => {
                self.repr = ReprPolicy::from_name(value)
                    .ok_or_else(|| format!("unknown repr policy `{value}`"))?;
                Ok(true)
            }
            "--load" => {
                self.load = SnapshotLoad::from_name(value)
                    .ok_or_else(|| format!("unknown snapshot load path `{value}`"))?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// The cached raw `BATMAP_KERNEL` value, if the variable is set.
///
/// This module is the only place in the workspace that reads the
/// `BATMAP_*` environment (the acceptance grep for the options redesign
/// enforces it); the knobs' `resolve()` methods and any test that needs
/// to know whether an override is active route through these accessors,
/// so the read-once caching semantics live in exactly one spot.
pub fn kernel_env() -> Option<&'static str> {
    static VAR: OnceLock<Option<String>> = OnceLock::new();
    VAR.get_or_init(|| std::env::var("BATMAP_KERNEL").ok())
        .as_deref()
}

/// The cached raw `BATMAP_THREADS` value, if the variable is set.
pub fn threads_env() -> Option<&'static str> {
    static VAR: OnceLock<Option<String>> = OnceLock::new();
    VAR.get_or_init(|| std::env::var("BATMAP_THREADS").ok())
        .as_deref()
}

/// The cached raw `BATMAP_REPR` value, if the variable is set.
pub fn repr_env() -> Option<&'static str> {
    static VAR: OnceLock<Option<String>> = OnceLock::new();
    VAR.get_or_init(|| std::env::var("BATMAP_REPR").ok())
        .as_deref()
}

/// The cached raw `BATMAP_LOAD` value, if the variable is set.
pub fn load_env() -> Option<&'static str> {
    static VAR: OnceLock<Option<String>> = OnceLock::new();
    VAR.get_or_init(|| std::env::var("BATMAP_LOAD").ok())
        .as_deref()
}

/// The cached raw `BATMAP_FAULTPOINTS` value, if the variable is set:
/// a `;`-separated `site=action` spec (see [`crate::fault`]) armed once
/// per process by the first [`EngineOptions::resolve`].
pub fn faultpoints_env() -> Option<&'static str> {
    static VAR: OnceLock<Option<String>> = OnceLock::new();
    VAR.get_or_init(|| std::env::var("BATMAP_FAULTPOINTS").ok())
        .as_deref()
}

/// Arm the fault sites named by `BATMAP_FAULTPOINTS`, once per process.
/// A malformed spec aborts loudly: silently ignoring it would let a
/// chaos run pass vacuously with nothing armed.
fn arm_faultpoints_from_env() {
    static ARMED: OnceLock<()> = OnceLock::new();
    ARMED.get_or_init(|| {
        if let Some(spec) = faultpoints_env() {
            if let Err(err) = crate::fault::arm_from_spec(spec) {
                panic!("invalid BATMAP_FAULTPOINTS: {err}");
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_pins_individual_knobs() {
        let opts = EngineOptions::auto()
            .kernel(KernelBackend::Scalar)
            .threads(Parallelism::Threads(4))
            .repr(ReprPolicy::Hybrid);
        assert_eq!(opts.kernel, KernelBackend::Scalar);
        assert_eq!(opts.threads, Parallelism::Threads(4));
        assert_eq!(opts.repr, ReprPolicy::Hybrid);
        // Unset knobs stay Auto.
        let partial = EngineOptions::auto().repr(ReprPolicy::Bitmap);
        assert_eq!(partial.kernel, KernelBackend::Auto);
        assert_eq!(partial.threads, Parallelism::Auto);
        assert_eq!(partial.load, SnapshotLoad::Auto);
        let pinned = EngineOptions::auto().load(SnapshotLoad::Buffered);
        assert_eq!(pinned.load, SnapshotLoad::Buffered);
    }

    #[test]
    fn explicit_beats_env_beats_auto() {
        // Explicit concrete knobs resolve to themselves regardless of
        // the environment (scalar is available everywhere).
        let explicit = EngineOptions::auto()
            .kernel(KernelBackend::Scalar)
            .threads(Parallelism::Serial)
            .repr(ReprPolicy::Tidlist)
            .resolve();
        assert_eq!(explicit.kernel, KernelBackend::Scalar);
        assert_eq!(explicit.threads, Parallelism::Serial);
        assert_eq!(explicit.repr, ReprPolicy::Tidlist);
        // Auto knobs resolve through the same pure override rules the
        // env path uses, fed with the cached variables.
        let auto = EngineOptions::auto().resolve();
        assert_eq!(auto.kernel, KernelBackend::resolve_override(kernel_env()));
        assert_eq!(auto.repr, ReprPolicy::resolve_override(repr_env()));
        assert_eq!(auto.load, SnapshotLoad::resolve_override(load_env()));
        assert_ne!(auto.kernel, KernelBackend::Auto);
        assert_ne!(auto.repr, ReprPolicy::Auto);
        assert_ne!(auto.load, SnapshotLoad::Auto);
    }

    #[test]
    fn flag_parsing_consumes_engine_flags_only() {
        let mut opts = EngineOptions::auto();
        assert_eq!(opts.set_flag("--kernel", "swar64"), Ok(true));
        assert_eq!(opts.set_flag("--threads", "4"), Ok(true));
        assert_eq!(opts.set_flag("--repr", "hybrid"), Ok(true));
        assert_eq!(opts.set_flag("--load", "buffered"), Ok(true));
        assert_eq!(opts.kernel, KernelBackend::SwarU64);
        assert_eq!(opts.threads, Parallelism::Threads(4));
        assert_eq!(opts.repr, ReprPolicy::Hybrid);
        assert_eq!(opts.load, SnapshotLoad::Buffered);
        assert_eq!(opts.set_flag("--scale", "big"), Ok(false));
        assert!(opts.set_flag("--kernel", "cuda9000").is_err());
        assert!(opts.set_flag("--threads", "many").is_err());
        assert!(opts.set_flag("--repr", "sparse").is_err());
        assert!(opts.set_flag("--load", "teleport").is_err());
    }

    #[test]
    fn serde_roundtrip_uses_knob_names() {
        let opts = EngineOptions::auto()
            .kernel(KernelBackend::Avx2)
            .threads(Parallelism::Threads(8))
            .repr(ReprPolicy::Hybrid);
        let text = serde_json::to_string(&opts).unwrap();
        assert!(text.contains("\"avx2\""), "{text}");
        assert!(text.contains("\"8\""), "{text}");
        assert!(text.contains("\"hybrid\""), "{text}");
        let back: EngineOptions = serde_json::from_str(&text).unwrap();
        assert_eq!(back, opts);
    }
}
