//! Named fault-injection sites: make failure a first-class, testable
//! input.
//!
//! Production code marks its fragile moments with the
//! [`fault_point!`](crate::fault_point) macro — a snapshot write, a
//! connection read, a shard worker's batch — and tests *arm* those
//! sites with actions: return an error, panic, delay N milliseconds,
//! fire only on every k-th hit, stop after n firings. The invariant
//! under test is then asserted **with the fault active**, not merely in
//! its absence.
//!
//! # Cost when disarmed
//!
//! The entire registry sits behind one global relaxed atomic counter of
//! armed sites. A disarmed `fault_point!` compiles to a single
//! `AtomicUsize::load(Relaxed)` and a predictable branch — no lock, no
//! hash lookup, no allocation — so the sites can stay in release builds
//! and hot paths permanently (the perf suite gates the per-hit cost at
//! ≤1% of a served query). Only while at least one
//! site is armed does a hit take the registry lock.
//!
//! # Spec grammar
//!
//! Sites are armed programmatically ([`arm`]) or from a spec string
//! ([`arm_from_spec`], which is what the `BATMAP_FAULTPOINTS`
//! environment variable feeds through `batmap::options`):
//!
//! ```text
//! spec    = entry (';' entry)*
//! entry   = site '=' action
//! action  = kind [ '@' every ] [ 'x' limit ]
//! kind    = 'error' [ '(' message ')' ]
//!         | 'panic' [ '(' message ')' ]
//!         | 'delay' '(' millis ')'
//!         | 'off'
//! ```
//!
//! `@k` fires the action only on every k-th hit (deterministic
//! once-in-k, counted per site from arming); `xn` disables the site
//! after n firings. Examples:
//!
//! ```text
//! snapshot.write.payload=error(injected disk full)
//! server.conn.read=error@7          # drop every 7th read
//! engine.worker.batch=panic(boom)x1 # panic exactly once
//! server.conn.write=delay(25)       # 25ms added to every write
//! ```
//!
//! # Using the macro
//!
//! ```
//! use hpcutil::{fault_point, faultpoint};
//!
//! fn write_payload() -> std::io::Result<()> {
//!     // Unit form: executes delay/panic actions; an `error` action at
//!     // this site is returned through the mapping closure.
//!     fault_point!("doc.write.payload", |msg| {
//!         Err(std::io::Error::other(msg))
//!     });
//!     Ok(())
//! }
//!
//! faultpoint::arm("doc.write.payload", "error(no space)").unwrap();
//! assert!(write_payload().is_err());
//! faultpoint::disarm("doc.write.payload");
//! assert!(write_payload().is_ok());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed site does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Surface an injected failure: the [`fault_point!`](crate::fault_point)
    /// macro's mapping closure receives this message and (by
    /// convention) early-returns an error built from it.
    Error(String),
    /// Panic with the message — exercises `catch_unwind` containment
    /// and supervisor restarts.
    Panic(String),
    /// Sleep for the given number of milliseconds, then continue —
    /// exercises timeouts and backpressure.
    Delay(u64),
}

/// A parsed fault action: the kind plus its firing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAction {
    /// What happens when the site fires.
    pub kind: FaultKind,
    /// Fire only on every `every`-th hit (1 = every hit).
    pub every: u64,
    /// Stop firing after this many firings (`None` = unlimited).
    pub limit: Option<u64>,
}

/// One armed site's live state.
struct Site {
    action: FaultAction,
    hits: u64,
    fired: u64,
}

/// Count of armed sites; the only state a disarmed hit reads.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// True when at least one site is armed. A single relaxed atomic load:
/// this is the whole cost of a disarmed [`fault_point!`](crate::fault_point).
#[inline(always)]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// Parse one action spec (`kind[@every][xlimit]`, see the module docs).
pub fn parse_action(spec: &str) -> Result<Option<FaultAction>, String> {
    let spec = spec.trim();
    // Split the trailing modifiers off first; the message may contain
    // anything except ')', so scan from the closing paren if present.
    let (kind_part, mods) = match spec.find(')') {
        Some(close) => (&spec[..=close], &spec[close + 1..]),
        None => {
            let cut = spec.find(['@', 'x']).unwrap_or(spec.len());
            (&spec[..cut], &spec[cut..])
        }
    };
    let (name, arg) = match kind_part.find('(') {
        Some(open) => {
            if !kind_part.ends_with(')') {
                return Err(format!("unterminated argument in `{spec}`"));
            }
            (
                &kind_part[..open],
                Some(&kind_part[open + 1..kind_part.len() - 1]),
            )
        }
        None => (kind_part, None),
    };
    let kind = match name.trim() {
        "off" => {
            if !mods.trim().is_empty() || arg.is_some() {
                return Err(format!("`off` takes no argument or modifiers in `{spec}`"));
            }
            return Ok(None);
        }
        "error" => FaultKind::Error(arg.unwrap_or("injected fault").to_string()),
        "panic" => FaultKind::Panic(arg.unwrap_or("injected panic").to_string()),
        "delay" => {
            let millis = arg
                .ok_or_else(|| format!("`delay` needs a millisecond argument in `{spec}`"))?
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("`delay` argument is not an integer in `{spec}`"))?;
            FaultKind::Delay(millis)
        }
        other => return Err(format!("unknown fault kind `{other}` in `{spec}`")),
    };
    let mut every = 1u64;
    let mut limit = None;
    let mut rest = mods.trim();
    if let Some(after) = rest.strip_prefix('@') {
        let cut = after.find('x').unwrap_or(after.len());
        every = after[..cut]
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("`@every` is not an integer in `{spec}`"))?;
        if every == 0 {
            return Err(format!("`@every` must be ≥ 1 in `{spec}`"));
        }
        rest = after[cut..].trim();
    }
    if let Some(after) = rest.strip_prefix('x') {
        let n = after
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("`xlimit` is not an integer in `{spec}`"))?;
        limit = Some(n);
        rest = "";
    }
    if !rest.is_empty() {
        return Err(format!("trailing garbage `{rest}` in `{spec}`"));
    }
    Ok(Some(FaultAction { kind, every, limit }))
}

/// Arm `site` with the given action spec (replacing any previous
/// action; hit counters restart). A spec of `off` disarms the site.
pub fn arm(site: &str, spec: &str) -> Result<(), String> {
    match parse_action(spec)? {
        Some(action) => {
            arm_action(site, action);
            Ok(())
        }
        None => {
            disarm(site);
            Ok(())
        }
    }
}

/// Arm `site` with an already-built action.
pub fn arm_action(site: &str, action: FaultAction) {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let prev = reg.insert(
        site.to_string(),
        Site {
            action,
            hits: 0,
            fired: 0,
        },
    );
    if prev.is_none() {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarm one site (idempotent).
pub fn disarm(site: &str) {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if reg.remove(site).is_some() {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disarm every site (what a test's cleanup calls).
pub fn disarm_all() {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let n = reg.len();
    reg.clear();
    ARMED.fetch_sub(n, Ordering::Relaxed);
}

/// Arm every `site=action` entry of a `;`-separated spec string (the
/// `BATMAP_FAULTPOINTS` format). Empty entries are ignored; the first
/// malformed entry aborts with an error and arms nothing further.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, action) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault entry `{entry}` is not `site=action`"))?;
        arm(site.trim(), action)?;
    }
    Ok(())
}

/// Names of the currently armed sites, sorted (diagnostics and tests).
pub fn armed_sites() -> Vec<String> {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let mut names: Vec<String> = reg.keys().cloned().collect();
    names.sort();
    names
}

/// Evaluate a hit on `site`: returns `Some(message)` when an armed
/// `error` action fires (the macro's closure maps it into the caller's
/// error type), after executing any `delay` inline and raising any
/// `panic`. Returns `None` when the site is disarmed or scheduled off
/// this hit. Called by the macro only after [`is_armed`] — not intended
/// for direct use, but harmless.
pub fn hit(site: &str) -> Option<String> {
    let fire = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let entry = reg.get_mut(site)?;
        entry.hits += 1;
        let due = entry.hits % entry.action.every == 0;
        let within = entry.action.limit.is_none_or(|l| entry.fired < l);
        if due && within {
            entry.fired += 1;
            Some(entry.action.kind.clone())
        } else {
            None
        }
        // Lock dropped before sleeping or panicking: a delayed or
        // panicking site must not poison or stall the registry.
    }?;
    match fire {
        FaultKind::Delay(millis) => {
            std::thread::sleep(Duration::from_millis(millis));
            None
        }
        FaultKind::Panic(message) => panic!("fault point `{site}` injected panic: {message}"),
        FaultKind::Error(message) => Some(message),
    }
}

/// Mark a named fault site. Two forms:
///
/// * `fault_point!("site")` — armed `delay` actions sleep, `panic`
///   actions panic; an `error` action at a unit-form site also panics
///   (arming `error` on a site that cannot return one is a test bug
///   worth failing loudly).
/// * `fault_point!("site", |msg| expr)` — as above, but an `error`
///   action evaluates the closure with the injected message and
///   **early-returns** its value from the enclosing function.
///
/// Disarmed cost: one relaxed atomic load.
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        if $crate::faultpoint::is_armed() {
            if let ::std::option::Option::Some(message) = $crate::faultpoint::hit($site) {
                panic!(
                    "fault point `{}` armed with an error action but the site cannot \
                     return one: {message}",
                    $site
                );
            }
        }
    };
    ($site:expr, $on_error:expr) => {
        if $crate::faultpoint::is_armed() {
            if let ::std::option::Option::Some(message) = $crate::faultpoint::hit($site) {
                #[allow(clippy::redundant_closure_call)]
                return ($on_error)(message);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so every test here runs under
    /// one lock to keep arming deterministic (the unit tests would
    /// otherwise race each other's disarm_all).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn guarded<R>(f: impl FnOnce() -> R) -> R {
        let _gate = serial();
        disarm_all();
        let out = f();
        disarm_all();
        out
    }

    #[test]
    fn disarmed_sites_do_nothing() {
        guarded(|| {
            assert!(!is_armed());
            fault_point!("test.nothing");
            let ok = (|| -> Result<u32, String> {
                fault_point!("test.nothing", Err);
                Ok(7)
            })();
            assert_eq!(ok, Ok(7));
        });
    }

    #[test]
    fn error_action_returns_through_the_closure() {
        guarded(|| {
            arm("test.err", "error(no luck)").unwrap();
            assert!(is_armed());
            let out = (|| -> Result<u32, String> {
                fault_point!("test.err", |m: String| Err(format!("mapped: {m}")));
                Ok(1)
            })();
            assert_eq!(out, Err("mapped: no luck".to_string()));
            disarm("test.err");
            assert!(!is_armed());
        });
    }

    #[test]
    fn every_k_and_limit_schedules_fire_deterministically() {
        guarded(|| {
            arm("test.sched", "error(f)@3x2").unwrap();
            let fire = |_: ()| -> Result<(), String> {
                fault_point!("test.sched", Err);
                Ok(())
            };
            let outcomes: Vec<bool> = (0..12).map(|_| fire(()).is_err()).collect();
            // Fires on hits 3 and 6 (every 3rd), then the x2 limit caps it.
            let expect: Vec<bool> = (1..=12).map(|h| h == 3 || h == 6).collect();
            assert_eq!(outcomes, expect);
        });
    }

    #[test]
    fn panic_action_panics_and_is_containable() {
        guarded(|| {
            arm("test.panic", "panic(kaboom)").unwrap();
            let caught = std::panic::catch_unwind(|| {
                fault_point!("test.panic");
            });
            assert!(caught.is_err());
            // The registry survives a panicking site.
            assert_eq!(armed_sites(), vec!["test.panic".to_string()]);
        });
    }

    #[test]
    fn delay_action_sleeps() {
        guarded(|| {
            arm("test.delay", "delay(30)").unwrap();
            let t0 = std::time::Instant::now();
            fault_point!("test.delay");
            assert!(t0.elapsed() >= Duration::from_millis(25));
        });
    }

    #[test]
    fn spec_strings_parse_and_reject() {
        guarded(|| {
            arm_from_spec("a.site=error(x); b.site=delay(5)@2 ; ;c.site=panic x1").unwrap();
            assert_eq!(armed_sites().len(), 3);
            disarm_all();
            assert!(arm_from_spec("no-equals-here").is_err());
            assert!(arm("s", "explode").is_err());
            assert!(arm("s", "delay").is_err());
            assert!(arm("s", "delay(ms)").is_err());
            assert!(arm("s", "error@0").is_err());
            assert!(arm("s", "error(m)zz").is_err());
            // `off` disarms.
            arm("s", "error").unwrap();
            assert!(is_armed());
            arm("s", "off").unwrap();
            assert!(!is_armed());
        });
    }

    #[test]
    fn rearming_resets_counters() {
        guarded(|| {
            arm("test.rearm", "error@2").unwrap();
            let fire = |_: ()| -> Result<(), String> {
                fault_point!("test.rearm", Err);
                Ok(())
            };
            assert!(fire(()).is_ok()); // hit 1
            arm("test.rearm", "error@2").unwrap(); // counters restart
            assert!(fire(()).is_ok()); // hit 1 again
            assert!(fire(()).is_err()); // hit 2 fires
        });
    }
}
