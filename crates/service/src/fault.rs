//! Deterministic fault injection — the `FREEZEML_FAILPOINTS` registry.
//!
//! The serving stack's failure behavior is a contract, so it must be
//! *testable on demand*: a chaos run has to make the persistence layer
//! lose a write, a worker panic mid-wave, or a socket truncate a read,
//! at a precise site and a precise number of times, without recompiling
//! and without perturbing the fast path when injection is off.
//!
//! A spec is a semicolon-separated list of `site=kind:arg` triggers:
//!
//! ```text
//! FREEZEML_FAILPOINTS=persist.write=err:2;infer.wave=delay:50ms;sock.read=eof:1
//! ```
//!
//! Kinds:
//!
//! * `err:N` — the next `N` hits at the site report an injected
//!   `io::Error`;
//! * `eof:N` — the next `N` hits simulate a truncated read / early EOF;
//! * `panic:N` — the next `N` hits panic (sites inside `catch_unwind`
//!   contain it to an `Internal` outcome, exactly like a real bug);
//! * `delay:D` — every hit sleeps `D` (`50ms`, `2s`, or a bare
//!   millisecond count); an optional `*N` bounds the trip count
//!   (`delay:5ms*3`).
//!
//! Sites are free-form strings; the ones the stack wires up are
//! `persist.encode`, `persist.write`, `persist.rename`, `persist.load`,
//! `infer.wave`, `infer.binding`, `bank.absorb`, `sock.read`, and
//! `sock.write`.
//!
//! **Near-free when unset**, like a disabled [`freezeml_obs::Tracer`]:
//! [`hit`] is one relaxed atomic load when no spec is installed — no
//! lock, no allocation, no env probe after the first call. Each trip is
//! counted in the hub registry's `failpoint_trips{site}` label set (the
//! call sites pass their [`freezeml_obs::Registry`] to [`hit_counted`]),
//! so injected faults are first-class observable events like every
//! other failure mode.
//!
//! Tests install specs programmatically ([`install`] / [`clear`]) —
//! the state is process-global, so suites that inject keep the same
//! one-test-per-binary discipline as the old `FREEZEML_TEST_PANIC_ON`
//! hook this module replaces.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, Once, PoisonError};
use freezeml_obs::{lockrank, Registry};
use std::io;
use std::time::Duration;

/// The environment variable a spec is read from (once, on first hit).
pub const FAILPOINTS_ENV: &str = "FREEZEML_FAILPOINTS";

/// What an armed site does when tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Report an injected I/O error.
    Err,
    /// Simulate a truncated read / early EOF.
    Eof,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Panic (contained wherever the real code contains panics).
    Panic,
}

impl Fault {
    /// The generic I/O rendering of a fault: `Err` and `Eof` become
    /// `io::Error`s, `Delay` sleeps and succeeds, `Panic` panics.
    /// Sites with a more specific interpretation (e.g. a socket read
    /// turning `Eof` into `Ok(0)`) match on the variant instead.
    pub fn io_effect(self) -> io::Result<()> {
        match self {
            Fault::Err => Err(io::Error::other("injected I/O error (failpoint)")),
            Fault::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "injected truncation (failpoint)",
            )),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            Fault::Panic => panic!("injected panic (failpoint)"),
        }
    }
}

/// One armed site: the fault it injects and how many trips remain
/// (`u64::MAX` = unlimited, the default for `delay`).
struct Point {
    site: String,
    fault: Fault,
    remaining: AtomicU64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn table() -> &'static lockrank::Mutex<Option<Arc<Vec<Point>>>> {
    static TABLE: lockrank::Mutex<Option<Arc<Vec<Point>>>> =
        lockrank::Mutex::new(lockrank::FAULT_TABLE, "service.fault.table", None);
    &TABLE
}

/// Parse a duration argument: `50ms`, `2s`, or a bare millisecond
/// count.
fn parse_duration(arg: &str) -> Result<Duration, String> {
    let (digits, unit) = match arg {
        a if a.ends_with("ms") => (&a[..a.len() - 2], 1u64),
        a if a.ends_with('s') => (&a[..a.len() - 1], 1000),
        a => (a, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{arg}` (want e.g. `50ms`, `2s`)"))?;
    Ok(Duration::from_millis(n * unit))
}

/// Parse one `site=kind:arg` trigger.
fn parse_point(entry: &str) -> Result<Point, String> {
    let (site, action) = entry
        .split_once('=')
        .ok_or_else(|| format!("bad failpoint `{entry}` (want `site=kind:arg`)"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("bad failpoint `{entry}` (empty site)"));
    }
    let (kind, arg) = match action.trim().split_once(':') {
        Some((k, a)) => (k.trim(), Some(a.trim())),
        None => (action.trim(), None),
    };
    let count = |a: Option<&str>| -> Result<u64, String> {
        match a {
            None => Ok(1),
            Some(a) => a
                .parse()
                .map_err(|_| format!("bad count `{a}` in `{entry}`")),
        }
    };
    let (fault, remaining) = match kind {
        "err" => (Fault::Err, count(arg)?),
        "eof" => (Fault::Eof, count(arg)?),
        "panic" => (Fault::Panic, count(arg)?),
        "delay" => {
            let a = arg.ok_or_else(|| format!("`delay` needs a duration in `{entry}`"))?;
            let (dur, n) = match a.split_once('*') {
                Some((d, n)) => (
                    parse_duration(d.trim())?,
                    n.trim()
                        .parse()
                        .map_err(|_| format!("bad count `{n}` in `{entry}`"))?,
                ),
                None => (parse_duration(a)?, u64::MAX),
            };
            (Fault::Delay(dur), n)
        }
        other => return Err(format!("unknown failpoint kind `{other}` in `{entry}`")),
    };
    Ok(Point {
        site: site.to_string(),
        fault,
        remaining: AtomicU64::new(remaining),
    })
}

/// Install a failpoint spec, replacing any previous one. Empty specs
/// (or all-whitespace) clear instead.
pub fn install(spec: &str) -> Result<(), String> {
    let mut points = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        points.push(parse_point(entry)?);
    }
    let mut g = table().lock().unwrap_or_else(PoisonError::into_inner);
    if points.is_empty() {
        *g = None;
        // ord: Release — pairs with the Acquire load in `hit`; see
        // the comment there.
        ACTIVE.store(false, Ordering::Release);
    } else {
        *g = Some(Arc::new(points));
        // ord: Release — pairs with the Acquire load in `hit`: a
        // thread whose fast-path probe sees `true` also sees the
        // table write above, so a freshly armed site can never probe
        // as active-but-empty. (With Relaxed, a reordered flag could
        // leak ahead of the table and silently drop the first trips.)
        ACTIVE.store(true, Ordering::Release);
    }
    Ok(())
}

/// Disarm every failpoint.
pub fn clear() {
    let mut g = table().lock().unwrap_or_else(PoisonError::into_inner);
    *g = None;
    // ord: Release — pairs with the Acquire load in `hit`.
    ACTIVE.store(false, Ordering::Release);
}

/// True if any site is currently armed.
pub fn active() -> bool {
    ENV_INIT.call_once(init_from_env);
    // ord: Acquire — same pairing as `hit`.
    ACTIVE.load(Ordering::Acquire)
}

fn init_from_env() {
    if let Ok(spec) = std::env::var(FAILPOINTS_ENV) {
        if let Err(e) = install(&spec) {
            eprintln!("freezeml: ignoring {FAILPOINTS_ENV}: {e}");
        }
    }
}

/// Probe a site. Returns the armed fault and consumes one trip, or
/// `None` when the site is unarmed (the overwhelmingly common case:
/// one relaxed atomic load).
#[inline]
pub fn hit(site: &str) -> Option<Fault> {
    ENV_INIT.call_once(init_from_env);
    // ord: Acquire — pairs with the Release store in `install`/`clear`.
    // Seeing `true` guarantees the armed table is visible to the slow
    // path, so an installer's first intended trip is never dropped.
    // (Free on x86; a plain load + barrier-on-hit elsewhere.)
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    hit_slow(site)
}

/// Probe a site and count the trip in `m.failpoint_trips{site}`.
#[inline]
pub fn hit_counted(site: &str, m: &Registry) -> Option<Fault> {
    let f = hit(site)?;
    m.failpoint_trips.inc(site);
    Some(f)
}

#[cold]
fn hit_slow(site: &str) -> Option<Fault> {
    let points = {
        let g = table().lock().unwrap_or_else(PoisonError::into_inner);
        g.as_ref().map(Arc::clone)?
    };
    for p in points.iter().filter(|p| p.site == site) {
        // ord: Relaxed — the trip budget is a pure counter; RMW
        // atomicity makes concurrent trips hand out exactly
        // `remaining` faults, and no other memory hangs off it.
        let took = p
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| match r {
                0 => None,
                u64::MAX => Some(u64::MAX),
                n => Some(n - 1),
            });
        if took.is_ok() {
            return Some(p.fault);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global; serialize the tests that
    /// mutate it.
    fn lock() -> crate::sync::MutexGuard<'static, ()> {
        static GUARD: crate::sync::Mutex<()> = crate::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_sites_answer_none_and_counts_run_down() {
        let _g = lock();
        clear();
        assert_eq!(hit("persist.write"), None);

        install("persist.write=err:2;sock.read=eof").unwrap();
        assert!(active());
        assert_eq!(hit("persist.rename"), None, "other sites stay unarmed");
        assert_eq!(hit("persist.write"), Some(Fault::Err));
        assert_eq!(hit("persist.write"), Some(Fault::Err));
        assert_eq!(hit("persist.write"), None, "budget of 2 is exhausted");
        assert_eq!(hit("sock.read"), Some(Fault::Eof), "bare kind means once");
        assert_eq!(hit("sock.read"), None);

        clear();
        assert_eq!(hit("persist.write"), None);
    }

    #[test]
    fn delay_parses_durations_and_optional_trip_bounds() {
        let _g = lock();
        install("infer.wave=delay:50ms").unwrap();
        assert_eq!(
            hit("infer.wave"),
            Some(Fault::Delay(Duration::from_millis(50)))
        );
        assert_eq!(
            hit("infer.wave"),
            Some(Fault::Delay(Duration::from_millis(50))),
            "delay defaults to unlimited trips"
        );
        install("infer.wave=delay:2s*1").unwrap();
        assert_eq!(
            hit("infer.wave"),
            Some(Fault::Delay(Duration::from_secs(2)))
        );
        assert_eq!(hit("infer.wave"), None, "`*1` bounds the trips");
        install("infer.wave=delay:7*2").unwrap();
        assert_eq!(
            hit("infer.wave"),
            Some(Fault::Delay(Duration::from_millis(7))),
            "a bare number is milliseconds"
        );
        clear();
    }

    #[test]
    fn bad_specs_are_rejected_with_a_reason() {
        let _g = lock();
        assert!(install("nonsense").unwrap_err().contains("site=kind:arg"));
        assert!(install("a=explode:1")
            .unwrap_err()
            .contains("unknown failpoint kind"));
        assert!(install("a=err:lots").unwrap_err().contains("bad count"));
        assert!(install("a=delay").unwrap_err().contains("needs a duration"));
        assert!(install("a=delay:fast")
            .unwrap_err()
            .contains("bad duration"));
        assert!(install("=err:1").unwrap_err().contains("empty site"));
        // A failed install never half-arms.
        assert_eq!(hit("a"), None);
        // Whitespace and empty entries are tolerated.
        install(" a=err:1 ; ; b=eof:1 ;").unwrap();
        assert_eq!(hit("a"), Some(Fault::Err));
        assert_eq!(hit("b"), Some(Fault::Eof));
        clear();
    }

    #[test]
    fn trips_are_counted_in_the_registry() {
        let _g = lock();
        install("x.site=err:1").unwrap();
        let m = Registry::new();
        assert_eq!(hit_counted("x.site", &m), Some(Fault::Err));
        assert_eq!(hit_counted("x.site", &m), None, "exhausted: not counted");
        assert_eq!(
            m.failpoint_trips.snapshot(),
            vec![("x.site".to_string(), 1)]
        );
        clear();
    }

    #[test]
    fn io_effects_render_faults_as_errors() {
        assert_eq!(
            Fault::Err.io_effect().unwrap_err().kind(),
            io::ErrorKind::Other
        );
        assert_eq!(
            Fault::Eof.io_effect().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert!(Fault::Delay(Duration::ZERO).io_effect().is_ok());
        let p = std::panic::catch_unwind(|| Fault::Panic.io_effect());
        assert!(p.is_err(), "panic faults panic");
    }
}
