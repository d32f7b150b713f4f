//! Acceptance checks for the incremental service on a ≥100-binding
//! generated program:
//!
//! * a warm single-binding edit re-infers **only** the dirty binding and
//!   its transitive dependents — asserted exactly via the recheck
//!   counters against the analysis' dependent set;
//! * the warm edit is dramatically faster than the cold check. The
//!   normative ≥10× figure is measured by the release-profile
//!   `service_throughput` bench (recorded in `EXPERIMENTS.md`: 11–12×
//!   at 120–480 bindings); this debug-profile test guards a ≥6× floor —
//!   debug constant factors compress the ratio (7–11× observed on a
//!   2-CPU host), and a regression below 6× would mean the incremental
//!   path broke.

use freezeml_core::Options;
use freezeml_service::{analyze, EngineSel, GenProgram, Service, ServiceConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const N: usize = 120;
const SEED: u64 = 0xACCE;

/// Runs this file's tests one at a time, so the timing test never shares
/// the CPUs with its siblings' inference work.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn svc() -> Service {
    Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 2,
    })
}

#[test]
fn warm_edit_reinfers_exactly_the_dirty_cone() {
    let _serial = serial();
    let gen = GenProgram::generate(N, SEED);
    let mut s = svc();
    let cold = s.open("t", &gen.text()).unwrap();
    assert!(cold.all_typed());
    assert_eq!(cold.rechecked, N, "cold check infers every binding");

    for (i, salt) in [(0usize, 1u64), (N / 2, 2), (N - 1, 3), (17, 4)] {
        let edited = gen.with_edit(i, salt);
        let analysis = analyze(&edited.text(), &Options::default(), EngineSel::Uf).unwrap();
        // The dirty cone: the edited binding plus its transitive
        // dependents — but dependents whose own dependency on `i` was
        // severed by the edit (the replacement body drops references)
        // may also change key, so the exact expectation comes from the
        // key diff, not just the new graph.
        let before = analyze(&gen.text(), &Options::default(), EngineSel::Uf).unwrap();
        let dirty: Vec<usize> = (0..N)
            .filter(|&j| before.keys[j] != analysis.keys[j])
            .collect();
        // Sanity: the dirty set is the edited binding + its (old or new)
        // dependent cone, and is small.
        assert!(dirty.contains(&i));
        let mut cone = before.dependents(i);
        cone.extend(analysis.dependents(i));
        cone.push(i);
        cone.sort_unstable();
        cone.dedup();
        assert_eq!(dirty, cone, "key diff = dependency cone of binding {i}");
        assert!(
            dirty.len() < N / 4,
            "generated programs must stay sparse (cone of {i} is {})",
            dirty.len()
        );

        let warm = s.edit("t", &edited.text()).unwrap();
        assert_eq!(
            warm.rechecked,
            dirty.len(),
            "edit of binding {i}: re-infer exactly the dirty cone"
        );
        assert_eq!(warm.reused, N - dirty.len());
        assert!(warm.all_typed());

        // Restore (also warm: the original keys are all still cached).
        let restored = s.edit("t", &gen.text()).unwrap();
        assert_eq!(restored.rechecked, 0);
    }
}

#[test]
fn warm_edit_is_dramatically_faster_than_cold() {
    let _serial = serial();
    let gen = GenProgram::generate(N, SEED);
    let text = gen.text();

    // Each round times a cold check (a fresh service) and then a warm one
    // (a genuine single-binding edit on one long-lived service), so a
    // slow spell on the host slows both sides alike. Each keeps its best.
    let mut s = svc();
    s.open("t", &text).unwrap();
    let (mut cold, mut warm) = (Duration::MAX, Duration::MAX);
    for round in 0..15 {
        let mut fresh = svc();
        let t = Instant::now();
        let r = fresh.open("t", &text).unwrap();
        cold = cold.min(t.elapsed());
        assert_eq!(r.rechecked, N);
        drop(fresh);

        let next = gen.with_edit(N / 2, 100 + round).text();
        let t = Instant::now();
        let r = s.edit("t", &next).unwrap();
        warm = warm.min(t.elapsed());
        assert!(r.rechecked > 0 && r.rechecked < N / 4);
    }

    assert!(
        warm * 6 <= cold,
        "warm edit ({warm:?}) must stay well under the cold check ({cold:?}); \
         the release bench holds the ≥10× line"
    );
}

#[test]
fn parallel_and_serial_pools_agree_on_reports() {
    let _serial = serial();
    let text = GenProgram::generate(60, 0xBEEF).text();
    let mut one = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    });
    let mut four = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 4,
    });
    let a = one.open("t", &text).unwrap().clone();
    let b = four.open("t", &text).unwrap().clone();
    assert_eq!(a.bindings.len(), b.bindings.len());
    for (x, y) in a.bindings.iter().zip(&b.bindings) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.outcome.display(),
            y.outcome.display(),
            "worker-count must not affect verdicts ({})",
            x.name
        );
    }
    assert_eq!(a.rechecked, b.rechecked);
}
