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
//!   path broke;
//! * the protocol layers alone (request decode, and answering a `check`
//!   line into the session buffer) grow linearly with their input.

use freezeml_core::Options;
use freezeml_service::{
    analyze, handle_line, EngineSel, GenProgram, Json, Request, Service, ServiceConfig,
};
use std::hint::black_box;
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
    for (x, y) in a.bindings.iter().zip(b.bindings.iter()) {
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

/// The best of 5 timed runs: a slow spell on the host can only inflate a
/// run, so the minimum is the steadiest reading.
fn best_of_5(mut f: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// An `open` request line of about `bytes` bytes, its text cut from a
/// generated program (ASCII, with a newline escape on every line).
fn open_line(bytes: usize) -> String {
    let program = GenProgram::generate(400, 0).text();
    let mut text = program.repeat(bytes / program.len() + 1);
    text.truncate(bytes);
    Request::Open {
        doc: "m".into(),
        text,
    }
    .to_json()
    .to_string()
}

/// Answering a `check` line on `gen n 0` into a reused buffer, as the
/// serving loop does: a document-report hit, so the time is the
/// report writer's.
fn report_cost(n: usize) -> Duration {
    let text = GenProgram::generate(n, 0).text();
    let mut s = svc();
    s.open("m", &text).unwrap();
    let line = r#"{"cmd":"check","doc":"m"}"#;
    let mut out = String::new();
    best_of_5(|| {
        out.clear();
        handle_line(&mut s, line, &mut out);
        black_box(&out);
    })
}

#[test]
fn protocol_layers_scale_linearly() {
    let _serial = serial();
    // Inputs 8× apart; a linear layer reads ~8×, a quadratic one ~64×.
    const LIMIT: f64 = 24.0;
    let decode = |bytes: usize| {
        let line = open_line(bytes);
        best_of_5(|| {
            black_box(Json::parse(&line).unwrap());
        })
    };
    let (small, big) = (decode(64 << 10), decode(512 << 10));
    let ratio = big.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= LIMIT,
        "decode: 512 KiB took {big:?}, 64 KiB took {small:?} ({ratio:.1}×)"
    );
    let (small, big) = (report_cost(250), report_cost(2000));
    let ratio = big.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= LIMIT,
        "check answer: 2000 bindings took {big:?}, 250 took {small:?} ({ratio:.1}×)"
    );
}
