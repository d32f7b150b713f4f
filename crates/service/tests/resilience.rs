//! PR 9 tentpole: overload-safe serving. Four live-socket properties:
//!
//! 1. **Slowloris containment** — a client that connects and stalls,
//!    and a client that drips bytes slowly enough to keep resetting the
//!    kernel read timeout, both get the flat
//!    `{"ok":false,"error":"deadline"}` line and a close, while a
//!    concurrent healthy session keeps being answered.
//! 2. **Backoff completes the fleet** — 16 clients against 2 session
//!    threads and a 1-slot admission queue: some are shed with
//!    `retry-after-ms`, everyone retries with jittered backoff, every
//!    workload completes exactly, and nothing died along the way.
//! 3. **Chaos, then heal** — a concurrent workload under a fixed
//!    budget of injected faults (inference errors, wave delays, a
//!    checkpoint-write failure) completes with structured answers only;
//!    after `fault::clear()` the same hub answers *exactly* like a
//!    fresh single-threaded service, the accounting identity holds,
//!    and a snapshot saved from the survivor warms a new hub to the
//!    same verdicts.
//! 4. **Drain keeps its promises** — a drain requested while a check
//!    is in flight (made slow with an injected wave delay) still
//!    delivers that response in full, then closes at the request
//!    boundary, the server joins within the drain budget, and a final
//!    checkpoint saves.
//!
//! The failpoint table is process-global, so the tests serialize on a
//! mutex instead of relying on harness scheduling.

use freezeml_service::load::{drive_tcp, LoadMix};
use freezeml_service::sock::Admission;
use freezeml_service::{
    fault, handle_line, persist, EngineSel, GenProgram, Json, PersistConfig, ServeOptions, Service,
    ServiceConfig, Shared, SocketServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One request line's answer, parsed back.
fn answer(svc: &mut Service, line: &str) -> Json {
    let mut out = String::new();
    handle_line(svc, line, &mut out);
    Json::parse(&out).expect("every answer is one JSON value")
}

/// Serializes the tests: the failpoint table and its metrics are
/// process-wide.
static GATE: Mutex<()> = Mutex::new(());

fn cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        engine: EngineSel::Uf,
        workers,
        ..ServiceConfig::default()
    }
}

/// Drop the scheduling counters a warm cache is allowed to change.
fn strip_counters(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| {
                    k != "rechecked" && k != "reused" && k != "blocked" && k != "waves"
                })
                .map(|(k, v)| (k, strip_counters(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_counters).collect()),
        other => other,
    }
}

/// A per-test scratch directory (removed on drop).
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("freezeml-resilience-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read_json_line(r: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    assert!(r.read_line(&mut line).unwrap() > 0, "expected a line");
    Json::parse(line.trim_end()).expect("one JSON line per response")
}

/// The flat deadline shape: `ok:false`, `error` is the *string*
/// `"deadline"` (data errors carry an object), and nothing else rides
/// along.
fn assert_deadline_line(v: &Json) {
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{v}");
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some("deadline"),
        "{v}"
    );
}

#[test]
fn slowloris_clients_are_cut_off_while_a_healthy_session_stays_answered() {
    let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        3,
        ServeOptions {
            request_timeout_ms: Some(300),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    std::thread::scope(|scope| {
        // A connect-and-stall client: never sends a byte. The kernel
        // read timeout wakes the session, which answers the flat
        // deadline line and closes.
        let stall_addr = addr.clone();
        let stall = scope.spawn(move || {
            let conn = TcpStream::connect(&stall_addr).unwrap();
            let mut r = BufReader::new(conn);
            let v = read_json_line(&mut r);
            assert_deadline_line(&v);
            let mut rest = String::new();
            assert_eq!(r.read_line(&mut rest).unwrap(), 0, "closed after the line");
        });

        // A byte-at-a-time client: each byte lands inside the kernel
        // timeout, resetting it — only the wall-clock deadline inside
        // `read_request` can catch this one. It stops dripping at the
        // budget boundary (before the server closes) so the answer is
        // never raced by a reset.
        let drip_addr = addr.clone();
        let drip = scope.spawn(move || {
            let mut conn = TcpStream::connect(&drip_addr).unwrap();
            let mut r = BufReader::new(conn.try_clone().unwrap());
            for b in br#"{"cmd":"#.iter() {
                conn.write_all(&[*b]).unwrap();
                conn.flush().unwrap();
                std::thread::sleep(Duration::from_millis(50));
            }
            let v = read_json_line(&mut r);
            assert_deadline_line(&v);
            let mut rest = String::new();
            assert_eq!(r.read_line(&mut rest).unwrap(), 0, "closed after the line");
        });

        // Meanwhile a healthy session is answered promptly.
        let mut conn = TcpStream::connect(&addr).unwrap();
        let mut r = BufReader::new(conn.try_clone().unwrap());
        let started = Instant::now();
        writeln!(conn, r#"{{"cmd":"open","doc":"h","text":"let x = 1;;"}}"#).unwrap();
        let v = read_json_line(&mut r);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        writeln!(conn, r#"{{"cmd":"type-of","doc":"h","name":"x"}}"#).unwrap();
        let v = read_json_line(&mut r);
        assert_eq!(v.get("result").and_then(Json::as_str), Some("Int"), "{v}");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "the healthy session is not queued behind the stallers: {:?}",
            started.elapsed()
        );
        drop((conn, r));

        stall.join().unwrap();
        drip.join().unwrap();
    });

    assert!(
        shared.metrics().deadline_exceeded.get() >= 2,
        "both stallers are counted"
    );
    assert_eq!(shared.metrics().session_thread_deaths.get(), 0);
    server.shutdown();
}

#[test]
fn a_shed_fleet_backs_off_and_every_workload_completes() {
    let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp_with(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        2,
        ServeOptions::default(),
        Admission {
            max_pending: 1,
            retry_after_ms: 10,
        },
    )
    .unwrap();
    let mix = LoadMix {
        clients: 16,
        bindings: 6,
        edits_per_client: 1,
        think: Duration::from_millis(2),
        salt_base: 77,
    };
    let sent = drive_tcp(server.local_addr(), &mix);
    // Per client: open + (edit, type-of, batch) + close — shed
    // attempts that were retried must not inflate the count.
    assert_eq!(sent, 16 * 5, "every client completed its whole script");
    let m = shared.metrics();
    assert!(
        m.requests_shed.get() > 0,
        "16 clients over 2 sessions + 1 queue slot must shed"
    );
    assert_eq!(m.session_thread_deaths.get(), 0);
    assert_eq!(
        m.rechecked.get() + m.reused.get() + m.blocked.get(),
        m.bindings.get(),
        "the accounting identity survives shedding and retries"
    );
    server.shutdown();
}

#[test]
fn a_chaos_run_answers_structurally_and_heals_to_exact_agreement() {
    let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    // A fixed fault budget: three inference checks fail internally,
    // four waves stall briefly, and the first checkpoint write fails.
    fault::install("infer.binding=err:3;infer.wave=delay:5ms*4;persist.write=err:1").unwrap();
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        4,
        ServeOptions {
            request_timeout_ms: Some(10_000),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    // 8 concurrent sessions complete their whole scripts: injected
    // inference faults surface as per-binding internal errors inside
    // `ok:true` reports (and heal on the next recheck, since internal
    // errors are never cached), never as protocol damage.
    let sent = drive_tcp(
        server.local_addr(),
        &LoadMix {
            clients: 8,
            bindings: 8,
            edits_per_client: 2,
            think: Duration::from_micros(200),
            salt_base: 31,
        },
    );
    assert_eq!(sent, 8 * 8);

    // The injected checkpoint failure is contained and counted; the
    // retry saves.
    let tmp = TmpDir::new("chaos");
    let pcfg = PersistConfig::new(&tmp.0);
    let epoch = persist::epoch(&cfg(1).opts);
    assert!(
        persist::save(&shared, epoch, &pcfg).is_err(),
        "the armed persist.write failpoint fails the first save"
    );
    assert!(shared.metrics().checkpoint_failures.get() >= 1);
    let saved = persist::save(&shared, epoch, &pcfg).unwrap();
    assert!(saved.entries > 0, "the retry persists the warm state");

    // The whole budget was spent, on the hub's labeled counter.
    let m = shared.metrics();
    assert_eq!(m.failpoint_trips.get("infer.binding"), 3);
    assert_eq!(m.failpoint_trips.get("infer.wave"), 4);
    assert_eq!(m.failpoint_trips.get("persist.write"), 1);
    fault::clear();

    // Heal: the chaos survivor answers exactly like a fresh
    // single-threaded service, on every program the fleet used.
    assert_eq!(m.session_thread_deaths.get(), 0);
    assert_eq!(
        m.rechecked.get() + m.reused.get() + m.blocked.get(),
        m.bindings.get(),
        "the accounting identity survives the chaos run"
    );

    // A hub warmed from the survivor's snapshot agrees too —
    // persisted-warm ≡ from-scratch, after faults.
    let warmed = Arc::new(Shared::new());
    let out = persist::load(&warmed, epoch, &pcfg);
    assert!(out.loaded, "the snapshot loads: {:?}", out.warning);

    for seed in 100..104u64 {
        let g = GenProgram::generate(8, seed);
        let open = format!(
            r#"{{"cmd":"open","doc":"cmp","text":{}}}"#,
            Json::Str(g.text())
        );
        let mut scratch = Service::new(cfg(1));
        let mut survivor = Service::with_shared(cfg(1), Arc::clone(&shared));
        let mut warm = Service::with_shared(cfg(1), Arc::clone(&warmed));
        let want = strip_counters(answer(&mut scratch, &open));
        assert_eq!(
            strip_counters(answer(&mut survivor, &open)),
            want,
            "seed {seed}: the healed hub disagrees with scratch"
        );
        assert_eq!(
            strip_counters(answer(&mut warm, &open)),
            want,
            "seed {seed}: the warmed hub disagrees with scratch"
        );
        for i in 0..g.len() {
            let probe = format!(r#"{{"cmd":"type-of","doc":"cmp","name":"b{i}"}}"#);
            let want = strip_counters(answer(&mut scratch, &probe));
            assert_eq!(strip_counters(answer(&mut survivor, &probe)), want);
            assert_eq!(strip_counters(answer(&mut warm, &probe)), want);
        }
    }
    server.shutdown();
}

#[test]
fn a_drain_mid_check_delivers_the_in_flight_response_then_checkpoints() {
    let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    // The next wave stalls long enough for the drain to land mid-check.
    fault::install("infer.wave=delay:300ms*1").unwrap();
    let shared = Arc::new(Shared::new());
    let server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        1,
        ServeOptions {
            request_timeout_ms: Some(5_000),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let g = GenProgram::generate(6, 5);
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut r = BufReader::new(conn.try_clone().unwrap());
    writeln!(
        conn,
        r#"{{"cmd":"open","doc":"d","text":{}}}"#,
        Json::Str(g.text())
    )
    .unwrap();
    conn.flush().unwrap();
    // The open is now in flight (its first wave sleeps 300 ms); drain
    // the hub out from under it.
    std::thread::sleep(Duration::from_millis(50));
    shared.request_drain();
    assert!(freezeml_service::prometheus_text(&shared).contains("freezeml_draining 1"));

    // The in-flight request is still answered in full…
    let v = read_json_line(&mut r);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
    match v.get("bindings") {
        Some(Json::Arr(items)) => assert_eq!(items.len(), 6, "the report is complete: {v}"),
        other => panic!("no bindings array: {other:?}"),
    }
    // …and the session closes at the request boundary, without an
    // error line.
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).unwrap(), 0, "clean close");

    // The drained server winds down inside the budget.
    assert!(
        server.join_timeout(Some(Duration::from_secs(5))),
        "no session had to be abandoned"
    );
    fault::clear();

    // The final checkpoint captures the drained hub's warm state.
    let tmp = TmpDir::new("drain");
    let pcfg = PersistConfig::new(&tmp.0);
    let saved = persist::save(&shared, persist::epoch(&cfg(1).opts), &pcfg).unwrap();
    assert!(saved.entries > 0, "the in-flight work was checkpointed");
}
