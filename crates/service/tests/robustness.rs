//! PR 6 satellite, reworked on PR 9's fault layer: a panicking
//! inference worker must not take down the service. Pre-PR-6, the
//! executor `join().expect(…)`-ed its worker threads, so one panic
//! anywhere in a check propagated out of `Service::check`, tore down
//! the session, and (with the old single global scheme-arena mutex)
//! poisoned the scheme space for every *other* session sharing it. Now
//! panics are caught at the wave boundary, the binding is reported as an
//! `Internal` error, the executor's session state is discarded, and the
//! hub keeps answering.
//!
//! The deliberate panic is injected with the `infer.binding=panic`
//! failpoint (which replaced the old `FREEZEML_TEST_PANIC_ON` env
//! hook). The failpoint table is process-global and tests in one binary
//! run concurrently, so this file holds a **single** test function that
//! walks through every scenario sequentially.

use freezeml_service::fault;
use freezeml_service::{handle_line, Json, Service, ServiceConfig, Shared, SocketServer};
use freezeml_service::{EngineSel, Outcome, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// One request line's answer, parsed back.
fn answer(svc: &mut Service, line: &str) -> Json {
    let mut out = String::new();
    handle_line(svc, line, &mut out);
    Json::parse(&out).expect("every answer is one JSON value")
}

fn cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        engine: EngineSel::Uf,
        workers,
        ..ServiceConfig::default()
    }
}

fn internal_errors(report: &freezeml_service::CheckReport) -> Vec<&str> {
    report
        .bindings
        .iter()
        .filter_map(|b| match &b.outcome {
            Outcome::Error { class, message } if class == "Internal" => Some(message.as_str()),
            _ => None,
        })
        .map(|m| m as &str)
        .collect()
}

#[test]
fn a_panicking_binding_is_an_internal_error_not_a_crash() {
    // ── In-process, single worker: the panic is caught per binding.
    // The failpoint trips on the first `infer.binding` site reached, so
    // the bindings are kept independent of each other: whichever one
    // the panic lands on, the other three must still check.
    fault::install("infer.binding=panic:1").unwrap();
    let mut svc = Service::new(cfg(1));
    let report = svc
        .open(
            "m",
            "let boom = 2;;\nlet a = 1;;\nlet b = true;;\nlet c = 4;;\n",
        )
        .expect("the program parses; the panic is contained");
    let internal = internal_errors(report);
    assert_eq!(internal.len(), 1, "exactly one binding trips the budget");
    assert!(
        internal[0].contains("injected panic"),
        "the panic payload is surfaced: {internal:?}"
    );
    let typed = report
        .bindings
        .iter()
        .filter(|b| b.outcome.is_typed())
        .count();
    assert_eq!(typed, 3, "every other binding still checks");
    let survivor = report
        .bindings
        .iter()
        .find(|b| b.outcome.is_typed() && b.name != "b")
        .map(|b| b.name)
        .expect("a typed Int binding survives");
    assert_eq!(
        svc.shared().metrics().failpoint_trips.get("infer.binding"),
        1,
        "the trip landed on the labeled counter"
    );

    // ── The same service keeps answering after the panic…
    assert_eq!(
        svc.type_of("m", survivor)
            .unwrap()
            .unwrap()
            .outcome
            .display(),
        "Int"
    );

    // ── …and with the budget exhausted (and then the table cleared), a
    // recheck heals the binding: Internal errors are never cached.
    fault::clear();
    let healed = svc.check("m").unwrap();
    assert!(
        healed.bindings.iter().all(|b| b.outcome.is_typed()),
        "a recheck after the panic heals: {:?}",
        healed
            .bindings
            .iter()
            .map(|b| b.outcome.display())
            .collect::<Vec<_>>()
    );

    // ── A wide wave under a configured worker count of four, which the
    // executor does not read: the panic on one binding of a 13-binding
    // wave leaves the other twelve checked, and the executor survives.
    fault::install("infer.binding=panic:1").unwrap();
    let mut svc = Service::new(cfg(4));
    let text: String = (0..12)
        .map(|i| format!("let x{i} = {i};;\n"))
        .chain(std::iter::once("let boom = 0;;\n".to_string()))
        .collect();
    let report = svc.open("m", &text).expect("contained again");
    assert_eq!(internal_errors(report).len(), 1);
    // Ask about a binding the panic did not land on.
    let typed: Vec<&str> = report
        .bindings
        .iter()
        .filter(|b| b.outcome.is_typed())
        .map(|b| b.name)
        .collect();
    assert_eq!(typed.len(), 12);
    let request = format!(r#"{{"cmd":"type-of","doc":"m","name":"{}"}}"#, typed[0]);
    fault::clear();

    // ── The protocol layer reports the binding with status "error" and
    // the session object stays usable.
    let r = answer(&mut svc, &request);
    assert_eq!(r.get("result").and_then(Json::as_str), Some("Int"));

    // ── Over the socket, with the *shared* bank: a session that trips
    // the panic leaves the hub answering other sessions (the old global
    // lock would have been poisoned here).
    fault::install("infer.binding=panic:1").unwrap();
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        2,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut a = TcpStream::connect(&addr).unwrap();
    let mut ra = BufReader::new(a.try_clone().unwrap());
    let mut line = String::new();
    writeln!(
        a,
        r#"{{"cmd":"open","doc":"d","text":"let boom = 1;;\nlet y = 2;;"}}"#
    )
    .unwrap();
    ra.read_line(&mut line).unwrap();
    let r = Json::parse(line.trim_end()).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "panic contained: {r}");

    let mut b = TcpStream::connect(&addr).unwrap();
    let mut rb = BufReader::new(b.try_clone().unwrap());
    writeln!(b, r#"{{"cmd":"open","doc":"d","text":"let z = true;;"}}"#).unwrap();
    line.clear();
    rb.read_line(&mut line).unwrap();
    let r = Json::parse(line.trim_end()).unwrap();
    assert_eq!(
        r.get("ok"),
        Some(&Json::Bool(true)),
        "the hub survives another session's panic: {r}"
    );

    fault::clear();
    drop((a, ra, b, rb));
    server.shutdown();
}
