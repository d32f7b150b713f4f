//! PR 6 tentpole stress: N concurrent socket sessions against one hub
//! must answer **exactly** what a single-threaded replay of each
//! session's script answers — the shared sharded scheme bank and
//! striped outcome cache may change *when* work happens, never *what*
//! comes back. Counters (`rechecked`/`reused`/`waves`) are the one
//! sanctioned difference: a session may reuse outcomes another session
//! computed, so they are stripped before comparison.
//!
//! A second test holds the α-class discipline at service level: across
//! concurrently-running sessions of one hub, two bindings get the same
//! `SchemeId` iff their schemes render identically (canonical renderings
//! are injective on α-classes — the single-lock store's partition).

use freezeml_service::{
    handle_line, EngineSel, GenProgram, Json, Outcome, Request, ServeOptions, Service,
    ServiceConfig, Shared, SocketServer,
};
use std::collections::HashMap;
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

/// Drop the scheduling counters a shared cache is allowed to change.
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

/// Client `k`'s request script: open, probe, a few edits (unique salts
/// per client), a batched edit+check round, probe again, close. Clients
/// share generator seeds (and the doc name), so sessions collide on the
/// same α-classes and cache keys from all sides.
fn script(k: usize) -> Vec<String> {
    let g = GenProgram::generate(12, 100 + (k % 4) as u64);
    let doc = "d".to_string();
    let open = |text: String| {
        Request::Open {
            doc: doc.clone(),
            text,
        }
        .to_json()
        .to_string()
    };
    let edit = |text: String| {
        Request::Edit {
            doc: doc.clone(),
            text,
        }
        .to_json()
        .to_string()
    };
    let type_of = |name: String| {
        Request::TypeOf {
            doc: doc.clone(),
            name,
        }
        .to_json()
        .to_string()
    };
    let mut lines = vec![open(g.text())];
    for i in 0..g.len() {
        lines.push(type_of(g.name(i)));
    }
    for i in [1usize, 5, 9] {
        lines.push(edit(g.edited_text(i, (k * 100 + i) as u64)));
    }
    // One batched line: restore + recheck + probe in a single request.
    let batch = Json::Arr(vec![
        Request::Edit {
            doc: doc.clone(),
            text: g.text(),
        }
        .to_json(),
        Request::Check { doc: doc.clone() }.to_json(),
        Request::TypeOf {
            doc: doc.clone(),
            name: g.name(0),
        }
        .to_json(),
    ]);
    lines.push(batch.to_string());
    lines.push(Request::Close { doc }.to_json().to_string());
    lines
}

/// The single-threaded truth: a fresh one-worker service replaying the
/// script in-process.
fn reference(lines: &[String]) -> Vec<Json> {
    let mut svc = Service::new(cfg(1));
    lines
        .iter()
        .map(|l| strip_counters(answer(&mut svc, l)))
        .collect()
}

#[test]
fn concurrent_sessions_answer_exactly_like_a_single_threaded_replay() {
    const CLIENTS: usize = 8;
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(1),
        Arc::clone(&shared),
        4,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let addr = addr.clone();
                scope.spawn(move || -> Result<(), String> {
                    let lines = script(k);
                    let want = reference(&lines);
                    let stream = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    let mut writer = stream;
                    for (i, (line, want)) in lines.iter().zip(&want).enumerate() {
                        writeln!(writer, "{line}").map_err(|e| e.to_string())?;
                        let mut response = String::new();
                        reader.read_line(&mut response).map_err(|e| e.to_string())?;
                        let got = Json::parse(response.trim_end())
                            .map_err(|e| format!("client {k} line {i}: {e}"))?;
                        let got = strip_counters(got);
                        if &got != want {
                            return Err(format!(
                                "client {k} request {i} diverged from the replay:\n  sent {line}\n  want {want}\n  got  {got}"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();
    for r in outcomes {
        r.unwrap();
    }
    // PR 9 satellite: the socket pool lost no thread while serving.
    assert_eq!(
        shared.metrics().session_thread_deaths.get(),
        0,
        "a session thread panicked during the concurrent run"
    );
}

#[test]
fn scheme_ids_are_one_id_per_alpha_class_across_concurrent_sessions() {
    const SESSIONS: usize = 8;
    let shared = Arc::new(Shared::new());

    // Every session opens a program (seeds collide across sessions) and
    // reports each typed binding as (rendered scheme, SchemeId).
    let collected: Vec<Vec<(String, freezeml_service::SchemeId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|k| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut svc = Service::with_shared(cfg(1), shared);
                    let g = GenProgram::generate(16, 7 + (k % 3) as u64);
                    let report = svc.open("d", &g.text()).unwrap();
                    report
                        .bindings
                        .iter()
                        .filter_map(|b| match &b.outcome {
                            Outcome::Typed { id, scheme, .. } => Some((scheme.to_string(), *id)),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One id per rendering, one rendering per id — the global-lock
    // store's partition, now under concurrent interning.
    let mut by_scheme: HashMap<&str, freezeml_service::SchemeId> = HashMap::new();
    let mut by_id: HashMap<freezeml_service::SchemeId, &str> = HashMap::new();
    let mut seen = 0usize;
    for session in &collected {
        assert!(!session.is_empty(), "every session typed its bindings");
        for (scheme, id) in session {
            seen += 1;
            assert_eq!(
                *by_scheme.entry(scheme).or_insert(*id),
                *id,
                "two ids for one α-class `{scheme}`"
            );
            assert_eq!(
                *by_id.entry(*id).or_insert(scheme),
                scheme.as_str(),
                "one id covers two α-classes"
            );
        }
    }
    assert!(seen >= SESSIONS * 16, "all bindings were collected");
}

/// Satellite: the executor's accounting invariant. Every report must
/// decompose its bindings exactly — `rechecked + reused + blocked ==
/// bindings.len()` — whichever engine checked them, however warm the
/// cache was, and whatever the edit did (including edits that break a
/// binding and block its dependents).
#[test]
fn every_report_decomposes_bindings_into_rechecked_reused_blocked() {
    let assert_invariant = |report: &freezeml_service::CheckReport, what: &str| {
        assert_eq!(
            report.rechecked + report.reused + report.blocked,
            report.bindings.len(),
            "{what}: rechecked {} + reused {} + blocked {} != {} bindings",
            report.rechecked,
            report.reused,
            report.blocked,
            report.bindings.len()
        );
    };
    for engine in [EngineSel::Core, EngineSel::Uf, EngineSel::Both] {
        let mut svc = Service::new(ServiceConfig {
            engine,
            workers: 2,
            ..ServiceConfig::default()
        });
        // A generated program through an edit trace.
        let g = GenProgram::generate(14, 42);
        let r = svc.open("d", &g.text()).unwrap();
        assert_invariant(r, "cold open");
        for (i, salt) in [(1usize, 7u64), (6, 8), (11, 9)] {
            let r = svc.edit("d", &g.edited_text(i, salt)).unwrap();
            assert_invariant(r, "edit");
        }
        let r = svc.check("d").unwrap().clone();
        assert_invariant(&r, "warm check");
        assert_eq!(r.blocked, 0, "nothing blocked in a clean program");

        // An error mid-program blocks its dependents; the blocked ones
        // must be *counted*, not silently dropped from the accounting.
        let broken = "let bad = missing;;\nlet child = bad;;\nlet grandchild = child;;\n";
        let r = svc.open("e", broken).unwrap();
        assert_invariant(r, "broken open");
        assert_eq!(r.blocked, 2, "child and grandchild are blocked");
        // A warm recheck counts the blocked bindings as blocked again,
        // and the per-binding verdicts still say so.
        let r = svc.check("e").unwrap().clone();
        assert_invariant(&r, "broken recheck");
        assert_eq!(r.blocked, 2, "blocked bindings stay blocked");
        let still_blocked = r
            .bindings
            .iter()
            .filter(|b| matches!(b.outcome, freezeml_service::Outcome::Blocked { .. }))
            .count();
        assert_eq!(still_blocked, 2, "blocked verdicts survive the warm path");
    }
}

/// Satellite: the hub registry is the same truth the clients saw. Under
/// 8 racing sessions, the registry's report totals must equal the sums
/// of the `CheckReport` counters the sessions were actually served —
/// sharded counters may never lose or invent an increment.
#[test]
fn registry_totals_match_client_reports_under_concurrency() {
    const SESSIONS: usize = 8;
    let shared = Arc::new(Shared::new());
    let totals: Vec<(usize, usize, usize, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|k| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut svc = Service::with_shared(cfg(1), shared);
                    let g = GenProgram::generate(10, 30 + (k % 3) as u64);
                    let mut sum = (0, 0, 0, 0, 0);
                    let mut add = |r: &freezeml_service::CheckReport| {
                        sum.0 += r.bindings.len();
                        sum.1 += r.rechecked;
                        sum.2 += r.reused;
                        sum.3 += r.blocked;
                        sum.4 += r.waves;
                    };
                    add(&svc.open("d", &g.text()).unwrap().clone());
                    for i in [2usize, 7] {
                        add(&svc
                            .edit("d", &g.edited_text(i, (k * 10 + i) as u64))
                            .unwrap()
                            .clone());
                    }
                    add(&svc.check("d").unwrap().clone());
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let want = totals.iter().fold((0, 0, 0, 0, 0), |a, t| {
        (a.0 + t.0, a.1 + t.1, a.2 + t.2, a.3 + t.3, a.4 + t.4)
    });
    let s = shared.metrics();
    let got = [&s.bindings, &s.rechecked, &s.reused, &s.blocked, &s.waves].map(|c| c.get());
    assert_eq!(
        got,
        [want.0, want.1, want.2, want.3, want.4].map(|n| n as u64),
        "registry drifted from what the sessions were served"
    );
    let [bindings, rechecked, reused, blocked, _] = got;
    assert_eq!(
        bindings,
        rechecked + reused + blocked,
        "registry-level accounting invariant"
    );
    // Verdict-cache traffic: every recheck was a miss; reuse counts a
    // verdict hit only when the executor actually probed (whole reports
    // served from the document cache relabel bindings as reused without
    // touching the verdict cache, so hits can lag reused).
    assert_eq!(s.verdict_misses.get(), rechecked);
    let verdict_hits = s.verdict_hits.get();
    assert!(
        verdict_hits <= reused,
        "verdict hits {verdict_hits} cannot exceed reused {reused}"
    );
    assert_eq!(s.sessions.get(), SESSIONS as u64);
    // PR 9 satellite: no session thread died along the way — a panic
    // escaping the per-connection containment can never again shrink
    // the pool silently, because this counter would catch it.
    assert_eq!(
        s.session_thread_deaths.get(),
        0,
        "a session thread panicked"
    );
}
