//! PR 8 tentpole coverage: the flight recorder end to end.
//!
//! * `stats` over a **live socket** answers non-zero per-command latency
//!   histograms, and its report totals are exactly the sums of the
//!   `CheckReport` counters the same connection was served.
//! * JSONL traces validate against the record schema — every line is
//!   one JSON object with `ts_us`/`ev`/`name` and the hierarchical
//!   `conn`/`sess`/`req` ids; spans carry `dur_us`.
//! * The slow-request log fires through the same structured pipeline.
//! * A corrupt snapshot increments `cache_load_failures` with a reason
//!   label and the service still starts cold (satellite regression for
//!   the old unstructured `eprintln!`).
//! * Checkpoint saves land in the registry (count, bytes, duration) and
//!   are visible through `stats`.

use freezeml_service::{
    persist, EngineSel, Json, PersistConfig, ServeOptions, Service, ServiceConfig, Shared,
    SocketServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn cfg() -> ServiceConfig {
    ServiceConfig {
        engine: EngineSel::Uf,
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("freezeml-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Json::parse(response.trim_end()).expect("response is JSON")
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for p in path {
        cur = cur
            .get(p)
            .unwrap_or_else(|| panic!("missing field `{p}` in {v}"));
    }
    cur.as_num()
        .unwrap_or_else(|| panic!("`{path:?}` not a number"))
}

#[test]
fn live_socket_stats_match_the_reports_the_connection_was_served() {
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(),
        Arc::clone(&shared),
        2,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Drive a session and sum the counters the client was actually served.
    let mut served = (0.0, 0.0, 0.0, 0.0, 0.0); // bindings, rechecked, reused, blocked, waves
    let mut tally = |r: &Json| {
        served.0 += match r.get("bindings") {
            Some(Json::Arr(b)) => b.len() as f64,
            _ => panic!("report without bindings: {r}"),
        };
        served.1 += num(r, &["rechecked"]);
        served.2 += num(r, &["reused"]);
        served.3 += num(r, &["blocked"]);
        served.4 += num(r, &["waves"]);
    };
    let open = r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##;
    tally(&request(&mut stream, &mut reader, open));
    tally(&request(
        &mut stream,
        &mut reader,
        r#"{"cmd":"check","doc":"m"}"#,
    ));
    let edit = r##"{"cmd":"edit","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\nlet q = f 1;;\n"}"##;
    tally(&request(&mut stream, &mut reader, edit));
    let r = request(
        &mut stream,
        &mut reader,
        r#"{"cmd":"type-of","doc":"m","name":"q"}"#,
    );
    assert_eq!(r.get("result").and_then(Json::as_str), Some("Int"));

    // Now ask the *server* what it saw.
    let stats = request(&mut stream, &mut reader, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(num(&stats, &["reports", "bindings"]), served.0);
    assert_eq!(num(&stats, &["reports", "rechecked"]), served.1);
    assert_eq!(num(&stats, &["reports", "reused"]), served.2);
    assert_eq!(num(&stats, &["reports", "blocked"]), served.3);
    assert_eq!(num(&stats, &["reports", "waves"]), served.4);

    // Per-command latency histograms are non-zero for every command the
    // connection issued.
    for (cmd, count) in [
        ("open", 1.0),
        ("check", 1.0),
        ("edit", 1.0),
        ("type-of", 1.0),
    ] {
        assert_eq!(num(&stats, &["commands", cmd, "count"]), count, "{cmd}");
        assert!(
            num(&stats, &["commands", cmd, "p50_us"]) > 0.0,
            "{cmd} histogram is empty"
        );
        let buckets = stats
            .get("commands")
            .and_then(|c| c.get(cmd))
            .and_then(|c| c.get("buckets_us"))
            .expect("buckets");
        assert!(matches!(buckets, Json::Arr(b) if !b.is_empty()), "{cmd}");
    }

    // Cache hit rates are consistent with the counters: the verdict
    // cache missed on every recheck, hit on executor-probed reuse.
    assert_eq!(num(&stats, &["caches", "verdict", "misses"]), served.1);
    let hits = num(&stats, &["caches", "verdict", "hits"]);
    assert!(
        hits <= served.2,
        "verdict hits {hits} > reused {}",
        served.2
    );

    // The Prometheus rendering agrees with the JSON snapshot.
    let metrics = request(&mut stream, &mut reader, r#"{"cmd":"metrics"}"#);
    let text = metrics
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics text");
    assert!(text.contains(&format!(
        "freezeml_report_bindings_total {}",
        served.0 as u64
    )));
    assert!(text.contains("freezeml_request_latency_seconds_bucket{cmd=\"open\""));

    drop((stream, reader));
    server.shutdown();
}

#[test]
fn junk_fields_on_introspection_commands_get_structured_errors() {
    let shared = Arc::new(Shared::new());
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(),
        Arc::clone(&shared),
        1,
        ServeOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in [
        r#"{"cmd":"stats","doc":"m"}"#,
        r#"{"cmd":"metrics","verbose":true}"#,
        r#"{"cmd":"stats","junk":[1,2]}"#,
    ] {
        let r = request(&mut stream, &mut reader, line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{line}");
        let msg = r
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("structured error");
        assert!(msg.contains("takes no field"), "{line} → {msg}");
    }
    // …and the session is still alive and answering.
    let r = request(&mut stream, &mut reader, r#"{"cmd":"stats"}"#);
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    // The invalid requests were themselves counted.
    assert_eq!(num(&r, &["commands", "invalid", "count"]), 3.0);
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn traces_are_schema_valid_jsonl_and_the_slow_log_fires() {
    use freezeml_obs::Tracer;

    let dir = temp_dir("trace");
    let trace_path = dir.join("trace.jsonl");
    let shared = Arc::new(Shared::new());
    assert!(shared.set_tracer(Tracer::to_file(&trace_path).unwrap()));
    let mut server = SocketServer::spawn_tcp(
        "127.0.0.1:0",
        cfg(),
        Arc::clone(&shared),
        1,
        ServeOptions {
            slow_ms: Some(0), // every request is "slow": the log must fire
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let open = r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##;
    request(&mut stream, &mut reader, open);
    request(&mut stream, &mut reader, r#"{"cmd":"check","doc":"m"}"#);
    let stats = request(&mut stream, &mut reader, r#"{"cmd":"stats"}"#);
    assert!(num(&stats, &["slow_requests"]) >= 2.0);
    drop((stream, reader));
    server.shutdown();

    // Validate every line against the record schema.
    let body = std::fs::read_to_string(&trace_path).unwrap();
    let mut names = std::collections::HashSet::new();
    let mut slow = 0usize;
    assert!(!body.is_empty(), "tracer wrote nothing");
    for (i, line) in body.lines().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i} `{line}`: {e}"));
        assert!(num(&v, &["ts_us"]) > 0.0, "line {i}");
        let ev = v.get("ev").and_then(Json::as_str).expect("ev");
        assert!(matches!(ev, "span" | "event" | "warn"), "line {i}: {ev}");
        let name = v.get("name").and_then(Json::as_str).expect("name");
        names.insert(name.to_string());
        for id in ["conn", "sess", "req"] {
            assert!(v.get(id).and_then(Json::as_num).is_some(), "line {i}: {id}");
        }
        if ev == "span" {
            assert!(v.get("dur_us").and_then(Json::as_num).is_some(), "line {i}");
        }
        if name == "slow-request" {
            slow += 1;
            assert!(
                v.get("ms").is_some() && v.get("bytes").is_some(),
                "line {i}"
            );
        }
    }
    // The span hierarchy covered the phases the session exercised.
    for want in [
        "connection",
        "parse",
        "dep-graph",
        "cache-probe",
        "infer",
        "wave",
    ] {
        assert!(names.contains(want), "no `{want}` record in the trace");
    }
    assert!(slow >= 2, "slow log fired {slow} time(s)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_snapshot_counts_a_load_failure_and_still_starts_cold() {
    let dir = temp_dir("corrupt");
    let pcfg = PersistConfig {
        dir: dir.clone(),
        max_bytes: persist::DEFAULT_MAX_BYTES,
    };

    // Seed a real snapshot, then corrupt its payload.
    {
        let shared = Arc::new(Shared::new());
        let mut svc = Service::with_shared(cfg(), Arc::clone(&shared));
        svc.open("m", "let x = 1;;\nlet y = x;;\n").unwrap();
        persist::save(&shared, persist::epoch(&cfg().opts), &pcfg).unwrap();
    }
    let path = dir.join(persist::CACHE_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    // A fresh hub loads it: cold fallback, counted and labelled.
    let shared = Arc::new(Shared::new());
    let out = persist::load(&shared, persist::epoch(&cfg().opts), &pcfg);
    assert!(!out.loaded, "corrupt snapshot must not warm the hub");
    assert!(out.warning.is_some(), "cold fallback carries the reason");
    let failures = shared.metrics().cache_load_failures.snapshot();
    assert_eq!(
        failures,
        vec![("checksum".to_string(), 1)],
        "exactly one load failure counted, with its reason label"
    );

    // …and the hub still serves from cold.
    let mut svc = Service::with_shared(cfg(), Arc::clone(&shared));
    let report = svc.open("m", "let x = 1;;\n").unwrap();
    assert!(report.all_typed());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_saves_land_in_the_registry_and_in_stats() {
    let dir = temp_dir("ckpt");
    let pcfg = PersistConfig {
        dir: dir.clone(),
        max_bytes: persist::DEFAULT_MAX_BYTES,
    };
    let shared = Arc::new(Shared::new());
    let mut svc = Service::with_shared(cfg(), Arc::clone(&shared));
    svc.open("m", "let x = 1;;\nlet y = x;;\n").unwrap();
    let out = persist::save(&shared, persist::epoch(&cfg().opts), &pcfg).unwrap();
    assert!(out.bytes > 0);

    let m = shared.metrics();
    assert_eq!(m.checkpoints.get(), 1);
    assert_eq!(m.checkpoint_bytes.get(), out.bytes);
    assert_eq!(m.checkpoint_duration.snapshot().count(), 1);

    // The same numbers through the protocol's `stats` command.
    let stats = freezeml_service::stats_json(&shared);
    assert_eq!(num(&stats, &["persistence", "checkpoints"]), 1.0);
    assert_eq!(
        num(&stats, &["persistence", "checkpoint_bytes"]),
        out.bytes as f64
    );
    assert_eq!(num(&stats, &["persistence", "checkpoint", "count"]), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}
