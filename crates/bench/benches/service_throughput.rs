//! Bench: the program-checking service — cold whole-program checks vs
//! warm single-binding edits, and worker-pool scaling.
//!
//! Workloads are deterministic generated programs
//! (`freezeml_service::load::GenProgram`) over the Figure 2 prelude.
//! Benchmark ids:
//!
//! * `service/cold/<n>` — open an `n`-binding program on a cold cache
//!   (every binding inferred);
//! * `service/warm-edit/<n>` — one binding edited in place, recheck —
//!   only the dirty dependency cone is re-inferred, the rest is served
//!   from the scheme cache (this is the ≥10× headline; see
//!   `EXPERIMENTS.md` for recorded numbers and the recheck-counter
//!   assertions in `crates/service/tests/throughput.rs`);
//! * `service/proto/warm-edit/<n>` — the same edit sent as a protocol
//!   line, in process: the client's request encoding and `handle_line`
//!   (decode, edit, and the report written into a reused buffer from
//!   the document's kept answer, patched where the edit changed it),
//!   with no socket and no sleeps. Against `service/warm-edit/<n>` it
//!   prices the protocol boundary;
//! * `service/proto/check/<n>` — a `check` line on an unchanged
//!   document: the check pass finds nothing dirty and keeps the
//!   document's stored verdicts, so the row is almost all copying the
//!   kept answer into the buffer;
//! * `service/proto/decode/<64K|1M>` — an `edit` line of that many
//!   bytes of program text for a document that is not open: decoding
//!   the line is the work, the answer is a short error;
//! * `service/workers/<k>` — a socket server with `k` session threads
//!   under a fixed closed-loop client roster (`freezeml_service::load`'s
//!   `LoadMix`: concurrent clients driving an
//!   open/edit/check/type-of/elaborate mix with think time between round
//!   trips). Session threads overlap one client's think/IO time with
//!   another client's checking, so the `workers` curve bends down with
//!   `k` even on a single CPU — that latency overlap, not wave
//!   parallelism, is what the socket front end buys;
//! * `service/shed-overhead/4` — the `workers/4` roster re-run on the
//!   fully armed resilient stack: admission control checked on every
//!   accept, kernel read/write timeouts armed, the wall-clock deadline
//!   checked per request and wave. Compared against
//!   `service/workers/4`, the overload machinery may cost ≤2% when
//!   nothing is overloaded (EXPERIMENTS.md);
//! * `service/persisted-warm/<n>` — open the same `n`-binding program
//!   in a *fresh process image*: a new hub warmed only from an on-disk
//!   snapshot (`freezeml_service::persist`). The open parses and
//!   analyses the text, then every verdict comes off the restored
//!   cache and every scheme string off the load's one rendering of the
//!   restored DAG — zero bindings rechecked, zero waves scheduled (the
//!   persistent-warm-start headline vs `service/cold/<n>`);
//! * `service/analyze/<cold|warm>/2000` — the front end alone: chunk,
//!   parse and analyse the 2000-binding document `gen 2000 0` with
//!   `analyze_cached`, into a fresh parse cache (`cold`: every chunk
//!   lexed and parsed; the cache is dropped inside the iteration) and
//!   into one that already holds every chunk (`warm`: every lookup a
//!   hit). Their ratio is what the parse cache saves a reopen;
//! * `service/persisted-load/<n>` — the snapshot restore itself: fresh
//!   hub + `persist::load` (decode, structural re-interning into the
//!   scheme bank, one render per restored scheme, cache population) —
//!   the one-off cost a warm start pays at process birth;
//! * `service/trace-overhead/<off|on>` — the `workers/4` roster re-run
//!   on the instrumented stack: `off` with the tracer explicitly
//!   disabled (the monomorphised no-trace path — the row the ≤5%
//!   overhead budget in EXPERIMENTS.md is checked against
//!   `service/workers/4`), `on` with a JSONL sink wired to a temp file
//!   (the full flight-recorder cost, spans flushed per record).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freezeml_core::Options;
use freezeml_service::{
    analyze_cached, handle_line,
    load::{drive_tcp, LoadMix},
    persist, EngineSel, Frontend, GenProgram, PersistConfig, Request, ServeOptions, Service,
    ServiceConfig, Shared, SocketServer,
};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5EED;

fn service(workers: usize) -> Service {
    Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers,
    })
}

fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/cold");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [30usize, 120, 480] {
        let text = GenProgram::generate(n, SEED).text();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                // A fresh service per iteration: genuinely cold cache.
                let mut svc = service(1);
                let r = svc.open("bench", &text).expect("generated program parses");
                assert!(r.all_typed());
                r.rechecked
            });
        });
    }
    group.finish();
}

fn bench_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/analyze");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let n = 2000usize;
    let text = GenProgram::generate(n, 0).text();
    let opts = Options::default();
    group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
        b.iter(|| {
            let mut fe = Frontend::default();
            let a = analyze_cached(&mut fe, &text, &opts, EngineSel::Uf).expect("parses");
            a.decls.len()
        });
    });
    let mut fe = Frontend::default();
    analyze_cached(&mut fe, &text, &opts, EngineSel::Uf).expect("parses");
    group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
        b.iter(|| {
            let a = analyze_cached(&mut fe, &text, &opts, EngineSel::Uf).expect("parses");
            a.decls.len()
        });
    });
    group.finish();
}

fn bench_warm_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/warm-edit");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [30usize, 120, 480, 4000] {
        let gen = GenProgram::generate(n, SEED);
        let original = gen.text();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut svc = service(1);
            svc.open("bench", &original).expect("parses");
            // A fresh salt each iteration keeps the edited binding's key
            // out of the cache, so every timed edit is a genuine edit
            // (rendering the new text is part of the measured op, as it
            // would be for a real client).
            let mut salt = 0u64;
            b.iter(|| {
                salt += 1;
                let next = gen.edited_text(n / 2, salt);
                let r = svc.edit("bench", &next).expect("parses");
                assert!(r.rechecked > 0, "the edit must dirty something");
                r.rechecked
            });
        });
    }
    group.finish();
}

/// One protocol round trip in process: `handle_line` writing the
/// response into `out`, the buffer reused the way the serving loop
/// reuses it.
fn round_trip(svc: &mut Service, line: &str, out: &mut String) -> usize {
    out.clear();
    handle_line(svc, line, out);
    out.push('\n');
    out.len()
}

fn bench_proto(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/proto");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let mut out = String::new();
    for n in [480usize, 4000] {
        let gen = GenProgram::generate(n, SEED);
        let mut svc = service(1);
        svc.open("bench", &gen.text()).expect("parses");
        // As in `service/warm-edit`: a fresh salt per iteration makes
        // every timed edit a genuine edit.
        let mut salt = 0u64;
        let mut line = String::new();
        group.bench_with_input(BenchmarkId::new("warm-edit", n), &n, |b, _| {
            b.iter(|| {
                salt += 1;
                line.clear();
                Request::Edit {
                    doc: "bench".into(),
                    text: gen.edited_text(n / 2, salt),
                }
                .to_json()
                .write_to(&mut line);
                round_trip(&mut svc, &line, &mut out)
            });
        });
        let line = Request::Check {
            doc: "bench".into(),
        }
        .to_json()
        .to_string();
        group.bench_with_input(BenchmarkId::new("check", n), &n, |b, _| {
            b.iter(|| round_trip(&mut svc, &line, &mut out));
        });
    }
    let program = GenProgram::generate(480, SEED).text();
    let mut svc = service(1);
    for (label, bytes) in [("64K", 64usize << 10), ("1M", 1 << 20)] {
        let mut text = program.repeat(bytes / program.len() + 1);
        text.truncate(bytes);
        let line = Request::Edit {
            doc: "absent".into(),
            text,
        }
        .to_json()
        .to_string();
        round_trip(&mut svc, &line, &mut out);
        assert!(out.contains("unknown document"), "{out}");
        group.bench_with_input(BenchmarkId::new("decode", label), &label, |b, _| {
            b.iter(|| round_trip(&mut svc, &line, &mut out));
        });
    }
    group.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/workers");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    // Fresh edit salts every iteration keep the edited cones missing
    // the shared outcome cache (steady-state serving, not pure replay).
    let mut round = 0u64;
    for k in [1usize, 2, 4] {
        let mut server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            ServiceConfig {
                opts: Options::default(),
                engine: EngineSel::Uf,
                workers: 1,
            },
            Arc::new(Shared::new()),
            k,
            ServeOptions::default(),
        )
        .expect("bind an ephemeral port");
        let addr = server.local_addr().to_string();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                round += 1;
                drive_tcp(
                    &addr,
                    &LoadMix {
                        salt_base: round * 100_000,
                        ..LoadMix::default()
                    },
                )
            });
        });
        server.shutdown();
    }
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    use freezeml_obs::Tracer;
    let mut group = c.benchmark_group("service/trace-overhead");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    let trace_dir =
        std::env::temp_dir().join(format!("freezeml-bench-trace-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&trace_dir);
    let mut round = 0u64;
    for mode in ["off", "on"] {
        let shared = Arc::new(Shared::new());
        let tracer = if mode == "on" {
            Tracer::to_file(&trace_dir.join("trace.jsonl")).expect("temp trace file")
        } else {
            Tracer::off()
        };
        assert!(shared.set_tracer(tracer), "fresh hub accepts a tracer");
        let mut server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            ServiceConfig {
                opts: Options::default(),
                engine: EngineSel::Uf,
                workers: 1,
            },
            shared,
            4,
            ServeOptions::default(),
        )
        .expect("bind an ephemeral port");
        let addr = server.local_addr().to_string();
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, _| {
            b.iter(|| {
                round += 1;
                drive_tcp(
                    &addr,
                    &LoadMix {
                        salt_base: round * 100_000,
                        ..LoadMix::default()
                    },
                )
            });
        });
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&trace_dir);
    group.finish();
}

fn bench_shed_overhead(c: &mut Criterion) {
    use freezeml_service::sock::Admission;
    let mut group = c.benchmark_group("service/shed-overhead");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    // The `workers/4` roster on the fully armed resilient stack:
    // admission control live on every accept (the queue is deep enough
    // that nothing in this roster is actually shed — this measures the
    // fast path), kernel read/write timeouts armed, and the wall-clock
    // deadline checked at every request and wave boundary. The
    // EXPERIMENTS.md budget compares this row against
    // `service/workers/4`: the overload machinery may cost at most 2%
    // when nothing is overloaded.
    let mut round = 0u64;
    let mut server = SocketServer::spawn_tcp_with(
        "127.0.0.1:0",
        ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers: 1,
        },
        Arc::new(Shared::new()),
        4,
        ServeOptions {
            request_timeout_ms: Some(10_000),
            ..ServeOptions::default()
        },
        Admission::default(),
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    group.bench_with_input(BenchmarkId::from_parameter(4), &4, |b, _| {
        b.iter(|| {
            round += 1;
            drive_tcp(
                &addr,
                &LoadMix {
                    salt_base: round * 100_000,
                    ..LoadMix::default()
                },
            )
        });
    });
    server.shutdown();
    group.finish();
}

/// Write a snapshot of a service warmed on `text`, returning the cache
/// directory (caller removes it).
fn seeded_cache(text: &str, n: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("freezeml-bench-cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut warm = service(1);
    warm.attach_cache(PersistConfig::new(&dir));
    let r = warm.open("bench", text).expect("generated program parses");
    assert!(r.all_typed());
    warm.save_cache()
        .expect("cache attached")
        .expect("snapshot writes");
    dir
}

fn bench_persisted_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/persisted-warm");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [120usize, 480] {
        let text = GenProgram::generate(n, SEED).text();
        let dir = seeded_cache(&text, n);
        // The restart: a hub that has never checked anything, warmed
        // purely from the snapshot file.
        let shared = Arc::new(Shared::new());
        let out = persist::load(
            &shared,
            persist::epoch(&Options::default()),
            &PersistConfig::new(&dir),
        );
        assert!(out.loaded, "snapshot must load: {:?}", out.warning);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                // A fresh session against the restored hub: every
                // verdict of the open comes from persisted state.
                let mut svc = Service::with_shared(
                    ServiceConfig {
                        opts: Options::default(),
                        engine: EngineSel::Uf,
                        workers: 1,
                    },
                    Arc::clone(&shared),
                );
                let r = svc.open("bench", &text).expect("parses");
                assert_eq!(r.rechecked, 0, "persisted warm start must not recheck");
                r.reused
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_persisted_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/persisted-load");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let n = 480usize;
    let text = GenProgram::generate(n, SEED).text();
    let dir = seeded_cache(&text, n);
    let epoch = persist::epoch(&Options::default());
    let cfg = PersistConfig::new(&dir);
    group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
        b.iter(|| {
            let shared = Shared::new();
            let out = persist::load(&shared, epoch, &cfg);
            assert!(out.loaded);
            out.entries
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_cold,
    bench_analyze,
    bench_warm_edit,
    bench_proto,
    bench_worker_scaling,
    bench_shed_overhead,
    bench_trace_overhead,
    bench_persisted_warm,
    bench_persisted_load,
);
criterion_main!(benches);
