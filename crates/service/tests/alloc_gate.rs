//! Cost gates for the served paths on a 2000-binding document, answered
//! into a session buffer already grown by an earlier answer:
//!
//! * answering `check` on the unchanged document allocates a small
//!   constant number of times — not per binding;
//! * a warm `edit` of one leaf literal binding allocates, looks up parse
//!   chunks and probes verdicts in proportion to the edit, not to the
//!   document, and allocates fewer bytes than a copy of the report's
//!   verdicts would add to what the request itself needs;
//! * analysing the document allocates a bounded number of times per
//!   chunk, into an empty parse cache and into a warm one;
//! * a session's answer buffer, grown past the request cap by one
//!   answer, is gone by the time the next answer is written.
//!
//! The counts are deterministic, so unlike a timer they hold on any
//! host.
//!
//! This binary installs a counting global allocator, which counts
//! allocations, the bytes they ask for, and the bytes live. Counts are
//! kept per thread, so tests running side by side do not see each
//! other's allocations.

use freezeml_core::Options;
use freezeml_service::{
    analyze_cached, handle_line, serve_with, EngineSel, Frontend, GenProgram, Request,
    ServeOptions, Service, ServiceConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Write};

struct Counting;

thread_local! {
    // `const` initialisation and a `Copy` payload: no lazy init and no
    // destructor, so the allocator can touch it at any point of a
    // thread's life without recursing into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated less bytes freed on this thread (negative when it
    // frees what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `bytes` bytes (a reallocation counts its new
/// size), which makes `grown` more bytes live.
fn note(bytes: usize, grown: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + grown));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting side effect touches only thread-local `Cell`s
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (reallocations included) this thread makes inside `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    allocations_and_bytes(f).0
}

/// Allocations this thread makes inside `f`, and the bytes they ask for.
fn allocations_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// The gate: a constant, far below one allocation per binding.
const MAX_ALLOCS: u64 = 64;

#[test]
fn a_warm_check_answer_allocates_a_constant_number_of_times() {
    const N: usize = 2000;
    let mut svc = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    });
    svc.open("m", &GenProgram::generate(N, 0).text())
        .expect("generated program parses");
    let line = r#"{"cmd":"check","doc":"m"}"#;
    let mut out = String::new();
    // The first answer grows the buffer, as a session's first report does.
    handle_line(&mut svc, line, &mut out);
    let first = out.clone();
    out.clear();
    let (n, bytes) = allocations_and_bytes(|| handle_line(&mut svc, line, &mut out));
    assert_eq!(out, first, "the same document answers the same bytes");
    assert_eq!(
        out.matches("\"status\":\"ok\"").count(),
        N,
        "every binding is in the answer"
    );
    assert!(
        n < MAX_ALLOCS,
        "answering `check` on {N} bindings made {n} allocations of {bytes} bytes (gate: < {MAX_ALLOCS})"
    );
}

/// The `edit` gates. Before the document's analysis was patched in place
/// (when every edit re-chunked, re-hashed and re-resolved the whole
/// document, then probed the verdict cache for every binding), this edit
/// made 11 616 allocations, 2 000 parse-chunk lookups and 2 000 verdict
/// probes; patched, it made 82, 1 and 1, and now makes 57, 1 and 1.
const MAX_EDIT_ALLOCS: u64 = 256;
/// The bytes gate. While each pass copied the report's 2 000 verdicts into
/// a fresh 176 016-byte slice, this edit asked for 487 849 bytes (the
/// copy, a 28 672-byte line index, the request text copied out of the
/// decoded line, and the rest). Patching the report in place, keeping
/// the answer, and moving the decoded text into the request, it asked
/// for 263 357, the line index that shows no binding moved included.
/// Writing each verdict straight into the report's slice (no side table
/// of dirty bindings) and decoding the 48.5 KB request text into one
/// allocation (not a dozen doublings up to 49 152 bytes), it asks for
/// 207 571; the gate leaves 2% above that. A kept answer rendered afresh
/// rather than left alone would add about 215 000.
const MAX_EDIT_BYTES: u64 = 212_000;
const MAX_EDIT_LOOKUPS: u64 = 2;
const MAX_EDIT_PROBES: u64 = 2;

#[test]
fn a_warm_leaf_edit_costs_what_the_edit_touches() {
    const N: usize = 2000;
    let mut svc = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    });
    let text = GenProgram::generate(N, 0).text();
    svc.open("m", &text).expect("generated program parses");
    // A literal binding nothing depends on: the edit's cone is itself.
    let a = freezeml_service::analyze(&text, &Options::default(), EngineSel::Uf)
        .expect("generated program parses");
    let lines: Vec<&str> = text.lines().collect();
    let leaf = (0..N)
        .rev()
        .find(|&i| {
            let rhs = lines[i + 1].trim_end_matches(";;").split(" = ").nth(1);
            rhs.is_some_and(|r| r.bytes().all(|b| b.is_ascii_digit())) && a.dependents(i).is_empty()
        })
        .expect("a leaf literal binding");
    let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    edited[leaf + 1] = format!("let b{leaf} = 424242;;");
    let edit = freezeml_service::Request::Edit {
        doc: "m".into(),
        text: edited.join("\n") + "\n",
    }
    .to_json()
    .to_string();
    let mut out = String::new();
    // The first answer grows the buffer, as a session's first report does.
    handle_line(&mut svc, r#"{"cmd":"check","doc":"m"}"#, &mut out);
    out.clear();
    let lookups = |svc: &Service| {
        let fe = svc.shared().frontend();
        fe.parse_hits() + fe.parse_misses()
    };
    let probes = |svc: &Service| {
        let m = svc.shared().metrics();
        m.verdict_hits.get() + m.verdict_misses.get()
    };
    let (l0, p0) = (lookups(&svc), probes(&svc));
    let (n, bytes) = allocations_and_bytes(|| handle_line(&mut svc, &edit, &mut out));
    let (l, p) = (lookups(&svc) - l0, probes(&svc) - p0);
    assert!(
        out.contains("\"rechecked\":1,"),
        "one binding rechecked: {}",
        &out[out.len() - 80..]
    );
    assert_eq!(
        out.matches("\"status\":\"ok\"").count(),
        N,
        "every binding answered"
    );
    assert!(
        n < MAX_EDIT_ALLOCS,
        "a leaf edit of {N} bindings made {n} allocations (gate: < {MAX_EDIT_ALLOCS})"
    );
    assert!(
        bytes < MAX_EDIT_BYTES,
        "a leaf edit of {N} bindings asked for {bytes} bytes (gate: < {MAX_EDIT_BYTES})"
    );
    assert!(
        l <= MAX_EDIT_LOOKUPS,
        "a leaf edit looked up {l} parse chunks (gate: ≤ {MAX_EDIT_LOOKUPS})"
    );
    assert!(
        p <= MAX_EDIT_PROBES,
        "a leaf edit probed {p} verdicts (gate: ≤ {MAX_EDIT_PROBES})"
    );
}

/// The front-end gates, on the same document. Before a missed chunk was
/// parsed straight from a reused token buffer (with a `Program`, a token
/// `Vec`, a slice `String` and a free-variable hash set per chunk, and a
/// dependency `Vec` per binding), the cold analysis made 20 101
/// allocations and the warm one 1 541; since, they make 12 691 and 118.
/// The cold gate sits below the old count, the warm gate at it.
const MAX_COLD_ANALYSIS_ALLOCS: u64 = 14_000;
const MAX_WARM_ANALYSIS_ALLOCS: u64 = 1_541;

#[test]
fn analysing_a_document_allocates_a_bounded_number_of_times_per_chunk() {
    const N: usize = 2000;
    let text = GenProgram::generate(N, 0).text();
    let opts = Options::default();
    let analyse = |fe: &mut Frontend| {
        analyze_cached(fe, &text, &opts, EngineSel::Uf).expect("generated program parses")
    };
    // Intern every name first: the process-wide symbol table is shared
    // with the other tests, so whether this thread interns a name is up
    // to the order they run in.
    analyse(&mut Frontend::default());
    let mut fe = Frontend::default();
    let mut cold = None;
    let n_cold = allocations(|| cold = Some(analyse(&mut fe)));
    let mut warm = None;
    let n_warm = allocations(|| warm = Some(analyse(&mut fe)));
    assert_eq!(
        fe.parse_misses(),
        N as u64,
        "the cold pass parsed every chunk"
    );
    assert_eq!(fe.parse_hits(), N as u64, "the warm pass parsed none");
    let (cold, warm) = (cold.expect("ran"), warm.expect("ran"));
    assert_eq!(cold.keys, warm.keys);
    assert!(
        n_cold <= MAX_COLD_ANALYSIS_ALLOCS,
        "a cold analysis of {N} bindings made {n_cold} allocations (gate: ≤ {MAX_COLD_ANALYSIS_ALLOCS})"
    );
    assert!(
        n_warm <= MAX_WARM_ANALYSIS_ALLOCS,
        "a warm analysis of {N} bindings made {n_warm} allocations (gate: ≤ {MAX_WARM_ANALYSIS_ALLOCS})"
    );
}

/// A writer that records, at each write, the bytes written and the bytes
/// live on its thread.
struct LiveAtWrite(Vec<(usize, i64)>);

impl Write for LiveAtWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // (The records' room is reserved up front: recording allocates
        // nothing.)
        self.0.push((buf.len(), LIVE.with(Cell::get)));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn an_answer_buffer_grown_past_the_request_cap_is_released() {
    const CAP: usize = 4096;
    let open = Request::Open {
        doc: "m".into(),
        text: GenProgram::generate(120, 0).text(),
    }
    .to_json()
    .to_string();
    assert!(open.len() <= CAP, "the open request fits the cap");
    let script = open + "\n" + r#"{"cmd":"type-of","doc":"m","name":"b1"}"# + "\n";
    let mut svc = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    });
    let opts = ServeOptions {
        max_request_bytes: CAP,
        ..ServeOptions::default()
    };
    let mut writes = LiveAtWrite(Vec::with_capacity(8));
    serve_with(&mut svc, Cursor::new(script), &mut writes, &opts).expect("served");
    let [(report, live_then), (_, live_now)] = writes.0[..] else {
        panic!("one write per answer: {:?}", writes.0);
    };
    assert!(report > CAP, "the report outgrows the cap: {report} bytes");
    // Released, the buffer takes at least the report's bytes with it
    // (half of them bound it, whatever else the next request allocates);
    // kept, the next answer would find them still live.
    assert!(
        live_now < live_then - report as i64 / 2,
        "{report} bytes answered, then {live_then} bytes live; at the next answer {live_now}"
    );
}
