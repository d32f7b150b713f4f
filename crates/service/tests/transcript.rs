//! The protocol transcript golden: every response byte of one scripted
//! session, pinned.
//!
//! `golden/transcript.in` is a request stream (one line each, newline
//! terminated, one line not valid UTF-8). `golden/transcript.out` holds
//! the exact bytes the server answers it with, under a 4096-byte request
//! cap. The stream covers `open`, `edit`, `check`, `type-of`,
//! `elaborate` and `close` on `freezeml gen 30 0`; a document with `ok`
//! (one with a `defaulted` list), `error` and `blocked` verdicts whose
//! name holds `"`, `\`, control bytes, non-ASCII text and an emoji; a
//! batch line with one bad element; parse errors answered with
//! `line`/`col`; unknown documents; bad JSON; an oversized line; a
//! non-UTF-8 line; and a final `shutdown`.
//!
//! The other tests compare parsed values; this one compares bytes, so an
//! encoder change that keeps the values but moves a byte fails here.
//! The same files are diffed against the release binary over a live
//! socket in CI. To regenerate the answers after an intended change:
//!
//! ```text
//! freezeml --max-request-bytes 4096 serve \
//!     < crates/service/tests/golden/transcript.in \
//!     > crates/service/tests/golden/transcript.out
//! ```

use freezeml_core::Options;
use freezeml_service::{serve_with, EngineSel, Request, ServeOptions, Service, ServiceConfig};

const REQUESTS: &[u8] = include_bytes!("golden/transcript.in");
const ANSWERS: &[u8] = include_bytes!("golden/transcript.out");

fn answers(engine: EngineSel) -> Vec<u8> {
    let mut svc = Service::new(ServiceConfig {
        opts: Options::default(),
        engine,
        workers: 1,
    });
    let opts = ServeOptions {
        max_request_bytes: 4096,
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    serve_with(&mut svc, REQUESTS, &mut out, &opts).expect("in-memory transport");
    out
}

/// The first differing answer line, readable: line number, want, got.
fn first_difference(want: &[u8], got: &[u8]) -> String {
    let line = |s: &[u8], i: usize| {
        s.split(|&c| c == b'\n')
            .nth(i)
            .map_or("(no line)".into(), String::from_utf8_lossy)
            .into_owned()
    };
    let i = (0..)
        .find(|&i| line(want, i) != line(got, i))
        .expect("the answers differ, so some line does");
    format!(
        "answer line {}:\n- {}\n+ {}",
        i + 1,
        line(want, i),
        line(got, i)
    )
}

#[test]
fn the_transcript_answers_are_byte_identical_under_each_engine() {
    for engine in [EngineSel::Uf, EngineSel::Both] {
        let got = answers(engine);
        assert!(
            got == ANSWERS,
            "{engine:?}: {}",
            first_difference(ANSWERS, &got)
        );
    }
}

/// A `check` counts each verdict as the pass that produced it did: the
/// quoting document's error stays reused, and the two bindings blocked
/// on it stay blocked.
#[test]
fn a_check_counts_blocked_bindings_as_blocked() {
    let open = REQUESTS
        .split(|&c| c == b'\n')
        .filter_map(|l| std::str::from_utf8(l).ok())
        .find(|l| l.starts_with(r#"{"cmd":"open","doc":"q"#))
        .expect("the quoting document's open line");
    let Ok(Request::Open { doc, text }) = Request::parse(open) else {
        panic!("not an open request: {open}");
    };
    for engine in [EngineSel::Uf, EngineSel::Both] {
        let mut svc = Service::new(ServiceConfig {
            opts: Options::default(),
            engine,
            workers: 1,
        });
        let r = svc.open(&doc, &text).unwrap();
        assert_eq!((r.rechecked, r.reused, r.blocked), (4, 0, 2), "{engine:?}");
        let r = svc.check(&doc).unwrap();
        assert_eq!(
            (r.rechecked, r.reused, r.blocked, r.waves),
            (0, 4, 2, 0),
            "{engine:?}"
        );
    }
}
