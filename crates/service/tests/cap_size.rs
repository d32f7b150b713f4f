//! Request lines at the size limit. The serving loop admits any line up
//! to the 4 MiB `max_request_bytes` default, so decoding, the error path
//! and the response encoder must all stay linear at that size: with the
//! socket server's 10 s request deadline armed, each line below gets its
//! structured answer (not `deadline`) in well under a second or two, and
//! the session then answers a `type-of` as usual.
//!
//! * a `stats` line carrying one junk string of ~4 MiB;
//! * a `check` whose `doc` is `\u00e9` and `\ud83d\ude00` escapes up to
//!   just under the cap;
//! * a `check` whose `doc` is ~4 MiB of raw text. Its `unknown document`
//!   error echoes the name, so the encoder runs at cap size too;
//! * ~4 MiB of `[`, and ~4 MiB of `{"a":`. The decoder refuses the 65th
//!   nested container, so neither line can overflow the session's
//!   stack and abort the process.

use freezeml_service::{serve_with, EngineSel, Json, ServeOptions, Service, ServiceConfig};
use std::io::{self, Cursor, Write};
use std::time::{Duration, Instant};

/// The per-line budget: far above the linear cost (tens of ms in
/// release, a few hundred in debug), far below a quadratic one (minutes).
const LINE_BUDGET: Duration = Duration::from_secs(2);

/// Collects the responses and the instant each response line ended.
struct Stamped {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        if buf.last() == Some(&b'\n') {
            self.stamps.push(Instant::now());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serve `open` of a one-binding document, then `line`, then a `type-of`
/// on the same session; return the three responses and how long `line`
/// took from the end of the first response to the end of its own.
fn serve_around(line: &str) -> (Vec<Json>, Duration) {
    let opts = ServeOptions {
        request_timeout_ms: Some(10_000),
        ..ServeOptions::default()
    };
    assert_eq!(opts.max_request_bytes, 4 << 20, "the default cap");
    assert!(line.len() < opts.max_request_bytes, "{} bytes", line.len());
    let mut script = String::from(r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
    script.push('\n');
    script.push_str(line);
    script.push('\n');
    script.push_str(r#"{"cmd":"type-of","doc":"m","name":"x"}"#);
    script.push('\n');
    let mut svc = Service::new(ServiceConfig {
        engine: EngineSel::Uf,
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut out = Stamped {
        bytes: Vec::new(),
        stamps: Vec::new(),
    };
    serve_with(&mut svc, Cursor::new(script), &mut out, &opts).unwrap();
    let responses: Vec<Json> = std::str::from_utf8(&out.bytes)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 3, "one answer per line");
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        responses[2].get("result").and_then(Json::as_str),
        Some("Int"),
        "the session still serves after the large line"
    );
    (responses, out.stamps[1] - out.stamps[0])
}

/// The `message` of a structured (object-shaped) error response; a
/// `deadline` answer has a string `error` and fails here.
fn error_message(resp: &Json) -> &str {
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    resp.get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("not a structured error: {:?}", resp.get("error")))
}

#[test]
fn a_cap_size_junk_field_is_refused_in_linear_time() {
    let junk = "j".repeat((4 << 20) - 64);
    let line = format!(r#"{{"cmd":"stats","junk":"{junk}"}}"#);
    let (responses, took) = serve_around(&line);
    assert!(
        error_message(&responses[1]).contains("takes no field `junk`"),
        "{:?}",
        responses[1]
    );
    assert!(took < LINE_BUDGET, "4 MiB junk field took {took:?}");
}

#[test]
fn cap_size_escapes_decode_in_linear_time() {
    // 18 escaped bytes decode to one 2-byte and one 4-byte character.
    let pair = r"\u00e9\ud83d\ude00";
    let escapes = pair.repeat(((4 << 20) - 64) / pair.len());
    let line = format!(r#"{{"cmd":"check","doc":"{escapes}"}}"#);
    let (responses, took) = serve_around(&line);
    let want_doc = "\u{e9}\u{1f600}".repeat(escapes.len() / pair.len());
    assert_eq!(
        error_message(&responses[1]),
        format!("unknown document `{want_doc}`")
    );
    assert!(took < LINE_BUDGET, "4 MiB of escapes took {took:?}");
}

#[test]
fn a_cap_size_echoed_name_encodes_in_linear_time() {
    // Raw multi-byte text with characters the encoder must escape, so
    // unescaped runs end next to every kind of byte.
    let unit = "let \u{e9} = \"\u{1f600}\";;\t";
    let doc = unit.repeat(((4 << 20) - 64) / (unit.len() + 4));
    let line = Json::obj([
        ("cmd", Json::Str("check".into())),
        ("doc", Json::Str(doc.clone())),
    ])
    .to_string();
    let (responses, took) = serve_around(&line);
    assert_eq!(
        error_message(&responses[1]),
        format!("unknown document `{doc}`")
    );
    assert!(took < LINE_BUDGET, "4 MiB echoed name took {took:?}");
}

#[test]
fn cap_size_nesting_is_refused_at_the_depth_bound() {
    for unit in ["[", r#"{"a":"#] {
        let line = unit.repeat(((4 << 20) - 64) / unit.len());
        let (responses, took) = serve_around(&line);
        let msg = error_message(&responses[1]);
        assert_eq!(
            msg,
            format!(
                "JSON error at byte {}: arrays and objects nest deeper than 64",
                64 * unit.len()
            ),
        );
        assert!(took < LINE_BUDGET, "4 MiB of {unit} took {took:?}");
    }
}
