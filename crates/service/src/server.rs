//! The line-protocol server loop: one JSON request per line in, one JSON
//! response per line out. The loop is written against generic
//! `BufRead`/`Write` so tests (and the load generator) can drive it over
//! in-memory buffers; the `freezeml` binary plugs in locked
//! stdin/stdout, and the socket server ([`crate::sock`]) plugs in one
//! connection's stream halves.
//!
//! The reader works on **raw bytes**, not `BufRead::lines`:
//!
//! * a line that is not valid UTF-8 is answered with a structured
//!   `{"ok":false,…}` error and the session keeps serving — previously
//!   one stray `0xFF` byte killed the whole session with an
//!   `InvalidData` transport error;
//! * a line longer than [`ServeOptions::max_request_bytes`] is drained
//!   (never buffered) and answered with a structured error — previously
//!   a client streaming bytes without a newline grew the buffer without
//!   bound.

use crate::protocol::{handle_line, reject, Json};
use crate::service::Service;
use freezeml_core::scan::find_newline;
use freezeml_obs::Val;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Serving limits. `Default` is the CLI's configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Maximum request-line length in bytes (newline excluded). Longer
    /// requests are rejected with a structured error; the line is
    /// consumed without being buffered.
    pub max_request_bytes: usize,
    /// Slow-request threshold: a request line whose handling takes at
    /// least this many milliseconds bumps the `slow_requests` counter
    /// and emits a structured `slow-request` trace event. `None`
    /// disables the slow log.
    pub slow_ms: Option<u64>,
    /// Per-request budget in milliseconds, `None` = unbounded (the
    /// stdio default; the socket server defaults it on). The budget
    /// covers both halves of a request:
    ///
    /// * **reading** — a client that stalls mid-line (or never sends a
    ///   byte) is answered one flat `{"ok":false,"error":"deadline"}`
    ///   line and closed. The socket layer arms kernel read timeouts
    ///   so a stalled read wakes up; this loop adds a wall-clock
    ///   deadline on top so a byte-at-a-time slowloris cannot reset
    ///   the clock forever;
    /// * **checking** — the executor observes the same deadline at
    ///   every wave boundary ([`crate::exec::Executor::run_budgeted`])
    ///   and gives up with the same flat error. Verdicts completed
    ///   before the deadline stay cached, so a retry resumes warm.
    pub request_timeout_ms: Option<u64>,
}

/// Default request cap: a few MiB — generous for whole-document `open`
/// requests, small enough that a misbehaving client cannot grow the
/// server's memory without bound.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            slow_ms: None,
            request_timeout_ms: None,
        }
    }
}

/// One raw request line, as read by [`read_request`].
enum RawLine {
    /// A complete line within the cap (newline stripped).
    Line,
    /// The line exceeded the cap; `0` bytes of it were kept.
    Oversized { len: usize },
    /// The transport timed out, or the per-request deadline passed
    /// before a full line arrived (slowloris / connect-and-stall).
    TimedOut,
}

/// Would this I/O error kind be produced by an armed socket timeout?
/// (`WouldBlock` on Unix sockets, `TimedOut` elsewhere.)
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Read one `\n`-terminated line of raw bytes into `buf` (cleared
/// first), without ever buffering more than `max` bytes. `Ok(None)` at
/// EOF with no pending bytes; a final unterminated line is still
/// served. The trailing `\n` (and a preceding `\r`) are stripped. A
/// transport timeout, or `deadline` passing between chunks, yields
/// [`RawLine::TimedOut`] (any partial line is abandoned).
fn read_request<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
    deadline: Option<Instant>,
) -> io::Result<Option<RawLine>> {
    buf.clear();
    let mut total = 0usize;
    let mut oversized = false;
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Ok(Some(RawLine::TimedOut));
            }
        }
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if is_timeout(e.kind()) => return Ok(Some(RawLine::TimedOut)),
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. Serve a pending unterminated line, drop nothing.
            return Ok(match (total, oversized) {
                (0, _) => None,
                (len, true) => Some(RawLine::Oversized { len }),
                (_, false) => Some(RawLine::Line),
            });
        }
        let (chunk, terminated) = match find_newline(available) {
            Some(pos) => (&available[..pos], true),
            None => (available, false),
        };
        total += chunk.len();
        if !oversized {
            if total > max {
                // Stop buffering: the whole line is rejected, so no
                // prefix is worth keeping. Keep draining to the newline.
                oversized = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        let consumed = chunk.len() + usize::from(terminated);
        reader.consume(consumed);
        if terminated {
            if !oversized && buf.last() == Some(&b'\r') {
                buf.pop();
                total -= 1;
            }
            return Ok(Some(if oversized {
                RawLine::Oversized { len: total }
            } else {
                RawLine::Line
            }));
        }
    }
}

fn transport_error(kind: &str, detail: String) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(detail)),
        ("kind".to_string(), Json::Str(kind.to_string())),
    ])
}

/// Serve requests until EOF with the default [`ServeOptions`].
///
/// # Errors
///
/// Only I/O errors on the transport itself.
pub fn serve<R: BufRead, W: Write>(svc: &mut Service, reader: R, writer: W) -> io::Result<()> {
    serve_with(svc, reader, writer, &ServeOptions::default())
}

/// Serve requests until EOF. Every line gets exactly one response line;
/// malformed, non-UTF-8, and oversized requests produce `{"ok":false,…}`
/// rather than terminating the session, and count as `invalid` requests
/// in the hub's registry. Blank lines are ignored.
///
/// # Errors
///
/// Only I/O errors on the transport itself.
pub fn serve_with<R: BufRead, W: Write>(
    svc: &mut Service,
    mut reader: R,
    mut writer: W,
    opts: &ServeOptions,
) -> io::Result<()> {
    let budget = opts.request_timeout_ms.map(Duration::from_millis);
    let mut buf: Vec<u8> = Vec::new();
    // Every response is written into this one buffer.
    let mut out = String::new();
    loop {
        // A drain request ends the session at the request boundary:
        // the response already in flight was written, nothing of the
        // client's is dropped, and the close is clean.
        if svc.shared().draining() {
            return Ok(());
        }
        // The per-request clock starts when we begin waiting for the
        // line and covers the check too: one budget per request.
        let deadline = budget.map(|b| Instant::now() + b);
        let Some(raw) = read_request(&mut reader, &mut buf, opts.max_request_bytes, deadline)?
        else {
            return Ok(());
        };
        out.clear();
        match raw {
            RawLine::TimedOut => {
                if svc.shared().draining() {
                    // The timeout wake-up raced a drain: the client
                    // sent nothing, owes nothing, gets a clean close.
                    return Ok(());
                }
                svc.shared().metrics().deadline_exceeded.inc();
                // One flat structured line, then a clean close — the
                // contract a stalled or slowloris client gets. The
                // write is best-effort: the peer may be gone.
                let _ = writer.write_all(b"{\"ok\":false,\"error\":\"deadline\"}\n");
                let _ = writer.flush();
                return Ok(());
            }
            RawLine::Oversized { len } => {
                let limit = opts.max_request_bytes;
                let msg = format!("request of {len} bytes exceeds the {limit}-byte limit");
                reject(svc, transport_error("oversized", msg), &mut out);
            }
            RawLine::Line => match std::str::from_utf8(&buf) {
                Err(e) => {
                    let msg = format!("request is not valid UTF-8: {e}");
                    reject(svc, transport_error("encoding", msg), &mut out);
                }
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let t0 = Instant::now();
                    svc.set_deadline(deadline);
                    handle_line(svc, line, &mut out);
                    svc.set_deadline(None);
                    if let Some(limit) = opts.slow_ms {
                        let ms = t0.elapsed().as_millis() as u64;
                        if ms >= limit {
                            let shared = svc.shared();
                            shared.metrics().slow_requests.inc();
                            shared.tracer().event(
                                "slow-request",
                                svc.trace_ctx(),
                                &[("ms", Val::U(ms)), ("bytes", Val::U(line.len() as u64))],
                            );
                        }
                    }
                }
            },
        }
        // One write per response: a `writeln!` straight to a socket
        // splits into tiny writes, and Nagle + delayed ACK turns each
        // round trip into a ~40 ms stall.
        out.push('\n');
        let written = writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush());
        // An idle session keeps at most one request cap's worth of
        // response buffer: a larger response's buffer goes back now.
        if out.capacity() > opts.max_request_bytes {
            out = String::new();
        }
        if let Err(e) = written {
            if is_timeout(e.kind()) {
                // The peer stopped reading: their loss, counted and
                // closed — never a pinned session thread.
                svc.shared().metrics().deadline_exceeded.inc();
                return Ok(());
            }
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineSel;
    use crate::service::ServiceConfig;
    use freezeml_core::Options;
    use freezeml_obs::Cmd;
    use std::io::Cursor;

    fn uf_service(workers: usize) -> Service {
        Service::new(ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers,
        })
    }

    fn run_bytes(svc: &mut Service, script: &[u8], opts: &ServeOptions) -> Vec<Json> {
        let mut out = Vec::new();
        serve_with(svc, Cursor::new(script), &mut out, opts).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is JSON"))
            .collect()
    }

    #[test]
    fn serves_a_scripted_session_over_buffers() {
        let script = concat!(
            r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\n"}"##,
            "\n",
            "\n", // blank lines are skipped
            r#"{"cmd":"type-of","doc":"m","name":"f"}"#,
            "\n",
            "garbage",
            "\n",
            r#"{"cmd":"close","doc":"m"}"#,
            "\n",
        );
        let mut svc = uf_service(1);
        let lines = run_bytes(&mut svc, script.as_bytes(), &ServeOptions::default());
        assert_eq!(lines.len(), 4, "one response per non-blank request");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            lines[1].get("result").and_then(Json::as_str),
            Some("forall a. a -> a")
        );
        assert_eq!(lines[2].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[3].get("closed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_non_utf8_line_is_rejected_without_killing_the_session() {
        // Regression: `BufRead::lines` returns an InvalidData error on
        // the 0xFF byte, which `line?` propagated — one bad client line
        // terminated the whole session. Now the line is answered with a
        // structured error and the session keeps serving.
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(br#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
        script.push(b'\n');
        script.extend_from_slice(b"\xFF\xFE garbage bytes \xFF");
        script.push(b'\n');
        script.extend_from_slice(br#"{"cmd":"type-of","doc":"m","name":"x"}"#);
        script.push(b'\n');
        let mut svc = uf_service(1);
        let lines = run_bytes(&mut svc, &script, &ServeOptions::default());
        assert_eq!(lines.len(), 3, "the bad line got a response, not a hangup");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            lines[1].get("kind").and_then(Json::as_str),
            Some("encoding")
        );
        assert_eq!(lines[2].get("result").and_then(Json::as_str), Some("Int"));
        let invalid = svc.shared().metrics().cmd(Cmd::Invalid);
        assert_eq!((invalid.count.get(), invalid.errors.get()), (1, 1));
    }

    #[test]
    fn an_oversized_request_is_rejected_and_not_buffered() {
        // Regression: the reader buffered the whole line before looking
        // at it, so a client streaming bytes without a newline grew
        // memory without bound. The cap drains instead of buffering.
        let opts = ServeOptions {
            max_request_bytes: 64,
            ..ServeOptions::default()
        };
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(br#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
        script.push(b'\n');
        script.extend_from_slice(&vec![b'a'; 10_000]);
        script.push(b'\n');
        script.extend_from_slice(br#"{"cmd":"type-of","doc":"m","name":"x"}"#);
        script.push(b'\n');
        let mut svc = uf_service(1);
        let lines = run_bytes(&mut svc, &script, &opts);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            lines[1].get("kind").and_then(Json::as_str),
            Some("oversized")
        );
        assert!(lines[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("10000 bytes"));
        assert_eq!(lines[2].get("result").and_then(Json::as_str), Some("Int"));
        let invalid = svc.shared().metrics().cmd(Cmd::Invalid);
        assert_eq!((invalid.count.get(), invalid.errors.get()), (1, 1));
    }

    #[test]
    fn an_unterminated_final_line_and_oversized_eof_are_served() {
        let opts = ServeOptions {
            max_request_bytes: 16,
            ..ServeOptions::default()
        };
        // No trailing newline on either request; the second is over cap.
        let mut svc = uf_service(1);
        let lines = run_bytes(
            &mut svc,
            br#"{"cmd":"check","doc":"q"}"#,
            &ServeOptions::default(),
        );
        assert_eq!(lines.len(), 1, "final unterminated line still answered");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)), "unknown doc");
        let lines = run_bytes(&mut svc, &vec![b'z'; 500], &opts);
        assert_eq!(
            lines[0].get("kind").and_then(Json::as_str),
            Some("oversized")
        );
    }

    #[test]
    fn crlf_lines_are_accepted() {
        let script = b"{\"cmd\":\"open\",\"doc\":\"m\",\"text\":\"let x = 1;;\"}\r\n";
        let mut svc = uf_service(1);
        let lines = run_bytes(&mut svc, script, &ServeOptions::default());
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
    }

    /// A reader that serves its script, then stalls forever: every
    /// further read reports `WouldBlock`, exactly like a socket with an
    /// armed read timeout whose peer went quiet.
    struct StallAfter {
        data: Cursor<Vec<u8>>,
    }

    impl io::Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match io::Read::read(&mut self.data, buf)? {
                0 => Err(io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    impl BufRead for StallAfter {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let chunk = self.data.fill_buf()?;
            if chunk.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            Ok(chunk)
        }

        fn consume(&mut self, n: usize) {
            self.data.consume(n);
        }
    }

    #[test]
    fn a_stalled_client_gets_a_flat_deadline_error_and_a_clean_close() {
        let opts = ServeOptions {
            request_timeout_ms: Some(1_000),
            ..ServeOptions::default()
        };
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(br#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
        script.push(b'\n');
        let mut svc = uf_service(1);
        let mut out = Vec::new();
        serve_with(
            &mut svc,
            StallAfter {
                data: Cursor::new(script),
            },
            &mut out,
            &opts,
        )
        .unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "the open's answer, then the deadline");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        // The deadline answer is the flat two-field shape, nothing else.
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            lines[1].get("error").and_then(Json::as_str),
            Some("deadline")
        );
        assert_eq!(lines[1].get("kind"), None, "flat shape, no transport kind");
        assert_eq!(svc.shared().metrics().deadline_exceeded.get(), 1);
    }

    /// A slowloris: one byte of a never-terminated line per read. The
    /// kernel timeout never fires (every read makes "progress"), so
    /// only the wall-clock deadline in the read loop can catch it.
    struct Drip {
        byte: [u8; 1],
    }

    impl io::Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(2));
            buf[0] = self.byte[0];
            Ok(1)
        }
    }

    impl BufRead for Drip {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            std::thread::sleep(Duration::from_millis(2));
            Ok(&self.byte)
        }

        fn consume(&mut self, _n: usize) {}
    }

    #[test]
    fn a_byte_at_a_time_slowloris_is_timed_out_by_the_wall_clock() {
        let opts = ServeOptions {
            request_timeout_ms: Some(60),
            ..ServeOptions::default()
        };
        let mut svc = uf_service(1);
        let mut out = Vec::new();
        let t0 = Instant::now();
        serve_with(&mut svc, Drip { byte: [b'a'] }, &mut out, &opts).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the drip was cut off: {:?}",
            t0.elapsed()
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "{\"ok\":false,\"error\":\"deadline\"}\n");
        assert_eq!(svc.shared().metrics().deadline_exceeded.get(), 1);
    }

    #[test]
    fn a_draining_hub_closes_the_session_at_the_request_boundary() {
        let mut svc = uf_service(1);
        svc.shared().request_drain();
        let script = br#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#;
        let lines = run_bytes(&mut svc, script, &ServeOptions::default());
        assert!(lines.is_empty(), "drained before reading: clean close");
    }
}
