//! The span/event tracing layer: JSONL records with hierarchical ids,
//! near-free when disabled.
//!
//! Every emit site goes through the one [`Tracer`] handle and guards its
//! work on [`Tracer::enabled`]: with tracing off a site costs one branch
//! — no clock read, no record built.
//! [`Tracer::span`] is that guard for a plain timed phase; a site whose
//! record carries more (the executor's per-wave and per-binding spans)
//! reads the clock only when `enabled()` and hands the record to
//! [`Tracer::emit`]. The `service/trace-overhead` bench row holds the
//! *enabled* path to ≤5% over the load mix.
//!
//! ## Record schema
//!
//! One JSON object per line, fields in fixed order:
//!
//! ```json
//! {"ts_us":…,"ev":"span|event|warn","name":"infer","conn":1,"sess":2,
//!  "req":7,"wave":0,"binding":3,"dur_us":412,"extra_key":"…"}
//! ```
//!
//! * `ts_us` — microseconds since the Unix epoch at emit time;
//! * `ev` — `span` (a timed phase; `dur_us` present), `event` (a point
//!   occurrence), or `warn` (an abnormal condition, e.g. a snapshot
//!   falling back cold);
//! * `name` — the phase or event name (`parse`, `dep-graph`, `wave`,
//!   `infer`, `elaborate`, `cache-probe`, `snapshot-save`,
//!   `snapshot-load`, `checkpoint`, `connection`, `slow-request`, …);
//! * `conn`/`sess`/`req` — the hierarchical ids: socket connection →
//!   session → request (0 = not applicable, e.g. the checkpoint
//!   thread);
//! * `wave`/`binding` — deeper levels, present only inside the
//!   executor;
//! * trailing extras — small per-record payloads (byte counts, reasons).
//!
//! Spans are emitted *at completion* (one record carrying `dur_us`),
//! not as begin/end pairs: the consumer never has to pair lines, and a
//! crashed phase simply has no record — the enclosing request span
//! still bounds it.

use crate::lockrank;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, PoisonError};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A small trace payload value.
#[derive(Clone, Copy, Debug)]
pub enum Val<'a> {
    /// An unsigned integer.
    U(u64),
    /// A string (JSON-escaped on write).
    S(&'a str),
}

/// One trace record, borrowed — built on the stack at the emit site.
#[derive(Clone, Copy, Debug)]
pub struct Record<'a> {
    /// `span`, `event`, or `warn`.
    pub ev: &'a str,
    /// Phase or event name.
    pub name: &'a str,
    /// Connection id (0 = none).
    pub conn: u64,
    /// Session id (0 = none).
    pub sess: u64,
    /// Request id within the session (0 = none).
    pub req: u64,
    /// Wave index within the request, if inside the executor.
    pub wave: Option<u64>,
    /// Binding index within the wave, if inside the executor.
    pub binding: Option<u64>,
    /// Span duration in microseconds (`ev == "span"` only).
    pub dur_us: Option<u64>,
    /// Trailing extras, emitted in order.
    pub extra: &'a [(&'a str, Val<'a>)],
}

impl<'a> Record<'a> {
    /// A record with just an event kind and name; ids default to 0.
    pub fn new(ev: &'a str, name: &'a str) -> Record<'a> {
        Record {
            ev,
            name,
            conn: 0,
            sess: 0,
            req: 0,
            wave: None,
            binding: None,
            dur_us: None,
            extra: &[],
        }
    }

    /// With the hierarchical ids from a [`TraceCtx`].
    pub fn ctx(mut self, ctx: TraceCtx) -> Record<'a> {
        self.conn = ctx.conn;
        self.sess = ctx.sess;
        self.req = ctx.req;
        self
    }

    /// With a wave index.
    pub fn wave(mut self, w: u64) -> Record<'a> {
        self.wave = Some(w);
        self
    }

    /// With a binding index.
    pub fn binding(mut self, b: u64) -> Record<'a> {
        self.binding = Some(b);
        self
    }

    /// With a duration (marks the record as a completed span).
    pub fn dur(mut self, d: std::time::Duration) -> Record<'a> {
        self.dur_us = Some(d.as_micros().min(u64::MAX as u128) as u64);
        self
    }

    /// With trailing extras.
    pub fn extras(mut self, extra: &'a [(&'a str, Val<'a>)]) -> Record<'a> {
        self.extra = extra;
        self
    }
}

/// The hierarchical ids a request-scoped emit site carries.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCtx {
    /// Socket connection id (0 for stdio or none).
    pub conn: u64,
    /// Session id.
    pub sess: u64,
    /// Request id within the session.
    pub req: u64,
}

/// Minimal JSON string escaping (mirrors the protocol's writer: quote,
/// backslash, and control characters).
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The JSONL file sink: one lock-guarded buffered writer. Tracing is
/// opt-in and the lock is held only to append one preformatted line,
/// so contention stays far below the ≤5% overhead budget (see the
/// `service/trace-overhead` bench row).
struct JsonlSink {
    out: lockrank::Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Open (create or truncate) a trace file.
    fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: lockrank::Mutex::new(lockrank::TRACE_SINK, "obs.trace.sink", BufWriter::new(file)),
        })
    }

    /// Flush buffered records to disk.
    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }

    /// Write one record as a JSONL line.
    fn emit(&self, r: &Record<'_>) {
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(160);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"ev\":\"");
        escape_into(&mut line, r.ev);
        line.push_str("\",\"name\":\"");
        escape_into(&mut line, r.name);
        line.push_str("\",\"conn\":");
        line.push_str(&r.conn.to_string());
        line.push_str(",\"sess\":");
        line.push_str(&r.sess.to_string());
        line.push_str(",\"req\":");
        line.push_str(&r.req.to_string());
        if let Some(w) = r.wave {
            line.push_str(",\"wave\":");
            line.push_str(&w.to_string());
        }
        if let Some(b) = r.binding {
            line.push_str(",\"binding\":");
            line.push_str(&b.to_string());
        }
        if let Some(d) = r.dur_us {
            line.push_str(",\"dur_us\":");
            line.push_str(&d.to_string());
        }
        for (k, v) in r.extra {
            line.push_str(",\"");
            escape_into(&mut line, k);
            line.push_str("\":");
            match v {
                Val::U(n) => line.push_str(&n.to_string()),
                Val::S(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str("}\n");
        let mut g = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = g.write_all(line.as_bytes());
        // Flush per record: trace consumers (tests, the CI schema
        // check) read the file while the server lives, and record
        // volume is low enough that buffering buys little.
        let _ = g.flush();
    }
}

/// The handle every emit site traces through: off (the common case) or
/// a shared JSONL file sink. Cloning is a pointer copy. A site guards
/// each clock read and record it would build on [`Tracer::enabled`].
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<JsonlSink>>,
}

/// The environment variable [`Tracer::from_env`] reads: a path to
/// append JSONL trace records to (used by tests and `serve` without a
/// `--trace` flag).
pub const TRACE_ENV: &str = "FREEZEML_TRACE";

impl Tracer {
    /// The disabled tracer.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer writing JSONL to `path`.
    pub fn to_file(path: &Path) -> std::io::Result<Tracer> {
        Ok(Tracer {
            sink: Some(Arc::new(JsonlSink::create(path)?)),
        })
    }

    /// A tracer from the `FREEZEML_TRACE` environment variable: set →
    /// trace to that path (off if the file cannot be created), unset →
    /// off.
    pub fn from_env() -> Tracer {
        match std::env::var_os(TRACE_ENV) {
            Some(path) if !path.is_empty() => {
                Tracer::to_file(Path::new(&path)).unwrap_or_else(|_| Tracer::off())
            }
            _ => Tracer::off(),
        }
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit a record (no-op when off).
    pub fn emit(&self, r: &Record<'_>) {
        if let Some(s) = &self.sink {
            s.emit(r);
        }
    }

    /// Emit a point event.
    pub fn event(&self, name: &str, ctx: TraceCtx, extra: &[(&str, Val<'_>)]) {
        if self.sink.is_some() {
            self.emit(&Record::new("event", name).ctx(ctx).extras(extra));
        }
    }

    /// Emit a warning event.
    pub fn warn(&self, name: &str, ctx: TraceCtx, extra: &[(&str, Val<'_>)]) {
        if self.sink.is_some() {
            self.emit(&Record::new("warn", name).ctx(ctx).extras(extra));
        }
    }

    /// Start a timed span; the returned guard emits one `span` record
    /// (with `dur_us`) when dropped. Costs one clock read when on,
    /// nothing when off.
    pub fn span<'a>(&'a self, name: &'static str, ctx: TraceCtx) -> Span<'a> {
        Span {
            tracer: self,
            name,
            ctx,
            start: self.sink.as_ref().map(|_| Instant::now()),
        }
    }

    /// Flush the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(s) = &self.sink {
            s.flush();
        }
    }
}

/// A live span from [`Tracer::span`]; emits on drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    ctx: TraceCtx,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.tracer.emit(
                &Record::new("span", self.name)
                    .ctx(self.ctx)
                    .dur(t0.elapsed()),
            );
        }
    }
}

static NEXT_CONN: AtomicU64 = AtomicU64::new(1);
static NEXT_SESS: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique connection id (ids start at 1; 0 means
/// "no connection").
pub fn next_conn_id() -> u64 {
    // ord: Relaxed — unique-id allocator; only RMW atomicity matters.
    NEXT_CONN.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a process-unique session id (ids start at 1; 0 means
/// "no session").
pub fn next_session_id() -> u64 {
    // ord: Relaxed — unique-id allocator; only RMW atomicity matters.
    NEXT_SESS.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("freezeml-obs-{}-{name}.jsonl", std::process::id()))
    }

    fn read_lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .expect("trace file readable")
            .lines()
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn jsonl_records_have_the_fixed_schema() {
        let path = tmp("schema");
        let tracer = Tracer::to_file(&path).expect("create trace file");
        tracer.event(
            "connection",
            TraceCtx {
                conn: 3,
                sess: 0,
                req: 0,
            },
            &[("peer", Val::S("127.0.0.1:9"))],
        );
        {
            let _sp = tracer.span(
                "infer",
                TraceCtx {
                    conn: 3,
                    sess: 1,
                    req: 2,
                },
            );
        }
        tracer.warn(
            "cold-fallback",
            TraceCtx::default(),
            &[("reason", Val::S("checksum"))],
        );
        tracer.flush();
        let lines = read_lines(&path);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].contains("\"ev\":\"event\""));
        assert!(lines[0].contains("\"name\":\"connection\""));
        assert!(lines[0].contains("\"conn\":3"));
        assert!(lines[0].contains("\"peer\":\"127.0.0.1:9\""));
        assert!(lines[1].contains("\"ev\":\"span\""));
        assert!(lines[1].contains("\"dur_us\":"));
        assert!(lines[1].contains("\"sess\":1"));
        assert!(lines[1].contains("\"req\":2"));
        assert!(lines[2].contains("\"ev\":\"warn\""));
        assert!(lines[2].contains("\"reason\":\"checksum\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strings_are_json_escaped() {
        let path = tmp("escape");
        let tracer = Tracer::to_file(&path).expect("create trace file");
        tracer.event(
            "note",
            TraceCtx::default(),
            &[("detail", Val::S("a\"b\\c\nd\u{1}"))],
        );
        let lines = read_lines(&path);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains(r#""detail":"a\"b\\c\nd\u0001""#),
            "{}",
            lines[0]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn env_toggle_constructs_a_live_tracer() {
        // The one test that touches the process environment; other
        // suites pass a Tracer explicitly to avoid env races.
        let path = tmp("env");
        std::env::set_var(TRACE_ENV, &path);
        let tracer = Tracer::from_env();
        std::env::remove_var(TRACE_ENV);
        assert!(tracer.enabled());
        tracer.event("probe", TraceCtx::default(), &[]);
        assert_eq!(read_lines(&path).len(), 1);
        drop(tracer);
        let _ = std::fs::remove_file(&path);
        assert!(!Tracer::from_env().enabled());
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_conn_id();
        let b = next_conn_id();
        assert!(a >= 1 && b > a);
        let s1 = next_session_id();
        let s2 = next_session_id();
        assert!(s1 >= 1 && s2 > s1);
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_span_reads_no_clock() {
        let tracer = Tracer::off();
        assert!(!tracer.enabled());
        tracer.event("x", TraceCtx::default(), &[]);
        let sp = tracer.span("y", TraceCtx::default());
        assert!(sp.start.is_none());
    }
}
