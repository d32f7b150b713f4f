//! The line-oriented JSON protocol: one request per line on stdin, one
//! response per line on stdout.
//!
//! The build environment is offline, so this module carries its own
//! small JSON value type, parser, and serialiser (strings with full
//! escape handling including `\uXXXX` surrogate pairs; numbers as
//! `f64`). Requests:
//!
//! ```text
//! {"cmd":"open","doc":"main","text":"let x = 1;;"}
//! {"cmd":"edit","doc":"main","text":"let x = 2;;"}
//! {"cmd":"check","doc":"main"}
//! {"cmd":"type-of","doc":"main","name":"x"}
//! {"cmd":"elaborate","doc":"main","name":"x"}
//! {"cmd":"close","doc":"main"}
//! {"cmd":"stats"}
//! {"cmd":"metrics"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `stats` answers one JSON object snapshotting the hub's metrics
//! registry (per-command latency histograms, cache hit rates, report
//! counters, persistence activity); `metrics` answers the same data as
//! Prometheus text exposition in `{"ok":true,"metrics":"…"}`. Both are
//! introspection commands and take **no** fields beyond `cmd` — any
//! extra field is answered with a structured error, line for line, so a
//! typo'd query can never be mistaken for a valid one. `shutdown` (the
//! admin command, equally strict) asks the hub to **drain**: the socket
//! server stops accepting, in-flight requests finish, a final
//! checkpoint is taken, and the process exits 0 — the same path
//! SIGTERM takes.
//!
//! A request whose check ran out of its `--request-timeout-ms` budget
//! answers the flat structured error `{"ok":false,"error":"deadline"}`
//! (distinguishable by shape from data errors, which carry an object
//! with a message and source position).
//!
//! `elaborate` serves the binding's System F image (canonical
//! rendering) with its type; the image is verified against the
//! `freezeml_systemf` typing oracle before it is served, so a success
//! response always carries `"checked":true`.
//!
//! `open`/`edit`/`check` respond with the full per-binding report plus
//! the incremental counters (`rechecked`, `reused`, `blocked`,
//! `waves`); errors
//! respond `{"ok":false,"error":{…}}` with `line`/`col` when the failure
//! has a source position.
//!
//! Every answer is appended to the caller's buffer ([`handle_line`]).
//! Reports, the one answer that grows with the document, are written
//! straight from the stored verdicts; the small answers are built as a
//! [`Json`] value and encoded with [`Json::write_to`].
//!
//! A document keeps the bindings array of its last report answer: one
//! string of per-binding fragments, with each fragment's end and
//! position. After passes in which every binding kept its index, the
//! next answer re-renders only the fragments of bindings that got a
//! fresh verdict. When each comes out byte for byte the same and no
//! binding moved line or column, as after a same-type edit, the kept
//! body is the answer; a `check` that changed nothing sends it without
//! looking at the text. Otherwise (a fragment that changed, a new
//! document, a structural edit, a pass after a deadline) the array is
//! rendered in full, as [`write_report`] does, and kept in place of the
//! old one. A body is kept only up to the default request cap, 4 MiB.

use crate::exec::{BindingReport, CheckReport};
use crate::scan::{find_string_end, find_string_stop};
use crate::server::DEFAULT_MAX_REQUEST_BYTES;
use crate::service::{Service, ServiceError};
use crate::stats;
use freezeml_core::LineIndex;
use freezeml_obs::Cmd;
use std::fmt::{self, Write as _};
use std::time::Instant;

// ------------------------------------------------------------------ JSON

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parse one JSON value (the whole input must be consumed).
    ///
    /// # Errors
    ///
    /// A readable message with a byte offset.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = JsonParser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Append this value's serialisation to `out`. Unescaped runs and
    /// punctuation go in with one `push_str` each, so the cost is linear
    /// in the output. This is the one encoder: `Display` wraps it.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/∞; the parser refuses to produce them, so
            // this arm only guards hand-built values.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < INT_BOUND => write_int(out, *n as i64),
            Json::Num(n) => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// An integral number of smaller magnitude is written as an integer
/// (every such `f64` is exact); the rest go through `f64`'s `Display`.
const INT_BOUND: f64 = 9e15;

/// Append the decimal digits of `n`. Reports carry two integers per
/// binding, and this skips the formatting machinery `write!` runs.
fn write_int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    // lint: allow(unwrap) — every byte of `digits[i..]` is an ASCII digit
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `s` as a JSON string literal.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    write_string_body(out, s);
    out.push('"');
}

/// Append the inside of `s`'s JSON string literal, quotes excluded.
/// Every byte that needs an escape is ASCII, so the unescaped runs
/// between them are whole characters. The runs are found a word at a
/// time, so a string that needs no escape is one scan and one copy.
fn write_string_body(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    while let Some(k) = find_string_stop(&s.as_bytes()[run..]) {
        let i = run + k;
        let b = s.as_bytes()[i];
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A JSON parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable message.
    pub msg: String,
    /// Byte offset.
    pub pos: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. The deepest legal request is
/// a batch array of objects (depth 2); the bound keeps the recursive
/// parser's stack use small whatever a client sends.
const MAX_DEPTH: usize = 64;

/// A recursive-descent parser over one already-validated `&str`: the
/// decoder copies out slices of it and never re-checks UTF-8.
struct JsonParser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn fail(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            pos: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(what))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail("invalid literal"))
        }
    }

    /// One value inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.fail("arrays and objects nest deeper than 64"))
            }
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.fail("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected `:`")?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((k, v));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.fail("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        match self.src[start..self.pos].parse::<f64>() {
            // Rust parses over-range literals (`1e999`) to ±∞, which the
            // serialiser could never round-trip — reject them instead.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.fail("invalid number")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let rest = &self.bytes[self.pos..];
        let run = find_string_stop(rest).unwrap_or(rest.len());
        if rest.get(run) == Some(&b'"') {
            // No escape: the string is its first run, copied once.
            let s = self.src[self.pos..self.pos + run].to_owned();
            self.pos += run + 1;
            return Ok(s);
        }
        // Every escape spells more bytes than it decodes to, so the raw
        // bytes up to the closing quote bound the decoded string, and
        // size its one allocation.
        let body = &self.src[self.pos..];
        let mut out = String::with_capacity(find_string_end(body).unwrap_or(body.len()));
        loop {
            // Copy the run up to the next `"`, `\` or control byte as one
            // slice. Those stop bytes are ASCII, so the run ends on a
            // character boundary.
            let rest = &self.bytes[self.pos..];
            let run = find_string_stop(rest).unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.fail("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.fail("bad surrogate"))?
                                } else {
                                    return Err(self.fail("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.fail("bad escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.fail("raw control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(&b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(&b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(&b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.fail("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

// -------------------------------------------------------------- requests

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open (or replace) a document.
    Open {
        /// Document id.
        doc: String,
        /// Full program text.
        text: String,
    },
    /// Replace an open document's text.
    Edit {
        /// Document id.
        doc: String,
        /// Full program text.
        text: String,
    },
    /// Recheck a document.
    Check {
        /// Document id.
        doc: String,
    },
    /// Look up the visible binding of a name.
    TypeOf {
        /// Document id.
        doc: String,
        /// Binding name.
        name: String,
    },
    /// Elaborate the visible binding of a name into System F (the image
    /// is verified against the `freezeml_systemf` typing oracle before
    /// it is served — see [`crate::service::Service::elaborate`]).
    Elaborate {
        /// Document id.
        doc: String,
        /// Binding name.
        name: String,
    },
    /// Close a document.
    Close {
        /// Document id.
        doc: String,
    },
    /// Snapshot the hub's metrics registry as one JSON object.
    Stats,
    /// Render the hub's metrics as Prometheus text exposition.
    Metrics,
    /// Ask the hub to drain: stop accepting connections, finish
    /// in-flight requests, checkpoint, exit cleanly.
    Shutdown,
}

impl Request {
    /// Parse a request line.
    ///
    /// # Errors
    ///
    /// A readable message (bad JSON, missing field, unknown command).
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        Request::from_value(v)
    }

    /// Interpret one parsed JSON value as a request, copying its
    /// strings (the server's own decode moves them out of the value
    /// instead).
    ///
    /// # Errors
    ///
    /// A readable message (missing field, unknown command).
    pub fn from_json(v: &Json) -> Result<Request, String> {
        Request::from_value(v.clone())
    }

    /// Interpret one parsed JSON value as a request — the element-wise
    /// form `parse` and batched lines ([`handle_line`]) share. The
    /// request takes its strings out of the value, uncopied.
    ///
    /// # Errors
    ///
    /// A readable message (missing field, unknown command).
    pub(crate) fn from_value(v: Json) -> Result<Request, String> {
        let mut fields = match v {
            Json::Obj(fields) => fields,
            _ => Vec::new(),
        };
        // The first field of the name, as `Json::get` finds it.
        let mut take = |name: &str| match fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, Json::Str(s))) => Some(std::mem::take(s)),
            _ => None,
        };
        let cmd = take("cmd").ok_or("missing string field `cmd`")?;
        let mut field = |name: &str| -> Result<String, String> {
            take(name).ok_or_else(|| format!("`{cmd}` needs a string field `{name}`"))
        };
        match cmd.as_str() {
            "open" => Ok(Request::Open {
                doc: field("doc")?,
                text: field("text")?,
            }),
            "edit" => Ok(Request::Edit {
                doc: field("doc")?,
                text: field("text")?,
            }),
            "check" => Ok(Request::Check { doc: field("doc")? }),
            "type-of" => Ok(Request::TypeOf {
                doc: field("doc")?,
                name: field("name")?,
            }),
            "elaborate" => Ok(Request::Elaborate {
                doc: field("doc")?,
                name: field("name")?,
            }),
            "close" => Ok(Request::Close { doc: field("doc")? }),
            // Introspection and admin commands are strict: the
            // forgiving extra-fields-ignored stance of the data
            // commands would let a typo'd query
            // (`{"cmd":"stats","doc":…}`) silently answer something
            // the caller did not ask about.
            "stats" | "metrics" | "shutdown" => {
                if let Some((k, _)) = fields.iter().find(|(k, _)| k != "cmd") {
                    return Err(format!("`{cmd}` takes no field `{k}` (only `cmd`)"));
                }
                Ok(match cmd.as_str() {
                    "stats" => Request::Stats,
                    "metrics" => Request::Metrics,
                    _ => Request::Shutdown,
                })
            }
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Serialise (for clients and the load generator).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Open { doc, text } => Json::obj([
                ("cmd", Json::Str("open".into())),
                ("doc", Json::Str(doc.clone())),
                ("text", Json::Str(text.clone())),
            ]),
            Request::Edit { doc, text } => Json::obj([
                ("cmd", Json::Str("edit".into())),
                ("doc", Json::Str(doc.clone())),
                ("text", Json::Str(text.clone())),
            ]),
            Request::Check { doc } => Json::obj([
                ("cmd", Json::Str("check".into())),
                ("doc", Json::Str(doc.clone())),
            ]),
            Request::TypeOf { doc, name } => Json::obj([
                ("cmd", Json::Str("type-of".into())),
                ("doc", Json::Str(doc.clone())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Elaborate { doc, name } => Json::obj([
                ("cmd", Json::Str("elaborate".into())),
                ("doc", Json::Str(doc.clone())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Close { doc } => Json::obj([
                ("cmd", Json::Str("close".into())),
                ("doc", Json::Str(doc.clone())),
            ]),
            Request::Stats => Json::obj([("cmd", Json::Str("stats".into()))]),
            Request::Metrics => Json::obj([("cmd", Json::Str("metrics".into()))]),
            Request::Shutdown => Json::obj([("cmd", Json::Str("shutdown".into()))]),
        }
    }
}

// ------------------------------------------------------------- responses

/// The response to a successful `open`/`edit`/`check`, as a `Json`
/// tree. The server no longer calls this: it writes the same bytes with
/// [`write_report`], which is tested against this reference byte for
/// byte. Positions come from one [`LineIndex`] of `src`.
pub fn report_json(doc: &str, report: &CheckReport, src: &str) -> Json {
    let lines = LineIndex::new(src);
    let bindings: Vec<Json> = report
        .bindings
        .iter()
        .map(|b| {
            let (line, col) = lines.line_col(b.span.start);
            // Every status adds at most three fields to these three.
            let mut fields = Vec::with_capacity(6);
            fields.extend([
                ("name".to_string(), Json::Str(b.name.to_string())),
                ("line".to_string(), Json::Num(line as f64)),
                ("col".to_string(), Json::Num(col as f64)),
            ]);
            use crate::db::Outcome::*;
            match &b.outcome {
                Typed {
                    scheme, defaulted, ..
                } => {
                    fields.push(("status".into(), Json::Str("ok".into())));
                    fields.push(("type".into(), Json::Str(scheme.to_string())));
                    if !defaulted.is_empty() {
                        fields.push((
                            "defaulted".into(),
                            Json::Arr(defaulted.iter().cloned().map(Json::Str).collect()),
                        ));
                    }
                }
                Error { class, message } => {
                    fields.push(("status".into(), Json::Str("error".into())));
                    fields.push(("class".into(), Json::Str(class.clone())));
                    fields.push(("message".into(), Json::Str(message.clone())));
                }
                Blocked { on } => {
                    fields.push(("status".into(), Json::Str("blocked".into())));
                    fields.push(("on".into(), Json::Str(on.clone())));
                }
                Disagreement { core, uf } => {
                    fields.push(("status".into(), Json::Str("disagreement".into())));
                    fields.push(("core".into(), Json::Str(core.clone())));
                    fields.push(("uf".into(), Json::Str(uf.clone())));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("doc", Json::Str(doc.to_string())),
        ("bindings", Json::Arr(bindings)),
        ("rechecked", Json::Num(report.rechecked as f64)),
        ("reused", Json::Num(report.reused as f64)),
        ("blocked", Json::Num(report.blocked as f64)),
        ("waves", Json::Num(report.waves as f64)),
    ])
}

/// Append a count the way `Json::Num(n as f64)` encodes it, without the
/// `f64::fract` test: a count always passes it, and on the baseline
/// x86-64 target it is a library call.
fn write_count(out: &mut String, n: usize) {
    let x = n as f64;
    if x < INT_BOUND {
        write_int(out, n as i64);
    } else {
        Json::Num(x).write_to(out);
    }
}

/// Append a report answer's head, up to its bindings array's body.
fn write_head(out: &mut String, doc: &str) {
    out.push_str("{\"ok\":true,\"doc\":");
    write_escaped(out, doc);
    out.push_str(",\"bindings\":[");
}

/// Append a report answer's tail, from the end of its bindings array's
/// body: the pass's counters.
fn write_tail(out: &mut String, report: &CheckReport) {
    out.push_str("],\"rechecked\":");
    write_count(out, report.rechecked);
    out.push_str(",\"reused\":");
    write_count(out, report.reused);
    out.push_str(",\"blocked\":");
    write_count(out, report.blocked);
    out.push_str(",\"waves\":");
    write_count(out, report.waves);
    out.push('}');
}

/// Append one binding's object, locating it at `(line, col)`. Each
/// string's quotes are pushed with the punctuation around it.
fn write_binding(out: &mut String, b: &BindingReport, (line, col): (usize, usize)) {
    out.push_str("{\"name\":\"");
    write_string_body(out, b.name);
    out.push_str("\",\"line\":");
    write_count(out, line);
    out.push_str(",\"col\":");
    write_count(out, col);
    use crate::db::Outcome::*;
    match &b.outcome {
        Typed {
            scheme, defaulted, ..
        } => {
            out.push_str(",\"status\":\"ok\",\"type\":\"");
            write_string_body(out, scheme);
            if defaulted.is_empty() {
                out.push_str("\"}");
                return;
            }
            out.push_str("\",\"defaulted\":[");
            for (j, name) in defaulted.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(out, name);
            }
            out.push_str("]}");
        }
        Error { class, message } => {
            out.push_str(",\"status\":\"error\",\"class\":\"");
            write_string_body(out, class);
            out.push_str("\",\"message\":\"");
            write_string_body(out, message);
            out.push_str("\"}");
        }
        Blocked { on } => {
            out.push_str(",\"status\":\"blocked\",\"on\":\"");
            write_string_body(out, on);
            out.push_str("\"}");
        }
        Disagreement { core, uf } => {
            out.push_str(",\"status\":\"disagreement\",\"core\":\"");
            write_string_body(out, core);
            out.push_str("\",\"uf\":\"");
            write_string_body(out, uf);
            out.push_str("\"}");
        }
    }
}

/// Append the body of `report`'s bindings array, locating the bindings
/// in `src` in one walk along its [`LineIndex`], and tell `note` where
/// each fragment ends in `out` and where it locates its binding.
fn write_bindings(
    out: &mut String,
    report: &CheckReport,
    src: &str,
    mut note: impl FnMut(usize, (usize, usize)),
) {
    let lines = LineIndex::new(src);
    let at = lines.line_cols(report.bindings.iter().map(|b| b.span.start));
    for (i, (b, at)) in report.bindings.iter().zip(at).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_binding(out, b, at);
        note(out.len(), at);
    }
}

/// Append the response to a successful `open`/`edit`/`check` to `out`:
/// exactly the bytes of [`report_json`]`(doc, report, src).write_to(out)`,
/// written straight from the report. One [`LineIndex`] of `src` locates
/// the bindings; each then costs a few appends, and allocates nothing.
pub fn write_report(out: &mut String, doc: &str, report: &CheckReport, src: &str) {
    write_head(out, doc);
    write_bindings(out, report, src, |_, _| ());
    write_tail(out, report);
}

/// The largest bindings-array body a document keeps: the default request
/// cap, 4 MiB. A larger answer is rendered afresh each time instead of
/// staying resident. Unit tests use a small bound, to see a body left
/// out.
const MAX_KEPT_BODY: usize = if cfg!(test) {
    256
} else {
    DEFAULT_MAX_REQUEST_BYTES
};

/// The bindings array of a document's last report answer, kept with the
/// document so that an answer in which no binding's bytes changed is
/// copied out instead of rendered again (see the module docs).
pub(crate) struct Kept {
    /// The array's body: one fragment per binding, comma-separated.
    body: String,
    /// Where each binding's fragment ends in `body`.
    ends: Vec<usize>,
    /// The `(line, col)` each fragment locates its binding at.
    pos: Vec<(usize, usize)>,
    /// Bindings whose verdicts passes recomputed since the body was
    /// rendered.
    stale: Vec<usize>,
    /// Has the text changed since, so that bindings may have moved?
    moved: bool,
}

impl Kept {
    /// Note a pass that kept every binding's index: it recomputed the
    /// verdicts of `fresh`, over a new text when `moved`.
    pub(crate) fn note(&mut self, fresh: &[usize], moved: bool) {
        self.stale.extend_from_slice(fresh);
        if self.stale.len() > self.ends.len() {
            // Passes with no answer written in between: name each binding
            // once, so the list stays within the document's size.
            self.stale.sort_unstable();
            self.stale.dedup();
        }
        self.moved |= moved;
    }

    /// Is the body still the bindings array of `report` over `src`? It is
    /// when every binding sits where its fragment locates it and each
    /// stale binding's fragment renders to the same bytes.
    fn is_current(&mut self, report: &CheckReport, src: &str) -> bool {
        let Kept {
            body,
            ends,
            pos,
            stale,
            moved,
        } = self;
        if ends.len() != report.bindings.len() {
            return false;
        }
        if std::mem::take(moved) {
            let starts = report.bindings.iter().map(|b| b.span.start);
            if !LineIndex::new(src)
                .line_cols(starts)
                .eq(pos.iter().copied())
            {
                return false;
            }
        }
        let mut fragment = String::new();
        stale.drain(..).all(|i| {
            let start = if i == 0 { 0 } else { ends[i - 1] + 1 };
            fragment.clear();
            write_binding(&mut fragment, &report.bindings[i], pos[i]);
            fragment == body[start..ends[i]]
        })
    }
}

/// Append the response to a successful `open`/`edit`/`check` to `out`,
/// as [`write_report`] does: the document's kept bindings array while it
/// is current, and otherwise the array rendered in full, which is then
/// kept if its body is at most [`MAX_KEPT_BODY`] bytes.
pub(crate) fn write_kept_report(
    out: &mut String,
    doc: &str,
    report: &CheckReport,
    src: &str,
    kept: &mut Option<Kept>,
) {
    write_head(out, doc);
    let current = kept.as_mut().is_some_and(|k| k.is_current(report, src));
    match kept {
        Some(k) if current => out.push_str(&k.body),
        _ => {
            let start = out.len();
            let n = report.bindings.len();
            let (mut ends, mut pos) = (Vec::with_capacity(n), Vec::with_capacity(n));
            write_bindings(out, report, src, |end, at| {
                ends.push(end - start);
                pos.push(at);
            });
            *kept = (out.len() - start <= MAX_KEPT_BODY).then(|| Kept {
                body: out[start..].to_string(),
                ends,
                pos,
                stale: Vec::new(),
                moved: false,
            });
        }
    }
    write_tail(out, report);
}

/// An error response, with a source position when available. Deadline
/// exhaustion answers the flat shape `{"ok":false,"error":"deadline"}`
/// the resilience contract specifies — machine-matchable without
/// digging into an error object.
pub fn error_json(err: &ServiceError, src: Option<&str>) -> Json {
    if matches!(err, ServiceError::Deadline) {
        return Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::Str("deadline".into())),
        ]);
    }
    let mut fields = vec![("message".to_string(), Json::Str(err.to_string()))];
    if let (ServiceError::Parse(e), Some(src)) = (err, src) {
        let (line, col) = LineIndex::new(src).line_col(e.pos);
        fields.push(("line".into(), Json::Num(line as f64)));
        fields.push(("col".into(), Json::Num(col as f64)));
    }
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Obj(fields))])
}

/// Append the report a successful `open`/`edit`/`check` just stored,
/// written against the document's text from its kept answer: all are
/// borrowed from the service. Returns whether the answer is an error.
fn write_stored_report(svc: &mut Service, doc: &str, out: &mut String) -> bool {
    match svc.answer_parts(doc) {
        Some((report, src, kept)) => {
            write_kept_report(out, doc, report, src, kept);
            false
        }
        // A successful check always stores its report; this arm only
        // keeps the answer well formed.
        None => {
            error_json(&ServiceError::UnknownDoc(doc.to_string()), None).write_to(out);
            true
        }
    }
}

/// Handle one request against a service, appending the response to
/// `out`. Returns whether the response is an error (`"ok":false`).
/// Reports are written straight from the stored verdicts; the small
/// answers are built as a `Json` value first.
pub fn handle(svc: &mut Service, req: &Request, out: &mut String) -> bool {
    // `Err` carries an error answer, `Ok` any other.
    let answer = match req {
        Request::Open { doc, text } | Request::Edit { doc, text } => {
            let r = if matches!(req, Request::Open { .. }) {
                svc.open(doc, text)
            } else {
                svc.edit(doc, text)
            };
            match r {
                Ok(_) => return write_stored_report(svc, doc, out),
                Err(e) => Err(error_json(&e, Some(text))),
            }
        }
        Request::Check { doc } => match svc.check(doc) {
            Ok(_) => return write_stored_report(svc, doc, out),
            Err(e) => Err(error_json(&e, svc.text(doc))),
        },
        Request::TypeOf { doc, name } => match svc.type_of(doc, name) {
            Err(e) => Err(error_json(&e, None)),
            Ok(None) => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::Str(name.clone())),
                ("found", Json::Bool(false)),
            ])),
            Ok(Some(b)) => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::Str(name.clone())),
                ("found", Json::Bool(true)),
                ("result", Json::Str(b.outcome.display())),
            ])),
        },
        Request::Elaborate { doc, name } => match svc.elaborate(doc, name) {
            Err(e) => Err(error_json(&e, None)),
            Ok(None) => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::Str(name.clone())),
                ("found", Json::Bool(false)),
            ])),
            Ok(Some(info)) => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::Str(name.clone())),
                ("found", Json::Bool(true)),
                ("fterm", Json::Str(info.fterm)),
                ("type", Json::Str(info.ty)),
                // The image passed the System F typing oracle before
                // being served — always true in a success response.
                ("checked", Json::Bool(true)),
            ])),
        },
        Request::Close { doc } => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("closed", Json::Bool(svc.close(doc))),
        ])),
        Request::Stats => Ok(stats::stats_json(svc.shared())),
        Request::Metrics => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("metrics", Json::Str(stats::prometheus_text(svc.shared()))),
        ])),
        Request::Shutdown => {
            // Flip the hub into draining; the socket accept loop (and
            // the foreground `join`) observe the flag and wind down.
            // The acknowledgement still goes out on this connection —
            // draining finishes in-flight work, it does not cut lines.
            svc.shared().request_drain();
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ]))
        }
    };
    let (Ok(v) | Err(v)) = &answer;
    v.write_to(out);
    answer.is_err()
}

fn request_error(msg: String) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::obj([("message", Json::Str(msg))])),
    ])
}

fn handle_value(svc: &mut Service, v: Json, out: &mut String) {
    svc.begin_request();
    let t0 = Instant::now();
    let (cmd, is_error) = match Request::from_value(v) {
        Ok(req) => (stats::cmd_of(&req), handle(svc, &req, out)),
        Err(msg) => {
            request_error(msg).write_to(out);
            (Cmd::Invalid, true)
        }
    };
    svc.shared()
        .metrics()
        .record_request(cmd, t0.elapsed(), is_error);
}

/// Answer a line that never reached a command with `resp`, appended to
/// `out` and counted as an `invalid` request error (transport rejections
/// and bad JSON alike).
pub(crate) fn reject(svc: &mut Service, resp: Json, out: &mut String) {
    svc.begin_request();
    svc.shared()
        .metrics()
        .record_request(Cmd::Invalid, std::time::Duration::ZERO, true);
    resp.write_to(out);
}

/// Handle one raw request line, appending its response line (without
/// the newline) to `out`. Bad JSON and unknown commands become error
/// responses, never panics.
///
/// **Batching:** a line whose JSON value is an *array* of requests is
/// handled element by element, in order, against the same session, and
/// answered with one line holding the array of responses — one write,
/// one flush, one network round trip for a whole burst of edits. An
/// element that fails to parse gets its error response in position; the
/// rest of the batch still runs.
pub fn handle_line(svc: &mut Service, line: &str, out: &mut String) {
    match Json::parse(line) {
        Err(e) => reject(svc, request_error(e.to_string()), out),
        Ok(Json::Arr(items)) => {
            out.push('[');
            for (i, v) in items.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                handle_value(svc, v, out);
            }
            out.push(']');
        }
        Ok(v) => handle_value(svc, v, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineSel;
    use crate::service::ServiceConfig;
    use freezeml_core::Options;

    #[test]
    fn json_round_trips() {
        for src in [
            r#"{"cmd":"open","doc":"a","text":"let x = 1;;\n-- \"quoted\""}"#,
            r#"[1,2.5,-3,true,false,null,"\u0041\ud83d\ude00"]"#,
            r#"{}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(src).unwrap();
            let v2 = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, v2, "{src}");
        }
    }

    #[test]
    fn json_rejects_malformed_input() {
        for src in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"\\q\"",
            "1 2",
            // Surrogate-escape abuse must error, not panic or decode garbage.
            "\"\\ud800\\u0000\"",
            "\"\\ud800\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(src).is_err(), "{src} should fail");
        }
        // Nesting is bounded at 64 containers, arrays and objects alike.
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            assert!(Json::parse(&nest(64, open, close)).is_ok(), "{open} × 64");
            let err = Json::parse(&nest(65, open, close)).unwrap_err();
            assert_eq!(err.pos, 64 * open.len(), "{open} × 65");
        }
    }

    #[test]
    fn requests_parse_and_round_trip() {
        let line = r#"{"cmd":"type-of","doc":"m","name":"f"}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(
            req,
            Request::TypeOf {
                doc: "m".into(),
                name: "f".into()
            }
        );
        assert_eq!(Request::parse(&req.to_json().to_string()).unwrap(), req);
        assert!(Request::parse(r#"{"cmd":"zap"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"open","doc":"m"}"#).is_err());
    }

    fn svc() -> Service {
        Service::new(ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers: 1,
        })
    }

    /// One line's answer, parsed back.
    fn ask(s: &mut Service, line: &str) -> Json {
        let mut out = String::new();
        handle_line(s, line, &mut out);
        Json::parse(&out).expect("every answer is one JSON value")
    }

    /// A document keeps its answer's bindings array only while the body
    /// fits within `MAX_KEPT_BODY` (256 bytes in unit tests); a larger
    /// one is rendered afresh each time. Either way every answer is the
    /// full rendering's, through an edit that moves every line.
    #[test]
    fn a_kept_answer_stays_within_its_bound() {
        let small = "let a = 1;;\nlet b = 2;;\n".to_string();
        let large: String = (0..8).map(|i| format!("let b{i} = {i};;\n")).collect();
        for (text, keeps) in [(small, true), (large, false)] {
            let mut s = svc();
            let edited = format!("\n{}", text.replace("= 1;;", "= 3;;"));
            let lines = [
                Request::Open {
                    doc: "m".into(),
                    text,
                },
                Request::Check { doc: "m".into() },
                Request::Edit {
                    doc: "m".into(),
                    text: edited,
                },
                Request::Check { doc: "m".into() },
            ]
            .map(|r| r.to_json().to_string());
            for line in &lines {
                let mut out = String::new();
                handle_line(&mut s, line, &mut out);
                let mut full = String::new();
                write_report(&mut full, "m", s.report("m").unwrap(), s.text("m").unwrap());
                assert_eq!(out, full, "{line}");
                let (_, _, kept) = s.answer_parts("m").expect("checked");
                assert_eq!(kept.is_some(), keeps, "{line}");
            }
        }
    }

    #[test]
    fn protocol_smoke_full_session() {
        let mut s = svc();
        let open = ask(
            &mut s,
            r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##,
        );
        assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(open.get("rechecked").and_then(Json::as_num), Some(2.0));
        let bindings = match open.get("bindings") {
            Some(Json::Arr(b)) => b,
            other => panic!("bindings missing: {other:?}"),
        };
        assert_eq!(bindings.len(), 2);
        assert_eq!(
            bindings[1].get("type").and_then(Json::as_str),
            Some("Int * Bool")
        );
        assert_eq!(bindings[1].get("line").and_then(Json::as_num), Some(3.0));

        let t = ask(&mut s, r#"{"cmd":"type-of","doc":"m","name":"f"}"#);
        assert_eq!(
            t.get("result").and_then(Json::as_str),
            Some("forall a. a -> a")
        );

        // Warm edit: only `p`'s dependency cone is rechecked.
        let edit = ask(
            &mut s,
            r##"{"cmd":"edit","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = pair (poly ~f) 1;;\n"}"##,
        );
        assert_eq!(edit.get("rechecked").and_then(Json::as_num), Some(1.0));
        assert_eq!(edit.get("reused").and_then(Json::as_num), Some(1.0));

        let close = ask(&mut s, r#"{"cmd":"close","doc":"m"}"#);
        assert_eq!(close.get("closed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn elaborate_serves_an_oracle_checked_image() {
        let mut s = svc();
        ask(
            &mut s,
            r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##,
        );
        let r = ask(&mut s, r#"{"cmd":"elaborate","doc":"m","name":"f"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("found"), Some(&Json::Bool(true)));
        assert_eq!(r.get("checked"), Some(&Json::Bool(true)));
        assert_eq!(
            r.get("fterm").and_then(Json::as_str),
            Some("tyfun a -> fun (x : a) -> x")
        );
        assert_eq!(
            r.get("type").and_then(Json::as_str),
            Some("forall a. a -> a")
        );
        // A binding with dependencies elaborates under their schemes.
        let r = ask(&mut s, r#"{"cmd":"elaborate","doc":"m","name":"p"}"#);
        assert_eq!(r.get("type").and_then(Json::as_str), Some("Int * Bool"));
        assert!(r
            .get("fterm")
            .and_then(Json::as_str)
            .unwrap()
            .contains("poly"));
        // Unknown names report found:false; unknown docs error.
        let r = ask(&mut s, r#"{"cmd":"elaborate","doc":"m","name":"zzz"}"#);
        assert_eq!(r.get("found"), Some(&Json::Bool(false)));
        let r = ask(&mut s, r#"{"cmd":"elaborate","doc":"nope","name":"f"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        // Round trip of the request itself.
        let req = Request::parse(r#"{"cmd":"elaborate","doc":"m","name":"f"}"#).unwrap();
        assert_eq!(Request::parse(&req.to_json().to_string()).unwrap(), req);
    }

    /// Binding names are interned, so a name the symbol table has never
    /// seen names no binding: `elaborate` answers `found: false` without
    /// interning it.
    #[test]
    fn elaborate_of_a_never_interned_name_is_not_found() {
        let mut s = svc();
        ask(
            &mut s,
            r##"{"cmd":"open","doc":"m","text":"let f = fun x -> x;;\n"}"##,
        );
        let name = "elaborate_never_interned_name";
        assert_eq!(freezeml_core::Symbol::lookup(name), None);
        let line = format!(r#"{{"cmd":"elaborate","doc":"m","name":"{name}"}}"#);
        let r = ask(&mut s, &line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("found"), Some(&Json::Bool(false)));
        assert_eq!(freezeml_core::Symbol::lookup(name), None);
    }

    #[test]
    fn elaborate_refuses_ill_typed_and_blocked_bindings() {
        let mut s = svc();
        ask(
            &mut s,
            r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet bad = plus true 1;;\nlet child = plus bad 1;;\n"}"##,
        );
        for name in ["bad", "child"] {
            let r = ask(
                &mut s,
                &format!(r#"{{"cmd":"elaborate","doc":"m","name":"{name}"}}"#),
            );
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{name}");
            assert!(r
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap()
                .contains("cannot elaborate"));
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let mut s = svc();
        let r = ask(&mut s, r#"{"cmd":"open","doc":"m","text":"let x = ;;"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let err = r.get("error").expect("error object");
        assert!(err.get("line").is_some());
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("parse error"));
    }

    #[test]
    fn malformed_lines_do_not_kill_the_server() {
        let mut s = svc();
        for line in [
            "",
            "not json",
            r#"{"cmd":42}"#,
            r#"{"cmd":"check","doc":"nope"}"#,
        ] {
            let r = ask(&mut s, line);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{line}");
        }
    }

    #[test]
    fn a_batch_line_answers_with_an_array_in_order() {
        let mut s = svc();
        let r = ask(
            &mut s,
            concat!(
                r#"[{"cmd":"open","doc":"m","text":"let x = 1;;"},"#,
                r#"{"cmd":"type-of","doc":"m","name":"x"},"#,
                r#"{"cmd":"close","doc":"m"}]"#,
            ),
        );
        let items = match r {
            Json::Arr(items) => items,
            other => panic!("expected array response, got {other}"),
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(items[1].get("result").and_then(Json::as_str), Some("Int"));
        assert_eq!(items[2].get("closed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_bad_batch_element_fails_in_place_without_aborting_the_batch() {
        let mut s = svc();
        let r = ask(
            &mut s,
            concat!(
                r#"[{"cmd":"open","doc":"m","text":"let x = 1;;"},"#,
                r#"{"cmd":"launch-missiles"},"#,
                r#"{"cmd":"type-of","doc":"m","name":"x"}]"#,
            ),
        );
        let items = match r {
            Json::Arr(items) => items,
            other => panic!("expected array response, got {other}"),
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(items[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(items[2].get("result").and_then(Json::as_str), Some("Int"));
    }

    #[test]
    fn an_empty_batch_answers_with_an_empty_array() {
        let mut s = svc();
        assert_eq!(ask(&mut s, "[]"), Json::Arr(vec![]));
    }

    #[test]
    fn errors_and_blocked_bindings_are_reported_with_status() {
        let mut s = svc();
        let r = ask(
            &mut s,
            r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet bad = plus true 1;;\nlet child = plus bad 1;;\nlet ok = 1;;\n"}"##,
        );
        let bindings = match r.get("bindings") {
            Some(Json::Arr(b)) => b,
            other => panic!("bindings missing: {other:?}"),
        };
        let status = |i: usize| bindings[i].get("status").and_then(Json::as_str).unwrap();
        assert_eq!(status(0), "error");
        assert_eq!(status(1), "blocked");
        assert_eq!(status(2), "ok");
        assert_eq!(bindings[1].get("on").and_then(Json::as_str), Some("bad"));
    }

    #[test]
    fn shutdown_flips_the_hub_into_draining_and_parses_strictly() {
        let mut s = svc();
        assert!(!s.shared().draining());
        let r = ask(&mut s, r#"{"cmd":"shutdown"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("draining"), Some(&Json::Bool(true)));
        assert!(s.shared().draining());
        // Like stats/metrics, shutdown takes no other fields.
        let bad = ask(&mut s, r#"{"cmd":"shutdown","doc":"m"}"#);
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        // Round trip.
        assert_eq!(
            Request::parse(&Request::Shutdown.to_json().to_string()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn an_expired_deadline_answers_the_flat_deadline_shape() {
        let mut s = svc();
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        let r = ask(&mut s, r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
        // Exactly two fields, flat — the shape a client's retry logic
        // keys on, distinct from the object-shaped data errors.
        assert_eq!(
            r,
            Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str("deadline".into()))
            ])
        );
        assert_eq!(s.shared().metrics().deadline_exceeded.get(), 1);
        // With the deadline lifted the same request succeeds — nothing
        // poisoned, and partial progress was never cached as final.
        s.set_deadline(None);
        let r = ask(&mut s, r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }
}
