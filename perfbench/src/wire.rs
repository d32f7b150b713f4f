//! The wire run: the release server over loopback TCP, driven by one
//! client connection, every answer checked.

use crate::gauge::Gauge;
use crate::gen::{same_type, verify_line, Kind, Line, Stream, Workload};
use freezeml_conformance::program::{parse_dir, BindExpect};
use freezeml_service::{Json, Request};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server process. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Start the server and wait for the line announcing its address.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {line}"));
                }
                Ok(_) => {
                    if let Some(rest) = line.split("serving on ").nth(1) {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            rest
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// Wait until no thread of the server is running: the work it does
    /// after writing an answer (dropping the answer and the state it
    /// replaced) is done before the next request is timed, and the gauge
    /// times the CPU, not that work. Gives up after 50 ms.
    pub fn quiesce(&self) {
        let dir = format!("/proc/{}/task", self.child.id());
        let end = Instant::now() + Duration::from_millis(50);
        while Instant::now() < end {
            let Ok(tasks) = std::fs::read_dir(&dir) else {
                return;
            };
            let running = tasks.flatten().any(|t| {
                std::fs::read_to_string(t.path().join("stat")).is_ok_and(|s| {
                    // The state follows the command name's closing paren.
                    s.rsplit_once(')')
                        .is_some_and(|(_, rest)| rest.trim_start().starts_with('R'))
                })
            });
            if !running {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Ask for a drain on `conn`, close it, and wait for the exit code.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<i32, String> {
        let acked = conn.round_trip(&Request::Shutdown.to_json().to_string());
        drop(conn);
        let code = self.wait(Duration::from_secs(30));
        let (v, _) = acked?;
        if v.get("draining") != Some(&Json::Bool(true)) {
            return Err(format!("shutdown answered {v}"));
        }
        code
    }

    fn wait(&mut self, timeout: Duration) -> Result<i32, String> {
        let end = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = self.stderr.take().map(|h| h.join().unwrap_or_default());
                    return match status.code() {
                        Some(code) => Ok(code),
                        None => Err(format!("server killed by a signal; stderr: {log:?}")),
                    };
                }
                Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            w,
            r,
            out: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Send one request line; the answer and the round trip in ms, timed
    /// from the request bytes written to the answer line read.
    pub fn round_trip(&mut self, line: &str) -> Result<(Json, f64), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.buf.clear();
        let t0 = Instant::now();
        self.w
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.r
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| format!("read: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if self.buf.is_empty() {
            return Err("server closed the connection".into());
        }
        let text =
            std::str::from_utf8(&self.buf).map_err(|e| format!("answer is not UTF-8: {e}"))?;
        let v =
            crate::json::parse(text.trim_end()).map_err(|e| format!("answer is not JSON: {e}"))?;
        Ok((v, ms))
    }
}

/// Client-side tallies of one run.
#[derive(Clone, Default)]
pub struct Tally {
    /// Round trips in ms, by the kinds each line is timed as.
    pub samples: BTreeMap<Kind, Vec<f64>>,
    /// The same round trips scaled to the reference speed (`gauge`).
    pub scaled: BTreeMap<Kind, Vec<f64>>,
    /// The speed factor each timed line was scaled by.
    pub factors: Vec<f64>,
    /// Seconds the client spent in the gauge's kernel.
    pub gauge_s: f64,
    pub lines: u64,
    /// Σ round trips over timed lines, in ms.
    pub total_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub bindings: u64,
    pub rechecked: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        for (k, v) in o.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in o.scaled {
            self.scaled.entry(k).or_default().extend(v);
        }
        self.factors.extend(o.factors);
        self.gauge_s += o.gauge_s;
        self.lines += o.lines;
        self.total_ms += o.total_ms;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.bindings += o.bindings;
        self.rechecked += o.rechecked;
        for e in o.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Send one line, verify its answer, and record it; a timed line is
    /// also recorded scaled by its speed factor. `Err` when the connection
    /// is unusable.
    fn send(&mut self, conn: &mut Conn, line: &Line, timed: Option<f64>) -> Result<(), String> {
        let n = line.expect.len() as u64;
        self.attempted += n;
        let (v, ms) = conn
            .round_trip(&line.text)
            .inspect_err(|e| self.fail(n, e.clone()))?;
        let (seen, errors) = verify_line(line, &v);
        self.bindings += seen.bindings;
        self.rechecked += seen.rechecked;
        if !errors.is_empty() {
            self.fail(errors.len() as u64, errors.join("; "));
        }
        if let Some(factor) = timed {
            self.lines += 1;
            self.total_ms += ms;
            self.factors.push(factor);
            for k in &line.timed_as {
                self.samples.entry(*k).or_default().push(ms);
                self.scaled.entry(*k).or_default().push(ms * factor);
            }
        }
        Ok(())
    }
}

/// Everything one wire run measured.
pub struct WireRun {
    /// Set-up times as measured.
    pub setup_s: Vec<f64>,
    /// Every kernel time the gauge took in the timed phase, in ms.
    pub gauge_ms: Vec<f64>,
    pub tally: Tally,
    /// The timed phase cut into equal time windows: each window's tally
    /// (a line belongs to the window it was sent in) and its length in s.
    pub windows: Vec<(Tally, f64)>,
    pub elapsed_s: f64,
    pub peak_rss_mb: f64,
    pub server_stats: BTreeMap<&'static str, f64>,
    pub goldens: (u64, u64),
}

/// Spawn, connect, answer a first request and the initial opens. The
/// set-up time is taken over exactly this.
fn set_up(
    bin: &Path,
    w: Workload,
    stream: &Stream,
    tally: &mut Tally,
) -> Result<(Server, Conn, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, &w.server_args())?;
    let mut conn = Conn::connect(&server.addr)?;
    tally.attempted += 1;
    let (first, _) = conn.round_trip(&Request::Stats.to_json().to_string())?;
    if first.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("first request answered {first}"));
    }
    for line in stream.setup() {
        tally.send(&mut conn, &line, None)?;
    }
    Ok((server, conn, t0.elapsed().as_secs_f64()))
}

/// Open every standard-mode `#! program` golden over the wire and compare
/// its verdicts with the file's hand-written `expect` lines. Returns
/// `(cases, mismatches)`; pure-mode cases need a `--pure` server and are
/// left out.
fn goldens(conn: &mut Conn, dir: &Path, tally: &mut Tally) -> Result<(u64, u64), String> {
    let files = parse_dir(dir).map_err(|e| e.to_string())?;
    let (mut cases, mut bad) = (0, 0);
    for case in files.iter().flat_map(|f| &f.cases).filter(|c| !c.pure) {
        cases += 1;
        tally.attempted += 2;
        let doc = format!("golden.{}", case.name);
        let open = Request::Open {
            doc: doc.clone(),
            text: case.program.clone(),
        };
        let (v, _) = conn.round_trip(&open.to_json().to_string())?;
        tally.rechecked += v.get("rechecked").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let verdicts = match v.get("bindings") {
            Some(Json::Arr(b)) => b.as_slice(),
            _ => &[],
        };
        let ok = verdicts.len() == case.expects.len()
            && verdicts.iter().zip(&case.expects).all(|(b, (name, want))| {
                let s = |k: &str| b.get(k).and_then(Json::as_str).unwrap_or("");
                s("name") == name
                    && match want {
                        BindExpect::Type(t) => s("status") == "ok" && same_type(s("type"), t),
                        BindExpect::ErrorContains(m) => {
                            s("status") == "error" && s("message").contains(m.as_str())
                        }
                        BindExpect::BlockedOn(d) => s("status") == "blocked" && s("on") == d,
                    }
            });
        if !ok {
            bad += 1;
            tally.fail(1, format!("golden {}: answered {v}", case.name));
        }
        let (v, _) = conn.round_trip(&Request::Close { doc }.to_json().to_string())?;
        if v.get("closed") != Some(&Json::Bool(true)) {
            tally.fail(1, format!("golden close answered {v}"));
        }
    }
    Ok((cases, bad))
}

/// Read the server's registry and cross-check it against the client's
/// own tallies.
fn cross_check(conn: &mut Conn, tally: &mut Tally) -> Result<BTreeMap<&'static str, f64>, String> {
    tally.attempted += 1;
    let (s, _) = conn.round_trip(&Request::Stats.to_json().to_string())?;
    let at = |path: &[&str]| -> f64 {
        let mut v = &s;
        for k in path {
            match v.get(k) {
                Some(x) => v = x,
                None => return f64::NAN,
            }
        }
        v.as_num().unwrap_or(f64::NAN)
    };
    let mut out = BTreeMap::new();
    for (name, path) in [
        ("bindings", &["reports", "bindings"][..]),
        ("rechecked", &["reports", "rechecked"]),
        ("reused", &["reports", "reused"]),
        ("blocked", &["reports", "blocked"]),
        ("verdict_hit_rate", &["caches", "verdict", "hit_rate"]),
        ("verdict_entries", &["caches", "verdict", "entries"]),
        ("parse_hit_rate", &["caches", "parse", "hit_rate"]),
        ("parse_entries", &["caches", "parse", "entries"]),
        ("doc_hit_rate", &["caches", "doc", "hit_rate"]),
        ("doc_entries", &["caches", "doc", "entries"]),
        ("scheme_nodes", &["caches", "scheme", "nodes"]),
        ("requests_shed", &["resilience", "requests_shed"]),
        ("deadline_exceeded", &["resilience", "deadline_exceeded"]),
        (
            "session_thread_deaths",
            &["resilience", "session_thread_deaths"],
        ),
    ] {
        out.insert(name, at(path));
    }
    if out["bindings"] != out["rechecked"] + out["reused"] + out["blocked"] {
        tally.fail(
            1,
            format!("server accounting: bindings != rechecked + reused + blocked in {out:?}"),
        );
    }
    if out["rechecked"] != tally.rechecked as f64 {
        tally.fail(
            1,
            format!(
                "server rechecked {} != client sum {}",
                out["rechecked"], tally.rechecked
            ),
        );
    }
    for k in [
        "requests_shed",
        "deadline_exceeded",
        "session_thread_deaths",
    ] {
        if out[k] != 0.0 {
            tally.fail(1, format!("server reports {k} = {}", out[k]));
        }
    }
    Ok(out)
}

/// When a timed phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many seconds, cut into this many windows.
    Seconds(f64, usize),
    /// After this many iterations of the stream, as one window.
    Iterations(u64),
}

/// The closed loop until `stop`, the gauge refreshed between lines.
/// Returns one tally per window and, when the run gets to iteration
/// `rss_at`, the server's peak RSS read there.
fn drive(
    conn: &mut Conn,
    stream: &Stream,
    stop: Stop,
    rss_at: u64,
    server: &Server,
    gauge: &mut Gauge,
) -> (Vec<(Tally, f64)>, Option<f64>) {
    let t0 = Instant::now();
    let (deadline, iterations, n) = match stop {
        Stop::Seconds(s, n) => (t0 + Duration::from_secs_f64(s), u64::MAX, n.max(1)),
        Stop::Iterations(i) => (t0 + Duration::from_secs(3600), i, 1),
    };
    let width = (deadline - t0) / n as u32;
    let mut windows: Vec<Tally> = (0..n).map(|_| Tally::default()).collect();
    let mut rss = None;
    'run: for j in 0..iterations {
        if j == rss_at {
            match server.peak_rss_mb() {
                Ok(mb) => rss = Some(mb),
                Err(e) => windows[0].fail(1, e),
            }
        }
        let lines = match stream.iteration(j) {
            Ok(l) => l,
            Err(e) => {
                windows[0].fail(1, format!("stream: {e}"));
                break;
            }
        };
        for line in &lines {
            server.quiesce();
            let spent = gauge.refresh();
            let now = Instant::now();
            if now >= deadline {
                break 'run;
            }
            let w = (((now - t0).as_nanos() / width.as_nanos().max(1)) as usize).min(n - 1);
            windows[w].gauge_s += spent;
            if windows[w].send(conn, line, Some(gauge.factor())).is_err() {
                break 'run;
            }
        }
    }
    // Every window but the last ends where the next begins; the last
    // ends when its last answer is in.
    let end = t0.elapsed().as_secs_f64();
    let w = width.as_secs_f64();
    let windows = windows
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, if i + 1 == n { end - w * i as f64 } else { w }))
        .collect();
    (windows, rss)
}

/// Set up `repeats` times (the last server stays up), run the timed
/// phase, the goldens (when asked) and the registry cross-check, then
/// shut down.
pub fn run(
    bin: &Path,
    root: &Path,
    w: Workload,
    seed: u64,
    stop: Stop,
    repeats: usize,
    with_goldens: bool,
) -> Result<WireRun, String> {
    let stream = Stream::new(w, seed, 1)?;
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let (server, mut conn) = loop {
        let mut t = Tally::default();
        let (server, conn, s) = set_up(bin, w, &stream, &mut t)?;
        setup_s.push(s);
        if setup_s.len() == repeats {
            tally.merge(t);
            break (server, conn);
        }
        server.shutdown(conn)?;
    };
    // Peak RSS is read after a fixed amount of work, so that it measures
    // memory per work done, not per second.
    let t0 = Instant::now();
    let mut gauge = Gauge::new();
    let (windows, rss_at_work) = drive(
        &mut conn,
        &stream,
        stop,
        w.rss_iterations(),
        &server,
        &mut gauge,
    );
    let elapsed_s = t0.elapsed().as_secs_f64();
    for (t, _) in &windows {
        tally.merge(t.clone());
    }
    let goldens = if with_goldens {
        goldens(&mut conn, &root.join("tests/conformance"), &mut tally)?
    } else {
        (0, 0)
    };
    let server_stats = cross_check(&mut conn, &mut tally)?;
    // A run too slow to reach the read point reports the peak at its end.
    let peak_rss_mb = match rss_at_work {
        Some(mb) => mb,
        None => server.peak_rss_mb()?,
    };
    tally.attempted += 1;
    match server.shutdown(conn) {
        Ok(0) => {}
        Ok(code) => tally.fail(1, format!("server exit code {code}")),
        Err(e) => tally.fail(1, e),
    }
    Ok(WireRun {
        setup_s,
        gauge_ms: gauge.samples,
        tally,
        windows,
        elapsed_s,
        peak_rss_mb,
        server_stats,
        goldens,
    })
}
