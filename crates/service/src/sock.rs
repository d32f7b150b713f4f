//! The socket front end: the line protocol of [`crate::server`] served
//! over TCP or a Unix-domain socket, many sessions at once.
//!
//! Topology: one accept thread plus a pool of session threads. Every
//! accepted connection becomes one protocol session — a fresh
//! [`Service`] whose documents are private to the connection — but all
//! sessions run against one [`Shared`] hub, so schemes, verdicts, and
//! parsed declarations cross sessions freely: a binding checked for one
//! client is a cache hit for every other client.
//!
//! Concurrency model: with the hub sharded and striped, parallelism
//! comes from *sessions*, not from waves — each connection's executor
//! checks its waves on the session thread, and `--workers N` on the CLI
//! sizes the session pool. N clients therefore check N documents
//! genuinely concurrently, interning into the scheme bank without a
//! global lock.
//!
//! ## Overload behavior
//!
//! The accept→session queue is **bounded** ([`Admission::max_pending`]).
//! A connection arriving with the queue full is *shed*: it is answered
//! one structured line —
//! `{"ok":false,"error":"overloaded","retry-after-ms":N}` — and closed
//! before any session state is built for it. Shedding at the accept
//! thread keeps the failure cheap (no `Service`, no executor) and
//! honest (the client learns immediately instead of queueing
//! invisibly). Each shed bumps the hub's `requests_shed` counter.
//!
//! ## Drain
//!
//! [`Shared::request_drain`] (the protocol `shutdown` command, or the
//! CLI's SIGTERM/SIGINT handler) flips the hub into draining: the
//! accept loop sheds its next arrival with
//! `{"ok":false,"error":"draining"}` and exits, in-flight requests
//! finish, and session loops close their connections at the next
//! request boundary (their serve loops poll the flag). The foreground
//! [`SocketServer::join_timeout`] then waits up to `--drain-secs` for
//! the pool before handing control back for the final checkpoint.
//!
//! Shutdown: the accept loop polls a nonblocking listener, so
//! [`SocketServer::shutdown`] (also on drop) just sets the stop flag
//! and joins — it exits deterministically even when the listener
//! errored out early, with no throwaway "poke" connection.
//!
//! ## Faults
//!
//! Accepted streams are wrapped in a [`fault`] shim: the `sock.read`
//! and `sock.write` failpoints can truncate, error, delay, or panic at
//! the transport boundary. A panic anywhere in a session (framing
//! included) is contained per connection and counted in
//! `session_thread_deaths` — the pool never shrinks.

use crate::fault::{self, Fault};
use crate::server::{serve_with, ServeOptions};
use crate::service::{Service, ServiceConfig};
use crate::shared::Shared;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::{Arc, PoisonError};
use freezeml_obs::lockrank;
use freezeml_obs::next_conn_id;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks its stop/drain flags while the
/// listener is quiet.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Admission-control parameters for the accept thread.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    /// Accepted connections allowed to wait for a session thread
    /// before new arrivals are shed (`--max-pending`). The count is of
    /// connections *not yet claimed* by a session thread — an arrival
    /// is enqueued before it can be claimed, so `0` sheds every
    /// connection (a test configuration, not a serving one).
    pub max_pending: usize,
    /// The `retry-after-ms` hint shed clients are given.
    pub retry_after_ms: u64,
}

impl Default for Admission {
    fn default() -> Admission {
        Admission {
            max_pending: 64,
            retry_after_ms: 50,
        }
    }
}

/// The admission gate between the accept thread and the session pool:
/// a bounded count of accepted-but-unclaimed connections. Extracted as
/// a standalone type so `tests/model/` can model-check the counting
/// protocol directly: however admitters and claimers interleave,
/// `admitted - claimed` never exceeds the bound and never goes
/// negative, and every arrival is either admitted or shed — none are
/// lost.
pub struct Gate {
    pending: AtomicUsize,
    max_pending: usize,
}

impl Gate {
    /// A gate admitting at most `max_pending` unclaimed connections.
    pub fn new(max_pending: usize) -> Gate {
        Gate {
            pending: AtomicUsize::new(0),
            max_pending,
        }
    }

    /// Try to admit one arrival. `false` means the queue is at its
    /// bound and the arrival must be shed. The check-and-increment is
    /// one atomic RMW, so concurrent admitters can never overshoot the
    /// bound (the old separate load-then-add could, had there been two
    /// accept threads).
    pub fn try_admit(&self) -> bool {
        // ord: Relaxed — the gate is a pure counting protocol over one
        // location; the mpsc channel that carries the connection is the
        // publication edge. RMW atomicity alone bounds the count.
        self.pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_pending).then_some(n + 1)
            })
            .is_ok()
    }

    /// A session thread claimed one admitted connection.
    pub fn claimed(&self) {
        // ord: Relaxed — counting protocol over one location; see
        // `try_admit`.
        let prev = self.pending.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "gate claimed with nothing admitted");
    }

    /// Currently admitted-but-unclaimed connections (observability).
    pub fn pending(&self) -> usize {
        // ord: Relaxed — monotonicity-free gauge read.
        self.pending.load(Ordering::Relaxed)
    }
}

/// One accepted connection, transport-erased.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Arm kernel-level read/write timeouts: a stalled or slowloris
    /// peer wakes the serve loop with `WouldBlock`/`TimedOut` instead
    /// of pinning the session thread forever.
    fn set_timeouts(&self, t: Option<Duration>) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.set_read_timeout(t);
                let _ = s.set_write_timeout(t);
            }
            Stream::Unix(s) => {
                let _ = s.set_read_timeout(t);
                let _ = s.set_write_timeout(t);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A [`Stream`] with the `sock.read`/`sock.write` failpoints at the
/// transport boundary: `eof` truncates a read to `Ok(0)`, `err` fails
/// the call, `delay` stalls it, `panic` panics (contained by the
/// session loop and counted as a thread death).
struct FaultStream {
    inner: Stream,
    shared: Arc<Shared>,
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(f) = fault::hit_counted("sock.read", self.shared.metrics()) {
            match f {
                Fault::Eof => return Ok(0),
                other => other.io_effect()?,
            }
        }
        self.inner.read(buf)
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(f) = fault::hit_counted("sock.write", self.shared.metrics()) {
            f.io_effect()?;
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (conn, _) = l.accept()?;
                // The listener polls nonblocking; the session must not.
                conn.set_nonblocking(false)?;
                // A line protocol of small messages: never wait for a
                // full segment.
                let _ = conn.set_nodelay(true);
                Stream::Tcp(conn)
            }
            Listener::Unix(l) => {
                let conn = l.accept()?.0;
                conn.set_nonblocking(false)?;
                Stream::Unix(conn)
            }
        })
    }
}

/// A running socket server. See the module docs.
pub struct SocketServer {
    display_addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sessions: Vec<JoinHandle<()>>,
    /// The Unix socket path to unlink on shutdown, if any.
    unlink: Option<PathBuf>,
}

fn session_thread(
    rx: Arc<lockrank::Mutex<Receiver<Stream>>>,
    gate: Arc<Gate>,
    cfg: ServiceConfig,
    shared: Arc<Shared>,
    opts: ServeOptions,
) {
    loop {
        // Hold the receiver lock only to take one connection.
        let conn = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(conn) = conn else {
            return; // channel closed: server shutting down
        };
        gate.claimed();
        conn.set_timeouts(opts.request_timeout_ms.map(Duration::from_millis));
        // Contain *everything* a connection can do to this thread —
        // including panics in protocol framing, outside the executor's
        // per-binding containment. A session that dies takes only its
        // own connection with it; the pool keeps its size, and the
        // death is counted so it can never again pass silently.
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut svc = Service::with_shared(cfg, Arc::clone(&shared));
            // Every accepted connection gets a process-unique id: the
            // root of the connection→session→request trace hierarchy.
            let conn_id = next_conn_id();
            svc.set_conn(conn_id);
            shared.metrics().connections.inc();
            shared.tracer().event("connection", svc.trace_ctx(), &[]);
            let (reader, writer) = match conn.try_clone() {
                Ok(r) => (
                    BufReader::new(FaultStream {
                        inner: r,
                        shared: Arc::clone(&shared),
                    }),
                    FaultStream {
                        inner: conn,
                        shared: Arc::clone(&shared),
                    },
                ),
                Err(_) => return,
            };
            // Transport errors end this session only (client hung up).
            let _ = serve_with(&mut svc, reader, writer, &opts);
        }));
        if served.is_err() {
            shared.metrics().session_thread_deaths.inc();
        }
    }
}

/// Answer a shed connection with one structured line and close it. The
/// write gets a short timeout of its own so a malicious peer cannot
/// stall the accept thread.
fn shed(mut conn: Stream, body: &str) {
    conn.set_timeouts(Some(Duration::from_millis(100)));
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.write_all(b"\n");
    let _ = conn.flush();
}

impl SocketServer {
    /// Serve the hub over TCP with default admission control. `addr` is
    /// anything `TcpListener::bind` accepts (`127.0.0.1:0` picks an
    /// ephemeral port — read it back from [`SocketServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Binding or local-address resolution failures.
    pub fn spawn_tcp(
        addr: &str,
        cfg: ServiceConfig,
        shared: Arc<Shared>,
        sessions: usize,
        opts: ServeOptions,
    ) -> io::Result<SocketServer> {
        Self::spawn_tcp_with(addr, cfg, shared, sessions, opts, Admission::default())
    }

    /// [`SocketServer::spawn_tcp`] with explicit admission control.
    ///
    /// # Errors
    ///
    /// Binding or local-address resolution failures.
    pub fn spawn_tcp_with(
        addr: &str,
        cfg: ServiceConfig,
        shared: Arc<Shared>,
        sessions: usize,
        opts: ServeOptions,
        admission: Admission,
    ) -> io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Self::spawn(
            Listener::Tcp(listener),
            local.to_string(),
            None,
            cfg,
            shared,
            sessions,
            opts,
            admission,
        )
    }

    /// Serve the hub over a Unix-domain socket at `path` with default
    /// admission control. A stale socket file from a previous run is
    /// removed first; the file is unlinked again on shutdown.
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn spawn_unix(
        path: &Path,
        cfg: ServiceConfig,
        shared: Arc<Shared>,
        sessions: usize,
        opts: ServeOptions,
    ) -> io::Result<SocketServer> {
        Self::spawn_unix_with(path, cfg, shared, sessions, opts, Admission::default())
    }

    /// [`SocketServer::spawn_unix`] with explicit admission control.
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn spawn_unix_with(
        path: &Path,
        cfg: ServiceConfig,
        shared: Arc<Shared>,
        sessions: usize,
        opts: ServeOptions,
        admission: Admission,
    ) -> io::Result<SocketServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Self::spawn(
            Listener::Unix(listener),
            path.display().to_string(),
            Some(path.to_path_buf()),
            cfg,
            shared,
            sessions,
            opts,
            admission,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn(
        listener: Listener,
        display_addr: String,
        unlink: Option<PathBuf>,
        cfg: ServiceConfig,
        shared: Arc<Shared>,
        sessions: usize,
        opts: ServeOptions,
        admission: Admission,
    ) -> io::Result<SocketServer> {
        listener.set_nonblocking()?;
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Gate::new(admission.max_pending));
        let (tx, rx): (Sender<Stream>, Receiver<Stream>) = channel();
        let rx = Arc::new(lockrank::Mutex::new(
            lockrank::SESSION_RX,
            "service.sock.session_rx",
            rx,
        ));
        let sessions: Vec<JoinHandle<()>> = (0..sessions.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let gate = Arc::clone(&gate);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || session_thread(rx, gate, cfg, shared, opts))
            })
            .collect();
        let accept_stop = Arc::clone(&stop);
        let accept_shared = Arc::clone(&shared);
        let overloaded = format!(
            r#"{{"ok":false,"error":"overloaded","retry-after-ms":{}}}"#,
            admission.retry_after_ms
        );
        let accept = std::thread::spawn(move || {
            // `tx` is moved in: when this loop exits, the channel
            // closes and the session pool drains out. The listener is
            // nonblocking, so the stop and drain flags are observed
            // within one poll interval — deterministically, even if the
            // listener itself has failed.
            loop {
                // ord: Relaxed — poll-loop stop flag: only eventual
                // visibility is needed, and `shutdown` joins this
                // thread (a full synchronization) before observing any
                // of its effects.
                if accept_stop.load(Ordering::Relaxed) {
                    return;
                }
                let conn = match listener.accept() {
                    Ok(conn) => conn,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if accept_shared.draining() {
                            return;
                        }
                        std::thread::park_timeout(ACCEPT_POLL);
                        continue;
                    }
                    Err(_) => return,
                };
                // ord: Relaxed — same poll-loop stop flag as above.
                if accept_stop.load(Ordering::Relaxed) {
                    return;
                }
                if accept_shared.draining() {
                    accept_shared.metrics().requests_shed.inc();
                    shed(conn, r#"{"ok":false,"error":"draining"}"#);
                    return;
                }
                // Admission control: the queue between accept and the
                // session pool is bounded. Over the bound, the client
                // gets a structured answer *now* instead of an
                // invisible wait.
                if !gate.try_admit() {
                    accept_shared.metrics().requests_shed.inc();
                    shed(conn, &overloaded);
                    continue;
                }
                if tx.send(conn).is_err() {
                    return;
                }
            }
        });
        Ok(SocketServer {
            display_addr,
            stop,
            accept: Some(accept),
            sessions,
            unlink,
        })
    }

    /// The bound address: `host:port` for TCP (the real port, even if
    /// the server was spawned on port 0), the path for Unix sockets.
    pub fn local_addr(&self) -> &str {
        &self.display_addr
    }

    /// Stop accepting, close the session pool, and join every thread.
    /// In-flight sessions finish when their clients disconnect.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        // ord: Relaxed — the join below is the synchronization point;
        // the flag only has to become visible within one poll interval.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.sessions.drain(..) {
            let _ = h.join();
        }
        if let Some(path) = self.unlink.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Block until the accept loop exits (listener error, drain, or
    /// [`SocketServer::shutdown`] from another thread) and every
    /// session thread finishes — the CLI's foreground serving mode
    /// with an unbounded wind-down.
    pub fn join(self) {
        self.join_timeout(None);
    }

    /// [`SocketServer::join`] with a bounded wind-down: after the
    /// accept loop exits, wait at most `limit` for the session pool
    /// (`--drain-secs`). Returns `true` if every session finished;
    /// stragglers (clients that never hung up) are abandoned to die
    /// with the process.
    pub fn join_timeout(mut self, limit: Option<Duration>) -> bool {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = limit.map(|d| Instant::now() + d);
        let mut all = true;
        for h in self.sessions.drain(..) {
            match deadline {
                None => {
                    let _ = h.join();
                }
                Some(deadline) => {
                    while !h.is_finished() && Instant::now() < deadline {
                        std::thread::park_timeout(Duration::from_millis(20));
                    }
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        all = false;
                    }
                }
            }
        }
        if let Some(path) = self.unlink.take() {
            let _ = std::fs::remove_file(path);
        }
        all
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineSel;
    use crate::protocol::Json;
    use freezeml_core::Options;
    use std::io::{BufRead, BufReader as StdBufReader};

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers: 2,
        }
    }

    fn request(stream: &mut TcpStream, reader: &mut StdBufReader<TcpStream>, line: &str) -> Json {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(&response).expect("response is JSON")
    }

    #[test]
    fn tcp_smoke_open_type_of_close() {
        let mut server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            cfg(),
            Arc::new(Shared::new()),
            2,
            ServeOptions::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut reader = StdBufReader::new(stream.try_clone().unwrap());
        let r = request(
            &mut stream,
            &mut reader,
            r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let r = request(
            &mut stream,
            &mut reader,
            r#"{"cmd":"type-of","doc":"m","name":"x"}"#,
        );
        assert_eq!(r.get("result").and_then(Json::as_str), Some("Int"));
        drop(stream);
        drop(reader);
        server.shutdown();
    }

    #[test]
    fn sessions_share_the_scheme_cache_but_not_documents() {
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
        let text = r##"{"cmd":"open","doc":"d","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##;

        let mut a = TcpStream::connect(&addr).unwrap();
        let mut ra = StdBufReader::new(a.try_clone().unwrap());
        let r = request(&mut a, &mut ra, text);
        assert_eq!(r.get("rechecked"), Some(&Json::Num(2.0)));

        // A second session opens the same doc name: same text is all
        // cache hits (shared hub), but the *document* is its own — the
        // first session's doc is untouched by this open.
        let mut b = TcpStream::connect(&addr).unwrap();
        let mut rb = StdBufReader::new(b.try_clone().unwrap());
        let r = request(&mut b, &mut rb, text);
        assert_eq!(r.get("rechecked"), Some(&Json::Num(0.0)));
        assert_eq!(r.get("reused"), Some(&Json::Num(2.0)));

        // Session b closes its "d"; session a's "d" still answers.
        let r = request(&mut b, &mut rb, r#"{"cmd":"close","doc":"d"}"#);
        assert_eq!(r.get("closed"), Some(&Json::Bool(true)));
        let r = request(&mut a, &mut ra, r#"{"cmd":"type-of","doc":"d","name":"p"}"#);
        assert_eq!(r.get("result").and_then(Json::as_str), Some("Int * Bool"));

        drop((a, ra, b, rb));
        server.shutdown();
    }

    #[test]
    fn unix_socket_round_trip() {
        let dir = std::env::temp_dir().join(format!("freezeml-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.sock");
        let mut server = SocketServer::spawn_unix(
            &path,
            cfg(),
            Arc::new(Shared::new()),
            1,
            ServeOptions::default(),
        )
        .unwrap();
        let mut stream = UnixStream::connect(&path).unwrap();
        writeln!(
            stream,
            r#"{{"cmd":"open","doc":"u","text":"let y = true;;"}}"#
        )
        .unwrap();
        let mut reader = StdBufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let r = Json::parse(&response).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        drop((stream, reader));
        server.shutdown();
        assert!(!path.exists(), "socket file unlinked on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_clients_than_session_threads_all_get_served() {
        // The pool has 1 thread; 4 sequential clients must all be
        // served (the pool drains the accept queue).
        let mut server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            cfg(),
            Arc::new(Shared::new()),
            1,
            ServeOptions::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        for i in 0..4 {
            let mut s = TcpStream::connect(&addr).unwrap();
            let mut r = StdBufReader::new(s.try_clone().unwrap());
            let resp = request(
                &mut s,
                &mut r,
                &format!(r#"{{"cmd":"open","doc":"c{i}","text":"let v = {i};;"}}"#),
            );
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "client {i}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_deterministic_without_any_client_poke() {
        // Regression (the old implementation "poked" the listener with
        // a throwaway connection, which raced when the listener had
        // already failed): shutdown must return promptly with no help
        // from the network, repeatedly, and immediately after spawn.
        for _ in 0..3 {
            let mut server = SocketServer::spawn_tcp(
                "127.0.0.1:0",
                cfg(),
                Arc::new(Shared::new()),
                2,
                ServeOptions::default(),
            )
            .unwrap();
            let t0 = Instant::now();
            server.shutdown();
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "shutdown stalled: {:?}",
                t0.elapsed()
            );
            // Idempotent.
            server.shutdown();
        }
    }

    #[test]
    fn over_max_pending_connections_are_shed_with_retry_after() {
        // 1 session thread, queue of 1: with the session held busy and
        // the queue full, the next arrival must be answered
        // `overloaded` with a retry hint, not silently queued.
        let shared = Arc::new(Shared::new());
        let mut server = SocketServer::spawn_tcp_with(
            "127.0.0.1:0",
            cfg(),
            Arc::clone(&shared),
            1,
            ServeOptions::default(),
            Admission {
                max_pending: 1,
                retry_after_ms: 25,
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // Hold the only session thread with an open connection (the
        // answered request proves the session claimed it, so the
        // pending queue is empty again).
        let mut busy = TcpStream::connect(&addr).unwrap();
        let mut busy_r = StdBufReader::new(busy.try_clone().unwrap());
        let r = request(
            &mut busy,
            &mut busy_r,
            r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        // This connection fills the queue (no session is free to claim
        // it)…
        let _queued = TcpStream::connect(&addr).unwrap();
        // …so the one after it is shed at the accept thread.
        let extra = TcpStream::connect(&addr).unwrap();
        let mut line = String::new();
        let mut extra_r = StdBufReader::new(extra);
        extra_r.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            v.get("retry-after-ms").and_then(Json::as_num),
            Some(25.0),
            "the hint mirrors the admission config"
        );
        // …and the line is followed by a clean close.
        assert_eq!(extra_r.read_line(&mut line).unwrap(), 0);
        assert!(shared.metrics().requests_shed.get() >= 1);
        // The busy session was untouched by the shed.
        let r = request(
            &mut busy,
            &mut busy_r,
            r#"{"cmd":"type-of","doc":"m","name":"x"}"#,
        );
        assert_eq!(r.get("result").and_then(Json::as_str), Some("Int"));
        // Close the held connections before shutdown: the queued one
        // will be claimed by the freed session thread, and shutdown
        // joins that thread, which only returns once its client is
        // gone.
        drop((busy, busy_r, _queued));
        server.shutdown();
    }

    #[test]
    fn a_drain_request_stops_the_accept_loop_and_join_returns() {
        let shared = Arc::new(Shared::new());
        let server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            cfg(),
            Arc::clone(&shared),
            2,
            ServeOptions {
                request_timeout_ms: Some(200),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // An in-flight session…
        let mut live = TcpStream::connect(&addr).unwrap();
        let mut live_r = StdBufReader::new(live.try_clone().unwrap());
        let r = request(
            &mut live,
            &mut live_r,
            r#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        // …then a drain. The foreground join must come back even
        // though the live client never hangs up (its serve loop closes
        // at the next request-timeout boundary).
        shared.request_drain();
        assert!(crate::stats::prometheus_text(&shared).contains("freezeml_draining 1"));
        let all = server.join_timeout(Some(Duration::from_secs(5)));
        assert!(all, "sessions wound down within the drain budget");
        // The drained server's client sees a clean close.
        let mut line = String::new();
        assert_eq!(live_r.read_line(&mut line).unwrap(), 0, "clean close");
    }
}
