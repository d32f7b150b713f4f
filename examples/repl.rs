//! An interactive FreezeML REPL — a thin client of the program-checking
//! service.
//!
//! The session *is* a service document: every `:let` appends a top-level
//! declaration and the service rechecks the program incrementally (only
//! the new binding is inferred; everything else is served from the
//! scheme cache). Run with `cargo run --example repl`:
//!
//! ```text
//! > choose ~id
//! (forall a. a -> a) -> forall a. a -> a
//! > :let myid = $(fun x -> x)
//! myid : forall a. a -> a                       [rechecked 1, reused 0]
//! > :load examples/session.fml   -- load a program file (let …;; decls)
//! > :engine core                 -- core | uf | both (differential)
//! > :pure on                     -- toggle the value restriction
//! > :elim on                     -- toggle eliminator instantiation
//! > :env                         -- per-binding types of the session
//! > :quit
//! ```
//!
//! With `--connect ADDR` the REPL speaks the JSON line protocol to a
//! running `freezeml serve --socket ADDR` instead of checking
//! in-process — ADDR is `host:port` for TCP or a path (or `unix:PATH`)
//! for a Unix-domain socket. Engine/option toggles are server-side
//! configuration and are unavailable in that mode.

use freezeml::core::{InstantiationStrategy, Options};
use freezeml::service::{EngineSel, Json, Request, Service, ServiceConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

const DOC: &str = "repl";

/// One binding's verdict, backend-agnostic.
struct BindLine {
    name: String,
    ok: bool,
    display: String,
}

/// What one `edit` round trip reports, backend-agnostic.
struct EditReport {
    bindings: Vec<BindLine>,
    rechecked: u64,
    reused: u64,
    waves: u64,
}

enum RemoteStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// A connection to `freezeml serve --socket`.
struct Remote {
    writer: RemoteStream,
    reader: BufReader<RemoteStream>,
    opened: bool,
}

impl Write for RemoteStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            RemoteStream::Tcp(s) => s.write(buf),
            RemoteStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            RemoteStream::Tcp(s) => s.flush(),
            RemoteStream::Unix(s) => s.flush(),
        }
    }
}

impl io::Read for RemoteStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            RemoteStream::Tcp(s) => s.read(buf),
            RemoteStream::Unix(s) => s.read(buf),
        }
    }
}

impl Remote {
    fn connect(addr: &str) -> io::Result<Remote> {
        let (writer, reader) = if let Some(path) = addr.strip_prefix("unix:") {
            let s = UnixStream::connect(path)?;
            let r = s.try_clone()?;
            (RemoteStream::Unix(s), RemoteStream::Unix(r))
        } else if addr.contains('/') {
            let s = UnixStream::connect(addr)?;
            let r = s.try_clone()?;
            (RemoteStream::Unix(s), RemoteStream::Unix(r))
        } else {
            let s = TcpStream::connect(addr)?;
            let _ = s.set_nodelay(true);
            let r = s.try_clone()?;
            (RemoteStream::Tcp(s), RemoteStream::Tcp(r))
        };
        Ok(Remote {
            writer,
            reader: BufReader::new(reader),
            opened: false,
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Json, String> {
        self.writer
            .write_all(format!("{}\n", req.to_json()).as_bytes())
            .map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Turn one protocol binding object into a display line.
fn bind_line(b: &Json) -> BindLine {
    let name = b
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let status = b.get("status").and_then(Json::as_str).unwrap_or("?");
    let field = |k: &str| b.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let (ok, display) = match status {
        "ok" => {
            let mut d = field("type");
            if let Some(Json::Arr(names)) = b.get("defaulted") {
                let names: Vec<&str> = names.iter().filter_map(Json::as_str).collect();
                d.push_str(&format!("  (defaulted {})", names.join(", ")));
            }
            (true, d)
        }
        "error" => (false, field("message")),
        "blocked" => (false, format!("blocked on `{}`", field("on"))),
        "disagreement" => (
            false,
            format!(
                "engines disagree: core {} vs uf {}",
                field("core"),
                field("uf")
            ),
        ),
        other => (false, format!("unknown status `{other}`")),
    };
    BindLine { name, ok, display }
}

fn edit_report(response: &Json) -> Result<EditReport, String> {
    if response.get("ok") != Some(&Json::Bool(true)) {
        let msg = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("request failed");
        return Err(msg.to_string());
    }
    let bindings = match response.get("bindings") {
        Some(Json::Arr(bs)) => bs.iter().map(bind_line).collect(),
        _ => Vec::new(),
    };
    let num = |k: &str| {
        response
            .get(k)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .unwrap_or(0)
    };
    Ok(EditReport {
        bindings,
        rechecked: num("rechecked"),
        reused: num("reused"),
        waves: num("waves"),
    })
}

enum Backend {
    Local { svc: Box<Service>, opened: bool },
    Remote(Remote),
}

impl Backend {
    /// Replace the session document's text and recheck.
    fn edit(&mut self, text: &str) -> Result<EditReport, String> {
        match self {
            Backend::Local { svc, opened } => {
                let report = if *opened {
                    svc.edit(DOC, text)
                } else {
                    svc.open(DOC, text)
                }
                .map_err(|e| e.to_string())?;
                *opened = true;
                Ok(EditReport {
                    bindings: report
                        .bindings
                        .iter()
                        .map(|b| BindLine {
                            name: b.name.clone(),
                            ok: b.outcome.is_typed(),
                            display: b.outcome.display(),
                        })
                        .collect(),
                    rechecked: report.rechecked as u64,
                    reused: report.reused as u64,
                    waves: report.waves as u64,
                })
            }
            Backend::Remote(conn) => {
                let req = if conn.opened {
                    Request::Edit {
                        doc: DOC.to_string(),
                        text: text.to_string(),
                    }
                } else {
                    Request::Open {
                        doc: DOC.to_string(),
                        text: text.to_string(),
                    }
                };
                let response = conn.round_trip(&req)?;
                let report = edit_report(&response)?;
                conn.opened = true;
                Ok(report)
            }
        }
    }
}

struct Repl {
    backend: Backend,
    engine: EngineSel,
    opts: Options,
    /// The session program (starts with `#use prelude`).
    text: String,
    /// Fresh-name counter for throwaway query bindings.
    queries: usize,
    /// The last accepted report, for `:env`.
    env: Vec<(String, String)>,
}

impl Repl {
    fn new(engine: EngineSel, opts: Options) -> Repl {
        let mut repl = Repl {
            backend: Backend::Local {
                svc: Box::new(Service::new(ServiceConfig {
                    opts,
                    engine,
                    workers: 1,
                })),
                opened: false,
            },
            engine,
            opts,
            text: "#use prelude\n".to_string(),
            queries: 0,
            env: Vec::new(),
        };
        repl.backend
            .edit(&repl.text.clone())
            .expect("the empty session parses");
        repl
    }

    fn connect(addr: &str) -> io::Result<Repl> {
        // An overloaded or draining server sheds whole connections with
        // one structured line (`overloaded` carries a `retry-after-ms`
        // hint) before closing. An interactive client retries a few
        // times with jittered exponential backoff before giving up.
        const ATTEMPTS: u32 = 8;
        let text = "#use prelude\n".to_string();
        let open = Request::Open {
            doc: DOC.to_string(),
            text: text.clone(),
        };
        let mut attempt = 0u32;
        let conn = loop {
            let mut retry = |hint: Option<u64>, why: &str| -> io::Result<()> {
                attempt += 1;
                if attempt >= ATTEMPTS {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("{why}; gave up after {attempt} attempt(s)"),
                    ));
                }
                let ms =
                    freezeml::service::backoff_ms(attempt, hint, u64::from(std::process::id()));
                eprintln!("{why}; retrying in {ms} ms ({attempt}/{ATTEMPTS})");
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            };
            let mut conn = match Remote::connect(addr) {
                Ok(conn) => conn,
                Err(e) => {
                    retry(None, &format!("cannot connect to {addr}: {e}"))?;
                    continue;
                }
            };
            match conn.round_trip(&open) {
                // The server closed before answering — a drained
                // listener does that; retryable.
                Err(e) => {
                    retry(None, &format!("{addr}: {e}"))?;
                    continue;
                }
                Ok(v) => match v.get("error").and_then(Json::as_str) {
                    Some("overloaded") | Some("draining") => {
                        let hint = v
                            .get("retry-after-ms")
                            .and_then(Json::as_num)
                            .map(|n| n as u64);
                        retry(hint, &format!("{addr} shed the connection"))?;
                        continue;
                    }
                    _ => {
                        edit_report(&v)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        conn.opened = true;
                        break conn;
                    }
                },
            }
        };
        Ok(Repl {
            backend: Backend::Remote(conn),
            engine: EngineSel::from_env(),
            opts: Options::default(),
            text,
            queries: 0,
            env: Vec::new(),
        })
    }

    fn remote(&self) -> bool {
        matches!(self.backend, Backend::Remote(_))
    }

    /// Rebuild the local service (engine/options changed), same text.
    fn rebuild(&mut self) {
        let mut fresh = Repl::new(self.engine, self.opts);
        fresh.text = self.text.clone();
        fresh.queries = self.queries;
        let _ = fresh.apply(&fresh.text.clone());
        *self = fresh;
    }

    /// Edit to `text` and remember the resulting env on success.
    fn apply(&mut self, text: &str) -> Result<EditReport, String> {
        let report = self.backend.edit(text)?;
        self.env = report
            .bindings
            .iter()
            .map(|b| (b.name.clone(), b.display.clone()))
            .collect();
        Ok(report)
    }

    /// Try new session text; on any failure, revert to the old text.
    /// Returns the display line(s) for the *last* binding on success.
    fn try_extend(&mut self, new_text: String) -> Result<String, String> {
        match self.apply(&new_text) {
            Err(e) => {
                let _ = self.apply(&self.text.clone());
                Err(e)
            }
            Ok(report) => {
                let last = report.bindings.last().expect("one binding was added");
                let line = format!(
                    "{} : {}\t[rechecked {}, reused {}]",
                    last.name, last.display, report.rechecked, report.reused
                );
                if last.ok {
                    self.text = new_text;
                    Ok(line)
                } else {
                    let msg = last.display.clone();
                    let _ = self.apply(&self.text.clone());
                    Err(msg)
                }
            }
        }
    }

    /// Evaluate a bare term by checking it as a throwaway binding.
    fn query(&mut self, term_src: &str) -> Result<String, String> {
        self.queries += 1;
        let name = format!("it{}", self.queries);
        let probe = format!("{}let {name} = {term_src};;\n", self.text);
        match self.apply(&probe) {
            Err(e) => {
                let _ = self.apply(&self.text.clone());
                Err(e)
            }
            Ok(report) => {
                let display = report
                    .bindings
                    .last()
                    .expect("probe binding")
                    .display
                    .clone();
                let _ = self.apply(&self.text.clone());
                Ok(display)
            }
        }
    }

    fn print_env(&self) {
        if self.env.is_empty() {
            println!("(no session bindings; the Figure 2 prelude is in scope)");
        }
        for (name, display) in &self.env {
            println!("{name} : {display}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut connect = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" if i + 1 < args.len() => {
                connect = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("usage: repl [--connect ADDR] (got `{other}`)");
                return;
            }
        }
    }
    let mut repl = match &connect {
        None => Repl::new(EngineSel::from_env(), Options::default()),
        Some(addr) => match Repl::connect(addr) {
            Ok(r) => {
                println!("connected to {addr}");
                r
            }
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                return;
            }
        },
    };
    println!(
        "FreezeML REPL — service-backed session (engine {:?}, Figure 2 prelude loaded).",
        repl.engine
    );
    println!(
        "Commands: :let x = M, :load FILE, :engine core|uf|both, :env, \
         :pure on|off, :elim on|off, :quit"
    );

    let stdin = io::stdin();
    loop {
        print!("> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":env" {
            repl.print_env();
            continue;
        }
        if (line.starts_with(":engine") || line.starts_with(":pure") || line.starts_with(":elim"))
            && repl.remote()
        {
            println!("engine/options are server-side configuration under --connect");
            continue;
        }
        if let Some(rest) = line.strip_prefix(":engine") {
            match rest.trim() {
                "core" => repl.engine = EngineSel::Core,
                "uf" => repl.engine = EngineSel::Uf,
                "both" => repl.engine = EngineSel::Both,
                other => {
                    println!("usage: :engine core|uf|both (got `{other}`)");
                    continue;
                }
            }
            repl.rebuild();
            println!("engine: {:?}", repl.engine);
            continue;
        }
        if let Some(rest) = line.strip_prefix(":pure") {
            repl.opts.value_restriction = rest.trim() != "on";
            repl.rebuild();
            println!(
                "value restriction {}",
                if repl.opts.value_restriction {
                    "on"
                } else {
                    "off (pure FreezeML)"
                }
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix(":elim") {
            repl.opts.instantiation = if rest.trim() == "on" {
                InstantiationStrategy::Eliminator
            } else {
                InstantiationStrategy::Variable
            };
            repl.rebuild();
            println!("instantiation strategy: {:?}", repl.opts.instantiation);
            continue;
        }
        if let Some(rest) = line.strip_prefix(":load") {
            let path = rest.trim();
            match std::fs::read_to_string(path) {
                Err(e) => println!("error: {path}: {e}"),
                Ok(contents) => {
                    let text = if contents.contains("#use prelude") {
                        contents
                    } else {
                        format!("#use prelude\n{contents}")
                    };
                    match repl.apply(&text) {
                        Err(e) => {
                            let _ = repl.apply(&repl.text.clone());
                            println!("error: {e}");
                        }
                        Ok(report) => {
                            repl.text = text;
                            for b in &report.bindings {
                                println!("{} : {}", b.name, b.display);
                            }
                            println!(
                                "[{} binding(s), rechecked {}, reused {}, {} wave(s)]",
                                report.bindings.len(),
                                report.rechecked,
                                report.reused,
                                report.waves
                            );
                        }
                    }
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":let") {
            let Some((name, body)) = rest.split_once('=') else {
                println!("usage: :let x = M");
                continue;
            };
            let decl = format!("let {} = {};;\n", name.trim(), body.trim());
            match repl.try_extend(format!("{}{decl}", repl.text)) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line.starts_with(':') {
            println!("unknown command `{line}`");
            continue;
        }
        match repl.query(line) {
            Ok(ty) => println!("{ty}"),
            Err(e) => println!("error: {e}"),
        }
    }
}
