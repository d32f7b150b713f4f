//! Load generation: deterministic random programs for throughput
//! benchmarks, the incremental-vs-scratch property tests, and a
//! corpus-replay driver for the CLI and CI.
//!
//! Programs are generated well-typed by construction: each binding is
//! drawn from a small set of shapes over the Figure 2 prelude, and
//! references only target earlier bindings of a compatible type class
//! (`Int`, `List Int`, `Int * Bool`, or the identity scheme
//! `∀a. a → a`). Edits ([`GenProgram::with_edit`]) replace one binding's
//! right-hand side with a fresh same-class body, so the program stays
//! well typed while the binding's content hash — and therefore exactly
//! its dependency cone — changes.

use crate::exec::CheckReport;
use crate::protocol::Json;
use crate::service::Service;

/// SplitMix64 — tiny, deterministic, dependency-free.
#[derive(Clone, Copy, Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The type class a generated binding lands in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// `Int`
    Int,
    /// `∀a. a → a`
    IdScheme,
    /// `Int * Bool`
    Pair,
    /// `List Int`
    ListInt,
}

/// A generated program: binding bodies plus their type classes, so
/// same-class edits can be produced deterministically.
#[derive(Clone, Debug)]
pub struct GenProgram {
    rhs: Vec<String>,
    classes: Vec<Class>,
}

impl GenProgram {
    /// Generate `n` bindings from `seed`.
    pub fn generate(n: usize, seed: u64) -> GenProgram {
        let mut rng = Rng::new(seed);
        let mut rhs: Vec<String> = Vec::with_capacity(n);
        let mut classes: Vec<Class> = Vec::with_capacity(n);
        let pick = |rng: &mut Rng, classes: &[Class], want: Class| -> Option<String> {
            let candidates: Vec<usize> = classes
                .iter()
                .enumerate()
                .filter(|(_, c)| **c == want)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(format!("b{}", candidates[rng.below(candidates.len())]))
            }
        };
        for i in 0..n {
            let (body, class) = loop {
                match rng.below(10) {
                    0 | 1 => break (format!("{}", rng.below(1000)), Class::Int),
                    2 => break ("$(fun x -> x)".to_string(), Class::IdScheme),
                    3 => {
                        if let Some(j) = pick(&mut rng, &classes, Class::Int) {
                            break (format!("plus {j} {}", rng.below(100)), Class::Int);
                        }
                    }
                    4 => {
                        if let Some(j) = pick(&mut rng, &classes, Class::IdScheme) {
                            break (format!("auto ~{j}"), Class::IdScheme);
                        }
                    }
                    5 => {
                        if let Some(j) = pick(&mut rng, &classes, Class::IdScheme) {
                            break (format!("poly ~{j}"), Class::Pair);
                        }
                    }
                    6 => {
                        if let Some(j) = pick(&mut rng, &classes, Class::Pair) {
                            break (format!("plus (fst {j}) 1"), Class::Int);
                        }
                    }
                    7 => {
                        if let Some(j) = pick(&mut rng, &classes, Class::Int) {
                            break (format!("single {j}"), Class::ListInt);
                        }
                    }
                    8 => {
                        if let (Some(j), Some(l)) = (
                            pick(&mut rng, &classes, Class::Int),
                            pick(&mut rng, &classes, Class::ListInt),
                        ) {
                            break (format!("{j} :: {l}"), Class::ListInt);
                        }
                    }
                    _ => {
                        if let Some(l) = pick(&mut rng, &classes, Class::ListInt) {
                            break (format!("head {l}"), Class::Int);
                        }
                    }
                }
            };
            let _ = i;
            rhs.push(body);
            classes.push(class);
        }
        GenProgram { rhs, classes }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.rhs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.rhs.is_empty()
    }

    /// The binding name at index `i` (`b0`, `b1`, …).
    pub fn name(&self, i: usize) -> String {
        format!("b{i}")
    }

    /// Render the program text.
    pub fn text(&self) -> String {
        self.render(None)
    }

    /// Render the program with binding `i`'s body replaced — a
    /// single-pass, allocation-light version of
    /// `self.with_edit(i, salt).text()` for hot edit loops.
    pub fn edited_text(&self, i: usize, salt: u64) -> String {
        self.render(Some((i, Self::edit_body(self.classes[i], salt))))
    }

    fn render(&self, edit: Option<(usize, String)>) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32 * (self.rhs.len() + 1));
        out.push_str("#use prelude\n");
        for (i, body) in self.rhs.iter().enumerate() {
            let body = match &edit {
                Some((j, replacement)) if *j == i => replacement.as_str(),
                _ => body.as_str(),
            };
            let _ = writeln!(out, "let b{i} = {body};;");
        }
        out
    }

    /// A copy with binding `i`'s body replaced by a fresh body of the
    /// same type class. Distinct salts give distinct bodies (no
    /// wrap-around), so repeated edits never accidentally hit the
    /// scheme cache. The program stays well typed; binding `i`'s
    /// content hash changes.
    pub fn with_edit(&self, i: usize, salt: u64) -> GenProgram {
        let mut out = self.clone();
        out.rhs[i] = Self::edit_body(self.classes[i], salt);
        out
    }

    fn edit_body(class: Class, salt: u64) -> String {
        // Literals live above 10⁹ — the generator's own literals stay
        // below 1000, so an edit can never reproduce an original body.
        let n = 1_000_000_000 + salt % 1_000_000_000;
        match class {
            Class::Int => format!("{n}"),
            Class::IdScheme => format!("$(fun e{salt} -> e{salt})"),
            Class::Pair => format!("({n}, false)"),
            Class::ListInt => format!("single {n}"),
        }
    }
}

/// A closed-loop socket load mix: concurrent clients, each driving a
/// session of `open` / `edit` / `check` / `type-of` / `elaborate`
/// requests (some batched) with a think-time pause between round trips.
///
/// The load is *closed-loop* deliberately: each client waits for its
/// response (and then thinks) before sending again, like an editor
/// would. Session threads that are idle during one client's think time
/// serve another client's request, so `sessions > 1` overlaps latency
/// even on a single CPU — the scaling the `service/workers/<k>` bench
/// records.
#[derive(Clone, Copy, Debug)]
pub struct LoadMix {
    /// Concurrent client connections.
    pub clients: usize,
    /// Bindings per client program.
    pub bindings: usize,
    /// Edit rounds per client (each round: one `edit`, one `type-of`,
    /// and one batched `check`+`type-of`+`elaborate` line).
    pub edits_per_client: usize,
    /// Pause between a response and the next request.
    pub think: std::time::Duration,
    /// Base for edit salts. Distinct bases give distinct edited bodies,
    /// so repeated runs against one hub keep missing the outcome cache
    /// on the edited cone (the steady-state serving cost), while
    /// everything else hits it.
    pub salt_base: u64,
}

impl Default for LoadMix {
    fn default() -> Self {
        LoadMix {
            clients: 6,
            bindings: 16,
            edits_per_client: 4,
            think: std::time::Duration::from_micros(200),
            salt_base: 0,
        }
    }
}

/// The delay before retry number `attempt` (1-based) of an overloaded
/// or refused connection: exponential in the attempt with a uniform
/// jitter in the upper half, seeded deterministically by `salt` so
/// load runs stay reproducible. `hint_ms` is the server's
/// `retry-after-ms` when it sent one — it replaces the default base so
/// a fleet of shed clients spreads over the window the server asked
/// for instead of stampeding back in lockstep.
pub fn backoff_ms(attempt: u32, hint_ms: Option<u64>, salt: u64) -> u64 {
    let base = hint_ms.unwrap_or(10).clamp(1, 10_000);
    let exp = base.saturating_mul(1 << attempt.min(6)).min(10_000);
    let jitter = Rng::new(salt ^ u64::from(attempt)).next() % exp.max(1);
    exp / 2 + jitter / 2
}

/// Is this response a connection-level shed (`overloaded` with a retry
/// hint, or `draining`) rather than an answer to the request?
fn is_shed(v: &Json) -> bool {
    matches!(
        v.get("error").and_then(Json::as_str),
        Some("overloaded" | "draining")
    )
}

/// Retry budget for shed or refused connections before a load client
/// gives up loudly.
const MAX_RETRIES: u32 = 64;

/// Drive a TCP socket server at `addr` with `mix`. Returns the total
/// number of request lines sent (batches count as one line; shed
/// attempts that were retried do not count). Connections refused or
/// shed by admission control (`overloaded` / `draining`) are retried
/// with jittered exponential backoff, honoring the server's
/// `retry-after-ms` hint. Panics on any protocol-level surprise — a
/// response that is not a JSON line, a failed open/edit, or a type-of
/// miss — so benches and CI smoke runs fail loudly rather than
/// measuring garbage.
pub fn drive_tcp(addr: &str, mix: &LoadMix) -> usize {
    use crate::protocol::Request;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    /// `Some(response)`, or `None` if the server closed before
    /// answering (a drained listener can do that) — retryable.
    fn round_trip(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        line: &str,
    ) -> Option<Json> {
        // One write per request (see `server::serve_with` on Nagle).
        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
            return None;
        }
        if writer.flush().is_err() {
            return None;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                // lint: allow(unwrap) — load harness: a malformed response is a protocol bug worth a panic
                Some(Json::parse(response.trim_end()).expect("every response is one JSON line"))
            }
        }
    }

    let assert_ok = |v: &Json, what: &str| {
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{what}: {v}");
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix.clients)
            .map(|k| {
                let mix = *mix;
                scope.spawn(move || {
                    let g = GenProgram::generate(mix.bindings, 100 + (k % 4) as u64);
                    let doc = "d".to_string();
                    let open = Request::Open {
                        doc: doc.clone(),
                        text: g.text(),
                    };
                    let open_line = open.to_json().to_string();
                    let mut sent = 0usize;
                    // Connect and open, retrying shed and refused
                    // attempts with backoff. A shed can only happen
                    // before the first answer (admission control works
                    // on whole connections), so once the open is
                    // answered the session is admitted for good.
                    let mut attempt = 0u32;
                    let (mut writer, mut reader) = loop {
                        assert!(
                            attempt < MAX_RETRIES,
                            "client {k}: still shed after {attempt} retries"
                        );
                        let mut retry = |hint: Option<u64>| {
                            attempt += 1;
                            std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
                                attempt,
                                hint,
                                0xB0FF ^ k as u64,
                            )));
                        };
                        let Ok(stream) = TcpStream::connect(addr) else {
                            retry(None);
                            continue;
                        };
                        let _ = stream.set_nodelay(true);
                        let mut w = stream;
                        // lint: allow(unwrap) — load harness: local stream clone failure aborts the run
                        let mut r = BufReader::new(w.try_clone().expect("clone stream"));
                        std::thread::sleep(mix.think);
                        match round_trip(&mut w, &mut r, &open_line) {
                            None => retry(None),
                            Some(v) if is_shed(&v) => {
                                let hint = v
                                    .get("retry-after-ms")
                                    .and_then(Json::as_num)
                                    .map(|n| n as u64);
                                retry(hint);
                            }
                            Some(v) => {
                                assert_ok(&v, "open");
                                sent += 1;
                                break (w, r);
                            }
                        }
                    };
                    let mut send = |w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str| {
                        std::thread::sleep(mix.think);
                        sent += 1;
                        // lint: allow(unwrap) — load harness: mid-session close is a server bug worth a panic
                        round_trip(w, r, line).expect("server closed mid-session")
                    };
                    for e in 0..mix.edits_per_client {
                        let i = (k + 3 * e) % g.len();
                        let salt = mix.salt_base + (k * 1000 + e) as u64;
                        let edit = Request::Edit {
                            doc: doc.clone(),
                            text: g.edited_text(i, salt),
                        };
                        assert_ok(
                            &send(&mut writer, &mut reader, &edit.to_json().to_string()),
                            "edit",
                        );
                        let probe = Request::TypeOf {
                            doc: doc.clone(),
                            name: g.name(i),
                        };
                        let r = send(&mut writer, &mut reader, &probe.to_json().to_string());
                        assert_eq!(r.get("found"), Some(&Json::Bool(true)), "type-of: {r}");
                        // One batched line: recheck, probe another
                        // binding, elaborate a third.
                        let batch = Json::Arr(vec![
                            Request::Check { doc: doc.clone() }.to_json(),
                            Request::TypeOf {
                                doc: doc.clone(),
                                name: g.name((i + 1) % g.len()),
                            }
                            .to_json(),
                            Request::Elaborate {
                                doc: doc.clone(),
                                name: g.name((i + 2) % g.len()),
                            }
                            .to_json(),
                        ]);
                        let r = send(&mut writer, &mut reader, &batch.to_string());
                        match &r {
                            Json::Arr(items) => {
                                assert_eq!(items.len(), 3, "batch answers in full: {r}");
                                for item in items {
                                    assert_ok(item, "batched request");
                                }
                            }
                            other => panic!("batch line answered {other}"),
                        }
                    }
                    let close = Request::Close { doc };
                    let r = send(&mut writer, &mut reader, &close.to_json().to_string());
                    assert_eq!(r.get("closed"), Some(&Json::Bool(true)), "close: {r}");
                    sent
                })
            })
            .collect();
        // lint: allow(unwrap) — load harness: worker panics propagate the assertion
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Aggregate statistics from a corpus replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayStats {
    /// Programs replayed.
    pub programs: usize,
    /// Total bindings across all programs.
    pub bindings: usize,
    /// Bindings inferred during the cold opens.
    pub cold_rechecked: usize,
    /// Warm edits performed (two per binding: touch and restore).
    pub edits: usize,
    /// Bindings inferred across all warm edits.
    pub warm_rechecked: usize,
    /// Hard failures (disagreements, unexpected parse errors), rendered.
    pub failures: Vec<String>,
}

impl ReplayStats {
    /// A one-paragraph human rendering.
    pub fn render(&self) -> String {
        format!(
            "replayed {} program(s), {} binding(s): cold rechecked {}, \
             {} warm edit(s) rechecked {} ({:.2} bindings/edit); {} failure(s)",
            self.programs,
            self.bindings,
            self.cold_rechecked,
            self.edits,
            self.warm_rechecked,
            if self.edits == 0 {
                0.0
            } else {
                self.warm_rechecked as f64 / self.edits as f64
            },
            self.failures.len(),
        )
    }
}

fn scan_report(stats: &mut ReplayStats, id: &str, report: &CheckReport) {
    for b in report.bindings.iter() {
        if let crate::db::Outcome::Disagreement { core, uf } = &b.outcome {
            stats.failures.push(format!(
                "{id}: `{}` disagreement (core: {core}, uf: {uf})",
                b.name
            ));
        }
    }
}

/// Replay a corpus of `(id, program-text)` documents through a service:
/// cold-open each, then touch every binding in place (append a `--`
/// comment line inside its declaration, before the `;;`) and recheck
/// warm, then restore. Collects the recheck counters that the
/// throughput claims are made of and flags engine disagreements.
pub fn replay(svc: &mut Service, programs: &[(String, String)]) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for (id, text) in programs {
        let report = match svc.open(id, text) {
            Ok(r) => r.clone(),
            Err(e) => {
                stats.failures.push(format!("{id}: {e}"));
                continue;
            }
        };
        stats.programs += 1;
        stats.bindings += report.bindings.len();
        stats.cold_rechecked += report.rechecked;
        scan_report(&mut stats, id, &report);

        // Touch each binding: a `--` comment inside the declaration
        // slice changes its content hash without changing its meaning
        // (and exercises the chunk scanner's comment handling — the
        // comment itself contains a `;;`).
        let Ok(program) = freezeml_core::parse_program(text) else {
            continue; // unreachable: the open above parsed
        };
        for d in &program.decls {
            let end = d.span.end - 2; // before the `;;`
            let touched = format!("{} -- touch ;;\n{}", &text[..end], &text[end..]);
            match svc.edit(id, &touched) {
                Ok(r) => {
                    stats.edits += 1;
                    stats.warm_rechecked += r.rechecked;
                    let r = r.clone();
                    scan_report(&mut stats, id, &r);
                }
                Err(e) => stats.failures.push(format!("{id} (touch {}): {e}", d.name)),
            }
            match svc.edit(id, text) {
                Ok(r) => {
                    stats.edits += 1;
                    stats.warm_rechecked += r.rechecked;
                }
                Err(e) => stats
                    .failures
                    .push(format!("{id} (restore {}): {e}", d.name)),
            }
        }
        svc.close(id);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineSel;
    use crate::service::ServiceConfig;
    use freezeml_core::Options;

    fn svc(engine: EngineSel) -> Service {
        Service::new(ServiceConfig {
            opts: Options::default(),
            engine,
            workers: 2,
        })
    }

    #[test]
    fn the_load_mix_drives_a_socket_server_to_completion() {
        use crate::server::ServeOptions;
        use crate::shared::Shared;
        use crate::sock::SocketServer;
        use crate::sync::Arc;

        let mut server = SocketServer::spawn_tcp(
            "127.0.0.1:0",
            ServiceConfig {
                opts: Options::default(),
                engine: EngineSel::Uf,
                workers: 1,
            },
            Arc::new(Shared::new()),
            2,
            ServeOptions::default(),
        )
        .unwrap();
        let mix = LoadMix {
            clients: 3,
            bindings: 8,
            edits_per_client: 2,
            think: std::time::Duration::from_micros(50),
            salt_base: 1,
        };
        let sent = drive_tcp(server.local_addr(), &mix);
        // Per client: open + 2 × (edit, type-of, batch) + close = 8.
        assert_eq!(sent, 3 * 8);
        // A second run against the same hub (fresh salts) still works.
        let sent = drive_tcp(
            server.local_addr(),
            &LoadMix {
                salt_base: 100_000,
                ..mix
            },
        );
        assert_eq!(sent, 3 * 8);
        server.shutdown();
    }

    #[test]
    fn generated_programs_are_well_typed_and_deterministic() {
        for seed in [1u64, 2, 3] {
            let g = GenProgram::generate(40, seed);
            assert_eq!(g.text(), GenProgram::generate(40, seed).text());
            let mut s = svc(EngineSel::Both);
            let r = s.open("g", &g.text()).unwrap();
            assert!(
                r.all_typed(),
                "seed {seed}: {:?}",
                r.bindings
                    .iter()
                    .filter(|b| !b.outcome.is_typed())
                    .map(|b| (&b.name, b.outcome.display()))
                    .collect::<Vec<_>>()
            );
            assert_eq!(r.rechecked, 40);
        }
    }

    #[test]
    fn edits_keep_programs_well_typed() {
        let g = GenProgram::generate(30, 7);
        let mut s = svc(EngineSel::Both);
        s.open("g", &g.text()).unwrap();
        for i in [0usize, 7, 15, 29] {
            let edited = g.with_edit(i, i as u64 + 1);
            let r = s.edit("g", &edited.text()).unwrap();
            assert!(r.all_typed(), "edit {i}: {:?}", r.bindings);
            // Restore for the next round.
            s.edit("g", &g.text()).unwrap();
        }
    }

    #[test]
    fn replay_collects_counters_and_flags_nothing_on_good_programs() {
        let g = GenProgram::generate(12, 11);
        let mut s = svc(EngineSel::Both);
        let stats = replay(
            &mut s,
            &[
                ("gen".to_string(), g.text()),
                ("tiny".to_string(), "let x = 1;;".to_string()),
            ],
        );
        assert_eq!(stats.programs, 2);
        assert_eq!(stats.bindings, 13);
        assert_eq!(stats.cold_rechecked, 13);
        assert_eq!(stats.edits, 26);
        assert!(stats.failures.is_empty(), "{:?}", stats.failures);
        // Warm edits must be dramatically cheaper than cold checks.
        assert!(
            stats.warm_rechecked < stats.bindings * stats.edits,
            "incrementality failed: {}",
            stats.render()
        );
        assert!(stats.render().contains("replayed 2 program(s)"));
    }
}
