//! The traced run: the same seeded request stream, sent in-process
//! through each layer's public functions, with a span around every layer
//! call. The pipeline follows `Service::set_text` and `Service::check`
//! call for call (both document-report probes included), so the residue
//! between the traced whole request and the layers is the serving code
//! between them, and the residue between the wire median and the traced
//! whole is the socket, the session loop and the client.

use crate::alloc;
use crate::gen::{verify_line, Kind, Line, Stream, Workload};
use freezeml_obs::{Cmd, TraceCtx};
use freezeml_service::protocol::{error_json, report_json};
use freezeml_service::{
    analyze_cached, doc_key, doc_verify, Analysis, CheckReport, EngineSel, Executor, Json, Outcome,
    Request, Service, ServiceConfig, ServiceError, Shared,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers spans are recorded around.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Layer {
    /// `Json::parse` + `Request::from_json`; `a` = bytes decoded.
    Decode,
    /// `doc_key`, `doc_verify`, `Shared::doc_report` (and the
    /// `record_doc_report` write); `a` = hits, `b` = probes.
    DocProbe,
    /// `analyze_cached` on `Shared::frontend()`; `a` = chunks parsed,
    /// `b` = chunks served from the parse cache, `c` = lock wait in ns.
    Analyze,
    /// `Executor::run_budgeted`; `a` = rechecked, `b` = reused, `c` = waves.
    Exec,
    /// `report_json` (for `type-of`, its answer object); `a` = bindings.
    Report,
    /// `Json` `Display`; `a` = bytes encoded.
    Encode,
    /// `Service::elaborate`.
    Elaborate,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Decode,
        Layer::DocProbe,
        Layer::Analyze,
        Layer::Exec,
        Layer::Report,
        Layer::Encode,
        Layer::Elaborate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Decode => "protocol.decode",
            Layer::DocProbe => "service.doc_probe",
            Layer::Analyze => "db.analyze",
            Layer::Exec => "exec.run",
            Layer::Report => "protocol.report",
            Layer::Encode => "protocol.encode",
            Layer::Elaborate => "service.elaborate",
        }
    }
}

/// One recorded span. `layer` is `None` for a whole request line, whose
/// `parent` is `None`; a layer span's parent is its line's span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub req: u32,
    pub parent: Option<usize>,
    pub layer: Option<Layer>,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

struct Mark {
    t: Instant,
    allocs: (u64, u64),
}

fn mark() -> Mark {
    let allocs = alloc::snapshot();
    Mark {
        t: Instant::now(),
        allocs,
    }
}

struct Rec {
    epoch: Instant,
    spans: Vec<SpanRec>,
    req: u32,
    kind: Kind,
    whole: usize,
    /// Analyses that found the frontend past its chunk cap and cleared it.
    frontend_clears: u64,
}

impl Rec {
    fn end(&mut self, m: Mark, layer: Option<Layer>, a: u64, b: u64, c: u64) -> SpanRec {
        let end = Instant::now();
        let (n, bytes) = alloc::snapshot();
        SpanRec {
            req: self.req,
            parent: layer.map(|_| self.whole),
            layer,
            kind: self.kind,
            start_ns: (m.t - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            allocs: n - m.allocs.0,
            alloc_bytes: bytes - m.allocs.1,
            a,
            b,
            c,
        }
    }

    fn layer(&mut self, m: Mark, layer: Layer, a: u64, b: u64, c: u64) {
        let s = self.end(m, Some(layer), a, b, c);
        self.spans.push(s);
    }
}

struct Doc {
    text: String,
    analysis: Option<Analysis>,
    report: Option<Arc<CheckReport>>,
}

/// `service::warmed`: the form the document-report cache stores.
fn warmed(report: &CheckReport) -> CheckReport {
    CheckReport {
        bindings: report.bindings.clone(),
        rechecked: 0,
        reused: report.bindings.len(),
        blocked: 0,
        waves: 0,
    }
}

/// `service::report_cacheable`.
fn report_cacheable(report: &CheckReport) -> bool {
    report.bindings.iter().all(|b| match &b.outcome {
        Outcome::Disagreement { .. } => false,
        Outcome::Error { class, .. } => class != freezeml_service::exec::INTERNAL_ERROR_CLASS,
        _ => true,
    })
}

/// The per-request budget the socket server sets by default.
const BUDGET: Duration = Duration::from_secs(10);

/// The document-report probe: `doc_key`, `doc_verify`, `doc_report`.
fn probe(
    shared: &Shared,
    cfg: &ServiceConfig,
    rec: &mut Rec,
    text: &str,
) -> (u64, u64, Option<Arc<CheckReport>>) {
    let m = mark();
    let dkey = doc_key(text, &cfg.opts, cfg.engine);
    let dverify = doc_verify(text);
    let hit = shared.doc_report(dkey, dverify);
    rec.layer(m, Layer::DocProbe, u64::from(hit.is_some()), 1, 0);
    (dkey, dverify, hit)
}

/// `analyze_cached` under the hub's frontend lock, timing the wait. A
/// chunk count that drops across the call is the frontend's cap clear.
fn analyze(
    shared: &Shared,
    cfg: &ServiceConfig,
    rec: &mut Rec,
    text: &str,
) -> Result<Analysis, ServiceError> {
    let m = mark();
    let t = Instant::now();
    let mut fe = shared.frontend();
    let wait = t.elapsed().as_nanos() as u64;
    let (h0, m0, n0) = (fe.parse_hits(), fe.parse_misses(), fe.chunk_count());
    let r = analyze_cached(&mut fe, text, &cfg.opts, cfg.engine);
    let (h1, m1, n1) = (fe.parse_hits(), fe.parse_misses(), fe.chunk_count());
    drop(fe);
    rec.layer(m, Layer::Analyze, m1 - m0, h1 - h0, wait);
    rec.frontend_clears += u64::from(n1 < n0);
    r.map_err(ServiceError::Parse)
}

/// The session's in-process serving pipeline.
struct Pipe {
    cfg: ServiceConfig,
    exec: Executor,
    shared: Arc<Shared>,
    docs: HashMap<String, Doc>,
    /// Serves `elaborate`: opened on the document's current text (a
    /// document-report hit) and analysed before the traced request, so
    /// the timed call does what the server's session does.
    shadow: Service,
    rec: Rec,
}

impl Pipe {
    fn new(cfg: ServiceConfig, shared: &Arc<Shared>) -> Pipe {
        Pipe {
            cfg,
            exec: Executor::new(cfg.workers, cfg.opts, cfg.engine),
            shared: Arc::clone(shared),
            docs: HashMap::new(),
            shadow: Service::with_shared(cfg, Arc::clone(shared)),
            rec: Rec {
                epoch: Instant::now(),
                spans: Vec::with_capacity(1 << 16),
                req: 0,
                kind: Kind::Open,
                whole: 0,
                frontend_clears: 0,
            },
        }
    }

    fn note_report(&self, report: &CheckReport) {
        let m = self.shared.metrics();
        m.bindings.add(report.bindings.len() as u64);
        m.rechecked.add(report.rechecked as u64);
        m.reused.add(report.reused as u64);
        m.blocked.add(report.blocked as u64);
        m.waves.add(report.waves as u64);
    }

    /// `Service::set_text`.
    fn set_text(&mut self, doc: &str, text: &str) -> Result<Arc<CheckReport>, ServiceError> {
        if let (_, _, Some(report)) = probe(&self.shared, &self.cfg, &mut self.rec, text) {
            self.note_report(&report);
            let entry = self.docs.entry(doc.to_string()).or_insert(Doc {
                text: String::new(),
                analysis: None,
                report: None,
            });
            if entry.text != text {
                entry.text = text.to_string();
                entry.analysis = None;
            }
            entry.report = Some(Arc::clone(&report));
            return Ok(report);
        }
        let analysis = analyze(&self.shared, &self.cfg, &mut self.rec, text)?;
        self.docs.insert(
            doc.to_string(),
            Doc {
                text: text.to_string(),
                analysis: Some(analysis),
                report: None,
            },
        );
        self.check(doc)
    }

    /// `Service::check`.
    fn check(&mut self, doc: &str) -> Result<Arc<CheckReport>, ServiceError> {
        let Some(entry) = self.docs.get_mut(doc) else {
            return Err(ServiceError::UnknownDoc(doc.to_string()));
        };
        let (dkey, dverify, hit) = probe(&self.shared, &self.cfg, &mut self.rec, &entry.text);
        if let Some(report) = hit {
            entry.report = Some(Arc::clone(&report));
            self.note_report(&report);
            return Ok(report);
        }
        if entry.analysis.is_none() {
            entry.analysis = Some(analyze(
                &self.shared,
                &self.cfg,
                &mut self.rec,
                &entry.text,
            )?);
        }
        let m = mark();
        let a = entry.analysis.as_ref().expect("analysed above");
        let report = self
            .exec
            .run_budgeted(
                a,
                &self.shared,
                TraceCtx::default(),
                Some(Instant::now() + BUDGET),
            )
            .map_err(|_| ServiceError::Deadline)?;
        self.rec.layer(
            m,
            Layer::Exec,
            report.rechecked as u64,
            report.reused as u64,
            report.waves as u64,
        );
        if report_cacheable(&report) {
            let m = mark();
            self.shared
                .record_doc_report(dkey, dverify, Arc::new(warmed(&report)));
            self.rec.layer(m, Layer::DocProbe, 0, 0, 0);
        }
        let report = Arc::new(report);
        entry.report = Some(Arc::clone(&report));
        self.note_report(&report);
        Ok(report)
    }

    fn report(&mut self, doc: &str, report: &CheckReport) -> Json {
        let report = report.clone();
        let m = mark();
        let text = self.docs.get(doc).map_or("", |d| d.text.as_str());
        let v = report_json(doc, &report, text);
        self.rec
            .layer(m, Layer::Report, report.bindings.len() as u64, 0, 0);
        v
    }

    /// `protocol::handle` for one request.
    fn handle(&mut self, req: &Request) -> Json {
        match req {
            Request::Open { doc, text } | Request::Edit { doc, text } => {
                if matches!(req, Request::Edit { .. }) && !self.docs.contains_key(doc) {
                    return error_json(&ServiceError::UnknownDoc(doc.clone()), None);
                }
                match self.set_text(doc, text) {
                    Ok(r) => self.report(doc, &r),
                    Err(e) => error_json(&e, Some(text)),
                }
            }
            Request::Check { doc } => match self.check(doc) {
                Ok(r) => self.report(doc, &r),
                Err(e) => error_json(&e, None),
            },
            Request::TypeOf { doc, name } => {
                let m = mark();
                let v = match self.docs.get(doc) {
                    None => error_json(&ServiceError::UnknownDoc(doc.clone()), None),
                    Some(d) => match d.report.as_ref().and_then(|r| r.binding(name)) {
                        None => Json::obj([
                            ("ok", Json::Bool(true)),
                            ("name", Json::Str(name.clone())),
                            ("found", Json::Bool(false)),
                        ]),
                        Some(b) => Json::obj([
                            ("ok", Json::Bool(true)),
                            ("name", Json::Str(name.clone())),
                            ("found", Json::Bool(true)),
                            ("result", Json::Str(b.outcome.display())),
                        ]),
                    },
                };
                self.rec.layer(m, Layer::Report, 0, 0, 0);
                v
            }
            Request::Elaborate { doc, name } => {
                let m = mark();
                let r = self.shadow.elaborate(doc, name);
                self.rec.layer(m, Layer::Elaborate, 0, 0, 0);
                match r {
                    Err(e) => error_json(&e, None),
                    Ok(None) => Json::obj([
                        ("ok", Json::Bool(true)),
                        ("name", Json::Str(name.clone())),
                        ("found", Json::Bool(false)),
                    ]),
                    Ok(Some(info)) => Json::obj([
                        ("ok", Json::Bool(true)),
                        ("name", Json::Str(name.clone())),
                        ("found", Json::Bool(true)),
                        ("fterm", Json::Str(info.fterm)),
                        ("type", Json::Str(info.ty)),
                        ("checked", Json::Bool(true)),
                    ]),
                }
            }
            Request::Close { doc } => Json::obj([
                ("ok", Json::Bool(true)),
                ("closed", Json::Bool(self.docs.remove(doc).is_some())),
            ]),
            Request::Stats | Request::Metrics | Request::Shutdown => error_json(
                &ServiceError::Elaborate("not in a traced stream".into()),
                None,
            ),
        }
    }

    /// `protocol::handle_value`.
    fn handle_value(&mut self, v: &Json) -> Json {
        let t0 = Instant::now();
        let m = mark();
        let req = Request::from_json(v);
        self.rec.layer(m, Layer::Decode, 0, 0, 0);
        let (cmd, resp) = match req {
            Ok(req) => (cmd_of(&req), self.handle(&req)),
            Err(msg) => (
                Cmd::Invalid,
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("error", Json::obj([("message", Json::Str(msg))])),
                ]),
            ),
        };
        let is_error = resp.get("ok") == Some(&Json::Bool(false));
        self.shared
            .metrics()
            .record_request(cmd, t0.elapsed(), is_error);
        resp
    }

    /// Bring the shadow session to the current text of every document
    /// this line elaborates in — untimed, before the line's span opens.
    fn prepare_elaborate(&mut self, line: &Line) {
        for (_, doc) in line.reqs.iter().filter(|r| r.0 == Kind::Elaborate) {
            let Some(text) = self.docs.get(doc).map(|d| d.text.clone()) else {
                continue;
            };
            if self.shadow.text(doc) != Some(text.as_str()) {
                let _ = self.shadow.open(doc, &text);
                // A name no program binds: fills the analysis only.
                let _ = self.shadow.elaborate(doc, " ");
            }
        }
    }

    /// `protocol::handle_line` plus the answer's encoding, in one span.
    fn line(&mut self, line: &Line) -> Json {
        self.prepare_elaborate(line);
        self.rec.req += 1;
        self.rec.kind = *line
            .timed_as
            .last()
            .expect("every line is timed as some kind");
        self.rec.whole = self.rec.spans.len();
        let placeholder = self.rec.end(mark(), None, 0, 0, 0);
        self.rec.spans.push(placeholder);
        let whole = mark();
        let m = mark();
        let parsed = Json::parse(&line.text);
        self.rec
            .layer(m, Layer::Decode, line.text.len() as u64, 0, 0);
        let resp = match parsed {
            Ok(Json::Arr(items)) => Json::Arr(items.iter().map(|v| self.handle_value(v)).collect()),
            Ok(v) => self.handle_value(&v),
            Err(e) => Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::obj([("message", Json::Str(e.to_string()))])),
            ]),
        };
        let m = mark();
        let out = resp.to_string();
        self.rec.layer(m, Layer::Encode, out.len() as u64, 0, 0);
        std::hint::black_box(&out);
        let w = self.rec.end(whole, None, 0, 0, 0);
        self.rec.spans[self.rec.whole] = w;
        for (_, doc) in line.reqs.iter().filter(|r| r.0 == Kind::Close) {
            self.shadow.close(doc);
        }
        resp
    }
}

/// `stats::cmd_of`.
fn cmd_of(req: &Request) -> Cmd {
    match req {
        Request::Open { .. } => Cmd::Open,
        Request::Edit { .. } => Cmd::Edit,
        Request::Check { .. } => Cmd::Check,
        Request::TypeOf { .. } => Cmd::TypeOf,
        Request::Elaborate { .. } => Cmd::Elaborate,
        Request::Close { .. } => Cmd::Close,
        Request::Stats => Cmd::Stats,
        Request::Metrics => Cmd::Metrics,
        Request::Shutdown => Cmd::Shutdown,
    }
}

/// Everything one traced run recorded.
pub struct TraceRun {
    pub spans: Vec<SpanRec>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub frontend_clears: u64,
    pub bank_nodes: u64,
    pub render_hit_ratio: f64,
    pub verdict_entries: u64,
    pub doc_entries: u64,
    pub frontend_entries: u64,
}

/// Run `iterations` of the stream (documents divided by `scale`) through
/// the in-process pipeline, after its set-up opens.
pub fn run(w: Workload, seed: u64, scale: usize, iterations: u64) -> Result<TraceRun, String> {
    alloc::enable();
    // Socket sessions run single-worker (`sock::session_config`).
    let cfg = ServiceConfig {
        workers: 1,
        engine: EngineSel::Uf,
        ..ServiceConfig::default()
    };
    let shared = Arc::new(Shared::new());
    let stream = Stream::new(w, seed, scale)?;
    let mut pipe = Pipe::new(cfg, &shared);
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut tally = |line: &Line, v: &Json| {
        attempted += line.expect.len() as u64;
        let (_, e) = verify_line(line, v);
        failed += e.len() as u64;
        errors.extend(e.into_iter().take(5));
    };
    // Set-up opens are checked but not part of the traced stream.
    for line in stream.setup() {
        let v = pipe.line(&line);
        tally(&line, &v);
    }
    pipe.rec.spans.clear();
    pipe.rec.frontend_clears = 0;
    for j in 0..iterations {
        for line in stream.iteration(j)? {
            let v = pipe.line(&line);
            tally(&line, &v);
        }
    }
    let bank = shared.bank();
    let frontend_entries = shared.frontend().chunk_count() as u64;
    Ok(TraceRun {
        spans: pipe.rec.spans,
        attempted,
        failed,
        errors,
        frontend_clears: pipe.rec.frontend_clears,
        bank_nodes: bank.len() as u64,
        render_hit_ratio: ratio(bank.render_hits(), bank.renders() + bank.render_hits()),
        verdict_entries: shared.cache().len() as u64,
        doc_entries: shared.doc_reports_len() as u64,
        frontend_entries,
    })
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer sums over a set of request lines.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerSum {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

/// Sums over one group of lines (one kind, or all).
#[derive(Clone, Default, Debug)]
pub struct Group {
    pub lines: u64,
    pub whole_ns: Vec<u64>,
    pub layers: BTreeMap<Layer, LayerSum>,
    /// Per line: each layer's self time, indexed like [`Layer::ALL`].
    pub line_ns: Vec<[u64; 7]>,
}

impl Group {
    pub fn us(&self, l: Layer) -> f64 {
        self.layers
            .get(&l)
            .map_or(0.0, |s| s.ns as f64 / 1e3 / self.lines.max(1) as f64)
    }

    pub fn sum(&self, l: Layer) -> LayerSum {
        self.layers.get(&l).copied().unwrap_or_default()
    }

    pub fn whole_mean_us(&self) -> f64 {
        self.whole_ns.iter().sum::<u64>() as f64 / 1e3 / self.whole_ns.len().max(1) as f64
    }

    /// Σ over layers of the mean self time per line, in µs.
    pub fn layers_us(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.us(l)).sum()
    }

    /// The median over lines of a layer's self time, in µs.
    pub fn median_us(&self, l: Layer) -> f64 {
        median_us(self.line_ns.iter().map(|v| v[l as usize]).collect())
    }
}

fn median_us(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64 / 1e3,
        n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2e3,
    }
}

/// Group spans by the kind of their line, and over all lines (`None`).
/// A layer's self time is its span minus its children; the layer spans
/// here have none, so it is the span's duration.
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<Option<Kind>, Group> {
    let mut out: BTreeMap<Option<Kind>, Group> = BTreeMap::new();
    let mut per_line: BTreeMap<usize, [u64; 7]> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        match (s.layer, s.parent) {
            (Some(l), Some(p)) => {
                per_line.entry(p).or_default()[l as usize] += s.end_ns - s.start_ns
            }
            _ => {
                per_line.entry(i).or_default();
            }
        }
    }
    for (i, v) in per_line {
        for key in [None, Some(spans[i].kind)] {
            out.entry(key).or_default().line_ns.push(v);
        }
    }
    for s in spans {
        for key in [None, Some(s.kind)] {
            let g = out.entry(key).or_default();
            let ns = s.end_ns - s.start_ns;
            match s.layer {
                None => {
                    g.lines += 1;
                    g.whole_ns.push(ns);
                }
                Some(l) => {
                    let e = g.layers.entry(l).or_default();
                    e.ns += ns;
                    e.calls += 1;
                    e.allocs += s.allocs;
                    e.alloc_bytes += s.alloc_bytes;
                    e.a += s.a;
                    e.b += s.b;
                    e.c += s.c;
                }
            }
        }
    }
    out
}

/// The counts two traced runs of one seed must reproduce exactly: calls,
/// work done (chunks parsed, bindings rechecked and reused, waves, bytes,
/// hits) and the allocations of the protocol and probe layers.
pub fn counts(groups: &BTreeMap<Option<Kind>, Group>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, g) in groups {
        let kind = k.map_or("all", Kind::name);
        out.insert(format!("{kind}.lines"), g.lines);
        for (l, s) in &g.layers {
            let p = format!("{kind}.{}", l.name());
            out.insert(format!("{p}.calls"), s.calls);
            // Analysis, inference and elaboration walk `std` hash sets
            // seeded per process and number variables from a
            // process-wide counter, so their allocation counts can move
            // by a few from pass to pass; they are reported, not gated.
            if !matches!(l, Layer::Analyze | Layer::Exec | Layer::Elaborate) {
                out.insert(format!("{p}.allocs"), s.allocs);
                out.insert(format!("{p}.alloc_bytes"), s.alloc_bytes);
            }
            out.insert(format!("{p}.a"), s.a);
            out.insert(format!("{p}.b"), s.b);
            if *l != Layer::Analyze {
                out.insert(format!("{p}.c"), s.c);
            }
        }
    }
    out
}

/// The spans as JSON lines: name, start, end, parent, request id.
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Num(i as f64)),
            (
                "name".into(),
                Json::Str(s.layer.map_or("request", Layer::name).into()),
            ),
            ("kind".into(), Json::Str(s.kind.name().into())),
            ("req".into(), Json::Num(f64::from(s.req))),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("allocs".into(), Json::Num(s.allocs as f64)),
            ("alloc_bytes".into(), Json::Num(s.alloc_bytes as f64)),
        ]);
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}
