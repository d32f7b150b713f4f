//! The long-lived service: named documents, incremental rechecking, and
//! the shared scheme cache.
//!
//! A [`Service`] owns an executor ([`crate::exec::Executor`]) and one
//! scheme cache shared by every document — keys fingerprint the binding,
//! its transitive dependencies, and the checker configuration
//! ([`crate::db`]), so sharing is sound and lets documents with common
//! bindings (or a document edited back and forth) reuse each other's
//! work.
//!
//! ```
//! use freezeml_service::{Service, ServiceConfig};
//!
//! let mut svc = Service::new(ServiceConfig::default());
//! let r = svc.open("demo", "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n").unwrap();
//! assert!(r.all_typed());
//! assert_eq!(r.rechecked, 2);
//!
//! // A warm edit re-infers only the dirty cone.
//! let r = svc
//!     .edit("demo", "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\nlet q = 1;;\n")
//!     .unwrap();
//! assert_eq!((r.rechecked, r.reused), (1, 2));
//! ```

use crate::db::{Analysis, EngineSel, Outcome};
use crate::exec::{BindingReport, CheckReport, DeadlineExceeded, Executor, Reuse};
use crate::persist::{self, LoadOutcome, PersistConfig, SaveOutcome};
use crate::shared::Shared;
use crate::sync::Arc;
use freezeml_core::{Options, ParseError};
use freezeml_obs::{next_session_id, Registry, TraceCtx};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Checker options (value restriction, instantiation strategy).
    pub opts: Options,
    /// Engine selection (`core`, `uf`, or differential `both`).
    pub engine: EngineSel,
    /// The session threads `freezeml serve --socket` runs (`--workers`,
    /// at least one). The executor does not read it: every check pass
    /// runs on its session's own thread.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::default(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
        }
    }
}

/// A service-level failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The named document was never opened (or already closed).
    UnknownDoc(String),
    /// The document text is not a well-formed program.
    Parse(ParseError),
    /// Elaboration could not run or failed its soundness obligations
    /// (binding ill-typed or blocked, oracle rejection, engine
    /// disagreement).
    Elaborate(String),
    /// The request's time budget ran out before the check finished
    /// (`--request-timeout-ms`, enforced at wave boundaries). Work
    /// already completed stays cached, so a retry resumes warm.
    Deadline,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDoc(d) => write!(f, "unknown document `{d}`"),
            ServiceError::Parse(e) => write!(f, "{e}"),
            ServiceError::Elaborate(e) => write!(f, "cannot elaborate: {e}"),
            ServiceError::Deadline => write!(f, "deadline"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// An open document. Its analysis and report are the base the next
/// `open`, `edit` or `check` of it patches and reuses.
struct Document {
    /// The last text given that parsed — or, while none has, the first
    /// text given.
    text: String,
    /// The analysis of `text`, or of the empty document while `error` is
    /// set.
    analysis: Analysis,
    /// The report of the last check pass over `analysis`; `None` when
    /// that pass ran out of time.
    report: Option<CheckReport>,
    /// `text`'s parse error, while none of the document's texts has
    /// parsed.
    error: Option<ParseError>,
}

impl Document {
    /// The document's analysis, unless none of its texts has parsed.
    fn analysis(&self) -> Result<&Analysis, ServiceError> {
        match &self.error {
            Some(e) => Err(ServiceError::Parse(e.clone())),
            None => Ok(&self.analysis),
        }
    }
}

/// Make a check pass's report the document's, folding it into the hub's
/// metrics registry: every report a client sees is counted exactly once.
fn keep<'d>(
    m: &Registry,
    slot: &'d mut Option<CheckReport>,
    pass: Result<CheckReport, DeadlineExceeded>,
) -> Result<&'d CheckReport, ServiceError> {
    let report = pass.map_err(|_| ServiceError::Deadline)?;
    m.bindings.add(report.bindings.len() as u64);
    m.rechecked.add(report.rechecked as u64);
    m.reused.add(report.reused as u64);
    m.blocked.add(report.blocked as u64);
    m.waves.add(report.waves as u64);
    Ok(slot.insert(report))
}

/// The program-checking service. See the module docs.
pub struct Service {
    cfg: ServiceConfig,
    exec: Executor,
    docs: HashMap<String, Document>,
    /// The cross-session hub: scheme bank, outcome cache, parse cache.
    /// A standalone service owns a private hub; socket sessions share
    /// one ([`Service::with_shared`]).
    shared: Arc<Shared>,
    /// Where to persist the hub's warm state, when `--cache-dir` is on.
    persist_cfg: Option<PersistConfig>,
    /// This session's trace ids: `conn` is 0 for stdio services until
    /// [`Service::set_conn`], `sess` is process-unique, `req` counts
    /// requests ([`Service::begin_request`]).
    ctx: TraceCtx,
    /// The current request's time budget, set by the serve loop
    /// ([`Service::set_deadline`]); checked at executor wave
    /// boundaries. `None` (the default, and always for direct API use)
    /// means unbudgeted.
    deadline: Option<Instant>,
}

impl Service {
    /// A service with the given configuration and a private hub.
    pub fn new(cfg: ServiceConfig) -> Service {
        Service::with_shared(cfg, Arc::new(Shared::new()))
    }

    /// A service running against an existing hub — the socket server's
    /// per-connection constructor. Documents stay session-private;
    /// schemes, verdicts, and parsed declarations are shared. Sound for
    /// mixed configurations: cache keys fingerprint the options and
    /// engine ([`crate::db`]).
    pub fn with_shared(cfg: ServiceConfig, shared: Arc<Shared>) -> Service {
        shared.metrics().sessions.inc();
        Service {
            exec: Executor::new(cfg.workers, cfg.opts, cfg.engine),
            cfg,
            docs: HashMap::new(),
            shared,
            persist_cfg: None,
            ctx: TraceCtx {
                conn: 0,
                sess: next_session_id(),
                req: 0,
            },
            deadline: None,
        }
    }

    /// Attach the socket connection id this session serves (trace
    /// hierarchy: connection → session → request).
    pub fn set_conn(&mut self, conn: u64) {
        self.ctx.conn = conn;
    }

    /// Start a new request: bump the per-session request id and return
    /// the trace context request-scoped emit sites should carry.
    pub fn begin_request(&mut self) -> TraceCtx {
        self.ctx.req += 1;
        self.ctx
    }

    /// The current trace context (ids of the request most recently
    /// begun).
    pub fn trace_ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Set (or clear) the current request's deadline. The serve loop
    /// calls this per request with `now + --request-timeout-ms`; the
    /// executor checks it at wave boundaries and answers
    /// [`ServiceError::Deadline`] when it passes.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Attach an on-disk cache directory: load any valid snapshot into
    /// the hub now, and remember the location so [`Service::save_cache`]
    /// can write back. Loading never fails — a missing, corrupt, or
    /// stale-epoch snapshot reports a cold start in the returned
    /// [`LoadOutcome`] and the service proceeds as if there were no
    /// cache.
    pub fn attach_cache(&mut self, cfg: PersistConfig) -> LoadOutcome {
        let out = persist::load(&self.shared, persist::epoch(&self.cfg.opts), &cfg);
        self.persist_cfg = Some(cfg);
        out
    }

    /// Snapshot the hub's warm state to the attached cache directory.
    /// `None` when no cache is attached.
    ///
    /// # Errors
    ///
    /// `Some(Err(..))` on I/O failure — the previous snapshot, if any,
    /// is left intact (writes are temp-file + atomic rename).
    pub fn save_cache(&self) -> Option<std::io::Result<SaveOutcome>> {
        let cfg = self.persist_cfg.as_ref()?;
        Some(persist::save(
            &self.shared,
            persist::epoch(&self.cfg.opts),
            cfg,
        ))
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The hub this service runs against.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Patch the document's analysis to `text` and check the bindings
    /// the patch dirtied; the others keep their verdicts from the
    /// document's report. A new document, or one none of whose texts
    /// has parsed, is patched from the empty document and checked in
    /// full, as is one whose last check ran out of time.
    fn set_text(&mut self, doc: &str, text: &str) -> Result<&CheckReport, ServiceError> {
        let mut fresh = Document {
            text: String::new(),
            analysis: Analysis::empty(&self.cfg.opts, self.cfg.engine),
            report: None,
            error: None,
        };
        let new = !self.docs.contains_key(doc);
        let entry = self.docs.get_mut(doc).unwrap_or(&mut fresh);
        let old = match entry.error {
            Some(_) => "",
            None => &entry.text,
        };
        let patched = entry.analysis.patch(
            old,
            text,
            || self.shared.frontend(),
            self.shared.tracer(),
            self.ctx,
        );
        let patch = match patched {
            Ok(patch) => patch,
            Err(e) => {
                // Last-good-state serving: a text that does not parse
                // leaves the document as it was, so `check`/`type-of`
                // keep answering from its last good text. A new document
                // is recorded with the text and its error, so a
                // follow-up `edit` is legal.
                if new {
                    fresh.text = text.to_string();
                    fresh.error = Some(e.clone());
                    self.docs.insert(doc.to_string(), fresh);
                }
                return Err(ServiceError::Parse(e));
            }
        };
        entry.error = None;
        entry.text.clear();
        entry.text.push_str(text);
        // The base is spent: after a deadline the document has an
        // analysis but no report, and its next pass is a full one.
        let base = entry.report.take();
        let reuse = base.as_ref().map(|r| Reuse {
            report: r,
            patch: Some(&patch),
        });
        let pass = self.exec.run_reusing(
            &entry.analysis,
            reuse,
            &self.shared,
            self.ctx,
            self.deadline,
        );
        let kept = keep(self.shared.metrics(), &mut entry.report, pass).map(|_| ());
        if new {
            self.docs.insert(doc.to_string(), fresh);
        }
        kept?;
        self.report(doc)
            .ok_or_else(|| ServiceError::UnknownDoc(doc.to_string()))
    }

    /// Open (or replace) a document and check it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] when the text is not a program.
    pub fn open(&mut self, doc: &str, text: &str) -> Result<&CheckReport, ServiceError> {
        self.set_text(doc, text)
    }

    /// Replace an open document's text and recheck it incrementally.
    /// The document's analysis is patched to the new text, so only the
    /// chunks whose bytes changed are looked up in the parse cache, and
    /// only the dirty bindings — re-keyed, not servable warm, or
    /// downstream of one — are checked; every other binding keeps its
    /// verdict from the previous report. The answer is the one a fresh
    /// `open` of the text gives on the same hub.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDoc`] for never-opened documents,
    /// [`ServiceError::Parse`] for malformed text.
    pub fn edit(&mut self, doc: &str, text: &str) -> Result<&CheckReport, ServiceError> {
        if !self.docs.contains_key(doc) {
            return Err(ServiceError::UnknownDoc(doc.to_string()));
        }
        self.set_text(doc, text)
    }

    /// (Re)check a document: the pass an `edit` to the same text would
    /// run, with nothing re-keyed. Only verdicts that may not be served
    /// warm, and their cones, are checked again; when there are none the
    /// answer shares the previous report's verdicts, without a probe or
    /// a copy.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDoc`] / [`ServiceError::Parse`].
    pub fn check(&mut self, doc: &str) -> Result<&CheckReport, ServiceError> {
        let entry = self
            .docs
            .get_mut(doc)
            .ok_or_else(|| ServiceError::UnknownDoc(doc.to_string()))?;
        // (A document none of whose texts has parsed has no report.)
        let base = entry.report.take();
        let a = entry.analysis()?;
        let reuse = base.as_ref().map(|r| Reuse {
            report: r,
            patch: None,
        });
        let pass = self
            .exec
            .run_reusing(a, reuse, &self.shared, self.ctx, self.deadline);
        keep(self.shared.metrics(), &mut entry.report, pass)
    }

    /// The latest report for a document, if it has been checked.
    pub fn report(&self, doc: &str) -> Option<&CheckReport> {
        self.docs.get(doc).and_then(|d| d.report.as_ref())
    }

    /// A document's current text.
    pub fn text(&self, doc: &str) -> Option<&str> {
        self.docs.get(doc).map(|d| d.text.as_str())
    }

    /// The visible (latest) binding of `name` in a checked document.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDoc`] when the document is not open.
    pub fn type_of(&self, doc: &str, name: &str) -> Result<Option<&BindingReport>, ServiceError> {
        let entry = self
            .docs
            .get(doc)
            .ok_or_else(|| ServiceError::UnknownDoc(doc.to_string()))?;
        Ok(entry.report.as_ref().and_then(|r| r.binding(name)))
    }

    /// Close a document. Returns whether it was open. The scheme cache
    /// is retained — reopening is warm.
    pub fn close(&mut self, doc: &str) -> bool {
        self.docs.remove(doc).is_some()
    }

    /// Elaborate the visible (latest) binding of `name` into System F —
    /// evidence, end to end: the binding's probe term is elaborated on
    /// the configured engine(s) under the schemes of its dependencies,
    /// the image is **verified against the `freezeml_systemf` typing
    /// oracle** (it must typecheck at a type α-equivalent to the
    /// binding's scheme) before it is served, and under
    /// [`EngineSel::Both`] the two pipelines' canonical images must be
    /// identical with agreeing evaluation. `Ok(None)` when the name has
    /// no binding in the document.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDoc`] / [`ServiceError::Parse`] for the
    /// usual document failures, [`ServiceError::Elaborate`] when the
    /// binding (or a dependency) is not well typed or an elaboration
    /// obligation fails — the latter is a checker bug, surfaced loudly.
    pub fn elaborate(&self, doc: &str, name: &str) -> Result<Option<ElabInfo>, ServiceError> {
        use freezeml_translate::elaborate::{check_sound, images_agree};
        use freezeml_translate::ElabEngine;

        let _sp = self.shared.tracer().span("elaborate", self.ctx);
        let entry = self
            .docs
            .get(doc)
            .ok_or_else(|| ServiceError::UnknownDoc(doc.to_string()))?;
        let a = entry.analysis()?;
        let report = entry.report.as_ref().ok_or_else(|| {
            ServiceError::Elaborate("the document has not been checked".to_string())
        })?;
        let Some(i) = a.decls.iter().rposition(|d| d.name() == name) else {
            return Ok(None);
        };
        let must_be_typed = |j: usize| -> Result<(), ServiceError> {
            match &report.bindings[j].outcome {
                Outcome::Typed { .. } => Ok(()),
                other => Err(ServiceError::Elaborate(format!(
                    "binding `{}` is not well typed: {}",
                    report.bindings[j].name,
                    other.display()
                ))),
            }
        };
        must_be_typed(i)?;
        let Outcome::Typed {
            scheme: binding_scheme,
            ..
        } = &report.bindings[i].outcome
        else {
            unreachable!("checked typed above")
        };
        let binding_scheme = binding_scheme.to_string();
        // Dependency schemes enter the environment as materialised
        // trees, and the request re-infers through the one-shot engine
        // entry points (this is a protocol-boundary operation, like
        // type-of's rendering — the hot check path never comes here).
        let mut env = if a.uses_prelude {
            freezeml_corpus::figure2()
        } else {
            freezeml_core::TypeEnv::new()
        };
        let bank = self.shared.bank();
        for &d in &a.deps[i] {
            must_be_typed(d)?;
            let Outcome::Typed { id, .. } = &report.bindings[d].outcome else {
                unreachable!("checked typed above")
            };
            env.push(
                freezeml_core::Var::from_symbol(a.decls[d].name_sym()),
                bank.to_type(*id),
            );
        }
        let term = a.decls[i].probe_term();
        let elab = |e: ElabEngine| {
            check_sound(e, &env, &term, &self.cfg.opts).map_err(ServiceError::Elaborate)
        };
        let checked = match self.cfg.engine {
            EngineSel::Core => elab(ElabEngine::Core)?,
            EngineSel::Uf => elab(ElabEngine::Uf)?,
            EngineSel::Both => {
                let core = elab(ElabEngine::Core)?;
                let uf = elab(ElabEngine::Uf)?;
                images_agree(&core, &uf).map_err(ServiceError::Elaborate)?;
                core
            }
        };
        // The type is served from the binding's memoised scheme
        // rendering — byte-identical to `type-of`'s output; the oracle
        // already certified the image's type α-equivalent to it.
        Ok(Some(ElabInfo {
            name: name.to_string(),
            fterm: checked.rendered,
            ty: binding_scheme,
        }))
    }
}

/// A verified elaboration served by [`Service::elaborate`].
#[derive(Clone, Debug, PartialEq)]
pub struct ElabInfo {
    /// The binding's name.
    pub name: String,
    /// The canonical rendering of the System F image (already past the
    /// typing oracle).
    pub fterm: String,
    /// The image's type (α-equivalent to the binding's scheme).
    pub ty: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(engine: EngineSel) -> Service {
        Service::new(ServiceConfig {
            opts: Options::default(),
            engine,
            workers: 2,
        })
    }

    #[test]
    fn open_edit_check_type_of_close_lifecycle() {
        let mut s = svc(EngineSel::Both);
        let r = s
            .open("d", "#use prelude\nlet f = fun x -> x;;\nlet n = f 3;;\n")
            .unwrap();
        assert!(r.all_typed());
        assert_eq!(r.rechecked, 2);
        assert_eq!(
            s.type_of("d", "f").unwrap().unwrap().outcome.display(),
            "forall a. a -> a"
        );
        assert!(s.type_of("d", "zzz").unwrap().is_none());

        // Checking again is pure reuse.
        let r = s.check("d").unwrap();
        assert_eq!((r.rechecked, r.reused), (0, 2));

        // Edit only `n`.
        let r = s
            .edit("d", "#use prelude\nlet f = fun x -> x;;\nlet n = f 4;;\n")
            .unwrap();
        assert_eq!((r.rechecked, r.reused), (1, 1));

        assert!(s.close("d"));
        assert!(!s.close("d"));
        assert_eq!(
            s.check("d").err(),
            Some(ServiceError::UnknownDoc("d".into()))
        );
    }

    #[test]
    fn type_of_serves_cached_schemes_without_rezonking() {
        // The satellite micro-fix: an unchanged binding's scheme is
        // served from the per-SchemeId memo — repeated `type-of` and
        // warm `check` passes perform zero tree/string materialisations.
        let mut s = svc(EngineSel::Uf);
        s.open(
            "d",
            "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n",
        )
        .unwrap();
        let renders_cold = s.shared().bank().renders();
        assert!(renders_cold > 0, "cold check renders each scheme once");
        for _ in 0..5 {
            let b = s.type_of("d", "f").unwrap().unwrap();
            assert_eq!(b.outcome.display(), "forall a. a -> a");
            let b = s.type_of("d", "p").unwrap().unwrap();
            assert_eq!(b.outcome.display(), "Int * Bool");
        }
        let warm = s.check("d").unwrap();
        assert_eq!((warm.rechecked, warm.reused), (0, 2));
        assert_eq!(
            s.shared().bank().renders(),
            renders_cold,
            "type-of and warm checks never re-zonk"
        );
        // Re-inferring an identical binding in a new document reuses the
        // rendered scheme too (the α-canonical id is the memo key).
        s.open("e", "#use prelude\nlet g = fun y -> y;;\n").unwrap();
        assert_eq!(
            s.type_of("e", "g").unwrap().unwrap().outcome.display(),
            "forall a. a -> a"
        );
        assert_eq!(
            s.shared().bank().renders(),
            renders_cold,
            "α-equal scheme: memo hit"
        );
        assert!(s.shared().bank().render_hits() > 0);
        assert!(!s.shared().bank().is_empty());
    }

    #[test]
    fn alpha_equal_schemes_render_canonically_across_documents() {
        // Regression: SchemeIds are α-classes shared service-wide, so
        // the rendering must be canonical — one binding's annotation
        // names must never leak into another binding's output through
        // the shared scheme bank's render memo.
        let mut s = svc(EngineSel::Uf);
        s.open("a", "let g = fun (x : forall z. z -> z) -> x;;\n")
            .unwrap();
        s.open("b", "let f = fun (x : forall a. a -> a) -> x;;\n")
            .unwrap();
        // (the plain `x` occurrence instantiates, so the parameter's
        // polytype guards the annotation and the result generalises)
        let want = "forall a. (forall b. b -> b) -> a -> a";
        assert_eq!(
            s.type_of("a", "g").unwrap().unwrap().outcome.display(),
            want
        );
        assert_eq!(
            s.type_of("b", "f").unwrap().unwrap().outcome.display(),
            want
        );
    }

    #[test]
    fn elaborate_runs_the_differential_under_both_engines() {
        let mut s = svc(EngineSel::Both);
        s.open(
            "d",
            "#use prelude\n\
             let f = fun x -> x;;\n\
             let g = $(fun y -> y);;\n\
             let p = poly ~f;;\n\
             let n = plus (fst p) 1;;\n",
        )
        .unwrap();
        for (name, ty) in [
            ("f", "forall a. a -> a"),
            ("g", "forall a. a -> a"),
            ("p", "Int * Bool"),
            ("n", "Int"),
        ] {
            let e = s.elaborate("d", name).unwrap().unwrap();
            assert_eq!(e.ty, ty, "{name}: {}", e.fterm);
        }
        assert_eq!(
            s.elaborate("d", "f").unwrap().unwrap().fterm,
            "tyfun a -> fun (x : a) -> x"
        );
        assert!(s.elaborate("d", "zzz").unwrap().is_none());
        assert!(matches!(
            s.elaborate("nope", "f"),
            Err(ServiceError::UnknownDoc(_))
        ));
    }

    #[test]
    fn elaborate_materialises_outside_the_hub_bank() {
        // Elaboration exports its evidence types through a bank of its
        // own: serving an image adds no node to the hub's bank, and
        // renders nothing there for a binding without dependencies.
        let mut s = svc(EngineSel::Both);
        s.open(
            "d",
            "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n",
        )
        .unwrap();
        let (nodes, renders) = (s.shared().bank().len(), s.shared().bank().renders());
        s.elaborate("d", "f").unwrap().unwrap();
        assert_eq!(
            (s.shared().bank().len(), s.shared().bank().renders()),
            (nodes, renders)
        );
        s.elaborate("d", "p").unwrap().unwrap();
        assert_eq!(s.shared().bank().len(), nodes);
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        let mut s = svc(EngineSel::Uf);
        let e = s.open("d", "let x = ;;").unwrap_err();
        assert!(matches!(e, ServiceError::Parse(_)));
        // The document stays open; a fixed edit works.
        let r = s.edit("d", "let x = 3;;").unwrap();
        assert!(r.all_typed());
    }

    #[test]
    fn a_broken_edit_keeps_serving_the_last_good_state() {
        let mut s = svc(EngineSel::Uf);
        s.open("d", "let x = 3;;").unwrap();
        let e = s.edit("d", "let x = ;;").unwrap_err();
        assert!(matches!(e, ServiceError::Parse(_)));
        // The last good text, report, and per-binding info survive.
        assert_eq!(s.text("d"), Some("let x = 3;;"));
        assert_eq!(
            s.type_of("d", "x").unwrap().unwrap().outcome.display(),
            "Int"
        );
        let r = s.check("d").unwrap();
        assert_eq!((r.rechecked, r.reused), (0, 1));
    }

    #[test]
    fn edit_requires_an_open_document() {
        let mut s = svc(EngineSel::Uf);
        assert!(matches!(
            s.edit("nope", "let x = 1;;"),
            Err(ServiceError::UnknownDoc(_))
        ));
    }

    #[test]
    fn the_cache_is_shared_across_documents() {
        let mut s = svc(EngineSel::Uf);
        let text = "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n";
        s.open("a", text).unwrap();
        let r = s.open("b", text).unwrap();
        assert_eq!((r.rechecked, r.reused), (0, 2), "b rides a's cache");
        // …and closing a document keeps the cache warm.
        s.close("a");
        s.close("b");
        let r = s.open("c", text).unwrap();
        assert_eq!((r.rechecked, r.reused), (0, 2));
    }

    #[test]
    fn reopening_with_open_replaces_the_text() {
        let mut s = svc(EngineSel::Uf);
        s.open("d", "let x = 1;;").unwrap();
        let rechecked = s.open("d", "let x = true;;").unwrap().rechecked;
        assert_eq!(rechecked, 1);
        assert_eq!(
            s.type_of("d", "x").unwrap().unwrap().outcome.display(),
            "Bool"
        );
    }
}
