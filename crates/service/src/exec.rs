//! The executor: reusable [`freezeml_engine::Session`]s checking the
//! dirty bindings of a program in topological waves.
//!
//! Scheduling is wave by wave over [`Analysis::waves`]. A wave's
//! bindings are independent, so each is first classified — reused,
//! blocked, or queued as a job — and the queued jobs then run in order
//! on the caller's thread. Parallelism comes from sessions, not from
//! waves: the socket server ([`crate::sock`]) gives every connection its
//! own executor over one shared hub. Within a pass:
//!
//! * a binding whose cache key hits the scheme cache is **reused** (no
//!   inference at all);
//! * a binding with a failed or blocked dependency is **blocked**, not
//!   cascaded into a misleading unbound-variable error;
//! * everything else is **rechecked** — under `ENGINE=core`, `uf`, or
//!   `both` (per-binding differential agreement).
//!
//! A pass over a document's previous report (`Executor::run_reusing`)
//! classifies only the **dirty** bindings: those the edit's patch of the
//! analysis re-keyed, those whose previous verdict may not be served
//! warm, and everything downstream of one. Every other binding keeps its
//! previous verdict without a cache probe, and counts as it would in a
//! full pass over the same hub: reused when typed or an error, blocked
//! when blocked. A full pass is the case where every binding is dirty; a
//! `check` is the case where nothing was re-keyed, and when nothing is
//! dirty either it shares the previous verdicts instead of copying them.
//!
//! Checking a binding `let x (: A)? = M;;` infers the probe term
//! `let x (: A)? = M in ⌈x⌉`, so the scheme is produced by the paper's
//! `let` rule itself. Residual monomorphic variables (value restriction)
//! are grounded to `Int` — the same defaulting the REPL performs — so
//! the scheme stored in the environment stays closed.

use crate::db::{Analysis, DeclInfo, EngineSel, Outcome, Patch};
use crate::fault::{self, Fault};
use crate::shared::Shared;
use crate::sync::Arc;
use freezeml_core::{Options, Span, Type, TypeEnv, Var};
use freezeml_engine::differential::{class_of, types_equivalent};
use freezeml_engine::{SchemeBank, SchemeId, Session};
use freezeml_obs::{NoTrace, Record, TraceCtx, TraceSink, Val};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One inference job: a declaration index plus the scheme ids of its
/// dependencies (resolved against the shared scheme bank).
type Job = (usize, Vec<(Var, SchemeId)>);

/// The check-pass driver: lazily built engine sessions (with and
/// without the Figure 2 prelude) plus the core-engine environments. The
/// scheme bank and outcome cache it runs against live in the [`Shared`]
/// hub, so many executors (one per connected session) share one scheme
/// space.
pub struct Executor {
    opts: Options,
    engine: EngineSel,
    /// Lazily interned sessions, keyed by "uses the prelude".
    sessions: [Option<Session>; 2],
    /// Core-engine base environments, same keying.
    envs: [Option<TypeEnv>; 2],
}

impl Executor {
    /// An executor for the given configuration. The first argument, the
    /// configured worker count, is not read: every pass runs on the
    /// caller's thread (`--workers` sizes the socket server's session
    /// pool instead).
    pub fn new(_workers: usize, opts: Options, engine: EngineSel) -> Executor {
        Executor {
            opts,
            engine,
            sessions: [None, None],
            envs: [None, None],
        }
    }

    fn base_env(use_prelude: bool) -> TypeEnv {
        if use_prelude {
            freezeml_corpus::figure2()
        } else {
            TypeEnv::new()
        }
    }

    fn session(&mut self, use_prelude: bool) -> &mut Session {
        let slot = &mut self.sessions[usize::from(use_prelude)];
        if slot.is_none() {
            *slot = Some(
                Session::new(&Self::base_env(use_prelude), &self.opts)
                    // lint: allow(unwrap) — static Figure 2 prelude text; a parse failure is a build bug
                    .expect("the Figure 2 prelude is well-formed"),
            );
        }
        // lint: allow(unwrap) — slot initialised in the branch above
        slot.as_mut().expect("just initialised")
    }

    fn env(&mut self, use_prelude: bool) -> &TypeEnv {
        let slot = &mut self.envs[usize::from(use_prelude)];
        if slot.is_none() {
            *slot = Some(Self::base_env(use_prelude));
        }
        // lint: allow(unwrap) — slot initialised in the branch above
        slot.as_ref().expect("just initialised")
    }

    /// Drop the lazily-built engine sessions. Called after a contained
    /// panic: a session interrupted mid-inference may hold a polluted
    /// `Γ` or store, so it is rebuilt from scratch on next use.
    fn reset(&mut self) {
        self.sessions = [None, None];
        self.envs = [None, None];
    }

    /// Check one binding under the scheme ids of its dependencies.
    ///
    /// Under `ENGINE=uf` — the production configuration — the whole
    /// round trip is zonk-free: dependency schemes enter the session by
    /// O(DAG) interning straight from the shared scheme bank, and the
    /// result leaves as a [`SchemeId`] export; no `core::Type` tree is
    /// built. The oracle paths (`core`, differential `both`) materialise
    /// trees, as befits the configuration whose job is cross-checking.
    fn check(
        &mut self,
        bank: &SchemeBank,
        use_prelude: bool,
        decl: &DeclInfo,
        deps: &[(Var, SchemeId)],
    ) -> Outcome {
        let term = decl.probe_term();
        match self.engine {
            EngineSel::Uf => {
                // The bank is sharded and lock-internal: the session's
                // inference never serialises on other sessions, and the
                // O(DAG) import/export crossings contend per shard only.
                match self
                    .session(use_prelude)
                    .infer_scheme_with(bank, deps, &term)
                {
                    Ok(out) => Outcome::Typed {
                        id: out.scheme,
                        scheme: bank.pretty(out.scheme),
                        defaulted: out.defaulted,
                    },
                    Err(e) => Outcome::Error {
                        class: format!("{:?}", class_of(&e)),
                        message: e.to_string(),
                    },
                }
            }
            EngineSel::Core => {
                let env = self.dep_tree_env(bank, use_prelude, deps);
                let r = freezeml_core::infer_term(&env, &term, &self.opts);
                outcome_of(bank, r.map(|o| o.ty))
            }
            EngineSel::Both => {
                let dep_env: Vec<(Var, Type)> =
                    deps.iter().map(|(x, s)| (*x, bank.to_type(*s))).collect();
                let uf = self.session(use_prelude).infer_with(&dep_env, &term);
                let mut env = self.env(use_prelude).clone();
                for (x, t) in &dep_env {
                    env.push(*x, t.clone());
                }
                let core = freezeml_core::infer_term(&env, &term, &self.opts);
                match (core, uf) {
                    (Ok(c), Ok(u)) if types_equivalent(&c.ty, &u.ty) => outcome_of(bank, Ok(c.ty)),
                    (Err(ce), Err(ue)) if class_of(&ce) == class_of(&ue) => {
                        outcome_of(bank, Err::<Type, _>(ce))
                    }
                    (c, u) => Outcome::Disagreement {
                        core: render(&c.map(|o| o.ty.canonicalize())),
                        uf: render(&u.map(|o| o.ty.canonicalize())),
                    },
                }
            }
        }
    }

    /// Materialise dependency schemes as `core::Type` trees (oracle
    /// engines only).
    fn dep_tree_env(
        &mut self,
        bank: &SchemeBank,
        use_prelude: bool,
        deps: &[(Var, SchemeId)],
    ) -> TypeEnv {
        let mut env = self.env(use_prelude).clone();
        for (x, s) in deps {
            env.push(*x, bank.to_type(*s));
        }
        env
    }

    /// Check one binding with panic containment: a panicking check
    /// becomes an internal-error verdict for that binding, the sessions
    /// are rebuilt (a panic mid-inference leaves them polluted), and the
    /// wave — and the service — keep going. `inject` carries an armed
    /// `infer.binding`/`infer.wave` failpoint: a `panic` fault panics
    /// *inside* the contained region (exercising exactly the real-bug
    /// path), `err`/`eof` short-circuit to an internal-error verdict, and
    /// `delay` stalls the check.
    fn check_contained(
        &mut self,
        bank: &SchemeBank,
        use_prelude: bool,
        decl: &DeclInfo,
        deps: &[(Var, SchemeId)],
        inject: Option<Fault>,
    ) -> Outcome {
        match inject {
            Some(Fault::Err) | Some(Fault::Eof) => {
                return internal_error(decl.name(), "injected fault (failpoint)");
            }
            _ => {}
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            match inject {
                Some(Fault::Panic) => panic!("injected panic (failpoint)"),
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            self.check(bank, use_prelude, decl, deps)
        }));
        result.unwrap_or_else(|payload| {
            self.reset();
            internal_error(decl.name(), panic_message(payload.as_ref()))
        })
    }
}

/// The `Outcome::Error` class reserved for contained checker panics —
/// a checker bug surfaced as a per-binding verdict instead of a dead
/// session. Never cached.
pub const INTERNAL_ERROR_CLASS: &str = "Internal";

/// Render a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn internal_error(name: &str, detail: &str) -> Outcome {
    Outcome::Error {
        class: INTERNAL_ERROR_CLASS.to_string(),
        message: format!("internal error while checking `{name}`: {detail}"),
    }
}

fn render(r: &Result<Type, freezeml_core::TypeError>) -> String {
    match r {
        Ok(t) => t.to_string(),
        Err(e) => format!("✕ {:?} ({e})", class_of(e)),
    }
}

/// Ground a successful tree-engine scheme's residual monomorphic
/// variables to `Int` (value restriction) and intern it into the shared
/// scheme bank (α-canonical by construction), or classify the error.
/// The oracle
/// engines' outcomes land in the same α-canonical scheme space as the
/// union-find engine's, so a scheme produced under `ENGINE=both` and one
/// produced under `ENGINE=uf` share an id iff they are α-equivalent.
fn outcome_of(bank: &SchemeBank, r: Result<Type, freezeml_core::TypeError>) -> Outcome {
    match r {
        Ok(ty) => {
            let mut scheme = ty;
            let residuals = scheme.ftv();
            let grounded = residuals.len();
            for v in residuals {
                scheme = scheme.rename_free(&v, &Type::int());
            }
            let id = bank.intern_type(&scheme);
            // Residual names come from the interned scheme's own letter
            // supply — the same `defaulted_names` the union-find engine
            // uses, so all engine routes report identically.
            let defaulted = bank.defaulted_names(id, grounded);
            Outcome::Typed {
                id,
                scheme: bank.pretty(id),
                defaulted,
            }
        }
        Err(e) => Outcome::Error {
            class: format!("{:?}", class_of(&e)),
            message: e.to_string(),
        },
    }
}

/// The verdict on one binding, located in its document.
#[derive(Clone, Debug)]
pub struct BindingReport {
    /// The bound name, interned ([`freezeml_core::Symbol::as_str`]).
    pub name: &'static str,
    /// The declaration's source span.
    pub span: Span,
    /// The verdict.
    pub outcome: Outcome,
}

/// The result of one check pass over a program.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-binding verdicts, in declaration order. The slice is shared:
    /// a `check` that changes no verdict answers with the previous
    /// report's slice, and every clone of the report points at it too.
    pub bindings: Arc<[BindingReport]>,
    /// Bindings actually re-inferred this pass (cache misses).
    pub rechecked: usize,
    /// Bindings served from the scheme cache.
    pub reused: usize,
    /// Bindings not checked this pass because a dependency failed or
    /// was itself blocked. Every pass satisfies
    /// `rechecked + reused + blocked == bindings.len()` — the
    /// accounting invariant the metrics registry carries forward.
    pub blocked: usize,
    /// Topological waves that ran at least one inference job.
    pub waves: usize,
}

impl CheckReport {
    /// Did every binding type-check?
    pub fn all_typed(&self) -> bool {
        self.bindings.iter().all(|b| b.outcome.is_typed())
    }

    /// The latest binding of the given name (ML shadowing: the visible
    /// one at the end of the program).
    pub fn binding(&self, name: &str) -> Option<&BindingReport> {
        self.bindings.iter().rev().find(|b| b.name == name)
    }
}

/// The request's time budget ran out at a wave boundary. Verdicts
/// already computed this pass were written to the shared cache (they
/// are valid — only the *pass* is abandoned), so a retry resumes from
/// where the budget expired rather than from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded;

/// What a pass may reuse: the document's previous report, and the patch
/// that brought the analysis from that report's text to its own —
/// `None` when the text did not change (a `check`).
#[derive(Clone, Copy)]
pub(crate) struct Reuse<'a> {
    pub(crate) report: &'a CheckReport,
    pub(crate) patch: Option<&'a Patch>,
}

impl<'a> Reuse<'a> {
    /// The index binding `i` had in the previous report, unless it was
    /// re-keyed.
    fn origin(self, i: usize) -> Option<usize> {
        self.patch.map_or(Some(i), |p| p.origin(i))
    }

    /// The dirty bindings' places among the pass's own verdicts, in
    /// index order, and [`CLEAN`] for every other binding. Dirty are the
    /// bindings the patch re-keyed, the ones whose previous verdict may
    /// not be served warm ([`Outcome::cacheable`]: a disagreement or an
    /// internal error is recomputed every pass), and everything
    /// downstream of one. Also returns how many are dirty.
    fn slots(self, a: &Analysis) -> (Vec<u32>, usize) {
        let n = a.decls.len();
        // First mark the dirty bindings (any value but `CLEAN`)…
        let mut slots: Vec<u32> = (0..n)
            .map(|i| match self.origin(i) {
                Some(o) if self.report.bindings[o].outcome.cacheable() => CLEAN,
                _ => 0,
            })
            .collect();
        // (the re-keyed set is closed under dependents already; only a
        // verdict that must be recomputed adds a cone of its own)…
        let rekeyed = |i| self.patch.is_some_and(|p| p.rekeyed(i));
        if let Some(first) = (0..n).find(|&i| slots[i] != CLEAN && !rekeyed(i)) {
            for i in first + 1..n {
                if slots[i] == CLEAN && a.deps[i].iter().any(|&d| slots[d] != CLEAN) {
                    slots[i] = 0;
                }
            }
        }
        // …then number them.
        let mut dirty = 0;
        for s in slots.iter_mut().filter(|s| **s != CLEAN) {
            *s = dirty;
            dirty += 1;
        }
        (slots, dirty as usize)
    }

    /// The previous binding clean binding `i` keeps the verdict of.
    fn kept(self, i: usize) -> Option<&'a BindingReport> {
        self.origin(i).map(|o| &self.report.bindings[o])
    }
}

/// The slot of a binding that keeps its previous verdict.
const CLEAN: u32 = u32::MAX;

impl Executor {
    /// One check pass: walk the waves, reuse cache hits, block on failed
    /// dependencies, and check the remaining jobs. Per-wave and
    /// per-binding spans go to the hub's tracer. Fresh verdicts are
    /// written back to the shared cache, except disagreements and
    /// internal errors: those are checker bugs, never served warm.
    /// Panics are contained per binding (`check_contained`); the
    /// executor and the hub survive them.
    pub fn run(&mut self, a: &Analysis, shared: &Shared) -> CheckReport {
        self.run_budgeted(a, shared, TraceCtx::default(), None)
            // lint: allow(unwrap) — run_budgeted only errs when a deadline is set; none is
            .expect("no deadline was set")
    }

    /// [`Executor::run`] with trace context, under a time budget: the
    /// deadline is checked **at wave boundaries** (inference is not
    /// preemptible, so a wave once started runs to completion), and an
    /// exhausted budget abandons the pass before the next wave starts.
    /// Completed verdicts stay cached; the hub's `deadline_exceeded`
    /// counter records the abandonment. It is `Executor::run_reusing`
    /// with nothing to reuse.
    pub fn run_budgeted(
        &mut self,
        a: &Analysis,
        shared: &Shared,
        ctx: TraceCtx,
        deadline: Option<Instant>,
    ) -> Result<CheckReport, DeadlineExceeded> {
        self.run_reusing(a, None, shared, ctx, deadline)
    }

    /// A check pass over the dirty bindings of `a` (all of them without
    /// `reuse`); the clean ones keep their previous verdicts. The body is
    /// monomorphised over the sink ([`freezeml_obs::TraceSink`]'s
    /// `ENABLED` const), so with tracing off it makes no clock reads and
    /// builds no records: the `cache-probe`, `infer` and `wave` spans
    /// compile away.
    pub(crate) fn run_reusing(
        &mut self,
        a: &Analysis,
        reuse: Option<Reuse<'_>>,
        shared: &Shared,
        ctx: TraceCtx,
        deadline: Option<Instant>,
    ) -> Result<CheckReport, DeadlineExceeded> {
        match shared.tracer().sink() {
            Some(sink) => self.run_sink(a, reuse, shared, ctx, &**sink, deadline),
            None => self.run_sink(a, reuse, shared, ctx, &NoTrace, deadline),
        }
    }

    fn run_sink<S: TraceSink>(
        &mut self,
        a: &Analysis,
        reuse: Option<Reuse<'_>>,
        shared: &Shared,
        ctx: TraceCtx,
        sink: &S,
        deadline: Option<Instant>,
    ) -> Result<CheckReport, DeadlineExceeded> {
        // The same text, and every verdict may be served warm: nothing is
        // dirty, so the previous verdicts stand, shared rather than
        // copied, and count as a full pass over the same hub would count
        // them.
        let unchanged = |r: &Reuse| {
            r.patch.is_none() && r.report.bindings.iter().all(|b| b.outcome.cacheable())
        };
        if let Some(prev) = reuse.filter(unchanged).map(|r| r.report) {
            return Ok(CheckReport {
                bindings: Arc::clone(&prev.bindings),
                rechecked: 0,
                reused: prev.rechecked + prev.reused,
                blocked: prev.blocked,
                waves: 0,
            });
        }
        let n = a.decls.len();
        let bank = shared.bank();
        let cache = shared.cache();
        let metrics = shared.metrics();
        // One probe up front keeps the fault layer off the hot path:
        // when no spec is installed this is a single relaxed load and
        // every per-binding site check below is skipped entirely.
        let faults_on = fault::active();
        // The verdicts this pass computes, one slot per dirty binding (all
        // of them in a full pass); a clean binding's is `reuse`'s.
        let (slots, dirty) = match reuse {
            Some(r) => r.slots(a),
            None => (Vec::new(), n),
        };
        let slot = |i: usize| slots.get(i).map_or(i, |&s| s as usize);
        let is_dirty = |i: usize| slots.get(i).is_none_or(|&s| s != CLEAN);
        let mut outcomes: Vec<Option<Outcome>> = vec![None; dirty];
        let (mut rechecked, mut reused, mut blocked) = (0usize, 0usize, 0usize);
        let (mut waves, mut probe_hits) = (0usize, 0usize);
        // A wave's cache misses, all queued before the first one runs:
        // two identical bindings in one wave are therefore both
        // rechecked, never the second served from the first's verdict.
        let mut jobs: Vec<Job> = Vec::new();

        for (wave_no, wave) in a.waves.iter().enumerate() {
            if !wave.iter().any(|&i| is_dirty(i)) {
                continue;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    metrics.deadline_exceeded.inc();
                    return Err(DeadlineExceeded);
                }
            }
            // `infer.wave` failpoint: `delay` stalls the scheduler here
            // (where the deadline will catch it next wave); any other
            // fault is injected into every job of the wave, contained
            // per binding like a real checker bug.
            let wave_inject = if faults_on {
                match fault::hit_counted("infer.wave", metrics) {
                    Some(Fault::Delay(d)) => {
                        std::thread::sleep(d);
                        None
                    }
                    other => other,
                }
            } else {
                None
            };
            let wave_t0 = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            for &i in wave.iter().filter(|&&i| is_dirty(i)) {
                let settled = |d: usize| match outcomes.get(slot(d)) {
                    Some(o) => o.as_ref(),
                    None => reuse.and_then(|r| r.kept(d)).map(|b| &b.outcome),
                };
                if let Some(&bad) = a.deps[i]
                    .iter()
                    .find(|&&d| !settled(d).is_some_and(Outcome::is_typed))
                {
                    outcomes[slot(i)] = Some(Outcome::Blocked {
                        on: a.decls[bad].name().to_string(),
                    });
                    blocked += 1;
                    continue;
                }
                if let Some(hit) = cache.get(a.keys[i]) {
                    outcomes[slot(i)] = Some(hit);
                    reused += 1;
                    probe_hits += 1;
                    continue;
                }
                let dep_env: Vec<(Var, SchemeId)> = a.deps[i]
                    .iter()
                    .map(|&d| {
                        let Some(Outcome::Typed { id, .. }) = settled(d) else {
                            unreachable!("checked typed above")
                        };
                        (Var::from_symbol(a.decls[d].name_sym()), *id)
                    })
                    .collect();
                jobs.push((i, dep_env));
            }
            if let Some(t0) = wave_t0 {
                sink.emit(
                    &Record::new("span", "cache-probe")
                        .ctx(ctx)
                        .wave(wave_no as u64)
                        .dur(t0.elapsed()),
                );
            }

            if jobs.is_empty() {
                continue;
            }
            waves += 1;
            let job_count = jobs.len();
            rechecked += job_count;
            for (i, env) in jobs.drain(..) {
                let t0 = S::ENABLED.then(Instant::now);
                let inject = wave_inject.or_else(|| {
                    faults_on
                        .then(|| fault::hit_counted("infer.binding", metrics))
                        .flatten()
                });
                let o = self.check_contained(bank, a.uses_prelude, &a.decls[i], &env, inject);
                if let Some(t0) = t0 {
                    sink.emit(
                        &Record::new("span", "infer")
                            .ctx(ctx)
                            .wave(wave_no as u64)
                            .binding(i as u64)
                            .dur(t0.elapsed()),
                    );
                }
                if o.cacheable() {
                    cache.insert(a.keys[i], o.clone());
                }
                outcomes[slot(i)] = Some(o);
            }
            if let Some(t0) = wave_t0 {
                let extras = [("jobs", Val::U(job_count as u64))];
                sink.emit(
                    &Record::new("span", "wave")
                        .ctx(ctx)
                        .wave(wave_no as u64)
                        .dur(t0.elapsed())
                        .extras(&extras),
                );
            }
        }

        // The verdict counters count real probes only: each served a
        // reuse or became a job. Clean bindings were not probed, so their
        // verdicts are not re-stamped with the hub generation either.
        metrics.verdict_hits.add(probe_hits as u64);
        metrics.verdict_misses.add(rechecked as u64);

        let bindings = (0..n)
            .map(|i| {
                let span = a.decls[i].span;
                if let Some(o) = outcomes.get_mut(slot(i)).and_then(Option::take) {
                    return BindingReport {
                        name: a.decls[i].name(),
                        span,
                        outcome: o,
                    };
                }
                let old = reuse
                    .and_then(|r| r.kept(i))
                    .unwrap_or_else(|| unreachable!("a binding is dirty or keeps its verdict"));
                match old.outcome {
                    Outcome::Blocked { .. } => blocked += 1,
                    _ => reused += 1,
                }
                BindingReport {
                    span,
                    ..old.clone()
                }
            })
            .collect();
        Ok(CheckReport {
            bindings,
            rechecked,
            reused,
            blocked,
            waves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::analyze;

    fn check(src: &str, engine: EngineSel) -> CheckReport {
        let a = analyze(src, &Options::default(), engine).unwrap();
        Executor::new(1, Options::default(), engine).run(&a, &Shared::new())
    }

    #[test]
    fn a_small_program_checks_on_every_engine() {
        let src = "#use prelude\n\
            let f = fun x -> x;;\n\
            let p = poly ~f;;\n\
            let n = plus (fst p) 1;;\n";
        for engine in [EngineSel::Core, EngineSel::Uf, EngineSel::Both] {
            let r = check(src, engine);
            assert!(r.all_typed(), "{engine:?}: {:?}", r.bindings);
            assert_eq!(
                r.binding("f").unwrap().outcome.display(),
                "forall a. a -> a"
            );
            assert_eq!(r.binding("p").unwrap().outcome.display(), "Int * Bool");
            assert_eq!(r.binding("n").unwrap().outcome.display(), "Int");
            assert_eq!(r.rechecked, 3);
            assert_eq!(r.reused, 0);
        }
    }

    #[test]
    fn errors_block_dependents_but_not_independents() {
        let src = "#use prelude\n\
            let bad = plus true 1;;\n\
            let child = plus bad 1;;\n\
            let fine = 42;;\n";
        let r = check(src, EngineSel::Both);
        assert!(matches!(
            r.binding("bad").unwrap().outcome,
            Outcome::Error { .. }
        ));
        assert!(matches!(
            &r.binding("child").unwrap().outcome,
            Outcome::Blocked { on } if on == "bad"
        ));
        assert_eq!(r.binding("fine").unwrap().outcome.display(), "Int");
        assert_eq!(r.rechecked, 2, "the blocked binding is never inferred");
    }

    #[test]
    fn value_restriction_defaults_are_reported() {
        // `single id` has a demoted residual variable; the stored scheme
        // grounds it to Int, mirroring the REPL.
        let src = "#use prelude\nlet xs = single id;;\n";
        let r = check(src, EngineSel::Both);
        let Outcome::Typed {
            scheme, defaulted, ..
        } = &r.binding("xs").unwrap().outcome
        else {
            panic!("xs should type: {:?}", r.bindings)
        };
        assert_eq!(scheme.to_string(), "List (Int -> Int)");
        assert_eq!(defaulted.len(), 1);
    }

    #[test]
    fn the_cache_turns_a_second_pass_into_pure_reuse() {
        let src = "#use prelude\nlet a = 1;;\nlet b = plus a 1;;\nlet c = plus b 1;;\n";
        let a = analyze(src, &Options::default(), EngineSel::Uf).unwrap();
        let shared = Shared::new();
        let mut exec = Executor::new(1, Options::default(), EngineSel::Uf);
        let cold = exec.run(&a, &shared);
        assert_eq!((cold.rechecked, cold.reused), (3, 0));
        let warm = exec.run(&a, &shared);
        assert_eq!((warm.rechecked, warm.reused), (0, 3));
        assert_eq!(warm.waves, 0);
    }

    #[test]
    fn identical_bindings_in_one_wave_are_both_rechecked() {
        // Both copies share one Merkle key, but a wave's jobs are all
        // queued before the first runs, so the second is not served
        // from the first's fresh verdict.
        let src = "let x = 1;;\nlet x = 1;;\n";
        let a = analyze(src, &Options::default(), EngineSel::Uf).unwrap();
        assert_eq!(a.waves, vec![vec![0, 1]]);
        assert_eq!(a.keys[0], a.keys[1]);
        let shared = Shared::new();
        let mut exec = Executor::new(1, Options::default(), EngineSel::Uf);
        let cold = exec.run(&a, &shared);
        assert_eq!((cold.rechecked, cold.reused, cold.waves), (2, 0, 1));
        let warm = exec.run(&a, &shared);
        assert_eq!((warm.rechecked, warm.reused, warm.waves), (0, 2, 0));
    }

    #[test]
    fn a_warm_report_matches_a_fully_cached_pass() {
        // A check of the same text with nothing to recompute shares the
        // previous verdicts, and counts them as a full pass over the same
        // hub does: blocked bindings stay blocked.
        let src = "#use prelude\nlet a = 1;;\nlet b = plus a 1;;\nlet c = single id;;\n\
            let bad = plus true 1;;\nlet child = plus bad 1;;\n";
        let a = analyze(src, &Options::default(), EngineSel::Uf).unwrap();
        let shared = Shared::new();
        let mut exec = Executor::new(1, Options::default(), EngineSel::Uf);
        let cold = exec.run(&a, &shared);
        let pass = exec.run(&a, &shared);
        let reuse = Reuse {
            report: &cold,
            patch: None,
        };
        let warm = exec
            .run_reusing(&a, Some(reuse), &shared, TraceCtx::default(), None)
            .unwrap();
        assert!(Arc::ptr_eq(&warm.bindings, &cold.bindings), "not copied");
        assert_eq!(
            (warm.rechecked, warm.reused, warm.blocked, warm.waves),
            (pass.rechecked, pass.reused, pass.blocked, pass.waves)
        );
        assert_eq!((pass.rechecked, pass.reused, pass.blocked), (0, 4, 1));
        let shown = |r: &CheckReport| -> Vec<(String, String)> {
            r.bindings
                .iter()
                .map(|b| (b.name.to_string(), b.outcome.display()))
                .collect()
        };
        assert_eq!(shown(&warm), shown(&pass));
    }

    #[test]
    fn only_checker_bugs_are_never_cached() {
        let r = check(
            "let ok = 1;;\nlet bad = 1 1;;\nlet child = bad;;\n",
            EngineSel::Uf,
        );
        for b in r.bindings.iter() {
            assert!(b.outcome.cacheable(), "{}: {:?}", b.name, b.outcome);
        }
        assert!(matches!(
            r.binding("bad").unwrap().outcome,
            Outcome::Error { .. }
        ));
        assert!(matches!(
            r.binding("child").unwrap().outcome,
            Outcome::Blocked { .. }
        ));
        assert!(!internal_error("x", "boom").cacheable());
        let split = Outcome::Disagreement {
            core: "Int".into(),
            uf: "Bool".into(),
        };
        assert!(!split.cacheable());
    }

    #[test]
    fn an_edit_rechecks_exactly_the_dirty_cone() {
        let src = "#use prelude\n\
            let base = 1;;\n\
            let l = plus base 1;;\n\
            let r = plus base 2;;\n\
            let top = plus l r;;\n\
            let lone = 7;;\n";
        let shared = Shared::new();
        let mut exec = Executor::new(1, Options::default(), EngineSel::Uf);
        let a = analyze(src, &Options::default(), EngineSel::Uf).unwrap();
        exec.run(&a, &shared);
        // Edit `l`: dirties l and top; base, r, lone stay cached.
        let edited = src.replace("let l = plus base 1;;", "let l = plus base 10;;");
        let b = analyze(&edited, &Options::default(), EngineSel::Uf).unwrap();
        let warm = exec.run(&b, &shared);
        assert_eq!(warm.rechecked, 2);
        assert_eq!(warm.reused, 3);
        assert!(warm.all_typed());
    }

    #[test]
    fn frozen_reuse_across_bindings() {
        // A generalised binding's scheme survives freezing downstream.
        let src = "#use prelude\n\
            let myid = $(fun x -> x);;\n\
            let a = auto ~myid;;\n\
            let b = poly ~myid;;\n";
        let r = check(src, EngineSel::Both);
        assert!(r.all_typed(), "{:?}", r.bindings);
        assert_eq!(
            r.binding("a").unwrap().outcome.display(),
            "forall a. a -> a"
        );
        assert_eq!(r.binding("b").unwrap().outcome.display(), "Int * Bool");
    }
}
