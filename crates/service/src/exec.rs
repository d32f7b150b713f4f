//! The parallel executor: a pool of workers, each owning reusable
//! [`freezeml_engine::Session`]s, checking the dirty components of a
//! program in topological waves.
//!
//! Scheduling is wave-by-wave over the condensation ([`crate::graph`]):
//! all components in one wave are independent, so their bindings are
//! checked concurrently on scoped threads — one worker per thread, each
//! session handed off wholesale (the store is owned data, see the
//! engine's `session_hands_off_across_threads` test). Within a pass:
//!
//! * a binding whose cache key hits the scheme cache is **reused** (no
//!   inference at all);
//! * a binding with a failed or blocked dependency is **blocked**, not
//!   cascaded into a misleading unbound-variable error;
//! * everything else is **rechecked** — under `ENGINE=core`, `uf`, or
//!   `both` (per-binding differential agreement).
//!
//! Checking a binding `let x (: A)? = M;;` infers the probe term
//! `let x (: A)? = M in ⌈x⌉`, so the scheme is produced by the paper's
//! `let` rule itself. Residual monomorphic variables (value restriction)
//! are grounded to `Int` — the same defaulting the REPL performs — so
//! the scheme stored in the environment stays closed.

use crate::db::{Analysis, DeclInfo, EngineSel, Outcome};
use crate::fault::{self, Fault};
use crate::shared::Shared;

/// One inference job: a declaration index plus the scheme ids of its
/// dependencies (resolved against the shared scheme bank).
type Job = (usize, Vec<(Var, SchemeId)>);
use freezeml_core::{Options, Span, Type, TypeEnv, Var};
use freezeml_engine::differential::{class_of, types_equivalent};
use freezeml_engine::{SchemeBank, SchemeId, Session};
use freezeml_obs::{NoTrace, Record, TraceCtx, TraceSink, Val};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One worker: lazily-built engine sessions (with and without the
/// Figure 2 prelude) plus the core-engine environments.
pub struct Worker {
    opts: Options,
    engine: EngineSel,
    /// Lazily interned sessions, keyed by "uses the prelude".
    sessions: [Option<Session>; 2],
    /// Core-engine base environments, same keying.
    envs: [Option<TypeEnv>; 2],
}

impl Worker {
    /// A fresh worker for the given configuration.
    pub fn new(opts: Options, engine: EngineSel) -> Worker {
        Worker {
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
    pub fn check(
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
                // inference never serialises on other workers, and the
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
}

/// The `Outcome::Error` class reserved for contained worker panics —
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

/// Check one binding with panic containment: a panicking check becomes
/// an internal-error verdict for that binding, the worker's sessions are
/// rebuilt (a panic mid-inference leaves them polluted), and the wave —
/// and the service — keep going. `inject` carries an armed
/// `infer.binding`/`infer.wave` failpoint: a `panic` fault panics
/// *inside* the contained region (exercising exactly the real-bug
/// path), `err`/`eof` short-circuit to an internal-error verdict, and
/// `delay` stalls the check.
fn check_contained(
    w: &mut Worker,
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
        w.check(bank, use_prelude, decl, deps)
    }));
    result.unwrap_or_else(|payload| {
        w.reset();
        internal_error(decl.name(), panic_message(payload.as_ref()))
    })
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
    /// The bound name.
    pub name: String,
    /// The declaration's source span.
    pub span: Span,
    /// The verdict.
    pub outcome: Outcome,
}

/// The result of one check pass over a program.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-binding verdicts, in declaration order.
    pub bindings: Vec<BindingReport>,
    /// Bindings actually re-inferred this pass (cache misses).
    pub rechecked: usize,
    /// Bindings served from the scheme cache.
    pub reused: usize,
    /// Bindings not checked this pass: a failed or blocked dependency,
    /// or membership in an (unsupported) recursive group. Every pass
    /// satisfies `rechecked + reused + blocked == bindings.len()` — the
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

/// The worker pool. The scheme bank and outcome cache it runs against
/// live in the [`Shared`] hub, so many executors (one per connected
/// session) share one scheme space.
pub struct Executor {
    workers: Vec<Worker>,
}

impl Executor {
    /// A pool of `n` workers (at least one).
    pub fn new(n: usize, opts: Options, engine: EngineSel) -> Executor {
        Executor {
            workers: (0..n.max(1)).map(|_| Worker::new(opts, engine)).collect(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// One check pass: walk the waves, reuse cache hits, block on failed
    /// dependencies, and run the remaining jobs concurrently. Fresh
    /// verdicts are written back to the shared cache (disagreements and
    /// internal errors excepted — those are bugs and must never be
    /// served warm). Worker panics are contained per binding
    /// (`check_contained`); the executor and the hub survive them.
    pub fn run(&mut self, a: &Analysis, shared: &Shared) -> CheckReport {
        self.run_traced(a, shared, TraceCtx::default())
    }

    /// [`Executor::run`] with trace context: per-wave and per-binding
    /// spans go to the hub's tracer. The body is monomorphised over the
    /// sink ([`freezeml_obs::TraceSink`]'s `ENABLED` const), so with
    /// tracing off this compiles to exactly the untraced executor — no
    /// clock reads, no record construction.
    pub fn run_traced(&mut self, a: &Analysis, shared: &Shared, ctx: TraceCtx) -> CheckReport {
        self.run_budgeted(a, shared, ctx, None)
            // lint: allow(unwrap) — run_budgeted only errs when a deadline is set; none is
            .expect("no deadline was set")
    }

    /// [`Executor::run_traced`] under a time budget: the deadline is
    /// checked **at wave boundaries** (a wave's jobs, once dispatched,
    /// run to completion — inference is not preemptible), so an
    /// exhausted budget abandons the pass before the next wave starts.
    /// Completed verdicts stay cached; the hub's `deadline_exceeded`
    /// counter records the abandonment.
    pub fn run_budgeted(
        &mut self,
        a: &Analysis,
        shared: &Shared,
        ctx: TraceCtx,
        deadline: Option<Instant>,
    ) -> Result<CheckReport, DeadlineExceeded> {
        match shared.tracer().sink() {
            Some(sink) => self.run_sink(a, shared, ctx, &**sink, deadline),
            None => self.run_sink(a, shared, ctx, &NoTrace, deadline),
        }
    }

    fn run_sink<S: TraceSink>(
        &mut self,
        a: &Analysis,
        shared: &Shared,
        ctx: TraceCtx,
        sink: &S,
        deadline: Option<Instant>,
    ) -> Result<CheckReport, DeadlineExceeded> {
        let n = a.decls.len();
        let use_prelude = a.uses_prelude;
        let bank = shared.bank();
        let cache = shared.cache();
        let metrics = shared.metrics();
        // One probe up front keeps the fault layer off the hot path:
        // when no spec is installed this is a single relaxed load and
        // every per-binding site check below is skipped entirely.
        let faults_on = fault::active();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
        let (mut rechecked, mut reused, mut blocked) = (0usize, 0usize, 0usize);
        let mut waves = 0usize;

        for (wave_no, wave) in a.cond.waves.iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    metrics.deadline_exceeded.inc();
                    return Err(DeadlineExceeded);
                }
            }
            // `infer.wave` failpoint: `delay` stalls the scheduler here
            // (where the deadline will catch it next wave); any other
            // fault is injected into every job of the wave, contained
            // per binding like a real worker bug.
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
            let mut jobs: Vec<Job> = Vec::new();
            for &c in wave {
                let members = &a.cond.comps[c];
                if members.len() > 1 {
                    // Unreachable through the current surface (resolution
                    // points backwards), but the scheduler stays honest.
                    let names: Vec<&str> = members.iter().map(|&i| a.decls[i].name()).collect();
                    for &i in members {
                        outcomes[i] = Some(Outcome::Error {
                            class: "RecursiveBinding".to_string(),
                            message: format!(
                                "recursive binding group {{{}}} is not supported",
                                names.join(", ")
                            ),
                        });
                    }
                    blocked += members.len();
                    continue;
                }
                let i = members[0];
                if let Some(bad) = a.deps[i]
                    .iter()
                    .find(|&&d| !outcomes[d].as_ref().is_some_and(Outcome::is_typed))
                {
                    outcomes[i] = Some(Outcome::Blocked {
                        on: a.decls[*bad].name().to_string(),
                    });
                    blocked += 1;
                    continue;
                }
                if let Some(hit) = cache.get(a.keys[i]) {
                    outcomes[i] = Some(hit);
                    reused += 1;
                    continue;
                }
                let dep_env: Vec<(Var, SchemeId)> = a.deps[i]
                    .iter()
                    .map(|&d| {
                        let Some(Outcome::Typed { id, .. }) = outcomes[d].as_ref() else {
                            unreachable!("checked typed above")
                        };
                        (Var::from_symbol(a.decls[d].name_sym()), *id)
                    })
                    .collect();
                jobs.push((i, dep_env));
            }

            if jobs.is_empty() {
                continue;
            }
            waves += 1;
            let job_count = jobs.len();
            rechecked += job_count;

            let k = self.workers.len().min(jobs.len());
            let mut chunks: Vec<Vec<Job>> = (0..k).map(|_| Vec::new()).collect();
            for (j, job) in jobs.into_iter().enumerate() {
                chunks[j % k].push(job);
            }
            // Declaration indices per chunk, kept on this side of the
            // spawn: if a worker thread dies anyway (a panic escaping
            // the per-binding containment), its chunk's bindings resolve
            // to internal errors instead of poisoning the whole pass.
            let chunk_idxs: Vec<Vec<usize>> = chunks
                .iter()
                .map(|c| c.iter().map(|j| j.0).collect())
                .collect();
            let decls = &a.decls;
            // One binding, as every worker checks it: the
            // `infer.binding` failpoint, containment, and its span.
            let check = |w: &mut Worker, (i, env): Job| {
                let t0 = S::ENABLED.then(Instant::now);
                let inject = wave_inject.or_else(|| {
                    faults_on
                        .then(|| fault::hit_counted("infer.binding", metrics))
                        .flatten()
                });
                let o = check_contained(w, bank, use_prelude, &decls[i], &env, inject);
                if let Some(t0) = t0 {
                    sink.emit(
                        &Record::new("span", "infer")
                            .ctx(ctx)
                            .wave(wave_no as u64)
                            .binding(i as u64)
                            .dur(t0.elapsed()),
                    );
                }
                (i, o)
            };
            let results: Vec<(usize, Outcome)> = if k == 1 {
                let w = &mut self.workers[0];
                chunks
                    .pop()
                    // lint: allow(unwrap) — k == 1 guarantees exactly one chunk
                    .expect("k == 1")
                    .into_iter()
                    .map(|job| check(w, job))
                    .collect()
            } else {
                let check = &check;
                let joined: Vec<std::thread::Result<Vec<(usize, Outcome)>>> =
                    std::thread::scope(|s| {
                        let handles: Vec<_> = self
                            .workers
                            .iter_mut()
                            .zip(chunks)
                            .map(|(w, chunk)| {
                                s.spawn(move || {
                                    chunk.into_iter().map(|job| check(w, job)).collect()
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join()).collect()
                    });
                let mut out = Vec::new();
                for (wi, (res, idxs)) in joined.into_iter().zip(chunk_idxs).enumerate() {
                    match res {
                        Ok(v) => out.extend(v),
                        Err(payload) => {
                            let msg = panic_message(payload.as_ref()).to_string();
                            self.workers[wi].reset();
                            out.extend(
                                idxs.into_iter()
                                    .map(|i| (i, internal_error(decls[i].name(), &msg))),
                            );
                        }
                    }
                }
                out
            };
            for (i, o) in results {
                let uncacheable = matches!(o, Outcome::Disagreement { .. })
                    || matches!(&o, Outcome::Error { class, .. } if class == INTERNAL_ERROR_CLASS);
                if !uncacheable {
                    cache.insert(a.keys[i], o.clone());
                }
                outcomes[i] = Some(o);
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

        // Every cache probe either served a reuse or became a job, so
        // the pass totals are the verdict-cache hit/miss counts.
        metrics.verdict_hits.add(reused as u64);
        metrics.verdict_misses.add(rechecked as u64);

        Ok(CheckReport {
            bindings: outcomes
                .into_iter()
                .enumerate()
                .map(|(i, o)| BindingReport {
                    name: a.decls[i].name().to_string(),
                    span: a.decls[i].span,
                    // lint: allow(unwrap) — the wave loop resolves every member before this point
                    outcome: o.expect("every wave member resolved"),
                })
                .collect(),
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
        Executor::new(2, Options::default(), engine).run(&a, &Shared::new())
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
    fn an_edit_rechecks_exactly_the_dirty_cone() {
        let src = "#use prelude\n\
            let base = 1;;\n\
            let l = plus base 1;;\n\
            let r = plus base 2;;\n\
            let top = plus l r;;\n\
            let lone = 7;;\n";
        let shared = Shared::new();
        let mut exec = Executor::new(2, Options::default(), EngineSel::Uf);
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
