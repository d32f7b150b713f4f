//! Figure 16's inference algorithm on the mutable store.
//!
//! Same judgement shapes as `core::infer`, different machinery:
//!
//! * no `Subst` exists anywhere — `θ(Γ)`, `θ₂(A′)` and the composition
//!   chains of Figure 16 are all the identity on the store, because types
//!   are resolved through cells at the moment they are inspected;
//! * the `let` rule's generalisation set `∆′′′ = ftv(A) − ∆ − ftv(θ₁)` is
//!   computed from *levels*: a variable belongs to `ftv(θ₁)` (the image
//!   of the environment that existed before the right-hand side) exactly
//!   when binding has propagated an outer level into it, so the paper's
//!   `range_ftv` sweep over `Θ` becomes one integer comparison per free
//!   variable of `A`;
//! * under the value restriction the non-value case's
//!   `demote(•, Θ₁, ∆′′′)` is a kind-field write per variable;
//! * the annotated-`let` escape assertion `ftv(θ₂) # ∆′` scans the trail
//!   for variables that existed *before* the binding (`VarId` below the
//!   scope's watermark) and were solved *inside* it — precisely the
//!   variables on which `θ₂` restricted to the ambient `Θ` is not the
//!   identity.
//!
//! The result is zonked back to a `core::Type`, so callers (conformance
//! harness, pretty-printing, downstream crates) consume it unchanged.

use crate::bank::{SchemeBank, SchemeId};
use crate::elab::{BuildEv, Elab, EvBuild, NoEv};
use crate::store::{Node, Shape, Store, TypeId, VarId};
use crate::unify::unify;
use freezeml_core::infer::ProgramError;
use freezeml_core::scope::split;
use freezeml_core::{
    Kind, KindEnv, Options, RefinedEnv, Term, TyVar, Type, TypeEnv, TypeError, Var,
};

/// The result of a top-level union-find inference run.
#[derive(Clone, Debug)]
pub struct InferOutput {
    /// The inferred (principal) type, fully zonked.
    pub ty: Type,
    /// The kinds of the flexible variables left unsolved in `ty` — the
    /// residual `Θ′` of Figure 16, keyed by the zonked variable names.
    pub theta: RefinedEnv,
}

/// The result of a zonk-free inference run: the principal type exported
/// into a [`SchemeBank`] as a DAG, never expanded to a tree. Residual
/// monomorphic variables are grounded to `Int` (the REPL's defaulting),
/// so the scheme is closed and its id is an α-class.
#[derive(Clone, Debug)]
pub struct SchemeOutput {
    /// The exported scheme.
    pub scheme: SchemeId,
    /// Canonical names of the residual variables that were grounded.
    pub defaulted: Vec<String>,
}

struct InferCtx<'s> {
    store: &'s mut Store,
    opts: &'s Options,
    gamma: &'s mut Vec<(Var, TypeId)>,
    /// Annotation-bound rigid variables currently in scope (the `∆′`
    /// extensions of the annotated-`let` rule).
    rigid_scope: Vec<TyVar>,
}

impl<'s> InferCtx<'s> {
    fn lookup(&self, x: &Var) -> Option<TypeId> {
        self.gamma
            .iter()
            .rev()
            .find(|(v, _)| v == x)
            .map(|(_, t)| *t)
    }

    /// Instantiate every top-level quantifier with a fresh `⋆`-kinded
    /// variable (the Var rule / eliminator instantiation). The fresh
    /// cells' ids are collected in quantifier order when evidence is on:
    /// they *are* the type-application evidence — reading them through
    /// the store after solving yields the chosen instantiations with no
    /// substitution pass.
    fn instantiate<E: EvBuild>(&mut self, ty: TypeId) -> (TypeId, Vec<TypeId>) {
        let mut t = self.store.resolve(ty);
        let mut inst = Vec::new();
        while let Shape::Forall(v, body) = self.store.shape(t) {
            let (_, fresh) = self.store.fresh_var(Kind::Poly);
            if E::ON {
                inst.push(fresh);
            }
            t = self.store.subst_rigid(body, &v, fresh);
            t = self.store.resolve(t);
        }
        (t, inst)
    }

    /// Figure 16 inference, generic over the evidence sink: `NoEv`
    /// monomorphises every hook to nothing (the production hot path is
    /// byte-for-byte the old one), `BuildEv` records the Figure 11
    /// image alongside the `TypeId`.
    fn infer<E: EvBuild>(&mut self, term: &Term) -> Result<(TypeId, E::Term), TypeError> {
        match term {
            // infer(∆, Θ, Γ, ⌈x⌉) = (Θ, ι, Γ(x)); C⟦⌈x⌉⟧ = x.
            Term::FrozenVar(x) => {
                let ty = self.lookup(x).ok_or(TypeError::UnboundVar(*x))?;
                Ok((ty, E::var(*x)))
            }

            // infer(∆, Θ, Γ, x): instantiate ∀ā.H with fresh b̄ : ⋆;
            // C⟦x⟧ = x δ(∆′).
            Term::Var(x) => {
                let scheme = self.lookup(x).ok_or(TypeError::UnboundVar(*x))?;
                let (ty, inst) = self.instantiate::<E>(scheme);
                Ok((ty, E::inst(E::var(*x), inst)))
            }

            Term::Lit(l) => Ok((self.store.intern_type(&l.ty()), E::lit(*l))),

            // infer(∆, Θ, Γ, λx.M): fresh a : •; C⟦λx.M⟧ = λx^S.C⟦M⟧.
            Term::Lam(x, body) => {
                let (_, a) = self.store.fresh_var(Kind::Mono);
                self.gamma.push((*x, a));
                let bty = self.infer::<E>(body);
                self.gamma.pop();
                let (bty, bev) = bty?;
                Ok((self.store.arrow(a, bty), E::lam(*x, a, bev)))
            }

            // infer(∆, Θ, Γ, λ(x:A).M); C⟦λ(x:A).M⟧ = λx^A.C⟦M⟧.
            Term::LamAnn(x, ann, body) => {
                let ann_id = self.store.intern_type(ann);
                self.gamma.push((*x, ann_id));
                let bty = self.infer::<E>(body);
                self.gamma.pop();
                let (bty, bev) = bty?;
                Ok((self.store.arrow(ann_id, bty), E::lam(*x, ann_id, bev)))
            }

            // infer(∆, Θ, Γ, M N): unify A′ with A → b for fresh b : ⋆.
            //
            // The spine is flattened and processed iteratively (mirroring
            // `core::infer`), so stack use is constant in the length of an
            // application chain.
            Term::App(_, _) => {
                let mut head = term;
                let mut args = Vec::new();
                while let Term::App(f, a) = head {
                    args.push(a.as_ref());
                    head = f;
                }
                args.reverse();
                let (mut fty_id, mut fev) = self.infer::<E>(head)?;
                for arg in args {
                    let (aty, aev) = self.infer::<E>(arg)?;
                    let mut fty = self.store.resolve(fty_id);
                    // Eliminator instantiation (§3.2): implicitly
                    // instantiate a quantified head before matching it
                    // against `A → b`.
                    if self.opts.instantiation == freezeml_core::InstantiationStrategy::Eliminator
                        && matches!(self.store.node(fty), Node::Forall(_, _))
                    {
                        let (t, inst) = self.instantiate::<E>(fty);
                        fty = t;
                        fev = E::inst(fev, inst);
                    }
                    let (_, b) = self.store.fresh_var(Kind::Poly);
                    let expected = self.store.arrow(aty, b);
                    unify(self.store, fty, expected)?;
                    fty_id = b;
                    fev = E::app(fev, aev);
                }
                Ok((fty_id, fev))
            }

            // infer(∆, Θ, Γ, let x = M in N);
            // C⟦let x = M in N⟧ = let x^∀∆′.A = Λ∆′.C⟦M⟧ in C⟦N⟧.
            Term::Let(x, rhs, body) => {
                let outer = self.store.current_level();
                self.store.enter_level();
                let aty = self.infer::<E>(rhs);
                self.store.leave_level();
                let (aty, rhs_ev) = aty?;
                // ∆′′′ = ftv(A) − ∆ − ∆′: free variables of A not reachable
                // from the pre-rhs environment — level > outer.
                let d3: Vec<VarId> = self
                    .store
                    .free_flex(aty)
                    .into_iter()
                    .filter(|&v| self.store.level_of(v) > outer)
                    .collect();
                let gval = rhs.is_gval(self.opts);
                let (scheme, binders) = if gval {
                    self.generalize(aty, &d3)
                } else {
                    // Value restriction: demote the ungeneralised
                    // variables to `•` — one cell write each.
                    for &v in &d3 {
                        self.store.demote(v);
                    }
                    (aty, Vec::new())
                };
                self.gamma.push((*x, scheme));
                let bty = self.infer::<E>(body);
                self.gamma.pop();
                let (bty, body_ev) = bty?;
                Ok((
                    bty,
                    E::let_(*x, scheme, E::tylams(binders, rhs_ev), body_ev),
                ))
            }

            // Explicit type application M@[A] (§6 extension).
            Term::TyApp(m, arg) => {
                let (mty, mev) = self.infer::<E>(m)?;
                let mty = self.store.resolve(mty);
                match self.store.shape(mty) {
                    Shape::Forall(v, body) => {
                        let arg_id = self.store.intern_type(arg);
                        Ok((
                            self.store.subst_rigid(body, &v, arg_id),
                            E::tyapp(mev, arg_id),
                        ))
                    }
                    _ => Err(TypeError::CannotTypeApply {
                        ty: self.store.zonk(mty),
                    }),
                }
            }

            // infer(∆, Θ, Γ, let (x:A) = M in N);
            // C⟦…⟧ = let x^A = Λ∆′.C⟦M⟧ in C⟦N⟧ with ∆′ = split(A, M).
            Term::LetAnn(x, ann, rhs, body) => {
                let (split_vars, a_prime) = split(ann, rhs, self.opts);
                for v in &split_vars {
                    if self.rigid_scope.contains(v) {
                        return Err(TypeError::ShadowedTyVar { var: *v });
                    }
                }
                let watermark = self.store.var_count();
                let mark = self.store.mark();
                let depth = self.rigid_scope.len();
                self.rigid_scope.extend(split_vars.iter().cloned());
                let a_prime_id = self.store.intern_type(&a_prime);
                let result = self
                    .infer::<E>(rhs)
                    .and_then(|(a1, ev)| unify(self.store, a_prime_id, a1).map(|()| ev));
                self.rigid_scope.truncate(depth);
                let rhs_ev = result?;
                // assert ftv(θ₂) # ∆′: a variable from the ambient Θ
                // (below the watermark) solved inside this scope must not
                // mention an annotation variable.
                let mut escaping = Vec::new();
                for v in self.store.bound_since(mark) {
                    if v.index() < watermark {
                        let vid = self.store.flex(v);
                        for a in &split_vars {
                            if !escaping.contains(a) && self.store.occurs_rigid(vid, a) {
                                escaping.push(*a);
                            }
                        }
                    }
                }
                if !escaping.is_empty() {
                    return Err(TypeError::AnnotationEscape { vars: escaping });
                }
                let ann_id = self.store.intern_type(ann);
                self.gamma.push((*x, ann_id));
                let bty = self.infer::<E>(body);
                self.gamma.pop();
                let (bty, body_ev) = bty?;
                Ok((
                    bty,
                    E::let_(*x, ann_id, E::tylams(split_vars, rhs_ev), body_ev),
                ))
            }
        }
    }

    /// `(∆′′, ∆′′′) = gen((∆, ∆′), A, M)` in the value case: close `A`
    /// over the given variables. Each cell is solved with a rigid carrying
    /// its own (globally fresh) name, which then serves as the binder —
    /// and as the `Λ` binder of the evidence term.
    fn generalize(&mut self, aty: TypeId, d3: &[VarId]) -> (TypeId, Vec<TyVar>) {
        let mut binders = Vec::with_capacity(d3.len());
        for &v in d3 {
            let name = self.store.name_of(v);
            let rigid = self.store.rigid(name);
            self.store.solve(v, rigid);
            binders.push(name);
        }
        let scheme = binders
            .iter()
            .rev()
            .fold(aty, |acc, name| self.store.forall(*name, acc));
        (scheme, binders)
    }
}

/// A reusable inference session over a fixed environment `Γ`.
///
/// The environment is kind-checked and interned **once**; each
/// [`Session::infer`] call then only pays for the term at hand, and the
/// previous term's store state (nodes, cells, trail, binder records) is
/// reclaimed on the way in, so memory stays bounded by the environment
/// plus one term. This is the serving shape the arena design exists for
/// — checking a stream of programs against one prelude amortises all
/// environment setup. Reuse is sound because the initial `Γ` is closed
/// over flexible variables (environment formation, Figure 12), so no
/// pre-term state can reference per-term state.
pub struct Session {
    store: Store,
    gamma: Vec<(Var, TypeId)>,
    opts: Options,
    /// Store extent right after the environment was interned; everything
    /// beyond it is per-term state, reclaimed between terms.
    base: crate::store::StoreMark,
}

impl Session {
    /// Check and intern the environment.
    ///
    /// # Errors
    ///
    /// Environment-formation errors (`∆, Θ ⊢ Γ`, Figure 12).
    pub fn new(gamma: &TypeEnv, opts: &Options) -> Result<Session, TypeError> {
        freezeml_core::kinding::check_env(&KindEnv::new(), &RefinedEnv::new(), gamma)?;
        Ok(Session::unchecked(gamma, opts))
    }

    /// Intern the environment without re-running environment formation
    /// (for callers that have already checked it, possibly under a
    /// non-empty `∆` — see [`check_typing`]).
    fn unchecked(gamma: &TypeEnv, opts: &Options) -> Session {
        let mut store = Store::new();
        let interned: Vec<(Var, TypeId)> = gamma
            .iter()
            .map(|(x, ty)| (*x, store.intern_type(ty)))
            .collect();
        let base = store.checkpoint();
        Session {
            store,
            gamma: interned,
            opts: *opts,
            base,
        }
    }

    /// Infer one term: well-scopedness, inference, zonk.
    ///
    /// # Errors
    ///
    /// The same [`TypeError`] classes as the `core` engine.
    pub fn infer(&mut self, term: &Term) -> Result<InferOutput, TypeError> {
        freezeml_core::scope::well_scoped(&KindEnv::new(), term, &self.opts)?;
        self.infer_scoped(term)
    }

    /// Infer one term under `Γ, extra` — the session's environment
    /// extended with per-call bindings. The extras are formation-checked
    /// and interned for this call only; their nodes are reclaimed with
    /// the rest of the term state on the next call, so the session's
    /// store stays bounded by the base environment plus one term.
    ///
    /// This is the serving shape of the program-checking service: one
    /// session per worker holds the interned prelude, and each binding
    /// is checked under the schemes of the declarations it depends on.
    ///
    /// # Errors
    ///
    /// The same [`TypeError`] classes as the `core` engine; additionally
    /// environment-formation errors for the extra bindings.
    pub fn infer_with(
        &mut self,
        extra: &[(Var, Type)],
        term: &Term,
    ) -> Result<InferOutput, TypeError> {
        freezeml_core::scope::well_scoped(&KindEnv::new(), term, &self.opts)?;
        let extra_env: TypeEnv = extra.iter().cloned().collect();
        freezeml_core::kinding::check_env(&KindEnv::new(), &RefinedEnv::new(), &extra_env)?;
        self.store.reset_to(&self.base);
        let depth = self.gamma.len();
        for (x, ty) in extra {
            let id = self.store.intern_type(ty);
            self.gamma.push((*x, id));
        }
        let out = self.infer_reclaimed(term);
        self.gamma.truncate(depth);
        out
    }

    /// Infer one term under `Γ, extra` with the extras supplied as
    /// cached [`SchemeId`]s and the result exported as a scheme — the
    /// fully **zonk-free** serving path: dependency schemes enter the
    /// store by O(DAG) interning ([`SchemeBank::intern_into`]), the
    /// result leaves by O(DAG) export ([`SchemeBank::export`]), and no
    /// `core::Type` tree is built anywhere. Residual variables are
    /// grounded to `Int` (the value-restriction defaulting the service
    /// and REPL apply), so the returned scheme is closed.
    ///
    /// The bank is the sharded concurrent scheme arena
    /// ([`crate::bank`]): the boundary crossings take per-shard locks
    /// for single-node operations only, never across inference, so a
    /// worker pool's sessions infer and intern concurrently without a
    /// global lock.
    ///
    /// Extras are schemes produced by inference (or imported through
    /// [`SchemeBank::intern_type`]) and are well-formed by
    /// construction, so no environment-formation pass runs over them.
    ///
    /// # Errors
    ///
    /// The same [`TypeError`] classes as [`Session::infer`].
    pub fn infer_scheme_with(
        &mut self,
        bank: &SchemeBank,
        extra: &[(Var, SchemeId)],
        term: &Term,
    ) -> Result<SchemeOutput, TypeError> {
        freezeml_core::scope::well_scoped(&KindEnv::new(), term, &self.opts)?;
        self.store.reset_to(&self.base);
        let depth = self.gamma.len();
        for (x, sid) in extra {
            let id = bank.intern_into(&mut self.store, *sid);
            self.gamma.push((*x, id));
        }
        let opts = self.opts;
        let mut cx = InferCtx {
            store: &mut self.store,
            opts: &opts,
            gamma: &mut self.gamma,
            rigid_scope: Vec::new(),
        };
        let result = cx.infer::<NoEv>(term);
        self.gamma.truncate(depth);
        let (ty_id, ()) = result?;
        // Ground the residual monomorphic variables to Int; their display
        // names come from the exported scheme's own supply
        // (`SchemeBank::defaulted_names`), shared with the oracle
        // paths so every engine reports identical, collision-free names.
        let residual = self.store.free_flex(ty_id);
        let grounded = residual.len();
        if grounded > 0 {
            let int = self.store.int();
            for v in residual {
                self.store.solve(v, int);
            }
        }
        let scheme = bank.export(&mut self.store, ty_id);
        let defaulted = bank.defaulted_names(scheme, grounded);
        Ok(SchemeOutput { scheme, defaulted })
    }

    /// Inference proper, for terms already scope-checked.
    fn infer_scoped(&mut self, term: &Term) -> Result<InferOutput, TypeError> {
        // The previous term's nodes, cells, binder records, and journal
        // are dead weight once its output has been zonked — reclaim them
        // so a long-lived session's store stays bounded by the
        // environment plus one term.
        self.store.reset_to(&self.base);
        self.infer_reclaimed(term)
    }

    /// Inference on the already-reclaimed store (extras, if any, interned).
    fn infer_reclaimed(&mut self, term: &Term) -> Result<InferOutput, TypeError> {
        let depth = self.gamma.len();
        let opts = self.opts;
        let mut cx = InferCtx {
            store: &mut self.store,
            opts: &opts,
            gamma: &mut self.gamma,
            rigid_scope: Vec::new(),
        };
        let result = cx.infer::<NoEv>(term);
        // A failed inference may leave pushed bindings behind; restore Γ.
        self.gamma.truncate(depth);
        let (ty_id, ()) = result?;
        let theta: RefinedEnv = self
            .store
            .free_flex(ty_id)
            .into_iter()
            .map(|v| (self.store.name_of(v), self.store.kind_of(v)))
            .collect();
        let ty = self.store.zonk(ty_id);
        Ok(InferOutput { ty, theta })
    }

    /// Infer one term *with evidence*: alongside the type, build the
    /// System F image of the inferred derivation (Figure 11 run
    /// natively on the store — see [`crate::elab`]), ground residual
    /// flexibles to `Int`, and administratively reduce the image so it
    /// satisfies the value restriction (the Theorem 3 repair).
    ///
    /// # Errors
    ///
    /// The same [`TypeError`] classes as [`Session::infer`].
    pub fn elaborate(&mut self, term: &Term) -> Result<Elab, TypeError> {
        freezeml_core::scope::well_scoped(&KindEnv::new(), term, &self.opts)?;
        self.store.reset_to(&self.base);
        let depth = self.gamma.len();
        let opts = self.opts;
        let mut cx = InferCtx {
            store: &mut self.store,
            opts: &opts,
            gamma: &mut self.gamma,
            rigid_scope: Vec::new(),
        };
        let result = cx.infer::<BuildEv>(term);
        self.gamma.truncate(depth);
        let (ty_id, ev) = result?;
        Ok(crate::elab::finish(&mut self.store, ev, ty_id))
    }
}

// ------------------------------------------------ prelude snapshot cache

/// A cached one-shot session: the environment it was built for (full
/// equality guard behind the fingerprint) and the ready [`Session`] with
/// the prelude interned and kind-checked.
struct CachedSession {
    fp: u64,
    env: TypeEnv,
    opts: Options,
    session: Session,
}

thread_local! {
    /// Small LRU of prelude snapshots for [`infer_term`]. A fresh
    /// one-shot call with an environment this thread has already seen
    /// reuses the interned, kind-checked store instead of rebuilding it
    /// — the amortisation [`Session`] gives explicit callers, extended
    /// to the fire-and-forget shape benchmarks and tools actually use.
    static SESSIONS: std::cell::RefCell<Vec<CachedSession>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Entries beyond this are evicted least-recently-used. Small: each
/// entry holds an interned prelude (a few hundred nodes).
const SESSION_CACHE_CAP: usize = 8;

fn env_fingerprint(gamma: &TypeEnv, opts: &Options) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = fxhash::FxHasher::default();
    opts.hash(&mut h);
    h.write_usize(gamma.len());
    for (x, t) in gamma.iter() {
        x.hash(&mut h);
        t.hash(&mut h);
    }
    h.finish()
}

/// Run `f` on this thread's cached session for `(gamma, opts)`, building
/// (and formation-checking) one on a miss. The entry moves to the
/// most-recently-used end; beyond [`SESSION_CACHE_CAP`] the least
/// recently used is evicted.
fn with_cached_session<T>(
    gamma: &TypeEnv,
    opts: &Options,
    f: impl FnOnce(&mut Session) -> Result<T, TypeError>,
) -> Result<T, TypeError> {
    let fp = env_fingerprint(gamma, opts);
    SESSIONS.with(|cache| {
        let mut cache = cache.borrow_mut();
        let hit = cache
            .iter()
            .position(|c| c.fp == fp && c.opts == *opts && c.env == *gamma);
        let mut entry = match hit {
            Some(i) => cache.remove(i),
            None => CachedSession {
                fp,
                env: gamma.clone(),
                opts: *opts,
                session: Session::new(gamma, opts)?,
            },
        };
        let out = f(&mut entry.session);
        cache.push(entry); // most-recently-used at the back
        if cache.len() > SESSION_CACHE_CAP {
            cache.remove(0);
        }
        out
    })
}

/// Infer the type of a closed-context term on a union-find store.
/// Mirrors `core::infer::infer_term`: checks well-scopedness and
/// environment formation first, then runs inference and zonks.
///
/// The environment work — formation checking and interning — is served
/// from a per-thread snapshot cache: repeated one-shot calls against
/// the same `Γ` (a benchmark batch, a conformance corpus, a tool
/// checking many terms against one prelude) pay for the environment
/// once, like an explicit [`Session`] would, and per-term store state
/// is reclaimed between calls. Equality is guarded by a full `Γ`
/// comparison behind the fingerprint, so a cache hit is semantically
/// identical to a rebuild.
///
/// # Errors
///
/// The same [`TypeError`] classes as the `core` engine.
pub fn infer_term(gamma: &TypeEnv, term: &Term, opts: &Options) -> Result<InferOutput, TypeError> {
    // Scope-check before environment formation — the order `core`'s
    // driver uses, so a term that fails both reports the same error.
    freezeml_core::scope::well_scoped(&KindEnv::new(), term, opts)?;
    with_cached_session(gamma, opts, |session| session.infer_scoped(term))
}

/// Elaborate a closed-context term on the union-find engine: the
/// one-shot analogue of [`Session::elaborate`], served from the same
/// per-thread prelude snapshot cache as [`infer_term`].
///
/// # Errors
///
/// The same [`TypeError`] classes as [`infer_term`].
pub fn elaborate_term(gamma: &TypeEnv, term: &Term, opts: &Options) -> Result<Elab, TypeError> {
    freezeml_core::scope::well_scoped(&KindEnv::new(), term, opts)?;
    with_cached_session(gamma, opts, |session| session.elaborate(term))
}

/// Parse and infer on the union-find engine, returning the canonicalised
/// principal type — the drop-in analogue of `core::infer_program`.
///
/// ```
/// use freezeml_core::{Options, TypeEnv};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut env = TypeEnv::new();
/// env.push_str("choose", "forall a. a -> a -> a")?;
/// env.push_str("id", "forall a. a -> a")?;
/// let ty = freezeml_engine::infer_program(&env, "choose id", &Options::default())?;
/// assert_eq!(ty.to_string(), "(a -> a) -> a -> a");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// A [`ProgramError`] wrapping the parse or type error.
pub fn infer_program(gamma: &TypeEnv, src: &str, opts: &Options) -> Result<Type, ProgramError> {
    let term = freezeml_core::parse_term(src)?;
    let out = infer_term(gamma, &term, opts)?;
    Ok(out.ty.canonicalize())
}

/// Decide the declarative judgement `∆; Γ ⊢ M : A` via the union-find
/// engine — the analogue of `core::check::check_typing` (Theorem 7: a
/// typing is derivable iff the candidate matches the inferred principal
/// type under a kind-respecting substitution).
///
/// # Errors
///
/// Returns an error only for ill-scoped terms or malformed environments;
/// an ill-typed term yields `Ok(false)`.
pub fn check_typing(
    delta: &KindEnv,
    gamma: &TypeEnv,
    term: &Term,
    ty: &Type,
    opts: &Options,
) -> Result<bool, TypeError> {
    freezeml_core::scope::well_scoped(delta, term, opts)?;
    freezeml_core::kinding::check_env(delta, &RefinedEnv::new(), gamma)?;
    // Inference proper, with no re-checking: the checks above already ran
    // under the caller's ∆, and the engine treats ∆-bound variables as
    // rigid constants structurally, so it needs no environment of its own.
    let out = match Session::unchecked(gamma, opts).infer_scoped(term) {
        Ok(out) => out,
        Err(_) => return Ok(false), // complete: no inference ⇒ no typing
    };
    Ok(freezeml_core::check::matches(delta, &out.theta, &out.ty, ty).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> TypeEnv {
        let mut g = TypeEnv::new();
        for (name, ty) in [
            ("id", "forall a. a -> a"),
            ("ids", "List (forall a. a -> a)"),
            ("choose", "forall a. a -> a -> a"),
            ("head", "forall a. List a -> a"),
            ("single", "forall a. a -> List a"),
            ("auto", "(forall a. a -> a) -> forall a. a -> a"),
            ("auto'", "forall b. (forall a. a -> a) -> b -> b"),
            ("poly", "(forall a. a -> a) -> Int * Bool"),
            ("inc", "Int -> Int"),
            ("nil", "forall a. List a"),
        ] {
            g.push_str(name, ty).unwrap();
        }
        g
    }

    fn ty_of(src: &str) -> Result<String, ProgramError> {
        infer_program(&env(), src, &Options::default()).map(|t| t.to_string())
    }

    #[test]
    fn frozen_variable_keeps_scheme() {
        assert_eq!(ty_of("~id").unwrap(), "forall a. a -> a");
    }

    #[test]
    fn plain_variable_instantiates() {
        assert_eq!(ty_of("id").unwrap(), "a -> a");
    }

    #[test]
    fn lambda_infers_monotype_param() {
        assert_eq!(ty_of("fun x -> x").unwrap(), "a -> a");
        assert_eq!(ty_of("fun x y -> y").unwrap(), "a -> b -> b");
    }

    #[test]
    fn application_works() {
        assert_eq!(ty_of("inc 41").unwrap(), "Int");
        assert_eq!(ty_of("id 41").unwrap(), "Int");
    }

    #[test]
    fn choose_id_specialises() {
        assert_eq!(ty_of("choose id").unwrap(), "(a -> a) -> a -> a");
        assert_eq!(
            ty_of("choose ~id").unwrap(),
            "(forall a. a -> a) -> forall a. a -> a"
        );
    }

    #[test]
    fn generalisation_operator() {
        assert_eq!(ty_of("$(fun x -> x)").unwrap(), "forall a. a -> a");
        assert_eq!(ty_of("poly $(fun x -> x)").unwrap(), "Int * Bool");
        assert_eq!(ty_of("poly ~id").unwrap(), "Int * Bool");
    }

    #[test]
    fn auto_requires_frozen_argument() {
        assert!(ty_of("auto id").is_err());
        assert_eq!(ty_of("auto ~id").unwrap(), "forall a. a -> a");
    }

    #[test]
    fn instantiation_operator() {
        assert_eq!(ty_of("head ids").unwrap(), "forall a. a -> a");
        assert!(ty_of("head ids 3").is_err());
        assert_eq!(ty_of("(head ids)@ 3").unwrap(), "Int");
    }

    #[test]
    fn let_generalises_values() {
        assert_eq!(
            ty_of("let f = fun x -> x in poly ~f").unwrap(),
            "Int * Bool"
        );
    }

    #[test]
    fn let_does_not_generalise_applications() {
        assert!(ty_of("let f = fun x -> x in ~f 42").is_err());
        assert_eq!(
            ty_of("choose (head ids)").unwrap(),
            "(forall a. a -> a) -> forall a. a -> a"
        );
    }

    #[test]
    fn value_restriction_rejects_poly_solution() {
        let g = env();
        let r = infer_program(
            &g,
            "let xs = single id in choose ids xs",
            &Options::default(),
        );
        assert!(r.is_err(), "demoted var must not take a polytype: {r:?}");
    }

    #[test]
    fn annotated_let_accepts_non_principal_types() {
        assert_eq!(
            ty_of("let (f : Int -> Int) = fun x -> x in f 3").unwrap(),
            "Int"
        );
    }

    #[test]
    fn annotated_let_scoped_tyvars() {
        assert_eq!(
            ty_of("let (f : forall a. a -> a) = fun (x : a) -> x in f 3").unwrap(),
            "Int"
        );
    }

    #[test]
    fn annotated_let_rejects_wrong_annotation() {
        assert!(ty_of("let (f : Int -> Bool) = fun x -> x in f 3").is_err());
        assert!(ty_of("let (f : forall a. a -> a) = id id in f").is_err());
    }

    #[test]
    fn annotation_escape_is_caught() {
        let r = ty_of("fun y -> let (f : forall a. a -> a) = fun (x : a) -> y in f");
        assert!(matches!(
            r,
            Err(ProgramError::Type(TypeError::AnnotationEscape { .. }))
        ));
    }

    #[test]
    fn eliminator_strategy_instantiates_heads() {
        let opts = Options::eliminator();
        let r = infer_program(&env(), "head ids 3", &opts);
        assert_eq!(r.unwrap().to_string(), "Int");
    }

    #[test]
    fn pure_mode_generalises_applications() {
        let r = infer_program(&env(), "$(auto' ~id)", &Options::pure_freezeml());
        assert_eq!(r.unwrap().to_string(), "forall a. a -> a");
        let r2 = infer_program(&env(), "$(auto' ~id)", &Options::default());
        assert_eq!(r2.unwrap().to_string(), "a -> a");
    }

    #[test]
    fn session_store_stays_bounded_across_terms() {
        let mut session = Session::new(&env(), &Options::default()).unwrap();
        let term = freezeml_core::parse_term("poly $(fun x -> x)").unwrap();
        session.infer(&term).unwrap();
        session.infer(&term).unwrap();
        let after_two = session.store.checkpoint();
        for _ in 0..50 {
            session.infer(&term).unwrap();
        }
        // Per-term state is reclaimed: the extent after 52 terms equals
        // the extent after 2 (environment + exactly one term in flight).
        let after_many = session.store.checkpoint();
        assert_eq!(format!("{after_two:?}"), format!("{after_many:?}"));
    }

    #[test]
    fn check_typing_threads_a_nonempty_delta() {
        use freezeml_core::{parse_term, parse_type, TyVar};
        // ∆ = {a}, Γ = {x : a}: ⌈x⌉ : a is derivable; Int is not.
        let delta: KindEnv = [TyVar::named("a")].into_iter().collect();
        let mut gamma = TypeEnv::new();
        gamma.push("x", Type::var("a"));
        let term = parse_term("~x").unwrap();
        let opts = Options::default();
        assert!(check_typing(&delta, &gamma, &term, &parse_type("a").unwrap(), &opts).unwrap());
        assert!(!check_typing(&delta, &gamma, &term, &Type::int(), &opts).unwrap());
        // And it matches the oracle on the same judgement.
        assert!(freezeml_core::check::check_typing(
            &delta,
            &gamma,
            &term,
            &parse_type("a").unwrap(),
            &opts
        )
        .unwrap());
    }

    #[test]
    fn session_reuses_the_environment_across_terms() {
        let mut session = Session::new(&env(), &Options::default()).unwrap();
        for (src, want) in [
            ("choose id", "(a -> a) -> a -> a"),
            ("~id", "forall a. a -> a"),
            ("poly $(fun x -> x)", "Int * Bool"),
            ("inc 41", "Int"),
            ("fun x -> x", "a -> a"),
        ] {
            let term = freezeml_core::parse_term(src).unwrap();
            let got = session.infer(&term).unwrap().ty.canonicalize();
            assert_eq!(got.to_string(), want, "{src}");
        }
        // Errors leave the session usable.
        let bad = freezeml_core::parse_term("auto id").unwrap();
        assert!(session.infer(&bad).is_err());
        let term = freezeml_core::parse_term("id 41").unwrap();
        assert_eq!(session.infer(&term).unwrap().ty.to_string(), "Int");
    }

    #[test]
    fn infer_with_layers_extra_bindings() {
        let mut session = Session::new(&env(), &Options::default()).unwrap();
        let f = (
            Var::named("f"),
            freezeml_core::parse_type("forall a. a -> a").unwrap(),
        );
        let term = freezeml_core::parse_term("poly ~f").unwrap();
        let got = session.infer_with(std::slice::from_ref(&f), &term).unwrap();
        assert_eq!(got.ty.to_string(), "Int * Bool");
        // Per-call extras keep the store bounded: the extent after one
        // call equals the extent after many.
        let before = session.store.checkpoint();
        for _ in 0..50 {
            session.infer_with(std::slice::from_ref(&f), &term).unwrap();
        }
        let after = session.store.checkpoint();
        assert_eq!(format!("{before:?}"), format!("{after:?}"));
        // The extra binding is gone again afterwards.
        assert!(session.infer(&term).is_err());
        // Ill-formed extras are rejected by environment formation.
        let bad = (Var::named("g"), Type::Var(freezeml_core::TyVar::fresh()));
        assert!(session.infer_with(&[bad], &term).is_err());
    }

    #[test]
    fn one_shot_entry_points_share_one_lru_of_sessions() {
        // On a thread of its own, so the per-thread cache starts empty.
        std::thread::spawn(|| {
            let fps = || SESSIONS.with(|c| c.borrow().iter().map(|e| e.fp).collect::<Vec<_>>());
            let opts = Options::default();
            let prelude = env_fingerprint(&env(), &opts);
            let term = freezeml_core::parse_term("poly ~id").unwrap();
            infer_term(&env(), &term, &opts).unwrap();
            let e = elaborate_term(&env(), &term, &opts).unwrap();
            assert_eq!(e.ty.to_string(), "Int * Bool");
            assert_eq!(fps(), [prelude], "one entry serves both entry points");
            for k in 0..=SESSION_CACHE_CAP {
                let mut g = env();
                g.push_str(&format!("x{k}"), "Int").unwrap();
                infer_term(&g, &term, &opts).unwrap();
            }
            assert_eq!(fps().len(), SESSION_CACHE_CAP);
            assert!(!fps().contains(&prelude), "least recently used goes first");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn session_hands_off_across_threads() {
        // The store is built from owned data (`Arc<str>` names, vectors,
        // hash maps), so a session moves between threads — the handoff
        // the parallel program-checking service relies on.
        fn assert_send<T: Send>(t: T) -> T {
            t
        }
        let session = assert_send(Session::new(&env(), &Options::default()).unwrap());
        let ty = std::thread::spawn(move || {
            let mut session = session;
            let term = freezeml_core::parse_term("poly $(fun x -> x)").unwrap();
            session.infer(&term).unwrap().ty.to_string()
        })
        .join()
        .unwrap();
        assert_eq!(ty, "Int * Bool");
    }

    #[test]
    fn check_typing_agrees_with_core() {
        use freezeml_core::{parse_term, parse_type};
        for (src, ty, want) in [
            ("fun x -> x", "Int -> Int", true),
            ("fun x -> x", "Int -> Bool", false),
            ("~id", "forall a. a -> a", true),
            (
                "fun x -> x",
                "(forall a. a -> a) -> forall a. a -> a",
                false,
            ),
        ] {
            let term = parse_term(src).unwrap();
            let ty = parse_type(ty).unwrap();
            let got = check_typing(&KindEnv::new(), &env(), &term, &ty, &Options::default());
            assert_eq!(got.unwrap(), want, "{src} : {ty}");
        }
    }
}
