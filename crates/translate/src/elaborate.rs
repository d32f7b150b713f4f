//! Elaboration drivers over **either** inference engine, plus the
//! canonical rendering and type-erasure views the differential harness
//! compares.
//!
//! The translation `C⟦−⟧` (Figure 11) now has two implementations:
//!
//! * the derivation-tree pipeline in [`crate::freeze_to_f`](mod@crate::freeze_to_f)
//!   — the paper-literal path, consuming `core`'s
//!   [`TypedTerm`](freezeml_core::TypedTerm)s;
//! * the engine-native pipeline in `freezeml_engine::elab` — evidence
//!   recorded during union-find inference, `TypeId`s read through the
//!   store, no derivation trees anywhere.
//!
//! [`elaborate_with`] dispatches on an [`ElabEngine`] selector; the
//! conformance crate's `elaborate` differential holds the two pipelines
//! to the same obligations (both images typecheck in
//! [`freezeml_systemf`] at a type α-equivalent to the inferred scheme,
//! and evaluate to the same ground values).
//!
//! Two term views support that comparison:
//!
//! * [`canonicalize_fterm`] — a canonical α-renaming of an [`FTerm`]:
//!   every type binder (term-level `Λ` and in-type `∀`) and every
//!   invented free type variable is renamed to `a, b, c, …` in one
//!   deterministic traversal, and invented term variables (desugaring
//!   artefacts like `$17`) to `x1, x2, …`. Renderings of canonicalised
//!   terms are stable across runs and engines, which is what the
//!   `expect-f:` golden directive keys on;
//! * [`erase_fterm`]/[`erase_term`] — the shared untyped λ-skeleton:
//!   `erase(C⟦M⟧) ≡ erase(M)` is the type-erasure round-trip property
//!   (`let` erases to its β-redex image on both sides).

use freezeml_core::{Lit, Options, Symbol, Term, TyVar, Type, TypeEnv, TypeError, Var};
use freezeml_systemf::FTerm;
use fxhash::{FxHashMap, FxHashSet};

use crate::freeze_to_f::freeze_to_f;

/// Which inference engine produces the evidence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElabEngine {
    /// The paper-literal derivation-tree pipeline (`core`).
    Core,
    /// The union-find engine's native evidence.
    Uf,
}

/// The image of a term under both `C⟦−⟧` pipelines: the administratively
/// reduced form (what the oracle typechecks) plus the literal Figure 11
/// image (what type erasure rounds through). The engine-side result
/// ([`freezeml_engine::Elab`]) converts via `From`, so the two types
/// cannot drift apart field-by-field.
#[derive(Clone, Debug)]
pub struct ElabImage {
    /// The administratively reduced System F term.
    pub term: FTerm,
    /// The literal (unreduced) image.
    pub literal: FTerm,
    /// The inferred type, residuals grounded to `Int`.
    pub ty: Type,
}

impl From<freezeml_engine::Elab> for ElabImage {
    fn from(e: freezeml_engine::Elab) -> ElabImage {
        ElabImage {
            term: e.term,
            literal: e.literal,
            ty: e.ty,
        }
    }
}

/// Elaborate on the selected engine.
///
/// # Errors
///
/// The engine's [`TypeError`] when the term does not typecheck.
pub fn elaborate_with(
    engine: ElabEngine,
    gamma: &TypeEnv,
    term: &Term,
    opts: &Options,
) -> Result<ElabImage, TypeError> {
    match engine {
        ElabEngine::Core => {
            // One defaulting pass, one Figure 11 translation — the
            // reduced image is derived from the literal one.
            let mut typed = freezeml_core::infer_term(gamma, term, opts)?.typed;
            typed.default_residuals(&Type::int());
            let literal = freeze_to_f(&typed);
            Ok(ElabImage {
                term: crate::admin_reduce(&literal),
                literal,
                ty: typed.ty,
            })
        }
        ElabEngine::Uf => Ok(freezeml_engine::elaborate_term(gamma, term, opts)?.into()),
    }
}

// ------------------------------------------------- checked elaboration

/// An elaboration that has been through the soundness oracle: the image
/// typechecks at the inferred scheme and its canonical rendering is
/// ready for cross-engine comparison. Evaluation is *not* performed
/// here — only the `both`-engine agreement obligation
/// ([`images_agree`]) runs the image, so single-engine callers never
/// execute the program they are elaborating.
pub struct CheckedElab {
    /// The verified image.
    pub image: ElabImage,
    /// Canonical rendering of the reduced image
    /// ([`canonicalize_fterm`]) — stable across runs and engines.
    pub rendered: String,
}

impl CheckedElab {
    /// Evaluate the image under the Figure 2 runtime prelude.
    pub fn evaluate(&self) -> Result<freezeml_systemf::Value, String> {
        freezeml_systemf::eval(&freezeml_systemf::prelude::runtime_env(), &self.image.term)
            .map_err(|e| e.to_string())
    }
}

/// Elaborate on one engine and — when the term typechecks at all —
/// verify against the System F oracle: the image must typecheck (in
/// `∆ = ∅`, under `gamma`) at a type α-equivalent to the inferred
/// scheme (Theorem 3). `Ok(None)` when inference itself fails (there is
/// no image to check — elaboration is total on well-typed terms, so an
/// engine error here *is* the inference verdict); inference runs
/// exactly once.
///
/// # Errors
///
/// A rendered description of a failed obligation — the oracle rejected
/// the image, or the oracle's type disagrees with the inferred scheme.
/// Each is a soundness bug.
pub fn try_check_sound(
    engine: ElabEngine,
    gamma: &TypeEnv,
    term: &Term,
    opts: &Options,
) -> Result<Option<CheckedElab>, String> {
    let Ok(image) = elaborate_with(engine, gamma, term, opts) else {
        return Ok(None);
    };
    let fty = freezeml_systemf::typecheck(&freezeml_core::KindEnv::new(), gamma, &image.term)
        .map_err(|e| {
            format!(
                "{engine:?} image rejected by the System F oracle: {e}\n    term  {}",
                image.term
            )
        })?;
    if !fty.alpha_eq(&image.ty) {
        return Err(format!(
            "{engine:?} image typechecks at {fty}, but the inferred scheme is {}",
            image.ty
        ));
    }
    let rendered = canonicalize_fterm(&image.term).to_string();
    Ok(Some(CheckedElab { image, rendered }))
}

/// [`try_check_sound`] for callers that already know the term
/// typechecks (the service elaborates only bindings its report marked
/// `Typed`).
///
/// # Errors
///
/// As [`try_check_sound`], plus an error when the term unexpectedly
/// fails to infer.
pub fn check_sound(
    engine: ElabEngine,
    gamma: &TypeEnv,
    term: &Term,
    opts: &Options,
) -> Result<CheckedElab, String> {
    try_check_sound(engine, gamma, term, opts)?
        .ok_or_else(|| format!("{engine:?}: the term does not typecheck"))
}

/// The cross-pipeline agreement obligation on two checked images: the
/// canonical renderings must be identical and the evaluations must
/// agree ([`evals_agree`]). One definition, shared by the conformance
/// differential and the service's `elaborate` endpoint.
///
/// # Errors
///
/// A rendered description of the disagreement — a checker bug.
pub fn images_agree(core: &CheckedElab, uf: &CheckedElab) -> Result<(), String> {
    if core.rendered != uf.rendered {
        return Err(format!(
            "the two pipelines' canonical images differ:\n    core  {}\n    uf    {}",
            core.rendered, uf.rendered
        ));
    }
    let (core_val, uf_val) = (core.evaluate(), uf.evaluate());
    if !evals_agree(&core_val, &uf_val) {
        return Err(format!(
            "the two images evaluate differently:\n    core  {}\n    uf    {}",
            render_eval(&core_val),
            render_eval(&uf_val)
        ));
    }
    Ok(())
}

/// Do two images' evaluation outcomes agree? Ground values must be
/// equal; non-ground outcomes (closures, partial builtins) only need to
/// agree on success/failure.
pub fn evals_agree(
    a: &Result<freezeml_systemf::Value, String>,
    b: &Result<freezeml_systemf::Value, String>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => !(x.is_ground() && y.is_ground()) || x == y,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Render an evaluation outcome for reports.
pub fn render_eval(r: &Result<freezeml_systemf::Value, String>) -> String {
    match r {
        Ok(v) => v.to_string(),
        Err(e) => format!("✕ ({e})"),
    }
}

// -------------------------------------------------- canonical renaming

struct Canon {
    /// Letters not already claimed by a named type variable anywhere in
    /// the term (free named variables must keep their spelling; bound
    /// named variables are renamed, but reserving their letters keeps
    /// the assignment independent of binding structure).
    supply: std::vec::IntoIter<Symbol>,
    overflow: u32,
    /// Canonical names for invented *free* type variables.
    ty_free: FxHashMap<TyVar, TyVar>,
    /// Canonical names for invented term variables.
    var_map: FxHashMap<Var, Var>,
    var_names: FxHashSet<&'static str>,
    var_counter: usize,
}

impl Canon {
    fn next_letter(&mut self) -> TyVar {
        match self.supply.next() {
            Some(s) => TyVar::from_symbol(s),
            None => {
                // Astronomically many binders: fall back to numbered
                // names (still deterministic).
                self.overflow += 1;
                TyVar::named(format!("t{}", self.overflow))
            }
        }
    }

    fn rename_var(&mut self, x: Var) -> Var {
        if x.name().is_some() {
            return x;
        }
        if let Some(&v) = self.var_map.get(&x) {
            return v;
        }
        let fresh = loop {
            self.var_counter += 1;
            let name = format!("x{}", self.var_counter);
            if !self.var_names.contains(name.as_str()) {
                break Var::named(&name);
            }
        };
        self.var_map.insert(x, fresh);
        fresh
    }

    fn ty_var(&mut self, v: TyVar, env: &[(TyVar, TyVar)]) -> TyVar {
        if let Some((_, to)) = env.iter().rev().find(|(from, _)| *from == v) {
            return *to;
        }
        if v.is_named() {
            return v;
        }
        if let Some(&to) = self.ty_free.get(&v) {
            return to;
        }
        let to = self.next_letter();
        self.ty_free.insert(v, to);
        to
    }

    fn ty(&mut self, t: &Type, env: &mut Vec<(TyVar, TyVar)>) -> Type {
        match t {
            Type::Var(v) => Type::Var(self.ty_var(*v, env)),
            Type::Con(c, args) => Type::Con(*c, args.iter().map(|a| self.ty(a, env)).collect()),
            Type::Forall(v, body) => {
                let to = self.next_letter();
                env.push((*v, to));
                let body = self.ty(body, env);
                env.pop();
                Type::Forall(to, Box::new(body))
            }
        }
    }

    fn term(&mut self, t: &FTerm, env: &mut Vec<(TyVar, TyVar)>) -> FTerm {
        match t {
            FTerm::Var(x) => FTerm::Var(self.rename_var(*x)),
            FTerm::Lit(l) => FTerm::Lit(*l),
            FTerm::Lam(x, ann, body) => {
                let x = self.rename_var(*x);
                let ann = self.ty(ann, env);
                FTerm::Lam(x, ann, Box::new(self.term(body, env)))
            }
            FTerm::App(m, n) => FTerm::app(self.term(m, env), self.term(n, env)),
            FTerm::TyLam(a, body) => {
                let to = self.next_letter();
                env.push((*a, to));
                let body = self.term(body, env);
                env.pop();
                FTerm::TyLam(to, Box::new(body))
            }
            FTerm::TyApp(m, ty) => {
                let m = self.term(m, env);
                let ty = self.ty(ty, env);
                FTerm::tyapp(m, ty)
            }
        }
    }
}

/// Collect the *free* named type variables (the only names the supply
/// must avoid — bound named binders are renamed away, and reserving
/// their letters would make the assignment depend on which pipeline
/// kept source names at binders) and every named term variable.
fn collect_names(
    t: &FTerm,
    bound: &mut Vec<TyVar>,
    tys: &mut FxHashSet<Symbol>,
    vars: &mut FxHashSet<&'static str>,
) {
    fn ty_names(t: &Type, bound: &mut Vec<TyVar>, out: &mut FxHashSet<Symbol>) {
        match t {
            Type::Var(v) => {
                if !bound.contains(v) {
                    if let Some(s) = v.symbol() {
                        out.insert(s);
                    }
                }
            }
            Type::Con(_, args) => args.iter().for_each(|a| ty_names(a, bound, out)),
            Type::Forall(v, body) => {
                bound.push(*v);
                ty_names(body, bound, out);
                bound.pop();
            }
        }
    }
    match t {
        FTerm::Var(x) => {
            if let Some(n) = x.name() {
                vars.insert(n);
            }
        }
        FTerm::Lit(_) => {}
        FTerm::Lam(x, ann, body) => {
            if let Some(n) = x.name() {
                vars.insert(n);
            }
            ty_names(ann, bound, tys);
            collect_names(body, bound, tys, vars);
        }
        FTerm::App(m, n) => {
            collect_names(m, bound, tys, vars);
            collect_names(n, bound, tys, vars);
        }
        FTerm::TyLam(a, body) => {
            bound.push(*a);
            collect_names(body, bound, tys, vars);
            bound.pop();
        }
        FTerm::TyApp(m, ty) => {
            collect_names(m, bound, tys, vars);
            ty_names(ty, bound, tys);
        }
    }
}

/// Canonically α-rename a System F term: every type binder (`Λ` and
/// in-type `∀`) gets the next letter of one deterministic pre-order
/// supply, invented free type variables are lettered at first
/// appearance, and invented term variables become `x1, x2, …`. Named
/// free variables keep their spelling. Two α-equivalent terms with the
/// same named-variable skeleton canonicalise to the same term, so the
/// *rendering* of the canonical form is a stable golden — independent
/// of the global fresh-name counter and of which engine produced the
/// evidence.
pub fn canonicalize_fterm(t: &FTerm) -> FTerm {
    let mut tys = FxHashSet::default();
    let mut vars = FxHashSet::default();
    collect_names(t, &mut Vec::new(), &mut tys, &mut vars);
    // Pre-draw a generous batch of letters (the supply iterator borrows
    // the taken set).
    let letters: Vec<Symbol> = freezeml_core::types::letter_supply(tys).take(512).collect();
    let mut canon = Canon {
        supply: letters.into_iter(),
        overflow: 0,
        ty_free: FxHashMap::default(),
        var_map: FxHashMap::default(),
        var_names: vars,
        var_counter: 0,
    };
    canon.term(t, &mut Vec::new())
}

// ----------------------------------------------------------- erasure

/// The untyped λ-skeleton shared by FreezeML terms and their System F
/// images (types, freezing, and generalisation/instantiation markers
/// erased; `let` as its β-redex image).
#[derive(Clone, Debug, PartialEq)]
pub enum Skeleton {
    /// A variable.
    Var(Var),
    /// A literal.
    Lit(Lit),
    /// `λx.M`.
    Lam(Var, Box<Skeleton>),
    /// Application.
    App(Box<Skeleton>, Box<Skeleton>),
}

/// Erase a System F term: drop `Λ`, type applications, and annotations.
pub fn erase_fterm(t: &FTerm) -> Skeleton {
    match t {
        FTerm::Var(x) => Skeleton::Var(*x),
        FTerm::Lit(l) => Skeleton::Lit(*l),
        FTerm::Lam(x, _, body) => Skeleton::Lam(*x, Box::new(erase_fterm(body))),
        FTerm::App(m, n) => Skeleton::App(Box::new(erase_fterm(m)), Box::new(erase_fterm(n))),
        FTerm::TyLam(_, body) => erase_fterm(body),
        FTerm::TyApp(m, _) => erase_fterm(m),
    }
}

/// Erase a FreezeML term to the same skeleton: freezing and type
/// applications vanish, annotations drop, and `let x = M in N` erases to
/// `(λx.N) M` — the image Figure 11 gives it.
pub fn erase_term(t: &Term) -> Skeleton {
    match t {
        Term::Var(x) | Term::FrozenVar(x) => Skeleton::Var(*x),
        Term::Lit(l) => Skeleton::Lit(*l),
        Term::Lam(x, body) | Term::LamAnn(x, _, body) => {
            Skeleton::Lam(*x, Box::new(erase_term(body)))
        }
        Term::App(m, n) => Skeleton::App(Box::new(erase_term(m)), Box::new(erase_term(n))),
        Term::TyApp(m, _) => erase_term(m),
        Term::Let(x, rhs, body) | Term::LetAnn(x, _, rhs, body) => Skeleton::App(
            Box::new(Skeleton::Lam(*x, Box::new(erase_term(body)))),
            Box::new(erase_term(rhs)),
        ),
    }
}
