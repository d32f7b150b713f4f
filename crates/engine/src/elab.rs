//! Engine-native elaboration: System F evidence produced *by* union-find
//! inference (Figure 11 run on the store, not on derivation trees).
//!
//! The paper's translation `C⟦−⟧` consumes the typed derivation trees the
//! `core` oracle builds. The union-find engine has no trees — types are
//! `TypeId`s into a mutable store, resolved through cells at the moment
//! they are inspected. Evidence therefore comes in two stages:
//!
//! * during inference, the engine records an `Ev` skeleton mirroring
//!   the term with explicit `Λ`/type-application structure at every
//!   generalisation and instantiation point, embedding **`TypeId`s, not
//!   types**: an instantiation recorded while solving is just the fresh
//!   cell's id, and the final solution is read through the cell when the
//!   evidence is materialised — the "apply the final substitution"
//!   pass of the tree pipeline is the identity here, exactly like the
//!   engine's types themselves;
//! * after inference, residual flexible variables are grounded to `Int`
//!   (the same defaulting the `core` driver's `default_residuals`
//!   performs) and each embedded `TypeId` is materialised **through a
//!   per-call [`SchemeBank`]**: export is O(DAG) and α-canonical, so the
//!   tree expansion is memoised per [`SchemeId`] — every α-equal type
//!   across the whole evidence term is expanded once, and no zonk runs
//!   during inference itself. The bank is private to the call, never a
//!   shared one, so elaboration leaves no nodes or render counts behind.
//!
//! The output is a [`freezeml_systemf::FTerm`]; the soundness oracle
//! (`freezeml_systemf::typecheck`) accepts it at a type α-equivalent to
//! the inferred scheme — checked for every conformance golden, Figure 1
//! corpus row, and property-generated term by the `elaborate`
//! differential mode in `freezeml_conformance`.

use crate::bank::{SchemeBank, SchemeId};
use crate::store::{Store, TypeId};
use freezeml_core::{Lit, TyVar, Type, Var};
use freezeml_systemf::{admin_reduce, FTerm};
use fxhash::FxHashMap;

/// Evidence skeleton recorded during inference. Types are [`TypeId`]s
/// into the session store; they stay unresolved until
/// [`materialise`] reads them through the cells.
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    /// A variable occurrence (plain head or frozen).
    Var(Var),
    /// A literal.
    Lit(Lit),
    /// `M A₁ … Aₙ` — instantiation evidence (Var rule / eliminator).
    Inst(Box<Ev>, Vec<TypeId>),
    /// `λx^A.M` — inferred parameter type or annotation.
    Lam(Var, TypeId, Box<Ev>),
    /// Application.
    App(Box<Ev>, Box<Ev>),
    /// Explicit type application `M@[A]`.
    TyApp(Box<Ev>, TypeId),
    /// `Λā.M` — generalisation evidence (`let` rule, annotation split).
    TyLams(Vec<TyVar>, Box<Ev>),
    /// `let x^A = M in N` (sugar for `(λx^A.N) M` on the F side).
    Let {
        /// The bound variable.
        x: Var,
        /// The type given to `x` (the generalised scheme or annotation).
        ty: TypeId,
        /// The right-hand side (already wrapped in its `Λ`s).
        rhs: Box<Ev>,
        /// The body.
        body: Box<Ev>,
    },
}

/// The static evidence hooks inference is generic over: the hot path
/// instantiates them with [`NoEv`] (everything compiles to nothing), the
/// elaborating path with [`BuildEv`].
pub(crate) trait EvBuild {
    /// The evidence representation (`()` for [`NoEv`]).
    type Term;
    /// Does this instantiation record anything? Gates the per-quantifier
    /// bookkeeping so the non-elaborating path stays allocation-free.
    const ON: bool;
    fn var(x: Var) -> Self::Term;
    fn lit(l: Lit) -> Self::Term;
    fn inst(inner: Self::Term, inst: Vec<TypeId>) -> Self::Term;
    fn lam(x: Var, param: TypeId, body: Self::Term) -> Self::Term;
    fn app(f: Self::Term, a: Self::Term) -> Self::Term;
    fn tyapp(inner: Self::Term, arg: TypeId) -> Self::Term;
    fn tylams(binders: Vec<TyVar>, body: Self::Term) -> Self::Term;
    fn let_(x: Var, ty: TypeId, rhs: Self::Term, body: Self::Term) -> Self::Term;
}

/// The zero-cost sink: inference without evidence.
pub(crate) struct NoEv;

impl EvBuild for NoEv {
    type Term = ();
    const ON: bool = false;
    fn var(_: Var) {}
    fn lit(_: Lit) {}
    fn inst(_: (), _: Vec<TypeId>) {}
    fn lam(_: Var, _: TypeId, _: ()) {}
    fn app(_: (), _: ()) {}
    fn tyapp(_: (), _: TypeId) {}
    fn tylams(_: Vec<TyVar>, _: ()) {}
    fn let_(_: Var, _: TypeId, _: (), _: ()) {}
}

/// The recording sink.
pub(crate) struct BuildEv;

impl EvBuild for BuildEv {
    type Term = Ev;
    const ON: bool = true;
    fn var(x: Var) -> Ev {
        Ev::Var(x)
    }
    fn lit(l: Lit) -> Ev {
        Ev::Lit(l)
    }
    fn inst(inner: Ev, inst: Vec<TypeId>) -> Ev {
        if inst.is_empty() {
            inner
        } else {
            Ev::Inst(Box::new(inner), inst)
        }
    }
    fn lam(x: Var, param: TypeId, body: Ev) -> Ev {
        Ev::Lam(x, param, Box::new(body))
    }
    fn app(f: Ev, a: Ev) -> Ev {
        Ev::App(Box::new(f), Box::new(a))
    }
    fn tyapp(inner: Ev, arg: TypeId) -> Ev {
        Ev::TyApp(Box::new(inner), arg)
    }
    fn tylams(binders: Vec<TyVar>, body: Ev) -> Ev {
        if binders.is_empty() {
            body
        } else {
            Ev::TyLams(binders, Box::new(body))
        }
    }
    fn let_(x: Var, ty: TypeId, rhs: Ev, body: Ev) -> Ev {
        Ev::Let {
            x,
            ty,
            rhs: Box::new(rhs),
            body: Box::new(body),
        }
    }
}

impl Ev {
    /// Visit every embedded `TypeId` (for grounding).
    fn for_each_type(&self, f: &mut impl FnMut(TypeId)) {
        match self {
            Ev::Var(_) | Ev::Lit(_) => {}
            Ev::Inst(inner, inst) => {
                inner.for_each_type(f);
                inst.iter().copied().for_each(&mut *f);
            }
            Ev::Lam(_, t, body) => {
                f(*t);
                body.for_each_type(f);
            }
            Ev::App(m, n) => {
                m.for_each_type(f);
                n.for_each_type(f);
            }
            Ev::TyApp(inner, t) => {
                inner.for_each_type(f);
                f(*t);
            }
            Ev::TyLams(_, body) => body.for_each_type(f),
            Ev::Let { ty, rhs, body, .. } => {
                f(*ty);
                rhs.for_each_type(f);
                body.for_each_type(f);
            }
        }
    }
}

/// An elaboration result: the engine-native image of the paper's
/// `C⟦−⟧`, plus its type.
#[derive(Clone, Debug)]
pub struct Elab {
    /// The administratively reduced System F term — satisfies the value
    /// restriction (the Theorem 3 repair), which is the form the
    /// `freezeml_systemf` oracle accepts.
    pub term: FTerm,
    /// The literal (unreduced) evidence image — `erase` of this is the
    /// source term again, which the type-erasure round-trip property
    /// checks.
    pub literal: FTerm,
    /// The inferred type, residuals grounded to `Int` (Theorem 3: the
    /// reduced term typechecks at a type α-equivalent to this).
    pub ty: Type,
}

/// Ground every residual flexible variable reachable from the evidence
/// or the result type to `Int` — the `default_residuals` of the tree
/// pipeline, as cell writes.
pub(crate) fn ground_residuals(store: &mut Store, ev: &Ev, root: TypeId) {
    let int = store.int();
    let ground = |store: &mut Store, t: TypeId| {
        for v in store.free_flex(t) {
            store.solve(v, int);
        }
    };
    ground(store, root);
    ev.for_each_type(&mut |t| ground(store, t));
}

/// Materialise the evidence as an [`FTerm`], reading every `TypeId`
/// through the store via a per-call scheme bank: each type is exported
/// O(DAG) to its α-canonical [`SchemeId`] and expanded to a tree once
/// per id, no matter how many evidence positions share it.
pub(crate) fn materialise(store: &mut Store, ev: &Ev) -> FTerm {
    let bank = SchemeBank::new();
    let mut memo: FxHashMap<SchemeId, Type> = FxHashMap::default();
    to_fterm(store, &bank, &mut memo, ev)
}

fn embed(
    store: &mut Store,
    bank: &SchemeBank,
    memo: &mut FxHashMap<SchemeId, Type>,
    t: TypeId,
) -> Type {
    let sid = bank.export(store, t);
    if let Some(ty) = memo.get(&sid) {
        return ty.clone();
    }
    let ty = bank.to_type(sid);
    memo.insert(sid, ty.clone());
    ty
}

fn to_fterm(
    store: &mut Store,
    bank: &SchemeBank,
    memo: &mut FxHashMap<SchemeId, Type>,
    ev: &Ev,
) -> FTerm {
    match ev {
        Ev::Var(x) => FTerm::Var(*x),
        Ev::Lit(l) => FTerm::Lit(*l),
        Ev::Inst(inner, inst) => {
            let head = to_fterm(store, bank, memo, inner);
            FTerm::tyapps(head, inst.iter().map(|&t| embed(store, bank, memo, t)))
        }
        Ev::Lam(x, t, body) => {
            let ty = embed(store, bank, memo, *t);
            FTerm::lam(*x, ty, to_fterm(store, bank, memo, body))
        }
        Ev::App(m, n) => FTerm::app(
            to_fterm(store, bank, memo, m),
            to_fterm(store, bank, memo, n),
        ),
        Ev::TyApp(inner, t) => {
            let head = to_fterm(store, bank, memo, inner);
            let ty = embed(store, bank, memo, *t);
            FTerm::tyapp(head, ty)
        }
        Ev::TyLams(binders, body) => {
            FTerm::tylams(binders.iter().copied(), to_fterm(store, bank, memo, body))
        }
        Ev::Let { x, ty, rhs, body } => {
            let ann = embed(store, bank, memo, *ty);
            let rhs = to_fterm(store, bank, memo, rhs);
            let body = to_fterm(store, bank, memo, body);
            FTerm::let_(*x, ann, rhs, body)
        }
    }
}

/// Finish an elaborating inference run: ground residuals, materialise
/// the evidence, administratively reduce it.
pub(crate) fn finish(store: &mut Store, ev: Ev, ty_id: TypeId) -> Elab {
    ground_residuals(store, &ev, ty_id);
    let literal = materialise(store, &ev);
    let term = admin_reduce(&literal);
    let ty = store.zonk(ty_id);
    Elab { term, literal, ty }
}

#[cfg(test)]
mod tests {
    use freezeml_core::{parse_term, parse_type, KindEnv, Options, TypeEnv};
    use freezeml_systemf::{eval, prelude::runtime_env, typecheck, Value};

    fn env() -> TypeEnv {
        freezeml_corpus::figure2()
    }

    fn check(src: &str, opts: &Options) -> crate::Elab {
        let term = parse_term(src).unwrap();
        let e = crate::elaborate_term(&env(), &term, opts).unwrap();
        let fty = typecheck(&KindEnv::new(), &env(), &e.term)
            .unwrap_or_else(|err| panic!("C⟦{src}⟧ ill-typed: {err}\n  {}", e.term));
        assert!(
            fty.alpha_eq(&e.ty),
            "type not preserved for `{src}`: {fty} vs {}",
            e.ty
        );
        e
    }

    #[test]
    fn theorem3_on_representative_programs() {
        for src in [
            "~id",
            "id",
            "choose id",
            "choose ~id",
            "poly ~id",
            "poly $(fun x -> x)",
            "single ~id",
            "fun (x : forall a. a -> a) -> x ~x",
            "let f = fun x -> x in poly ~f",
            "let (f : Int -> Int) = fun x -> x in f 3",
            "let (f : forall a. a -> a) = fun (x : a) -> x in f 3",
            "(head ids)@ 3",
            "runST ~argST",
            "auto ~id",
            "let g = (let y = fun x -> x in y) in poly ~g",
        ] {
            check(src, &Options::default());
        }
    }

    #[test]
    fn eliminator_mode_elaborates() {
        check("head ids 3", &Options::eliminator());
        // Pure-mode values still elaborate (the Λ wraps a value).
        check("$(fun x -> x)", &Options::pure_freezeml());
    }

    #[test]
    fn pure_mode_generalised_applications_trip_the_value_restriction() {
        // Pure FreezeML generalises over applications; its image lives
        // in *full* System F, which our CBV implementation (value
        // restriction on Λ, Appendix B.1) deliberately rejects. The
        // elaborate differential therefore covers standard and
        // eliminator modes only — pinned here so the boundary is
        // explicit.
        let term = parse_term("$(auto' ~id)").unwrap();
        let e = crate::elaborate_term(&env(), &term, &Options::pure_freezeml()).unwrap();
        assert!(matches!(
            typecheck(&KindEnv::new(), &env(), &e.term),
            Err(freezeml_systemf::FTypeError::ValueRestriction)
        ));
    }

    #[test]
    fn frozen_var_is_a_plain_variable() {
        use freezeml_systemf::FTerm;
        let e = check("~id", &Options::default());
        assert_eq!(e.term, FTerm::var("id"));
        // A plain occurrence instantiates; the residual is grounded.
        let e = check("id", &Options::default());
        assert_eq!(
            e.term,
            FTerm::tyapp(FTerm::var("id"), freezeml_core::Type::int())
        );
    }

    #[test]
    fn generalising_let_produces_a_tylam() {
        use freezeml_systemf::FTerm;
        let e = check("$(fun x -> x)", &Options::default());
        assert!(
            e.ty.alpha_eq(&parse_type("forall a. a -> a").unwrap()),
            "{}",
            e.ty
        );
        assert!(matches!(e.term, FTerm::TyLam(_, _)), "got {}", e.term);
    }

    #[test]
    fn elaborated_terms_evaluate() {
        let e = check("poly $(fun x -> x)", &Options::default());
        assert_eq!(
            eval(&runtime_env(), &e.term).unwrap(),
            Value::Pair(Box::new(Value::Int(42)), Box::new(Value::Bool(true)))
        );
        let e2 = check("(head ids)@ 3", &Options::default());
        assert_eq!(eval(&runtime_env(), &e2.term).unwrap(), Value::Int(3));
        // The literal (unreduced) image evaluates to the same value.
        assert_eq!(
            eval(&runtime_env(), &e.literal).unwrap(),
            eval(&runtime_env(), &e.term).unwrap()
        );
    }

    #[test]
    fn session_elaborate_reuses_the_environment() {
        let mut session = crate::Session::new(&env(), &Options::default()).unwrap();
        for (src, want) in [
            ("poly ~id", "Int * Bool"),
            ("~id", "forall a. a -> a"),
            ("inc 41", "Int"),
        ] {
            let term = parse_term(src).unwrap();
            let e = session.elaborate(&term).unwrap();
            assert!(e.ty.alpha_eq(&parse_type(want).unwrap()), "{src}: {}", e.ty);
            let fty = typecheck(&KindEnv::new(), &env(), &e.term).unwrap();
            assert!(fty.alpha_eq(&e.ty), "{src}");
        }
        // Errors leave the session usable for elaboration too.
        let bad = parse_term("auto id").unwrap();
        assert!(session.elaborate(&bad).is_err());
        let term = parse_term("id 41").unwrap();
        assert_eq!(session.elaborate(&term).unwrap().ty.to_string(), "Int");
    }
}
