//! FreezeML terms (Figure 3) and the value classes of the value restriction.
//!
//! ```text
//! M, N ::= x | ⌈x⌉ | λx.M | λ(x : A).M | M N
//!        | let x = M in N | let (x : A) = M in N
//! ```
//!
//! plus integer/boolean literals (the constants `42`, `True`, … used
//! throughout the paper's examples). Three syntactic classes drive the value
//! restriction (§3.1):
//!
//! * **values** `V` — may be generalised under the value restriction;
//! * **guarded values** `U` — values that can only have guarded types: all
//!   values *except* those with a frozen variable in tail position;
//! * everything else (applications).
//!
//! The explicit generalisation and instantiation operators of §2 are
//! macro-expressible and provided as smart constructors:
//!
//! ```text
//! $V    ≡ let x = V in ⌈x⌉          (Term::gen)
//! $A V  ≡ let (x : A) = V in ⌈x⌉    (Term::gen_ann)
//! M@    ≡ let x = M in x            (Term::inst)
//! ```

use crate::names::Var;
use crate::options::Options;
use crate::types::Type;
use std::collections::HashSet;
use std::fmt;

/// A literal constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Lit {
    /// An integer literal, e.g. `42`.
    Int(i64),
    /// A boolean literal, `true` or `false`.
    Bool(bool),
}

impl Lit {
    /// The (monomorphic, guarded) type of the literal.
    pub fn ty(&self) -> Type {
        match self {
            Lit::Int(_) => Type::int(),
            Lit::Bool(_) => Type::bool(),
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A FreezeML term.
#[derive(Clone, PartialEq, Debug)]
pub enum Term {
    /// A plain variable occurrence `x` — implicitly instantiated.
    Var(Var),
    /// A frozen variable `⌈x⌉` (ASCII `~x`) — instantiation suppressed.
    FrozenVar(Var),
    /// `λx.M` — the parameter must receive a monotype.
    Lam(Var, Box<Term>),
    /// `λ(x : A).M` — the parameter may receive any System F type.
    LamAnn(Var, Type, Box<Term>),
    /// Application `M N`.
    App(Box<Term>, Box<Term>),
    /// `let x = M in N` — generalising (for guarded values) and principal.
    Let(Var, Box<Term>, Box<Term>),
    /// `let (x : A) = M in N` — annotated; admits non-principal types.
    LetAnn(Var, Type, Box<Term>, Box<Term>),
    /// A literal constant.
    Lit(Lit),
    /// Explicit type application `M@[A]` — an *extension* beyond Figure 3,
    /// mentioned in §6: "Given that FreezeML is explicit about the order
    /// of quantifiers, adding support for explicit type application is
    /// straightforward. We have implemented this feature in Links."
    /// `M` must have a `∀`-type; its outermost quantifier is instantiated
    /// with `A`.
    TyApp(Box<Term>, Type),
}

impl Term {
    /// The variable `x`.
    pub fn var(x: impl Into<Var>) -> Term {
        Term::Var(x.into())
    }

    /// The frozen variable `⌈x⌉`.
    pub fn frozen(x: impl Into<Var>) -> Term {
        Term::FrozenVar(x.into())
    }

    /// `λx.M`.
    pub fn lam(x: impl Into<Var>, body: Term) -> Term {
        Term::Lam(x.into(), Box::new(body))
    }

    /// `λ(x : A).M`.
    pub fn lam_ann(x: impl Into<Var>, ann: Type, body: Term) -> Term {
        Term::LamAnn(x.into(), ann, Box::new(body))
    }

    /// `M N`.
    pub fn app(f: Term, arg: Term) -> Term {
        Term::App(Box::new(f), Box::new(arg))
    }

    /// `M N₁ … Nₙ` (left-nested application).
    pub fn apps<I: IntoIterator<Item = Term>>(f: Term, args: I) -> Term {
        args.into_iter().fold(f, Term::app)
    }

    /// `let x = M in N`.
    pub fn let_(x: impl Into<Var>, rhs: Term, body: Term) -> Term {
        Term::Let(x.into(), Box::new(rhs), Box::new(body))
    }

    /// `let (x : A) = M in N`.
    pub fn let_ann(x: impl Into<Var>, ann: Type, rhs: Term, body: Term) -> Term {
        Term::LetAnn(x.into(), ann, Box::new(rhs), Box::new(body))
    }

    /// An integer literal.
    pub fn int(n: i64) -> Term {
        Term::Lit(Lit::Int(n))
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::Lit(Lit::Bool(b))
    }

    /// Explicit generalisation `$V ≡ let x = V in ⌈x⌉` (§2).
    pub fn gen(v: Term) -> Term {
        let x = Var::fresh();
        Term::Let(x, Box::new(v), Box::new(Term::FrozenVar(x)))
    }

    /// Annotated generalisation `$A V ≡ let (x : A) = V in ⌈x⌉` (§2).
    pub fn gen_ann(ann: Type, v: Term) -> Term {
        let x = Var::fresh();
        Term::LetAnn(x, ann, Box::new(v), Box::new(Term::FrozenVar(x)))
    }

    /// Explicit instantiation `M@ ≡ let x = M in x` (§2).
    pub fn inst(m: Term) -> Term {
        let x = Var::fresh();
        Term::Let(x, Box::new(m), Box::new(Term::Var(x)))
    }

    /// Explicit type application `M@[A]` (§6 extension).
    pub fn ty_app(m: Term, ty: Type) -> Term {
        Term::TyApp(Box::new(m), ty)
    }

    /// Is this a syntactic value `V` (Figure 3)?
    pub fn is_value(&self) -> bool {
        match self {
            Term::Var(_)
            | Term::FrozenVar(_)
            | Term::Lam(_, _)
            | Term::LamAnn(_, _, _)
            | Term::Lit(_) => true,
            Term::Let(_, rhs, body) | Term::LetAnn(_, _, rhs, body) => {
                rhs.is_value() && body.is_value()
            }
            Term::App(_, _) | Term::TyApp(_, _) => false,
        }
    }

    /// Is this a guarded value `U` (Figure 3) — a value without a frozen
    /// variable in tail position?
    pub fn is_guarded_value(&self) -> bool {
        match self {
            Term::Var(_) | Term::Lam(_, _) | Term::LamAnn(_, _, _) | Term::Lit(_) => true,
            Term::FrozenVar(_) => false,
            Term::Let(_, rhs, body) | Term::LetAnn(_, _, rhs, body) => {
                rhs.is_value() && body.is_guarded_value()
            }
            Term::App(_, _) | Term::TyApp(_, _) => false,
        }
    }

    /// The guarded-value test used by `gen`, `split` and `⇕`: under the
    /// value restriction this is [`Term::is_guarded_value`]; in "pure"
    /// FreezeML (§3.2) every term may be generalised.
    pub fn is_gval(&self, opts: &Options) -> bool {
        !opts.value_restriction || self.is_guarded_value()
    }

    /// The free term variables, ordered by first occurrence (plain and
    /// frozen occurrences both count). Drives the dependency analysis of
    /// top-level programs ([`crate::program`]).
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out
    }

    /// [`Term::free_vars`] into `out`, which is cleared first: a caller
    /// collecting many terms' variables reuses one buffer.
    pub fn free_vars_into(&self, out: &mut Vec<Var>) {
        /// The binders around a subterm, innermost first, on the stack.
        struct Scope<'s>(Option<(Var, &'s Scope<'s>)>);
        impl Scope<'_> {
            fn binds(&self, x: Var) -> bool {
                let mut s = self;
                while let Some((y, up)) = s.0 {
                    if y == x {
                        return true;
                    }
                    s = up;
                }
                false
            }
        }
        fn go(t: &Term, scope: &Scope<'_>, out: &mut FreeVars<'_>) {
            match t {
                Term::Var(x) | Term::FrozenVar(x) => {
                    if !scope.binds(*x) {
                        out.insert(*x);
                    }
                }
                Term::Lam(x, b) | Term::LamAnn(x, _, b) => go(b, &Scope(Some((*x, scope))), out),
                Term::App(f, a) => {
                    go(f, scope, out);
                    go(a, scope, out);
                }
                Term::Let(x, r, b) | Term::LetAnn(x, _, r, b) => {
                    go(r, scope, out);
                    go(b, &Scope(Some((*x, scope))), out);
                }
                Term::Lit(_) => {}
                Term::TyApp(m, _) => go(m, scope, out),
            }
        }
        out.clear();
        let mut out = FreeVars {
            list: out,
            set: HashSet::new(),
        };
        go(self, &Scope(None), &mut out);
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::FrozenVar(_) | Term::Lit(_) => 1,
            Term::Lam(_, b) | Term::LamAnn(_, _, b) => 1 + b.size(),
            Term::App(f, a) => 1 + f.size() + a.size(),
            Term::Let(_, r, b) | Term::LetAnn(_, _, r, b) => 1 + r.size() + b.size(),
            Term::TyApp(m, _) => 1 + m.size(),
        }
    }
}

/// Free variables in order of first occurrence, deduplicated by a scan
/// of the list while it is short (a declaration has a handful) and by a
/// hash set past that, so that a term with many keeps linear cost.
struct FreeVars<'v> {
    list: &'v mut Vec<Var>,
    /// Empty until the list outgrows [`FreeVars::SCAN`]. SipHash: the
    /// names come from outside the program.
    set: HashSet<Var>,
}

impl FreeVars<'_> {
    const SCAN: usize = 32;

    fn insert(&mut self, x: Var) {
        let new = if self.list.len() < Self::SCAN {
            !self.list.contains(&x)
        } else {
            if self.set.is_empty() {
                self.set.extend(self.list.iter().copied());
            }
            self.set.insert(x)
        };
        if new {
            self.list.push(x);
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_have_types() {
        assert_eq!(Lit::Int(3).ty(), Type::int());
        assert_eq!(Lit::Bool(true).ty(), Type::bool());
    }

    #[test]
    fn value_classification() {
        let x = Term::var("x");
        let fx = Term::frozen("x");
        let lam = Term::lam("x", Term::var("x"));
        let app = Term::app(Term::var("f"), Term::var("x"));
        assert!(x.is_value() && x.is_guarded_value());
        assert!(fx.is_value() && !fx.is_guarded_value());
        assert!(lam.is_value() && lam.is_guarded_value());
        assert!(!app.is_value() && !app.is_guarded_value());
        assert!(Term::int(3).is_value() && Term::int(3).is_guarded_value());
    }

    #[test]
    fn let_values_are_closed_under_binding() {
        // let x = λy.y in x        — value, guarded
        // let x = λy.y in ⌈x⌉      — value, NOT guarded (frozen tail)
        // let x = f y in x         — not a value (rhs is an application)
        let v = Term::let_("x", Term::lam("y", Term::var("y")), Term::var("x"));
        assert!(v.is_value() && v.is_guarded_value());
        let fv = Term::let_("x", Term::lam("y", Term::var("y")), Term::frozen("x"));
        assert!(fv.is_value() && !fv.is_guarded_value());
        let nv = Term::let_(
            "x",
            Term::app(Term::var("f"), Term::var("y")),
            Term::var("x"),
        );
        assert!(!nv.is_value() && !nv.is_guarded_value());
    }

    #[test]
    fn gen_is_value_but_not_guarded() {
        // $V = let x = V in ⌈x⌉ — a value with a frozen tail.
        let g = Term::gen(Term::lam("x", Term::var("x")));
        assert!(g.is_value());
        assert!(!g.is_guarded_value());
    }

    #[test]
    fn inst_is_guarded_when_rhs_is_value() {
        // (V)@ = let x = V in x — a guarded value (used by E⟦−⟧, §4.1).
        let i = Term::inst(Term::frozen("y"));
        assert!(i.is_guarded_value());
        // (M N)@ is not a value.
        let i2 = Term::inst(Term::app(Term::var("f"), Term::var("x")));
        assert!(!i2.is_value());
    }

    #[test]
    fn pure_mode_ignores_value_restriction() {
        let app = Term::app(Term::var("f"), Term::var("x"));
        assert!(!app.is_gval(&Options::default()));
        assert!(app.is_gval(&Options::pure_freezeml()));
    }

    #[test]
    fn free_vars_keep_first_occurrence_order_past_the_scan() {
        let names: Vec<String> = (0..80).map(|i| format!("fv{i}")).collect();
        // Each name twice, under a binder that is not free.
        let mut t = Term::var(names[0].as_str());
        for n in names.iter().chain(&names).skip(1) {
            t = Term::app(t, Term::frozen(n.as_str()));
        }
        let t = Term::lam("bound", Term::app(t, Term::var("bound")));
        let want: Vec<Var> = names.iter().map(|n| Var::named(n.as_str())).collect();
        assert_eq!(t.free_vars(), want);
    }

    #[test]
    fn size_counts_nodes() {
        let t = Term::app(Term::var("f"), Term::lam("x", Term::var("x")));
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn apps_builds_left_nested() {
        let t = Term::apps(Term::var("f"), [Term::var("x"), Term::var("y")]);
        assert_eq!(
            t,
            Term::app(Term::app(Term::var("f"), Term::var("x")), Term::var("y"))
        );
    }
}
