//! The three environments of the inference algorithm (§5.1):
//!
//! * [`KindEnv`] `∆` — *fixed* kind environments of rigid type variables,
//!   all implicitly of kind `•`;
//! * [`RefinedEnv`] `Θ` — *refined* kind environments of flexible type
//!   variables, each of kind `•` or `⋆`;
//! * [`TypeEnv`] `Γ` — type environments mapping term variables to types.
//!
//! All three preserve insertion order, which matters: `ftv` order determines
//! quantifier order under generalisation (§2 "Ordered Quantifiers").

use crate::error::TypeError;
use crate::kind::Kind;
use crate::names::{TyVar, Var};
use crate::types::Type;
use std::collections::HashSet;
use std::fmt;

/// A fixed kind environment `∆` of rigid (monomorphic) type variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindEnv {
    vars: Vec<TyVar>,
}

impl KindEnv {
    /// The empty environment `·`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `a ∈ ∆`?
    pub fn contains(&self, a: &TyVar) -> bool {
        self.vars.contains(a)
    }

    /// Append a rigid variable. Returns an error if it is already present
    /// (concatenation `∆,a` requires disjointness).
    pub fn push(&mut self, a: TyVar) -> Result<(), TypeError> {
        if self.contains(&a) {
            return Err(TypeError::ShadowedTyVar { var: a });
        }
        self.vars.push(a);
        Ok(())
    }

    /// `∆,∆′` — the extension with the given variables (must be disjoint).
    pub fn extended<I: IntoIterator<Item = TyVar>>(&self, vars: I) -> Result<Self, TypeError> {
        let mut out = self.clone();
        for v in vars {
            out.push(v)?;
        }
        Ok(out)
    }

    /// Iterate over the variables in order.
    pub fn iter(&self) -> impl Iterator<Item = &TyVar> {
        self.vars.iter()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

impl FromIterator<TyVar> for KindEnv {
    fn from_iter<I: IntoIterator<Item = TyVar>>(iter: I) -> Self {
        let mut env = KindEnv::new();
        for v in iter {
            // Ignore duplicates when bulk-constructing.
            let _ = env.push(v);
        }
        env
    }
}

impl fmt::Display for KindEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// A refined kind environment `Θ` of flexible type variables (§5.1,
/// `KEnv ∋ Θ ::= · | Θ, a : K`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefinedEnv {
    entries: Vec<(TyVar, Kind)>,
}

impl RefinedEnv {
    /// The empty environment `·`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the kind of `a`, if bound.
    pub fn kind_of(&self, a: &TyVar) -> Option<Kind> {
        self.entries
            .iter()
            .rev()
            .find(|(v, _)| v == a)
            .map(|(_, k)| *k)
    }

    /// Is `a ∈ Θ`?
    pub fn contains(&self, a: &TyVar) -> bool {
        self.kind_of(a).is_some()
    }

    /// `Θ, a : K`.
    pub fn insert(&mut self, a: TyVar, k: Kind) {
        debug_assert!(!self.contains(&a), "duplicate flexible variable {a}");
        self.entries.push((a, k));
    }

    /// A copy extended with `a : K`.
    pub fn inserted(&self, a: TyVar, k: Kind) -> Self {
        let mut out = self.clone();
        out.insert(a, k);
        out
    }

    /// A copy with `a` removed (`Θ − a`).
    pub fn without(&self, a: &TyVar) -> Self {
        RefinedEnv {
            entries: self
                .entries
                .iter()
                .filter(|(v, _)| v != a)
                .cloned()
                .collect(),
        }
    }

    /// `Θ − ∆′` — remove all listed variables.
    pub fn minus(&self, vars: &[TyVar]) -> Self {
        RefinedEnv {
            entries: self
                .entries
                .iter()
                .filter(|(v, _)| !vars.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// `demote(•, Θ, ∆′)` — set the kind of every listed variable to `•`
    /// (Figure 15). Variables not present are ignored.
    pub fn demoted(&self, vars: &[TyVar]) -> Self {
        RefinedEnv {
            entries: self
                .entries
                .iter()
                .map(|(v, k)| {
                    if vars.contains(v) {
                        (*v, Kind::Mono)
                    } else {
                        (*v, *k)
                    }
                })
                .collect(),
        }
    }

    /// Iterate over entries in order.
    pub fn iter(&self) -> impl Iterator<Item = (&TyVar, Kind)> {
        self.entries.iter().map(|(v, k)| (v, *k))
    }

    /// The variables in order.
    pub fn vars(&self) -> impl Iterator<Item = &TyVar> {
        self.entries.iter().map(|(v, _)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(TyVar, Kind)> for RefinedEnv {
    fn from_iter<I: IntoIterator<Item = (TyVar, Kind)>>(iter: I) -> Self {
        let mut env = RefinedEnv::new();
        for (v, k) in iter {
            env.insert(v, k);
        }
        env
    }
}

impl fmt::Display for RefinedEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (v, k)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} : {k}")?;
        }
        Ok(())
    }
}

/// A type environment `Γ` mapping term variables to types. Later bindings
/// shadow earlier ones.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeEnv {
    entries: Vec<(Var, Type)>,
}

impl TypeEnv {
    /// The empty environment `·`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `x : A ∈ Γ` (innermost binding).
    pub fn lookup(&self, x: &Var) -> Option<&Type> {
        self.entries
            .iter()
            .rev()
            .find(|(v, _)| v == x)
            .map(|(_, t)| t)
    }

    /// Bind `x : A`.
    pub fn push(&mut self, x: impl Into<Var>, ty: Type) {
        self.entries.push((x.into(), ty));
    }

    /// Bind `x` to a type parsed from source text (convenience for building
    /// preludes).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ParseError`] if the type does not parse.
    pub fn push_str(&mut self, x: &str, ty_src: &str) -> Result<(), crate::parser::ParseError> {
        let ty = crate::parser::parse_type(ty_src)?;
        self.push(x, ty);
        Ok(())
    }

    /// A copy extended with `x : A` (`Γ, x : A`).
    pub fn extended(&self, x: impl Into<Var>, ty: Type) -> Self {
        let mut out = self.clone();
        out.push(x, ty);
        out
    }

    /// Iterate over bindings in order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Type)> {
        self.entries.iter().map(|(v, t)| (v, t))
    }

    /// The bindings in order, as a slice.
    pub fn entries(&self) -> &[(Var, Type)] {
        &self.entries
    }

    /// Map a function over all types (used to apply substitutions, `θ(Γ)`).
    pub fn map_types(&self, mut f: impl FnMut(&Type) -> Type) -> Self {
        TypeEnv {
            entries: self.entries.iter().map(|(v, t)| (*v, f(t))).collect(),
        }
    }

    /// The ordered distinct free type variables of all types in `Γ`.
    pub fn ftv(&self) -> Vec<TyVar> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for (_, t) in &self.entries {
            for v in t.ftv() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(Var, Type)> for TypeEnv {
    fn from_iter<I: IntoIterator<Item = (Var, Type)>>(iter: I) -> Self {
        TypeEnv {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_env_rejects_duplicates() {
        let mut d = KindEnv::new();
        d.push(TyVar::named("a")).unwrap();
        assert!(d.push(TyVar::named("a")).is_err());
        assert!(d.contains(&TyVar::named("a")));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn refined_env_demote_and_minus() {
        let a = TyVar::named("a");
        let b = TyVar::named("b");
        let th: RefinedEnv = [(a, Kind::Poly), (b, Kind::Poly)].into_iter().collect();
        let d = th.demoted(std::slice::from_ref(&a));
        assert_eq!(d.kind_of(&a), Some(Kind::Mono));
        assert_eq!(d.kind_of(&b), Some(Kind::Poly));
        let m = th.minus(std::slice::from_ref(&a));
        assert!(!m.contains(&a));
        assert!(m.contains(&b));
        assert_eq!(th.without(&b).len(), 1);
    }

    #[test]
    fn type_env_shadowing() {
        let mut g = TypeEnv::new();
        g.push("x", Type::int());
        g.push("x", Type::bool());
        assert_eq!(g.lookup(&Var::named("x")), Some(&Type::bool()));
        assert_eq!(g.lookup(&Var::named("y")), None);
    }

    #[test]
    fn type_env_ftv_ordered() {
        let mut g = TypeEnv::new();
        g.push("x", Type::arrow(Type::var("b"), Type::var("a")));
        g.push("y", Type::var("b"));
        let names: Vec<String> = g.ftv().iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn push_str_parses() {
        let mut g = TypeEnv::new();
        g.push_str("id", "forall a. a -> a").unwrap();
        assert!(g.lookup(&Var::named("id")).is_some());
        assert!(g.push_str("bad", "forall ->").is_err());
    }
}
