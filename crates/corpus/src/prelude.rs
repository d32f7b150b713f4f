//! The Figure 2 prelude: type signatures for the functions used throughout
//! the paper's examples (adapted from Serrano et al. 2018).
//!
//! `[]` is named `nil`, `(::)` is `cons`, and `(++)` is `append` — the
//! surface parser desugars the list/operator syntax to these names. `plus`
//! (used by the §2/§3.2 `bad` examples, written infix `+`), and `fst`/`snd`
//! are small additions beyond Figure 2, noted in `DESIGN.md`.

use freezeml_core::TypeEnv;
use std::sync::OnceLock;

/// Alias used by the Table 1 harness.
pub type TypeEnvAlias = TypeEnv;

/// Every Figure 2 signature: `(name, type)` in the surface syntax.
pub const FIGURE2_SIGNATURES: &[(&str, &str)] = &[
    ("head", "forall a. List a -> a"),
    ("tail", "forall a. List a -> List a"),
    ("nil", "forall a. List a"),
    ("cons", "forall a. a -> List a -> List a"),
    ("single", "forall a. a -> List a"),
    ("append", "forall a. List a -> List a -> List a"),
    ("length", "forall a. List a -> Int"),
    ("id", "forall a. a -> a"),
    ("ids", "List (forall a. a -> a)"),
    ("inc", "Int -> Int"),
    ("choose", "forall a. a -> a -> a"),
    ("poly", "(forall a. a -> a) -> Int * Bool"),
    ("auto", "(forall a. a -> a) -> forall a. a -> a"),
    ("auto'", "forall b. (forall a. a -> a) -> b -> b"),
    ("map", "forall a b. (a -> b) -> List a -> List b"),
    ("app", "forall a b. (a -> b) -> a -> b"),
    ("revapp", "forall a b. a -> (a -> b) -> b"),
    ("runST", "forall a. (forall s. ST s a) -> a"),
    ("argST", "forall s. ST s Int"),
    ("pair", "forall a b. a -> b -> a * b"),
    ("pair'", "forall b a. a -> b -> a * b"),
    // Additions beyond Figure 2 (see module docs):
    ("plus", "Int -> Int -> Int"),
    ("fst", "forall a b. a * b -> a"),
    ("snd", "forall a b. a * b -> b"),
];

/// Build the Figure 2 prelude environment.
///
/// # Panics
///
/// Never — the signatures are static and parse-checked by tests.
pub fn figure2() -> TypeEnv {
    let mut env = TypeEnv::new();
    for (name, ty) in FIGURE2_SIGNATURES {
        env.push_str(name, ty)
            .unwrap_or_else(|e| panic!("bad prelude signature {name}: {e}"));
    }
    env
}

/// The Figure 2 prelude environment, parsed once per process: callers
/// that need it on every request clone it instead of parsing the
/// signatures again.
pub fn figure2_shared() -> &'static TypeEnv {
    static ENV: OnceLock<TypeEnv> = OnceLock::new();
    ENV.get_or_init(figure2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezeml_core::{KindEnv, RefinedEnv};

    #[test]
    fn all_signatures_parse_and_kind() {
        let env = figure2();
        assert_eq!(env.len(), FIGURE2_SIGNATURES.len());
        // Every prelude type must be closed and well-kinded.
        freezeml_core::kinding::check_env(&KindEnv::new(), &RefinedEnv::new(), &env).unwrap();
    }

    #[test]
    fn signature_types_round_trip() {
        let env = figure2();
        for (name, src) in FIGURE2_SIGNATURES {
            let ty = env
                .lookup(&freezeml_core::Var::named(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            let reparsed = freezeml_core::parse_type(&ty.to_string()).unwrap();
            assert!(ty.alpha_eq(&reparsed), "{name}: {src}");
        }
    }

    #[test]
    fn prelude_types_are_closed() {
        let env = figure2();
        for (name, ty) in env.iter() {
            assert!(ty.ftv().is_empty(), "{name} has free type variables");
        }
    }
}
