//! # FreezeML core
//!
//! A faithful implementation of **FreezeML** — the type system and inference
//! algorithm from *"FreezeML: Complete and Easy Type Inference for First-Class
//! Polymorphism"* (Emrich, Lindley, Stolarek, Cheney, Coates; PLDI 2020).
//!
//! FreezeML conservatively extends ML with the full type language of System F:
//!
//! * **frozen variables** `⌈x⌉` (ASCII: `~x`) suppress the implicit
//!   instantiation that ML performs at every variable occurrence;
//! * **annotated binders** `λ(x : A).M` and `let (x : A) = M in N` allow
//!   arbitrary System F types at binding sites;
//! * the `let` rule assigns **principal types** only, which makes type
//!   inference sound *and complete* (paper Theorems 6 and 7);
//! * explicit generalisation `$V` and instantiation `M@` are macro-expressible
//!   sugar (paper §2) and are provided by [`Term::gen`] and [`Term::inst`].
//!
//! The crate implements every system in the paper's Figures 3–16: kinds,
//! kinding, well-scopedness, type instantiations and substitutions,
//! unification with kind-directed demotion, and the Algorithm-W-style
//! inference algorithm, plus a parser and pretty-printer for the ASCII
//! rendering used by the Links implementation (paper §6).
//!
//! ## Quickstart
//!
//! ```
//! use freezeml_core::{infer_program, Options, TypeEnv, parse_type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut env = TypeEnv::new();
//! env.push_str("poly", "(forall a. a -> a) -> Int * Bool")?;
//!
//! // `$(fun x -> x)` generalises the identity to `forall a. a -> a`,
//! // which `poly` accepts (paper example A11).
//! let ty = infer_program(&env, "poly $(fun x -> x)", &Options::default())?;
//! assert!(ty.alpha_eq(&parse_type("Int * Bool")?));
//! # Ok(())
//! # }
//! ```

pub mod check;
pub mod env;
pub mod error;
pub mod infer;
pub mod kind;
pub mod kinding;
pub mod lexer;
pub mod names;
pub mod options;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod scan;
pub mod scope;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod tycon;
pub mod typed;
pub mod types;
pub mod unify;

pub use check::{check_typing, matches};
pub use env::{KindEnv, RefinedEnv, TypeEnv};
pub use error::TypeError;
pub use infer::{infer, infer_program, infer_term, InferOutput, ProgramError};
pub use kind::Kind;
pub use names::{TyVar, Var};
pub use options::{InstantiationStrategy, Options};
pub use parser::{parse_program, parse_term, parse_type, ParseError};
pub use program::{Decl, LineIndex, Program, Span};
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::{Lit, Term};
pub use tycon::TyCon;
pub use typed::{TypedNode, TypedTerm};
pub use types::Type;
pub use unify::unify;
