//! # FreezeML union-find inference engine
//!
//! A second implementation of the paper's inference algorithm (Figures
//! 15–16), built the way production ML compilers build theirs — and held
//! to the paper-literal [`freezeml_core`] implementation by a
//! differential test layer.
//!
//! The `core` crate transcribes the paper: every unification step clones
//! the refined environment `Θ`, builds a substitution, and composes it.
//! That is the right artefact for *faithfulness*, and it stays — as the
//! soundness-and-principality oracle. This crate is the *hot path*:
//!
//! * [`store`] — hash-consed arena of type nodes ([`TypeId`]), union-find
//!   cells for flexible variables carrying the paper's `•`/`⋆` kind,
//!   Rémy-style generalisation levels, path-compressed resolution, and a
//!   trail journalling every cell write;
//! * [`unify`](mod@unify) — Figure 15 with demotion as an O(α) cell
//!   update and the skolem-escape assertion checked against the trail;
//! * [`infer`] — Figure 16 for the full surface language (freeze `~x`,
//!   generalise `$M`, instantiate `M@`, `let`, ascriptions) with
//!   level-based generalisation, plus a zonk pass back to [`Type`] so
//!   pretty-printing, the conformance harness, and the downstream crates
//!   consume the result unchanged;
//! * [`differential`] — the oracle harness: both engines must agree on
//!   the 49-row Figure 1 corpus and on property-generated terms and
//!   unification problems (success/failure, error class, and principal
//!   type up to α-equivalence).
//!
//! ## Quickstart
//!
//! ```
//! use freezeml_core::{Options, TypeEnv};
//! use freezeml_engine::infer_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut env = TypeEnv::new();
//! env.push_str("poly", "(forall a. a -> a) -> Int * Bool")?;
//! let ty = infer_program(&env, "poly $(fun x -> x)", &Options::default())?;
//! assert_eq!(ty.to_string(), "Int * Bool");
//! # Ok(())
//! # }
//! ```
//!
//! [`Type`]: freezeml_core::Type

pub mod bank;
pub mod differential;
pub mod elab;
pub mod infer;
pub mod snapshot;
pub mod store;
pub mod sync;
pub mod unify;

pub use bank::{SchemeBank, SchemeId};
pub use differential::{class_of, class_of_program, compare_program, Disagreement, ErrorClass};
pub use elab::Elab;
pub use infer::{
    check_typing, elaborate_term, infer_program, infer_term, InferOutput, SchemeOutput, Session,
};
pub use snapshot::{AbsorbedSnapshot, PortableCon, PortableNode, SnapshotError};
pub use store::{Node, Shape, Store, TypeId, VarId};
pub use unify::unify;
