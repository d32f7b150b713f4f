//! # FreezeML — complete and easy type inference for first-class polymorphism
//!
//! A comprehensive Rust reproduction of *Emrich, Lindley, Stolarek, Cheney,
//! Coates. "FreezeML: Complete and Easy Type Inference for First-Class
//! Polymorphism" (PLDI 2020)*. This umbrella crate re-exports the whole
//! workspace:
//!
//! * [`core`] — the FreezeML type system and inference algorithm
//!   (Figures 3–16): kinds, kinding, well-scopedness, unification with
//!   kind-directed demotion, Algorithm-W-style inference that is sound,
//!   complete, and principal; plus a parser and pretty-printer for the
//!   ASCII surface syntax.
//! * [`systemf`] — call-by-value System F with the value restriction
//!   (Appendix B.1): typing and a type-erasing evaluator with runtime
//!   implementations of the Figure 2 prelude.
//! * [`miniml`] — mini-ML and Algorithm W (Appendix B.2), the baseline
//!   FreezeML conservatively extends, plus the ML → System F elaboration
//!   (Figure 22).
//! * [`translate`] — the type-preserving translations `E⟦−⟧` (System F →
//!   FreezeML, Figure 10) and `C⟦−⟧` (FreezeML → System F, Figure 11).
//! * [`corpus`] — the paper's evaluation: every row of Figure 1 and the
//!   Table 1 comparison harness.
//! * [`engine`] — the union-find inference engine: hash-consed type
//!   arena, union-find cells with the paper's `•`/`⋆` kinds, levels for
//!   generalisation, trail-checked escapes — the hot path, held to the
//!   paper-literal [`core`] oracle by a differential layer.
//! * [`obs`] — the observability layer: tracing spans through one
//!   `Tracer` handle (a disabled tracer costs each site one branch), a
//!   lock-free sharded metrics registry with log-bucketed latency
//!   histograms, and the data behind the service's `stats` / `metrics`
//!   protocol commands.
//! * [`service`] — the incremental, parallel program-checking service:
//!   a program database (content-hashed bindings, topological waves,
//!   Merkle-keyed scheme cache), an executor of engine sessions
//!   checking dirty bindings wave by wave, and the
//!   line-oriented JSON protocol the `freezeml` binary serves over
//!   stdin/stdout.
//! * [`hmf`] — an HMF-style baseline checker (Leijen 2008, simplified),
//!   giving Table 1 a second *computed* row.
//! * [`conformance`] — the golden-file (`.fml`) conformance harness over
//!   the Figure 1 corpus: loader, runner, readable diffs, a
//!   `UPDATE_EXPECT=1` bless mode, and a differential mode against the
//!   `hmf` and `miniml` baselines (golden files in `tests/conformance/`).
//!
//! ## Quickstart
//!
//! ```
//! use freezeml::core::{infer_program, Options};
//! use freezeml::corpus::figure2;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let env = figure2();
//! // Example A2• from the paper: freezing `id` keeps its polytype.
//! let ty = infer_program(&env, "choose ~id", &Options::default())?;
//! assert_eq!(ty.to_string(), "(forall a. a -> a) -> forall a. a -> a");
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for an architecture overview, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.

/// The `freezeml lint` workspace concurrency gate (see
/// [`lint::PLAN`] for the scanned trees and rules).
pub mod lint;

pub use freezeml_conformance as conformance;
pub use freezeml_core as core;
pub use freezeml_corpus as corpus;
pub use freezeml_engine as engine;
pub use freezeml_hmf as hmf;
pub use freezeml_miniml as miniml;
pub use freezeml_obs as obs;
pub use freezeml_service as service;
pub use freezeml_systemf as systemf;
pub use freezeml_translate as translate;
