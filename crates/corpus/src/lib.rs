//! # The FreezeML evaluation corpus (paper Figures 1 and 2, Table 1)
//!
//! The paper's evaluation is a corpus of 49 example programs (Figure 1,
//! sections A–F, most originally from Serrano et al.'s *Guarded
//! Impredicative Polymorphism*) typed against a prelude of 21 signatures
//! (Figure 2). This crate encodes:
//!
//! * [`prelude::figure2`] — the prelude as a [`freezeml_core::TypeEnv`];
//! * [`figure1::EXAMPLES`] — every row of Figure 1 with its source text
//!   (in the ASCII surface syntax) and expected type or expected failure;
//! * [`runner`] — run any subset through the real checker and compare;
//! * [`table1`] — the Appendix A comparison: the FreezeML and plain-ML
//!   rows computed by running the real checkers, the other systems'
//!   counts recorded from the paper (see `DESIGN.md` for the
//!   substitution rationale).
//!
//! ```
//! use freezeml_corpus::{figure1, runner};
//! let results = runner::run_all();
//! assert_eq!(results.len(), figure1::EXAMPLES.len());
//! assert!(results.iter().all(|r| r.pass), "Figure 1 must reproduce");
//! ```

pub mod figure1;
pub mod prelude;
pub mod runner;
pub mod table1;

pub use figure1::{Example, Expected, Mode, EXAMPLES};
pub use prelude::{figure2, figure2_shared};
pub use runner::{run_all, run_example, ExampleResult};
