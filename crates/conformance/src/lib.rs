//! # Golden-file conformance harness for the Figure 1 corpus
//!
//! The paper's evaluation is a 49-program corpus (Figure 1) checked
//! against the 21-signature Figure 2 prelude; the reference Links
//! implementation validates it with data-driven expect tests. This crate
//! is the Rust analogue: a file-driven conformance suite every future
//! change regresses against.
//!
//! * [`format`](mod@format) — the `.fml` test-file format: source
//!   program, checker mode, extra environment, and an expected principal
//!   type (`expect:`) or expected error substring (`expect-error:`), plus
//!   `differs-from:` obligations for the paper's `•`-variant freeze/thaw
//!   pairs.
//! * [`runner`] — run parsed cases through the real
//!   [`freezeml_core`] checker against the Figure 2 prelude, render
//!   readable `-`/`+` diffs on mismatch, and bless expectations in place
//!   under `UPDATE_EXPECT=1`.
//! * [`differential`] — run the shared corpus subset through the
//!   [`freezeml_hmf`] and [`freezeml_miniml`] baselines as well and pin
//!   the Table 1 agreement/disagreement pattern in a derived golden file.
//! * [`program`] — the `program` golden mode: multi-binding `.fml` files
//!   (marker `#! program`) checked through the incremental service with
//!   per-binding expectations, including error recovery and blocking.
//!
//! The golden files themselves live at `tests/conformance/*.fml` in the
//! repository root (see the README there for the format and the bless
//! workflow); `cargo test -p freezeml_conformance` checks them.
//!
//! ```
//! use freezeml_conformance::{format, runner};
//!
//! let file = format::parse_str(
//!     "demo.fml",
//!     "## case A2•\nprogram: choose ~id\n\
//!      expect: (forall a. a -> a) -> forall a. a -> a\n",
//! )
//! .unwrap();
//! let suite = runner::run_files(&[file]);
//! assert!(suite.all_pass(), "{}", suite.render_failures());
//! ```

pub mod differential;
pub mod elab;
pub mod format;
pub mod program;
pub mod runner;

pub use format::{Case, CaseFile, Expectation, FormatError, Mode};
pub use runner::{bless_dir, check_or_bless, run_dir, run_files, CaseOutcome, SuiteOutcome};
