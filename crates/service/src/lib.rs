//! # FreezeML program-checking service
//!
//! The paper evaluates single expressions; FreezeML's home (the Links
//! implementation, §6) checks whole programs of top-level bindings. This
//! crate turns the workspace's checkers into a **long-lived,
//! incrementally updating, parallel program-checking service** — the
//! serving layer the union-find engine's `Session` API was built for.
//!
//! Four layers:
//!
//! * **surface** — programs (`let x = M;;` sequences with `#use prelude`
//!   and span-carrying diagnostics) come from [`freezeml_core::program`];
//! * [`db`] — the program database: bindings keyed by content hash, a
//!   free-variable dependency graph levelled into topological waves,
//!   and Merkle-style cache keys so an edit invalidates *exactly* the
//!   dirty binding and its transitive dependents. An open document's
//!   analysis is patched to each edit, so only the changed chunks are
//!   re-parsed and only their cone is re-keyed. FreezeML's principal
//!   types (paper Theorem 7) are what make per-binding scheme caching
//!   sound: a binding's scheme is a function of its text and its
//!   dependencies' schemes, nothing else;
//! * [`exec`] — the executor: reusable [`freezeml_engine::Session`]s
//!   checking a document's dirty bindings wave by wave on the calling
//!   session's thread (`ENGINE=core|uf|both` respected, `both` =
//!   per-binding differential agreement); concurrency comes from
//!   sessions, each with its own executor over one shared hub ([`sock`]);
//! * [`protocol`] / [`server`] — a line-oriented JSON protocol
//!   (`open` / `edit` / `check` / `type-of` / `close`, plus the
//!   [`stats`] introspection pair `stats` / `metrics`) served over
//!   stdin/stdout by the `freezeml` binary, plus [`load`], the
//!   deterministic program generator and corpus-replay driver behind the
//!   `service_throughput` bench and the CI smoke job.
//!
//! ## Quickstart
//!
//! ```
//! use freezeml_service::{Service, ServiceConfig};
//!
//! let mut svc = Service::new(ServiceConfig::default());
//! let report = svc
//!     .open("demo", "#use prelude\nlet id' = $(fun x -> x);;\nlet p = poly ~id';;\n")
//!     .unwrap();
//! assert!(report.all_typed());
//! assert_eq!(
//!     svc.type_of("demo", "p").unwrap().unwrap().outcome.display(),
//!     "Int * Bool"
//! );
//! ```

pub mod db;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod load;
pub mod persist;
pub mod protocol;
mod scan;
pub mod server;
pub mod service;
pub mod shared;
pub mod sock;
pub mod stats;
pub mod sync;

pub use db::{
    analyze, analyze_cached, analyze_cached_traced, doc_key, doc_verify, Analysis, EngineSel,
    Frontend, Outcome,
};
pub use exec::{BindingReport, CheckReport, DeadlineExceeded, Executor};
pub use fault::{Fault, FAILPOINTS_ENV};
pub use freezeml_engine::SchemeId;
pub use load::{backoff_ms, replay, GenProgram, ReplayStats};
pub use persist::{Checkpointer, LoadOutcome, PersistConfig, SaveOutcome};
pub use protocol::{handle_line, Json, Request};
pub use server::{serve, serve_with, ServeOptions};
pub use service::{ElabInfo, Service, ServiceConfig, ServiceError};
pub use shared::Shared;
pub use sock::SocketServer;
pub use stats::{prometheus_text, stats_json};
