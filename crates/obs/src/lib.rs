//! # FreezeML observability — the flight recorder
//!
//! Two layers, both built so that *not* observing costs nothing:
//!
//! * [`metrics`] — a lock-free registry of sharded atomic counters and
//!   log-bucketed latency histograms (p50/p90/p99 derivable from
//!   bucket counts), merged on read. One [`Registry`] per hub replaces
//!   the scattered per-layer counters (`CheckReport`'s
//!   rechecked/reused/waves, the scheme bank's render hits, the
//!   persistence layer's evictions) as the single source of truth. The
//!   service crate's metric catalogue reads each field in one row and
//!   renders both `stats` (JSON) and `metrics` (Prometheus text).
//! * [`trace`] — span/event tracing to JSONL through one [`Tracer`]
//!   handle: every emit site guards its clock reads and records on
//!   [`Tracer::enabled`], so with tracing off a site is one branch.
//!   Records carry hierarchical ids (connection → session → request →
//!   wave → binding) and per-phase durations.
//!
//! This crate sits below every serving-layer crate and above none; its
//! only dependency is the vendored `interleave` shim, whose normal-build
//! personality is a literal `std::sync` re-export (zero cost), and whose
//! `--cfg interleave` personality lets `tests/model/` model-check this
//! crate's real production code. Two correctness-tooling modules live
//! here so every crate above can use them:
//!
//! * [`sync`] — the alias module all locks/atomics in this crate import
//!   from (the `freezeml lint` gate forbids bare `std::sync` imports).
//! * [`lockrank`] — debug-build lock-rank witness: ranked `Mutex` /
//!   `RwLock` wrappers that panic (with both acquisition backtraces) on
//!   out-of-order lock nesting anywhere in the process.

pub mod lockrank;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use metrics::{
    bucket_le_ns, Cmd, CmdMetrics, Counter, HistSnapshot, Histogram, LabeledCounter, Registry,
    BUCKETS,
};
pub use trace::{next_conn_id, next_session_id, Record, Span, TraceCtx, Tracer, Val, TRACE_ENV};
