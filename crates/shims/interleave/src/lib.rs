//! Deterministic concurrency model checking with drop-in `std::sync`
//! wrappers, in the spirit of [loom](https://docs.rs/loom) and
//! CDSChecker/CHESS-style stateless model checkers.
//!
//! The crate has two personalities, switched by the custom rustc cfg
//! `interleave` (`RUSTFLAGS='--cfg interleave'`):
//!
//! * **Normal builds** (`cfg(not(interleave))`): [`sync`] and [`thread`]
//!   are *literal* re-exports of `std::sync` and `std::thread`. A crate
//!   that writes `use interleave::sync::Mutex` compiles to exactly the
//!   code it would with `use std::sync::Mutex` — same types, same
//!   monomorphizations, zero overhead. This is what makes the wrappers
//!   safe to leave in production paths.
//!
//! * **Model builds** (`cfg(interleave)`): the same names resolve to
//!   instrumented primitives that route every operation through a
//!   cooperative scheduler. [`model`] (or [`Builder::check`]) runs a
//!   closure under depth-first exploration of thread interleavings:
//!
//!   - every synchronization operation (atomic load/store/RMW, lock,
//!     unlock, condvar wait/notify, spawn, join) is a *schedule point*
//!     where the scheduler picks which thread runs next;
//!   - exploration is exhaustive up to a **preemption bound**
//!     (CHESS-style): schedules with more than `preemption_bound`
//!     involuntary context switches are pruned, which keeps the space
//!     tractable while catching the overwhelming majority of real bugs;
//!   - non-`SeqCst` atomic loads model **weak memory**: a per-location
//!     store history plus vector clocks determines the set of stores a
//!     load may legally observe (coherence + happens-before), and the
//!     checker branches over every member of that set. `Relaxed` reads
//!     really can see stale values; `Acquire` loads synchronize with
//!     `Release` stores;
//!   - a blocked cycle (every live thread waiting on a lock, a join, or
//!     an un-notified condvar) is reported as a **deadlock**, and a
//!     `Condvar::wait_timeout` whose timeout is the only wakeup is a
//!     **lost wakeup** detectable by running with
//!     [`Builder::timeouts_fire`]` = false`;
//!   - failures replay deterministically: the report carries the
//!     decision schedule and a per-step trace, and setting
//!     `INTERLEAVE_REPLAY=<schedule>` re-runs exactly the failing
//!     interleaving.
//!
//! Model-mode primitives used *outside* a [`model`] run (for example by
//! ordinary unit tests compiled with `--cfg interleave`) fall back to
//! the real `std` primitives, so a model build of a crate still passes
//! its regular test-suite.
//!
//! # What is modeled
//!
//! `Mutex`, `RwLock`, `Condvar` (with timeout), `AtomicU64`,
//! `AtomicUsize`, `AtomicBool`, `thread::{spawn, JoinHandle, yield_now}`.
//!
//! # What is not modeled
//!
//! `mpsc` channels, `Once`/`OnceLock`, scoped threads, spurious condvar
//! wakeups, `sleep`-based timing, and panics used for control flow
//! inside a model. Code under test should drive the modeled primitives
//! directly. `sync::mpsc` et al. are re-exported from `std` unmodified
//! so that production code compiles under both cfgs.

#[cfg(not(interleave))]
mod passthrough {
    /// `std::sync`, verbatim. See the crate docs: in normal builds the
    /// alias modules downstream crates declare resolve to the real
    /// standard-library types with zero indirection.
    pub mod sync {
        pub use std::sync::*;
    }

    /// `std::thread`, verbatim, plus [`model_tid`](thread::model_tid).
    pub mod thread {
        pub use std::thread::*;

        /// Index of the current model thread, or `None` outside a model
        /// run. Always `None` in normal builds; lets shared code (e.g.
        /// deterministic shard selection) ask cheaply.
        #[inline(always)]
        pub fn model_tid() -> Option<usize> {
            None
        }
    }

    /// Normal builds: run the closure once, directly. The exhaustive
    /// exploration only exists under `--cfg interleave`.
    pub fn model<F>(f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        f();
    }

    /// Configuration for a model run. In normal builds checking
    /// degenerates to a single direct execution.
    #[derive(Debug, Clone)]
    pub struct Builder {
        /// Maximum involuntary context switches per schedule (unused in
        /// normal builds).
        pub preemption_bound: u32,
        /// Cap on explored executions (unused in normal builds).
        pub max_execs: u64,
        /// Whether `Condvar::wait_timeout` timeouts may fire (unused in
        /// normal builds).
        pub timeouts_fire: bool,
        /// Maximum threads a model may spawn (unused in normal builds).
        pub max_threads: usize,
    }

    impl Default for Builder {
        fn default() -> Self {
            Builder {
                preemption_bound: 2,
                max_execs: 100_000,
                timeouts_fire: true,
                max_threads: 8,
            }
        }
    }

    impl Builder {
        /// Run `f` once. Reported as a single explored execution.
        pub fn check<F>(&self, f: F) -> Result<Stats, Failure>
        where
            F: Fn() + Send + Sync + 'static,
        {
            f();
            Ok(Stats {
                execs: 1,
                max_decision_depth: 0,
            })
        }
    }

    /// Exploration statistics.
    #[derive(Debug, Clone, Copy)]
    pub struct Stats {
        /// Number of complete executions explored.
        pub execs: u64,
        /// Deepest decision sequence seen.
        pub max_decision_depth: usize,
    }

    /// Why a model run failed (see the `cfg(interleave)` docs; normal
    /// builds never construct one).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailureKind {
        /// A model thread panicked.
        Panic,
        /// Every live thread was blocked.
        Deadlock,
        /// The execution budget was exhausted.
        TooManyExecs,
        /// One execution exceeded the operation cap.
        TooLong,
        /// The closure spawned more threads than `max_threads`.
        TooManyThreads,
    }

    /// A model-checking failure (never produced in normal builds, where
    /// `check` runs the closure directly and panics propagate).
    #[derive(Debug, Clone)]
    pub struct Failure {
        /// What went wrong.
        pub kind: FailureKind,
        /// Human-readable description.
        pub message: String,
        /// Decision schedule to replay via `INTERLEAVE_REPLAY`.
        pub schedule: Vec<u32>,
        /// Per-step event trace of the failing execution.
        pub trace: Vec<String>,
    }

    impl std::fmt::Display for Failure {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.message)
        }
    }
}

#[cfg(not(interleave))]
pub use passthrough::{model, sync, thread, Builder, Failure, FailureKind, Stats};

#[cfg(interleave)]
mod model_impl;

#[cfg(interleave)]
pub use model_impl::{model, sync, thread, Builder, Failure, FailureKind, Stats};
