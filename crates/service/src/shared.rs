//! The hub state shared by every session of one serving process: the
//! concurrent scheme bank, the striped outcome cache, and the
//! declaration-level parse cache. There is no whole-document cache: a
//! session's open documents keep their own analyses and reports
//! ([`crate::service`]).
//!
//! One [`Shared`] behind an `Arc` is what makes the socket server
//! ([`crate::sock`]) more than N isolated services: every connection
//! gets its own [`Service`](crate::Service) (documents are per-session
//! state), but schemes, verdicts, and parsed declarations flow across
//! sessions — a binding checked by one client is a cache hit for every
//! other client, exactly as it is across documents within one service.
//!
//! Cache keys already fingerprint the checker configuration
//! ([`crate::db`]), so one hub safely serves sessions with different
//! engine or option settings.
//!
//! ## Generations
//!
//! Every cache entry is stamped with the hub **generation** — a counter
//! the persistence layer ([`crate::persist`]) advances on each
//! snapshot. A lookup or insert re-stamps the entry with the current
//! generation, so "entries untouched since generation g" is exactly the
//! eviction candidate set when a snapshot must fit `--max-cache-bytes`.
//! A check pass over an open document's previous report looks up only
//! its dirty bindings, so the verdicts the document keeps are not
//! re-stamped. With persistence off, the generation sits at zero and the
//! stamps are inert.
//!
//! All locks here recover from poisoning (`PoisonError::into_inner`):
//! the executor contains panics at the binding boundary
//! ([`crate::exec`]), and the structures behind these locks are valid
//! after any interrupted single operation — one crashed request must
//! never wedge the hub for every other client.

use crate::db::{Frontend, Outcome};
use crate::exec::CheckReport;
use crate::hash::U64Map;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, OnceLock, PoisonError};
use freezeml_engine::SchemeBank;
use freezeml_obs::lockrank;
use freezeml_obs::{Registry, Tracer};

/// Stripe count for the outcome cache. Matches the scheme bank's shard
/// count — plenty of lock granularity for a pool of session threads.
const STRIPES: usize = 16;

/// One cached verdict plus its last-touched generation.
struct Slot {
    outcome: Outcome,
    gen: u64,
}

/// The outcome cache, striped by cache key so concurrent sessions don't
/// serialise on one map lock. Keys are the Merkle
/// fingerprints from [`crate::db`] (already avalanche-mixed, so the low
/// bits are uniform stripe selectors).
pub struct StripedCache {
    stripes: [lockrank::Mutex<U64Map<Slot>>; STRIPES],
    /// The hub generation every touch stamps entries with.
    generation: AtomicU64,
}

impl Default for StripedCache {
    fn default() -> Self {
        StripedCache {
            stripes: std::array::from_fn(|_| {
                lockrank::Mutex::new(
                    lockrank::CACHE_STRIPE,
                    "service.cache.stripe",
                    U64Map::default(),
                )
            }),
            generation: AtomicU64::new(0),
        }
    }
}

impl StripedCache {
    fn stripe(&self, key: u64) -> lockrank::MutexGuard<'_, U64Map<Slot>> {
        self.stripes[(key as usize) & (STRIPES - 1)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a verdict by cache key. A hit re-stamps the entry with
    /// the current generation (it is "in use" for eviction purposes).
    pub fn get(&self, key: u64) -> Option<Outcome> {
        // ord: Relaxed — generation stamp is advisory (eviction
        // heuristic); staleness by one step is harmless.
        let gen = self.generation.load(Ordering::Relaxed);
        let mut stripe = self.stripe(key);
        stripe.get_mut(&key).map(|slot| {
            slot.gen = gen;
            slot.outcome.clone()
        })
    }

    /// Record a verdict at the current generation.
    pub fn insert(&self, key: u64, outcome: Outcome) {
        // ord: Relaxed — generation stamp is advisory; see `get`.
        let gen = self.generation.load(Ordering::Relaxed);
        self.stripe(key).insert(key, Slot { outcome, gen });
    }

    /// Total cached verdicts across stripes (observability).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current hub generation.
    pub fn generation(&self) -> u64 {
        // ord: Relaxed — advisory stamp source; see `get`.
        self.generation.load(Ordering::Relaxed)
    }

    /// Snapshot every entry as `(key, last-touched generation, outcome)`.
    pub(crate) fn export(&self) -> Vec<(u64, u64, Outcome)> {
        let mut out = Vec::new();
        for s in &self.stripes {
            let g = s.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(
                g.iter()
                    .map(|(&k, slot)| (k, slot.gen, slot.outcome.clone())),
            );
        }
        out
    }

    /// Install an entry with an explicit generation stamp (load path).
    pub(crate) fn insert_with_gen(&self, key: u64, outcome: Outcome, gen: u64) {
        self.stripe(key).insert(key, Slot { outcome, gen });
    }

    /// Drop an entry (eviction).
    pub(crate) fn remove(&self, key: u64) {
        self.stripe(key).remove(&key);
    }

    /// Set the hub generation (load path: resume past the snapshot's).
    pub(crate) fn set_generation(&self, gen: u64) {
        // ord: Relaxed — load path runs before any worker exists.
        self.generation.store(gen, Ordering::Relaxed);
    }

    /// Advance the hub generation (post-snapshot: subsequent touches
    /// are distinguishable from everything the snapshot saw).
    pub(crate) fn advance_generation(&self) -> u64 {
        // ord: Relaxed — single advancing writer (the checkpointer);
        // readers only need atomicity, not ordering.
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Cross-session shared state. See the module docs.
pub struct Shared {
    bank: SchemeBank,
    cache: StripedCache,
    frontend: lockrank::Mutex<Frontend>,
    /// The metrics registry — the single source of truth for every
    /// counter the serving stack exposes ([`freezeml_obs::metrics`]),
    /// including the persistence layer's eviction count.
    metrics: Registry,
    /// The trace sink every session and the checkpoint thread share.
    /// Lazily initialised from the `FREEZEML_TRACE` environment on
    /// first use unless [`Shared::set_tracer`] installed one first
    /// (the `--trace` flag does).
    tracer: OnceLock<Tracer>,
    /// Set when a drain was requested (protocol `shutdown` command or
    /// a signal): the socket accept loop sheds new connections, and
    /// the foreground `join` returns so the final checkpoint can run.
    /// One-way — a hub never un-drains.
    draining: AtomicBool,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            bank: SchemeBank::default(),
            cache: StripedCache::default(),
            frontend: lockrank::Mutex::new(
                lockrank::FRONTEND,
                "service.frontend",
                Frontend::default(),
            ),
            metrics: Registry::default(),
            tracer: OnceLock::new(),
            draining: AtomicBool::new(false),
        }
    }
}

impl Shared {
    /// A fresh hub.
    pub fn new() -> Shared {
        Shared::default()
    }

    /// The concurrent scheme bank (sharded internally; methods take
    /// `&self`).
    pub fn bank(&self) -> &SchemeBank {
        &self.bank
    }

    /// The striped outcome cache.
    pub fn cache(&self) -> &StripedCache {
        &self.cache
    }

    /// The declaration-level parse cache, behind its own lock — held
    /// only for the duration of one document analysis.
    pub fn frontend(&self) -> lockrank::MutexGuard<'_, Frontend> {
        self.frontend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Always `None`: the hub keeps no document reports. Kept only for
    /// `perfbench/src/traced.rs`, until ROADMAP item 6's benchmark
    /// change.
    pub fn doc_report(&self, _key: u64, _verify: u64) -> Option<Arc<CheckReport>> {
        None
    }

    /// Drops `report`: the hub keeps no document reports. Kept only for
    /// `perfbench/src/traced.rs`, until ROADMAP item 6's benchmark
    /// change.
    pub fn record_doc_report(&self, _key: u64, _verify: u64, _report: Arc<CheckReport>) {}

    /// Always 0: the hub keeps no document reports. Kept only for
    /// `perfbench/src/traced.rs`, until ROADMAP item 6's benchmark
    /// change.
    pub fn doc_reports_len(&self) -> usize {
        0
    }

    /// The hub's metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The hub's tracer: the one installed by [`Shared::set_tracer`],
    /// else lazily built from the `FREEZEML_TRACE` environment (off
    /// when unset).
    pub fn tracer(&self) -> &Tracer {
        self.tracer.get_or_init(Tracer::from_env)
    }

    /// Install a tracer (e.g. from `--trace FILE`). Returns `false` if
    /// one was already resolved — first installer wins, matching the
    /// `OnceLock` underneath.
    pub fn set_tracer(&self, tracer: Tracer) -> bool {
        self.tracer.set(tracer).is_ok()
    }

    /// Ask the hub to drain: the socket server stops accepting,
    /// finishes in-flight requests, and its foreground `join` returns.
    /// Idempotent. The flag is also what `stats` and `metrics` report.
    pub fn request_drain(&self) {
        // ord: Release — publishes everything the drain requester did
        // (e.g. the shutdown response it queued) to loops that observe
        // the flag with Acquire and then act on hub state. SeqCst was
        // overkill: there is one flag, so no cross-variable total order
        // is needed.
        self.draining.store(true, Ordering::Release);
    }

    /// Has a drain been requested on this hub?
    pub fn draining(&self) -> bool {
        // ord: Acquire — pairs with the Release store in
        // `request_drain`; a loop seeing `true` also sees the
        // requester's prior writes.
        self.draining.load(Ordering::Acquire)
    }
}
