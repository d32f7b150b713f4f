//! The lock-free metrics registry: sharded atomic counters and
//! log-bucketed latency histograms, merged on read.
//!
//! The hot path (a worker recording a verdict-cache hit, a session
//! thread timing a request) must never take a lock and never allocate.
//! Both primitives here are arrays of cache-line-aligned `AtomicU64`
//! shards — the same contention-avoidance shape as the scheme bank's
//! sixteen shards — indexed by a per-thread shard id, so concurrent
//! writers touch distinct cache lines. Reads (`get`, `snapshot`) sum
//! across shards; they are racy in the benign sense (a concurrent
//! increment may or may not be visible) but never torn, since every
//! shard is a single atomic.
//!
//! Histograms bucket by the position of the highest set bit of the
//! recorded nanosecond value — `floor(log2(ns)) + 1`, forty buckets
//! covering 1 ns to ~4.5 min with the last bucket open-ended. That is
//! coarse (each bucket spans a factor of two) but allocation-free, and
//! p50/p90/p99 read off the cumulative bucket counts are accurate to
//! within one octave — plenty for a slow-request threshold or a
//! regression gate.
//!
//! The [`Registry`] is the single source of truth for every counter the
//! service layer previously scattered across `CheckReport`, the scheme
//! bank, and the persistence layer: one instance lives on the hub
//! (`Shared`) and every session, worker, and the checkpoint thread
//! write into it. It has no snapshot type of its own: the service's
//! metric catalogue (`freezeml_service::stats`) reads each field once
//! per exposition and renders both the `stats` JSON and the Prometheus
//! text from the same row.

use crate::lockrank;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::PoisonError;
use std::time::Duration;

/// Shard count for counters and histograms. Power of two; eight is
/// enough to keep an eight-session load mix off each other's cache
/// lines without bloating merge cost.
pub const SHARDS: usize = 8;

/// Number of log2 latency buckets: bucket `i` (for `i >= 1`) holds
/// samples in `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds exact zeros;
/// the last bucket is open-ended.
pub const BUCKETS: usize = 40;

/// A per-thread shard selector: threads get consecutive ids on first
/// touch, folded into `SHARDS`. Workers and session threads therefore
/// spread across shards rather than hashing to one.
fn shard_index() -> usize {
    // Under the model checker, shard choice must be a pure function of
    // the model thread id: the cross-execution `NEXT` static would make
    // schedules non-deterministic and break DFS replay.
    if let Some(tid) = interleave::thread::model_tid() {
        return tid & (SHARDS - 1);
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            // ord: Relaxed — a unique-id allocator; only the RMW's
            // atomicity matters, no other memory is published through it.
            i = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(i);
        }
        i & (SHARDS - 1)
    })
}

/// One atomic on its own cache line, so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A sharded monotonic counter. `add` is one relaxed `fetch_add` on the
/// calling thread's shard; `get` sums the shards.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ord: Relaxed — monotonic statistic; readers only need each
        // shard's value to be untorn, not ordered against other memory.
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            // ord: Relaxed — benign race by design: a concurrent add may
            // or may not be counted, but each shard read is untorn.
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// One histogram shard: per-bucket counts plus the running sum of
/// recorded nanoseconds (so exposition can report a mean and a
/// Prometheus `_sum`).
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for HistShard {
    fn default() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// Which bucket a nanosecond sample lands in.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i` in nanoseconds
/// (`u64::MAX` for the open-ended last bucket).
pub fn bucket_le_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A sharded log-bucketed latency histogram. Recording is two relaxed
/// `fetch_add`s on the calling thread's shard — no locks, no
/// allocation.
#[derive(Default)]
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record a sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[shard_index()];
        // ord: Relaxed — monotonic statistics; bucket count and sum may
        // be observed at different instants by a reader, by design.
        shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — see above.
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record a duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge the shards into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum_ns = 0u64;
        for s in &self.shards {
            for (acc, b) in buckets.iter_mut().zip(&s.buckets) {
                // ord: Relaxed — snapshot reads race benignly with
                // writers; each bucket read is untorn.
                *acc += b.load(Ordering::Relaxed);
            }
            // ord: Relaxed — see above.
            sum_ns = sum_ns.wrapping_add(s.sum_ns.load(Ordering::Relaxed));
        }
        HistSnapshot { buckets, sum_ns }
    }
}

/// A merged, immutable view of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket bounds via [`bucket_le_ns`].
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples in nanoseconds.
    pub sum_ns: u64,
}

impl HistSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The upper bound (ns) of the bucket containing quantile `q`
    /// (`0.0..=1.0`), or 0 for an empty histogram. Accurate to one
    /// octave by construction.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_le_ns(i);
            }
        }
        bucket_le_ns(BUCKETS - 1)
    }

    /// Median sample bound in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile bound in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile bound in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean sample in nanoseconds (0 for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }
}

/// A counter with a small dynamic label set (e.g. cold-fallback
/// *reasons*). Cold-path only — it takes a lock — so it is reserved for
/// events that are already I/O-bound failures.
pub struct LabeledCounter {
    slots: lockrank::Mutex<Vec<(String, u64)>>,
}

impl Default for LabeledCounter {
    fn default() -> LabeledCounter {
        LabeledCounter {
            slots: lockrank::Mutex::new(lockrank::METRICS_LABELS, "obs.metrics.labels", Vec::new()),
        }
    }
}

impl LabeledCounter {
    /// A fresh empty labeled counter.
    pub fn new() -> LabeledCounter {
        LabeledCounter::default()
    }

    /// Add one to `label`'s count.
    pub fn inc(&self, label: &str) {
        let mut g = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = g.iter_mut().find(|(l, _)| l == label) {
            slot.1 += 1;
        } else {
            g.push((label.to_string(), 1));
        }
    }

    /// The count for one label (0 if never bumped).
    pub fn get(&self, label: &str) -> u64 {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, n)| *n)
    }

    /// All `(label, count)` pairs, sorted by label for stable output.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut v = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        v.sort();
        v
    }
}

/// The protocol commands the registry tracks per-command latency and
/// error counts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    Open,
    Edit,
    Check,
    TypeOf,
    Elaborate,
    Close,
    Stats,
    Metrics,
    Shutdown,
    /// Every line that never resolved to a command: one the transport
    /// rejected (over the size cap, or not UTF-8), one that is not
    /// JSON, and one naming no known `cmd` or carrying junk fields.
    Invalid,
}

impl Cmd {
    /// Every command, in exposition order.
    pub const ALL: [Cmd; 10] = [
        Cmd::Open,
        Cmd::Edit,
        Cmd::Check,
        Cmd::TypeOf,
        Cmd::Elaborate,
        Cmd::Close,
        Cmd::Stats,
        Cmd::Metrics,
        Cmd::Shutdown,
        Cmd::Invalid,
    ];

    /// The protocol spelling.
    pub fn name(self) -> &'static str {
        match self {
            Cmd::Open => "open",
            Cmd::Edit => "edit",
            Cmd::Check => "check",
            Cmd::TypeOf => "type-of",
            Cmd::Elaborate => "elaborate",
            Cmd::Close => "close",
            Cmd::Stats => "stats",
            Cmd::Metrics => "metrics",
            Cmd::Shutdown => "shutdown",
            Cmd::Invalid => "invalid",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-command request metrics.
#[derive(Default)]
pub struct CmdMetrics {
    /// Requests answered (including error answers).
    pub count: Counter,
    /// Requests answered with `ok:false`.
    pub errors: Counter,
    /// Request latency: from the decoded request to its answer written
    /// into the session buffer. Line decode and the transport write are
    /// outside it.
    pub latency: Histogram,
}

/// The registry: every counter and histogram the serving stack exposes,
/// one instance per hub. All members are individually lock-free (except
/// the labeled cold-path counters); there is no registry-wide lock and
/// no registration step — the metric set is closed and typed, so the
/// exposition catalogue names each field in one row.
#[derive(Default)]
pub struct Registry {
    commands: [CmdMetrics; Cmd::ALL.len()],
    /// Socket connections accepted.
    pub connections: Counter,
    /// Sessions constructed against the hub.
    pub sessions: Counter,
    /// Requests exceeding the `--slow-ms` threshold.
    pub slow_requests: Counter,
    /// Bindings covered by produced or served `CheckReport`s.
    pub bindings: Counter,
    /// Bindings actually re-inferred.
    pub rechecked: Counter,
    /// Bindings served from the verdict cache.
    pub reused: Counter,
    /// Bindings not checked (failed dependency or recursive group).
    pub blocked: Counter,
    /// Topological waves scheduled.
    pub waves: Counter,
    /// Verdict-cache (striped outcome cache) hits.
    pub verdict_hits: Counter,
    /// Verdict-cache misses.
    pub verdict_misses: Counter,
    /// Cache entries evicted by the persistence layer.
    pub evictions: Counter,
    /// Snapshot loads that restored state.
    pub cache_loads: Counter,
    /// Snapshot loads that fell back cold, by reason.
    pub cache_load_failures: LabeledCounter,
    /// Checkpoints completed (snapshot written and renamed).
    pub checkpoints: Counter,
    /// Checkpoint attempts that failed.
    pub checkpoint_failures: Counter,
    /// Bytes written by completed checkpoints.
    pub checkpoint_bytes: Counter,
    /// Wall-clock duration of each completed checkpoint save.
    pub checkpoint_duration: Histogram,
    /// Connections shed by admission control before a session touched
    /// them (queue over `--max-pending`, or the server was draining).
    pub requests_shed: Counter,
    /// Requests answered with the structured `deadline` error (budget
    /// exhausted at a wave boundary, or the socket read/write timed
    /// out).
    pub deadline_exceeded: Counter,
    /// Fault-injection trips, by site (`FREEZEML_FAILPOINTS`).
    pub failpoint_trips: LabeledCounter,
    /// Session threads that died outside `catch_unwind` and were
    /// respawned by the pool.
    pub session_thread_deaths: Counter,
}

impl Registry {
    /// A fresh zeroed registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metrics for one command.
    pub fn cmd(&self, c: Cmd) -> &CmdMetrics {
        &self.commands[c.index()]
    }

    /// Record one answered request: its command, latency, and whether
    /// the answer was an error.
    pub fn record_request(&self, c: Cmd, latency: Duration, is_error: bool) {
        let m = self.cmd(c);
        m.count.inc();
        if is_error {
            m.errors.inc();
        }
        m.latency.record(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn buckets_are_log2_with_zero_and_open_top() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Bucket bounds are consistent with membership: a sample is
        // <= its bucket's bound and > the previous bucket's bound.
        for ns in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789] {
            let b = bucket_of(ns);
            assert!(ns <= bucket_le_ns(b), "{ns} > le({b})");
            if b > 0 {
                assert!(ns > bucket_le_ns(b - 1), "{ns} <= le({})", b - 1);
            }
        }
        assert_eq!(bucket_le_ns(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_read_off_cumulative_buckets() {
        let h = Histogram::new();
        // 90 fast samples (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        // p50 and p90 land in the 1 µs octave; p99 in the 1 ms octave.
        assert!(s.p50_ns() >= 1_000 && s.p50_ns() < 2_048, "{}", s.p50_ns());
        assert!(s.p90_ns() >= 1_000 && s.p90_ns() < 2_048, "{}", s.p90_ns());
        assert!(
            s.p99_ns() >= 1_000_000 && s.p99_ns() < 2_097_152,
            "{}",
            s.p99_ns()
        );
        assert_eq!(s.mean_ns(), (90 * 1_000 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.p99_ns(), 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn histogram_records_concurrently() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_ns(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 8_000);
    }

    #[test]
    fn labeled_counter_accumulates_per_label() {
        let c = LabeledCounter::new();
        c.inc("checksum");
        c.inc("epoch");
        c.inc("checksum");
        assert_eq!(
            c.snapshot(),
            vec![("checksum".to_string(), 2), ("epoch".to_string(), 1)]
        );
        assert_eq!(c.get("checksum"), 2);
    }

    #[test]
    fn registry_records_requests_and_counters() {
        let r = Registry::new();
        r.record_request(Cmd::Check, Duration::from_micros(250), false);
        r.record_request(Cmd::Check, Duration::from_micros(900), true);
        r.record_request(Cmd::Stats, Duration::from_micros(5), false);
        r.bindings.add(16);
        r.rechecked.add(4);
        r.reused.add(12);
        r.cache_load_failures.inc("checksum");
        r.failpoint_trips.inc("persist.write");
        let check = r.cmd(Cmd::Check);
        assert_eq!((check.count.get(), check.errors.get()), (2, 1));
        assert_eq!(check.latency.snapshot().count(), 2);
        assert_eq!(r.cmd(Cmd::Stats).count.get(), 1);
        assert_eq!(r.cmd(Cmd::Open).count.get(), 0);
        assert_eq!(
            r.rechecked.get() + r.reused.get() + r.blocked.get(),
            r.bindings.get()
        );
        assert_eq!(
            r.cache_load_failures.snapshot(),
            vec![("checksum".to_string(), 1)]
        );
        assert_eq!(r.failpoint_trips.get("persist.write"), 1);
    }
}
