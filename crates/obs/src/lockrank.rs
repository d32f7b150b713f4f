//! # Lock-rank discipline — a debug-build deadlock witness
//!
//! Every long-lived lock in the serving stack carries a [`Rank`].
//! The global ordering rule is:
//!
//! > a thread may only acquire a lock whose rank is **strictly
//! > greater** than every lock it already holds.
//!
//! Any pair of code paths that respects this rule cannot form a
//! lock-order cycle, so the system is deadlock-free by construction —
//! and a violation is caught the *first* time the bad nesting runs, on
//! any schedule, not just the schedule where it happens to deadlock.
//!
//! In debug builds (`cfg(debug_assertions)`) every acquisition pushes
//! onto a thread-local stack of held locks and checks the rule,
//! panicking with both acquisition sites (and backtraces, when
//! `RUST_BACKTRACE` is set) on violation. In release builds the
//! bookkeeping compiles away: [`Mutex`]/[`RwLock`] are newtypes over
//! the `crate::sync` primitives with no extra state per guard.
//!
//! ## The rank table
//!
//! Higher rank = acquired later = more deeply nested. Gaps are left for
//! future layers.
//!
//! | rank | name            | lock                                            |
//! |------|-----------------|-------------------------------------------------|
//! | 10   | `SESSION_RX`    | `service::sock` shared accept→session receiver  |
//! | 15   | `PERSIST_STOP`  | checkpointer stop flag (held across `save`)     |
//! | 20   | `FRONTEND`      | `service::Shared` frontend (elaborator state)   |
//! | 50   | `FAULT_TABLE`   | `service::fault` failpoint table                |
//! | 60   | `CACHE_STRIPE`  | `service::Shared` verdict-cache stripe          |
//! | 70   | `TRACE_SINK`    | `obs::trace` JSONL writer                       |
//! | 80   | `METRICS_LABELS`| `obs::metrics` labeled-counter slots            |
//! | 90   | `BANK_SHARD`    | `engine::bank` scheme-bank shard                |
//!
//! `PERSIST_STOP` ranks below everything `save()` touches because the
//! checkpointer thread holds it across the whole checkpoint write.
//! The symbol-table lock in `freezeml_core` is an unranked leaf: it is
//! acquired for single intern/lookup calls that never take another
//! lock, so it cannot participate in a cycle.

use crate::sync::{Condvar as RawCondvar, LockResult, Mutex as RawMutex, PoisonError};
use crate::sync::{RwLock as RawRwLock, WaitTimeoutResult};
use std::mem::ManuallyDrop;
use std::time::Duration;

/// Position of a lock in the global acquisition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(pub u16);

/// `service::sock` shared accept→session receiver.
pub const SESSION_RX: Rank = Rank(10);
/// Checkpointer stop flag; held across the whole checkpoint `save`.
pub const PERSIST_STOP: Rank = Rank(15);
/// `service::Shared` frontend (elaborator) state.
pub const FRONTEND: Rank = Rank(20);
/// `service::fault` failpoint table.
pub const FAULT_TABLE: Rank = Rank(50);
/// `service::Shared` verdict-cache stripe.
pub const CACHE_STRIPE: Rank = Rank(60);
/// `obs::trace` JSONL writer.
pub const TRACE_SINK: Rank = Rank(70);
/// `obs::metrics` labeled-counter slots.
pub const METRICS_LABELS: Rank = Rank(80);
/// `engine::bank` scheme-bank shard.
pub const BANK_SHARD: Rank = Rank(90);

// ---------------------------------------------------------- debug witness

#[cfg(debug_assertions)]
mod witness {
    use super::Rank;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::panic::Location;

    struct Held {
        rank: Rank,
        name: &'static str,
        token: u64,
        location: &'static Location<'static>,
        backtrace: Backtrace,
    }

    thread_local! {
        static HELD: RefCell<(u64, Vec<Held>)> = const { RefCell::new((0, Vec::new())) };
    }

    /// Check the strictly-increasing rule and record the acquisition.
    /// Runs BEFORE blocking on the lock, so a violation panics instead
    /// of deadlocking.
    #[track_caller]
    pub(super) fn push(rank: Rank, name: &'static str) -> u64 {
        let location = Location::caller();
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(top) = h.1.iter().max_by_key(|e| e.rank) {
                if top.rank >= rank {
                    panic!(
                        "lock-rank violation: acquiring `{name}` (rank {}) at {location} \
                         while holding `{}` (rank {}) acquired at {}\n\
                         --- holder backtrace ---\n{}\n\
                         --- acquirer backtrace ---\n{}",
                        rank.0,
                        top.name,
                        top.rank.0,
                        top.location,
                        top.backtrace,
                        Backtrace::capture(),
                    );
                }
            }
            h.0 += 1;
            let token = h.0;
            h.1.push(Held {
                rank,
                name,
                token,
                location,
                backtrace: Backtrace::capture(),
            });
            token
        })
    }

    /// Forget an acquisition. Guards may drop out of creation order, so
    /// removal is by token, not by popping.
    pub(super) fn pop(token: u64) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.1.iter().rposition(|e| e.token == token) {
                h.1.remove(pos);
            }
        });
    }
}

#[cfg(debug_assertions)]
type Token = u64;
#[cfg(not(debug_assertions))]
type Token = ();

#[cfg(debug_assertions)]
#[track_caller]
fn push(rank: Rank, name: &'static str) -> Token {
    witness::push(rank, name)
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn push(_rank: Rank, _name: &'static str) -> Token {}

#[cfg(debug_assertions)]
fn pop(token: Token) {
    witness::pop(token)
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn pop(_token: Token) {}

// ---------------------------------------------------------------- wrappers

/// A `crate::sync::Mutex` that participates in the rank discipline.
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    name: &'static str,
    inner: RawMutex<T>,
}

/// Guard for [`Mutex`]; releases the rank entry on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<crate::sync::MutexGuard<'a, T>>,
    token: Token,
}

impl<T> Mutex<T> {
    /// `const`, so ranked locks can back `static` tables.
    pub const fn new(rank: Rank, name: &'static str, value: T) -> Self {
        Mutex {
            rank,
            name,
            inner: RawMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Lock, enforcing the rank rule in debug builds. Poisoning is
    /// surfaced exactly like `std`: the `Err` carries a usable guard.
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let token = push(self.rank, self.name);
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                inner: ManuallyDrop::new(g),
                token,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                inner: ManuallyDrop::new(p.into_inner()),
                token,
            })),
        }
    }

    /// The rank this lock was declared with.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        pop(self.token);
        // Safety: dropped exactly once, here.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish()
    }
}

/// A `crate::sync::RwLock` that participates in the rank discipline.
/// Read and write acquisitions obey the same strictly-increasing rule —
/// holding two same-rank read locks is also a violation, which keeps
/// the discipline immune to writer-priority upgrades.
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    name: &'static str,
    inner: RawRwLock<T>,
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<crate::sync::RwLockReadGuard<'a, T>>,
    token: Token,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<crate::sync::RwLockWriteGuard<'a, T>>,
    token: Token,
}

impl<T> RwLock<T> {
    pub const fn new(rank: Rank, name: &'static str, value: T) -> Self {
        RwLock {
            rank,
            name,
            inner: RawRwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[track_caller]
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let token = push(self.rank, self.name);
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard {
                inner: ManuallyDrop::new(g),
                token,
            }),
            Err(p) => Err(PoisonError::new(RwLockReadGuard {
                inner: ManuallyDrop::new(p.into_inner()),
                token,
            })),
        }
    }

    #[track_caller]
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let token = push(self.rank, self.name);
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard {
                inner: ManuallyDrop::new(g),
                token,
            }),
            Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                inner: ManuallyDrop::new(p.into_inner()),
                token,
            })),
        }
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        pop(self.token);
        unsafe { ManuallyDrop::drop(&mut self.inner) };
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        pop(self.token);
        unsafe { ManuallyDrop::drop(&mut self.inner) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish()
    }
}

/// Condvar paired with a ranked [`Mutex`]. Waiting releases the rank
/// entry (the lock really is released) and re-registers it — re-running
/// the rank check — on wakeup.
pub struct Condvar {
    inner: RawCondvar,
    rank: Rank,
    name: &'static str,
}

impl Condvar {
    pub const fn new(rank: Rank, name: &'static str) -> Self {
        Condvar {
            inner: RawCondvar::new(),
            rank,
            name,
        }
    }

    /// Split a ranked guard into its raw guard, releasing the rank
    /// entry, without running its destructor.
    fn unwrap_guard<'a, T: ?Sized>(guard: MutexGuard<'a, T>) -> crate::sync::MutexGuard<'a, T> {
        let mut shell = ManuallyDrop::new(guard);
        pop(shell.token);
        // Safety: the shell is never dropped, so `inner` is moved out
        // exactly once.
        unsafe { ManuallyDrop::take(&mut shell.inner) }
    }

    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let raw = Self::unwrap_guard(guard);
        match self.inner.wait(raw) {
            Ok(g) => {
                let token = push(self.rank, self.name);
                Ok(MutexGuard {
                    inner: ManuallyDrop::new(g),
                    token,
                })
            }
            Err(p) => {
                let token = push(self.rank, self.name);
                Err(PoisonError::new(MutexGuard {
                    inner: ManuallyDrop::new(p.into_inner()),
                    token,
                }))
            }
        }
    }

    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let raw = Self::unwrap_guard(guard);
        match self.inner.wait_timeout(raw, dur) {
            Ok((g, t)) => {
                let token = push(self.rank, self.name);
                Ok((
                    MutexGuard {
                        inner: ManuallyDrop::new(g),
                        token,
                    },
                    t,
                ))
            }
            Err(p) => {
                let (g, t) = p.into_inner();
                let token = push(self.rank, self.name);
                Err(PoisonError::new((
                    MutexGuard {
                        inner: ManuallyDrop::new(g),
                        token,
                    },
                    t,
                )))
            }
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The witness state is thread-local, so each test runs on its own
    // thread to keep panics from contaminating neighbours.

    #[test]
    fn in_order_nesting_is_allowed() {
        std::thread::spawn(|| {
            let low = Mutex::new(FRONTEND, "test.low", 1u32);
            let high = Mutex::new(BANK_SHARD, "test.high", 2u32);
            let g1 = low.lock().unwrap();
            let g2 = high.lock().unwrap();
            assert_eq!(*g1 + *g2, 3);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn out_of_order_nesting_panics_with_both_sites() {
        let err = std::thread::spawn(|| {
            let low = Mutex::new(FRONTEND, "test.low", 1u32);
            let high = Mutex::new(BANK_SHARD, "test.high", 2u32);
            let _g2 = high.lock().unwrap();
            let _g1 = low.lock().unwrap(); // rank 20 after rank 90: boom
        })
        .join()
        .expect_err("inverted nesting must panic in debug builds");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("lock-rank violation"), "got: {msg}");
        assert!(
            msg.contains("test.high") && msg.contains("test.low"),
            "got: {msg}"
        );
        assert!(
            msg.contains("lockrank.rs"),
            "acquisition sites recorded: {msg}"
        );
    }

    #[test]
    fn same_rank_twice_panics() {
        std::thread::spawn(|| {
            let a = Mutex::new(CACHE_STRIPE, "test.stripe-a", ());
            let b = Mutex::new(CACHE_STRIPE, "test.stripe-b", ());
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        })
        .join()
        .expect_err("two same-rank locks held together must panic");
    }

    #[test]
    fn sequential_reacquisition_is_fine() {
        std::thread::spawn(|| {
            let high = Mutex::new(BANK_SHARD, "test.high", ());
            let low = Mutex::new(FRONTEND, "test.low", ());
            drop(high.lock().unwrap());
            drop(low.lock().unwrap()); // high released first: no nesting
            drop(high.lock().unwrap());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn rwlock_reads_participate() {
        let err = std::thread::spawn(|| {
            let shard = RwLock::new(BANK_SHARD, "test.shard", ());
            let stop = Mutex::new(PERSIST_STOP, "test.stop", ());
            let _g = shard.read().unwrap();
            let _s = stop.lock().unwrap(); // rank 15 under rank 90: boom
        })
        .join()
        .expect_err("read guards hold their rank too");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("test.shard"), "got: {msg}");
    }

    #[test]
    fn condvar_wait_releases_rank() {
        std::thread::spawn(|| {
            let stop = Mutex::new(PERSIST_STOP, "test.stop", false);
            let cv = Condvar::new(PERSIST_STOP, "test.stop");
            let g = stop.lock().unwrap();
            // While waiting, the PERSIST_STOP rank must not be held:
            // prove it by timing out and then nesting a higher rank.
            let (g, t) = cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
            assert!(t.timed_out());
            let high = Mutex::new(FRONTEND, "test.frontend", ());
            let _h = high.lock().unwrap(); // 20 over 15: legal
            drop(g);
        })
        .join()
        .unwrap();
    }
}
