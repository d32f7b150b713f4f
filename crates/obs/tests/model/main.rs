//! Model-checked concurrency invariants for the metrics registry.
//!
//! Run with `RUSTFLAGS='--cfg interleave' cargo test -p freezeml_obs
//! --test model`. In normal builds this file compiles to nothing; under
//! the model cfg, `interleave::model` explores bounded-preemption
//! interleavings of the *production* counter code (the crate's `sync`
//! alias routes `crate::sync::atomic` through the checker).
#![cfg(interleave)]

use freezeml_obs::{Counter, LabeledCounter, Registry};
use interleave::sync::Arc;
use std::time::Duration;

/// The headline registry invariant: a counter's `get()` equals the sum
/// of all shard-local adds, no matter how the adding threads interleave
/// and which shards their model tids hash to.
#[test]
fn counter_total_is_sum_of_racing_shard_adds() {
    interleave::model(|| {
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..3)
            .map(|i| {
                let c = Arc::clone(&c);
                interleave::thread::spawn(move || c.add(i + 1))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // join() establishes happens-before, so the merged read is exact.
        assert_eq!(c.get(), 1 + 2 + 3);
    });
}

/// A reader racing the writers may see a partial sum, but never more
/// than the final total and never a torn/garbage value.
#[test]
fn racing_reader_sees_monotonic_prefix() {
    interleave::model(|| {
        let c = Arc::new(Counter::new());
        let w = {
            let c = Arc::clone(&c);
            interleave::thread::spawn(move || {
                c.add(5);
                c.add(5);
            })
        };
        let mid = c.get();
        assert!(mid == 0 || mid == 5 || mid == 10, "torn read: {mid}");
        w.join().unwrap();
        assert_eq!(c.get(), 10);
    });
}

/// Labeled counters serialize label insertion behind a ranked mutex:
/// two threads racing to create the same label must land on one slot.
#[test]
fn labeled_counter_racing_inserts_share_one_slot() {
    interleave::model(|| {
        let lc = Arc::new(LabeledCounter::new());
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let lc = Arc::clone(&lc);
                interleave::thread::spawn(move || lc.inc("shed"))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(lc.get("shed"), 2);
        assert_eq!(lc.snapshot().len(), 1, "duplicate label slot created");
    });
}

/// Registry request accounting survives concurrent recording: total
/// request count across commands equals the number of record calls.
#[test]
fn registry_totals_equal_sum_of_concurrent_records() {
    interleave::model(|| {
        let r = Arc::new(Registry::new());
        let hs: Vec<_> = (0..2)
            .map(|i| {
                let r = Arc::clone(&r);
                interleave::thread::spawn(move || {
                    r.record_request(
                        freezeml_obs::Cmd::Check,
                        Duration::from_nanos(100 * (i as u64 + 1)),
                        false,
                    );
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let check = r.cmd(freezeml_obs::Cmd::Check);
        assert_eq!(check.count.get(), 2);
        assert_eq!(check.errors.get(), 0);
        assert_eq!(check.latency.snapshot().count(), 2);
    });
}
