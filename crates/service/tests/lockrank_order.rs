//! Pins the workspace lock-rank assignment against the serving stack's
//! REAL nesting paths — the "no lock-order inversions" audit result,
//! kept true by tests instead of by memory.
//!
//! The discipline (see `freezeml_obs::lockrank`): every thread acquires
//! locks in strictly increasing rank. The rank constants encode the
//! production nestings; these tests (a) pin the constant order itself,
//! (b) drive the deepest real nesting — a checkpoint tick, which runs
//! `save` while HOLDING the stop-signal lock — under the debug witness,
//! and (c) prove the witness fires on an inversion built from the same
//! production lock objects, so (b) passing actually means something.

use freezeml_core::Options;
use freezeml_obs::lockrank;
use freezeml_service::{persist, EngineSel, PersistConfig, Service, ServiceConfig, Shared};
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch directory (removed on drop).
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("freezeml-lockrank-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The rank constants strictly increase in the order the serving stack
/// nests them. Renumbering one without re-auditing every nesting is
/// exactly the mistake this assertion turns into a test failure.
#[test]
fn rank_constants_encode_the_production_nesting_order() {
    let order = [
        lockrank::SESSION_RX,
        lockrank::PERSIST_STOP,
        lockrank::FRONTEND,
        lockrank::FAULT_TABLE,
        lockrank::CACHE_STRIPE,
        lockrank::TRACE_SINK,
        lockrank::METRICS_LABELS,
        lockrank::BANK_SHARD,
    ];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "lockrank constants are no longer strictly increasing: {order:?}"
    );
}

/// The deepest production nesting, end to end under the debug witness:
/// a periodic checkpoint tick runs `persist::save` while holding the
/// stop-signal lock (PERSIST_STOP, the lowest service rank precisely
/// because of this), and `save` walks the cache stripes and the bank
/// shards. Any inversion in that chain panics the
/// checkpointer thread, the tick never lands, and this test times out
/// loudly instead of passing.
#[test]
fn checkpoint_tick_nests_cleanly_inside_the_stop_lock() {
    let dir = TmpDir::new("tick");
    let cfg = PersistConfig::new(&dir.0);
    let shared = Arc::new(Shared::new());
    let epoch = persist::epoch(&Options::default());
    let cp = persist::Checkpointer::checkpoint_every(
        Arc::clone(&shared),
        epoch,
        cfg.clone(),
        std::time::Duration::from_millis(10),
    );
    // Give the tick real work: a checked document populates the bank
    // and the striped cache.
    let mut svc = Service::with_shared(
        ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers: 2,
        },
        Arc::clone(&shared),
    );
    svc.open("doc", "let id = fun x -> x;;\nlet use = id 1;;")
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cfg.file().exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpointer never ticked — did the witness kill it?"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let out = cp.finish().expect("final save");
    assert!(out.bytes > 0, "checkpoint wrote nothing");
}

/// The witness is live against the production ranks: holding anything
/// at BANK_SHARD rank (the highest — a leaf) while touching the real
/// frontend lock (rank 20) is an inversion, and the debug build
/// refuses it up front rather than deadlocking in the field. Release
/// builds compile the witness out, so the pin only exists where the
/// witness does.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "lock-rank violation")]
fn acquiring_frontend_at_bank_shard_depth_panics() {
    let shared = Shared::new();
    let leaf = lockrank::Mutex::new(lockrank::BANK_SHARD, "test.leaf", ());
    let _leaf = leaf.lock();
    let _frontend = shared.frontend(); // rank 20 under rank 90: refused
}
