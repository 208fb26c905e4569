//! Loom model of snapshot registration against garbage collection.
//!
//! `lsm_core::Db::snapshot` pins a seqno by recording it in the engine's
//! snapshot registry; a flush or compaction lists that registry once, after
//! its inputs are fixed, and drops every version no listed snapshot can
//! read. The two meet safely only if the snapshot's seqno is loaded *while
//! the registry lock is held*: a GC job that listed the registry earlier
//! then only has inputs published before that listing, so every version it
//! drops is older than a kept version the later snapshot sees. Loading
//! first and registering afterwards opens a window in which a newer version
//! is published, GC lists an empty registry and drops the older one, and
//! the snapshot — still pinned at the older seqno — reads nothing.
//!
//! The model has one key with version 1 stored, a writer that stores and
//! publishes version 2, a GC pass, and a reader that snapshots and reads.
//! The clean order must pass; the seeded load-then-register order must be
//! reported, or the harness is blind to the bug it exists for.

#![cfg(feature = "loom")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lsm_sync::atomic::{AtomicU64, Ordering};
use lsm_sync::{ranks, OrderedMutex};

/// One key's slice of the engine (models `Engine { seqno, snapshots, .. }`
/// with the memtables and tables reduced to a list of stored seqnos).
struct Store {
    seqno: AtomicU64,
    snapshots: OrderedMutex<Vec<u64>>,
    versions: OrderedMutex<Vec<u64>>,
}

impl Store {
    fn new() -> Self {
        Self {
            seqno: AtomicU64::new(1),
            snapshots: OrderedMutex::new(ranks::DB_SNAPSHOTS, Vec::new()),
            versions: OrderedMutex::new(ranks::DB_CURRENT, vec![1]),
        }
    }

    /// Mirrors `commit_group_inner`: apply, then publish.
    fn write_v2(&self) {
        self.versions.lock().push(2);
        self.seqno.store(2, Ordering::Release);
    }

    /// Mirrors `flush_handle_inner` / `run_compaction_inner`: the inputs
    /// are what was published when the job started; the registry is listed
    /// once, after that; an older version survives only if a listed
    /// snapshot reads it rather than its successor.
    fn gc(&self) {
        let inputs_hi = self.seqno.load(Ordering::Acquire);
        let listed = self.snapshots.lock().clone();
        let mut versions = self.versions.lock();
        let Some(newest) = versions.iter().copied().filter(|&v| v <= inputs_hi).max() else {
            return;
        };
        // Later versions are not inputs and the newest input always stays;
        // with two versions the newest input is the successor of the other.
        versions.retain(|&v| v >= newest || listed.iter().any(|&s| v <= s && s < newest));
    }

    /// Mirrors `Db::snapshot`, in the fixed order or the old one.
    fn snapshot(&self, load_under_lock: bool) -> u64 {
        if load_under_lock {
            let mut registry = self.snapshots.lock();
            let at = self.seqno.load(Ordering::Acquire);
            registry.push(at);
            at
        } else {
            let at = self.seqno.load(Ordering::Acquire); // BUG: unregistered window
            self.snapshots.lock().push(at);
            at
        }
    }

    /// The newest stored version visible at `at`.
    fn read(&self, at: u64) -> Option<u64> {
        let versions = self.versions.lock();
        versions.iter().copied().filter(|&v| v <= at).max()
    }
}

fn check(load_under_lock: bool) {
    loom::model(move || {
        let store = Arc::new(Store::new());
        let (w, g, r) = (store.clone(), store.clone(), store.clone());
        let writer = loom::thread::spawn(move || w.write_v2());
        let gc = loom::thread::spawn(move || g.gc());
        let reader = loom::thread::spawn(move || {
            let at = r.snapshot(load_under_lock);
            // Every seqno's own version was stored before it was published.
            let seen = r.read(at);
            assert_eq!(seen, Some(at), "lost read: snapshot at {at} saw {seen:?}");
        });
        writer.join().expect("writer completes");
        gc.join().expect("gc completes");
        reader.join().expect("reader completes");
    });
}

#[test]
fn a_snapshot_registered_under_the_lock_never_loses_its_read() {
    check(true);
}

/// Seeded regression: the order `Db::snapshot` had before — load the
/// seqno, then take the registry lock.
#[test]
fn seeded_load_then_register_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| check(false)));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded load-then-register race"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .expect("counterexample report is a String"),
    };
    assert!(
        msg.contains("counterexample") && msg.contains("lost read"),
        "report must cite the schedule and the violated invariant: {msg}"
    );
}
