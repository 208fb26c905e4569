//! Loom models of the engine's three lock-free publication protocols.
//!
//! Where `lsm-core`'s `group_commit::loom_models` check the lock/condvar
//! commit pipeline, these models check the structures that publish
//! *without* a lock, under the vendored loom's store-buffer memory model
//! (`Relaxed` stores may be delayed past later operations until the
//! thread's next release point — see the loom crate docs). Each protocol
//! gets a clean model that must pass and a seeded-bug variant that the
//! checker must catch; a green seeded test is the proof the harness can
//! actually see the bug class.
//!
//! 1. **Memtable occupancy** (`lsm-memtable::HashSkipListMemTable`):
//!    `len` is bumped with a Relaxed RMW *before* the shard write-lock
//!    insert, so a reader holding the shard read lock never counts more
//!    resident entries than `len` claims. Seeded bug: bump after insert.
//! 2. **Event-ring seqlock** (`lsm-obs::EventRing::push_at`/`events`):
//!    writers claim a slot via `head.fetch_add(Relaxed)`, invalidate
//!    (`seq = 0`, Release), write the payload with Relaxed stores, and
//!    publish (`seq = idx + 1`, Release); readers Acquire-load `seq` on
//!    both sides of the payload reads and drop torn slots. Seeded bug:
//!    the final publish downgraded to Relaxed — the payload can still sit
//!    in the writer's store buffer when `seq` lands, and the reader's
//!    double-check passes over a stale payload. Only the store-buffer
//!    model can catch this one; no interleaving of committed operations
//!    produces it.
//! 3. **Epoch pins** (`lsm-core`'s sharded `EpochPins`): `AcqRel` RMW
//!    pin/unpin counters must balance to zero and never unpin below one.
//!    Seeded bug: a load-then-store unpin loses a concurrent update.
//!
//! The models mirror the real code at the synchronization level with the
//! payloads reduced to a couple of words; slot payloads encode the claim
//! index so a stale read is detectable by value.

#![cfg(feature = "loom")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lsm_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use lsm_sync::{ranks, OrderedRwLock};

// ------------------------------------------------ 1. memtable occupancy

/// One memtable shard plus the shared occupancy counter (models
/// `HashSkipListMemTable { shards, len, .. }` with the skiplist reduced
/// to a `Vec`).
struct Occupancy {
    shard: OrderedRwLock<Vec<u64>>,
    len: AtomicUsize,
}

impl Occupancy {
    fn new() -> Self {
        Self {
            shard: OrderedRwLock::new(ranks::MEMTABLE_INDEX, Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Mirrors `HashSkipListMemTable::insert`: claim the occupancy first,
    /// then insert under the shard write lock.
    fn insert(&self, v: u64) {
        self.len.fetch_add(1, Ordering::Relaxed);
        self.shard.write().push(v);
    }

    /// The invariant a reader relies on: `len` is an upper bound on the
    /// entries resident in the shards (it may briefly overcount, never
    /// undercount).
    fn check(&self) {
        let guard = self.shard.read();
        let actual = guard.len();
        let claimed = self.len.load(Ordering::Relaxed);
        assert!(
            actual <= claimed,
            "memtable len undercounts resident entries: {actual} resident, {claimed} claimed"
        );
    }
}

#[test]
fn memtable_occupancy_never_undercounts() {
    loom::model(|| {
        let m = Arc::new(Occupancy::new());
        let m2 = Arc::clone(&m);
        let writer = loom::thread::spawn(move || {
            m2.insert(7);
        });
        let m3 = Arc::clone(&m);
        let reader = loom::thread::spawn(move || {
            m3.check();
        });
        writer.join().expect("writer completes");
        reader.join().expect("reader completes");
        assert_eq!(m.len.load(Ordering::Relaxed), 1);
        assert_eq!(m.shard.read().len(), 1);
    });
}

/// Seeded bug: bumping `len` *after* the locked insert lets a reader
/// count an entry the occupancy does not yet claim.
#[test]
fn seeded_len_after_insert_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let m = Arc::new(Occupancy::new());
            let m2 = Arc::clone(&m);
            let writer = loom::thread::spawn(move || {
                m2.shard.write().push(7);
                m2.len.fetch_add(1, Ordering::Relaxed); // BUG: claim last
            });
            let m3 = Arc::clone(&m);
            let reader = loom::thread::spawn(move || {
                m3.check();
            });
            writer.join().expect("writer completes");
            reader.join().expect("reader completes");
        });
    }));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded late-claim bug"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .expect("counterexample report is a String"),
    };
    assert!(
        msg.contains("counterexample") && msg.contains("undercounts"),
        "report must cite the schedule and the violated invariant: {msg}"
    );
}

// ---------------------------------------------- 2. event-ring seqlock

/// One seqlock slot (models `lsm-obs`'s `Slot` with the payload reduced
/// to two words; both must be consistent for the invariant to hold).
struct Slot {
    seq: AtomicU64,
    w0: AtomicU64,
    a: AtomicU64,
}

/// The ring (models `EventRing { slots, head, mask }`).
struct Ring {
    slots: Vec<Slot>,
    head: AtomicU64,
    mask: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    w0: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Mirrors `EventRing::push_at`: claim, invalidate, payload, publish.
    /// The payload words encode the claim index so a stale read is
    /// detectable: slot published as `seq = idx + 1` must carry
    /// `w0 = 100 + idx` and `a = 200 + idx`.
    fn push(&self, publish_order: Ordering) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx & self.mask) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.w0.store(100 + idx, Ordering::Relaxed);
        slot.a.store(200 + idx, Ordering::Relaxed);
        slot.seq.store(idx + 1, publish_order);
    }

    /// Mirrors `EventRing::events`: Acquire-load `seq` around the payload
    /// reads, drop invalid and torn slots, and assert that whatever
    /// survives the double-check is the payload the publish covered.
    fn check(&self) {
        for slot in &self.slots {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 {
                continue;
            }
            let w0 = slot.w0.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq1 {
                continue; // torn: a writer replaced the slot mid-read
            }
            let idx = seq1 - 1;
            assert!(
                w0 == 100 + idx && a == 200 + idx,
                "seqlock published a stale payload: seq {seq1} with w0={w0} a={a}"
            );
        }
    }
}

#[test]
fn event_ring_readers_never_see_stale_payloads() {
    loom::model(|| {
        let r = Arc::new(Ring::new(2));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let r2 = Arc::clone(&r);
                loom::thread::spawn(move || {
                    r2.push(Ordering::Release);
                })
            })
            .collect();
        let r3 = Arc::clone(&r);
        let reader = loom::thread::spawn(move || {
            r3.check();
        });
        for w in writers {
            w.join().expect("writer completes");
        }
        reader.join().expect("reader completes");
        // Both events are resident and consistent once the dust settles.
        r.check();
        assert_eq!(r.head.load(Ordering::Relaxed), 2);
    });
}

/// Seeded bug: the final `seq` publish downgraded to Relaxed. The payload
/// stores can then still sit in the writer's store buffer when the
/// publish commits, and a reader passes the double-check over the slot's
/// stale contents. This is exactly the bug class rule A1 pins statically;
/// interleaving alone cannot produce it — catching it proves the
/// store-buffer model works.
#[test]
fn seeded_relaxed_publish_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let r = Arc::new(Ring::new(1));
            let r2 = Arc::clone(&r);
            let writer = loom::thread::spawn(move || {
                r2.push(Ordering::Relaxed); // BUG: publish without Release
            });
            let r3 = Arc::clone(&r);
            let reader = loom::thread::spawn(move || {
                r3.check();
            });
            writer.join().expect("writer completes");
            reader.join().expect("reader completes");
        });
    }));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded missing-Release publish"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .expect("counterexample report is a String"),
    };
    assert!(
        msg.contains("counterexample") && msg.contains("stale payload"),
        "report must cite the schedule and the violated invariant: {msg}"
    );
}

// --------------------------------------------------- 3. epoch pins

/// Mirrors the sharded engine's `epoch_pins` discipline: `AcqRel` RMWs on
/// pin and unpin, count never driven below zero, zero once every pinner
/// is done.
#[test]
fn epoch_pins_balance() {
    loom::model(|| {
        let pins = Arc::new(AtomicU64::new(0));
        let pinners: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pins);
                loom::thread::spawn(move || {
                    p.fetch_add(1, Ordering::AcqRel);
                    let prev = p.fetch_sub(1, Ordering::AcqRel);
                    assert!(prev >= 1, "unpin without a matching pin: prev {prev}");
                })
            })
            .collect();
        for h in pinners {
            h.join().expect("pinner completes");
        }
        assert_eq!(
            pins.load(Ordering::Acquire),
            0,
            "pin accounting must balance"
        );
    });
}

/// Seeded bug: unpin as a non-atomic load-then-store loses a concurrent
/// pinner's update, leaving the count unbalanced — the classic reason the
/// real code uses `fetch_sub` and the engine's freeze path may trust
/// `epoch_pins == 0`.
#[test]
fn seeded_nonatomic_unpin_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let pins = Arc::new(AtomicU64::new(0));
            let pinners: Vec<_> = (0..2)
                .map(|_| {
                    let p = Arc::clone(&pins);
                    loom::thread::spawn(move || {
                        p.fetch_add(1, Ordering::AcqRel);
                        // BUG: read-modify-write torn into two operations.
                        let v = p.load(Ordering::Acquire);
                        p.store(v.wrapping_sub(1), Ordering::Release);
                    })
                })
                .collect();
            for h in pinners {
                h.join().expect("pinner completes");
            }
            assert_eq!(
                pins.load(Ordering::Acquire),
                0,
                "pin accounting must balance"
            );
        });
    }));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded lost-update unpin"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .expect("counterexample report is a String"),
    };
    assert!(
        msg.contains("counterexample") && msg.contains("balance"),
        "report must cite the schedule and the violated invariant: {msg}"
    );
}
