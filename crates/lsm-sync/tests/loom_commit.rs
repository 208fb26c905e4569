//! Loom model of the leader/follower group-commit pipeline.
//!
//! This mirrors `lsm_core`'s `Engine::commit_write` / `drain_group` /
//! `commit_group` line-for-line at the synchronization level — same locks
//! at the same ranks (`db.write_mx` below `db.commit_mx`), same
//! enqueue/at-front/leader/park structure, same flag and notify order —
//! with the WAL and memtable abstracted to watermark counters. The model
//! checker (`cargo test -p lsm-sync --features loom`) then explores every
//! interleaving within the preemption bound and asserts the three
//! properties the pipeline exists to provide:
//!
//! 1. **Seqno contiguity** — groups commit over disjoint, gapless seqno
//!    ranges (two leaders in flight would collide at the publish check).
//! 2. **Single append / at most one sync per group** — batching actually
//!    batches.
//! 3. **Acknowledged == durable** — a writer that observes `done` finds
//!    its last seqno at or below the durable watermark (synced for
//!    `sync` writes, appended otherwise).
//!
//! The untimed-wait variants additionally prove the wakeup protocol has
//! no lost-notification schedule: the real code's `wait_for` timeout is a
//! safety net, and these tests show the net is never load-bearing. A final
//! test seeds the PR-5-style ack-before-durable bug into the model and
//! asserts the checker reports a counterexample — without it, a green run
//! would prove only that the harness is blind.

#![cfg(feature = "loom")]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lsm_sync::{ranks, Condvar, OrderedMutex};

/// One writer's pending request (models `CommitRequest`).
struct Req {
    n_ops: u64,
    want_sync: bool,
    done: AtomicBool,
    /// Last seqno assigned to this request by its group's leader.
    seqno_hi: AtomicU64,
}

/// The shared pipeline state (models the `Engine` fields the write path
/// uses).
struct Pipeline {
    commit_mx: OrderedMutex<VecDeque<Arc<Req>>>,
    commit_cv: Condvar,
    /// The single-writer ticket; the counters it guards are leader-only.
    write_mx: OrderedMutex<Counters>,
    /// WAL watermarks (highest seqno appended / fsynced).
    appended_hi: AtomicU64,
    synced_hi: AtomicU64,
    seqno: AtomicU64,
    max_group_ops: u64,
}

#[derive(Default)]
struct Counters {
    groups: u64,
    appends: u64,
    syncs: u64,
}

impl Pipeline {
    fn new(max_group_ops: u64) -> Self {
        Self {
            commit_mx: OrderedMutex::new(ranks::DB_COMMIT, VecDeque::new()),
            commit_cv: Condvar::new(),
            write_mx: OrderedMutex::new(ranks::DB_WRITE, Counters::default()),
            appended_hi: AtomicU64::new(0),
            synced_hi: AtomicU64::new(0),
            seqno: AtomicU64::new(0),
            max_group_ops,
        }
    }
}

/// Mirrors `Engine::drain_group`: pop a non-empty queue prefix bounded by
/// `max_group_ops`; the first request always joins.
fn drain_group(p: &Pipeline) -> Vec<Arc<Req>> {
    let mut q = p.commit_mx.lock();
    let mut group = Vec::new();
    let mut ops = 0u64;
    while let Some(front) = q.front() {
        if !group.is_empty() && ops + front.n_ops > p.max_group_ops {
            break;
        }
        ops += front.n_ops;
        let r = q.pop_front().expect("front exists");
        group.push(r);
    }
    group
}

/// Mirrors `Engine::commit_group`: assign a contiguous seqno range, one
/// append, at most one sync, then publish. Caller holds `write_mx`.
fn commit_group(p: &Pipeline, c: &mut Counters, group: &[Arc<Req>]) {
    let base = p.seqno.load(Ordering::Acquire);
    let mut n = 0u64;
    let mut want_sync = false;
    for r in group {
        n += r.n_ops;
        r.seqno_hi.store(base + n, Ordering::Release);
        want_sync |= r.want_sync;
    }
    c.groups += 1;
    c.appends += 1;
    p.appended_hi.store(base + n, Ordering::Release);
    if want_sync {
        c.syncs += 1;
        p.synced_hi.store(base + n, Ordering::Release);
    }
    // Contiguity: nobody else advanced the seqno while this group was in
    // flight (that is exactly what holding `write_mx` guarantees).
    let cur = p.seqno.load(Ordering::Acquire);
    assert_eq!(cur, base, "two leaders in flight: seqno moved under us");
    p.seqno.store(base + n, Ordering::Release);
}

/// Mirrors `Engine::commit_write`. `untimed` parks followers on a plain
/// `wait` instead of `wait_for`, turning any lost wakeup into a model
/// deadlock (the real code's timeout is a safety net, not the protocol).
fn commit_write(p: &Pipeline, req: &Arc<Req>, untimed: bool) {
    p.commit_mx.lock().push_back(Arc::clone(req));
    loop {
        if req.done.load(Ordering::Acquire) {
            break;
        }
        let at_front = {
            let q = p.commit_mx.lock();
            q.front().is_some_and(|f| Arc::ptr_eq(f, req))
        };
        if at_front {
            let mut writer = p.write_mx.lock();
            if req.done.load(Ordering::Acquire) {
                break; // the previous leader drained us meanwhile
            }
            let group = drain_group(p);
            assert!(
                group.iter().any(|r| Arc::ptr_eq(r, req)),
                "drains take a queue prefix, so the front request joins"
            );
            commit_group(p, &mut writer, &group);
            for r in &group {
                r.done.store(true, Ordering::Release);
            }
            drop(writer);
            {
                let _q = p.commit_mx.lock();
                p.commit_cv.notify_all();
            }
            break;
        }
        let mut q = p.commit_mx.lock();
        if req.done.load(Ordering::Acquire) {
            break;
        }
        if q.front().is_some_and(|f| Arc::ptr_eq(f, req)) {
            continue; // promoted to front while taking the lock
        }
        if untimed {
            p.commit_cv.wait(&mut q);
        } else {
            let _ = p.commit_cv.wait_for(&mut q, Duration::from_millis(50));
        }
    }
    // Acknowledged == durable: observing `done` means this request's whole
    // seqno range is already on (modeled) stable storage.
    let hi = req.seqno_hi.load(Ordering::Acquire);
    let durable = if req.want_sync {
        p.synced_hi.load(Ordering::Acquire)
    } else {
        p.appended_hi.load(Ordering::Acquire)
    };
    assert!(
        hi <= durable,
        "acked seqno {hi} beyond the durable watermark {durable}"
    );
}

/// Explores every schedule of `writers` concurrent commits and checks the
/// end-state invariants after all of them acked.
fn check_pipeline(writers: usize, max_group_ops: u64, untimed: bool) {
    loom::model(move || {
        let p = Arc::new(Pipeline::new(max_group_ops));
        let mut reqs = Vec::new();
        let mut handles = Vec::new();
        for i in 0..writers {
            let req = Arc::new(Req {
                n_ops: (i as u64 % 2) + 1, // mixed sizes exercise the bound
                want_sync: i % 2 == 0,
                done: AtomicBool::new(false),
                seqno_hi: AtomicU64::new(0),
            });
            reqs.push(Arc::clone(&req));
            let p2 = Arc::clone(&p);
            handles.push(loom::thread::spawn(move || {
                commit_write(&p2, &req, untimed);
            }));
        }
        for h in handles {
            h.join().expect("writer completes");
        }

        let total: u64 = reqs.iter().map(|r| r.n_ops).sum();
        assert_eq!(
            p.seqno.load(Ordering::Acquire),
            total,
            "published seqno must equal the total committed ops (no gaps, \
             no double-commit)"
        );
        assert!(p.commit_mx.lock().is_empty(), "queue fully drained");
        let c = p.write_mx.lock();
        assert_eq!(c.appends, c.groups, "exactly one WAL append per group");
        assert!(c.syncs <= c.groups, "at most one sync per group");
        assert!(
            p.synced_hi.load(Ordering::Acquire) <= p.appended_hi.load(Ordering::Acquire),
            "sync watermark cannot lead the append watermark"
        );
    });
}

#[test]
fn two_writers_one_group() {
    // Group bound large enough that one leader can absorb both requests.
    check_pipeline(2, 8, false);
}

#[test]
fn two_writers_forced_separate_groups() {
    // max_group_ops = 1 forces every multi-writer schedule to hand
    // leadership over, exercising front-promotion after a partial drain.
    check_pipeline(2, 1, false);
}

#[test]
fn three_writers_mixed_groups() {
    check_pipeline(3, 2, false);
}

#[test]
fn two_writers_untimed_wait_has_no_lost_wakeup() {
    // With a plain `wait`, a schedule that loses the leader's notify
    // deadlocks the model. Green means the done-recheck-under-the-lock
    // protocol needs no timeout to make progress.
    check_pipeline(2, 8, true);
}

#[test]
fn three_writers_untimed_wait_has_no_lost_wakeup() {
    check_pipeline(3, 1, true);
}

/// Seeded regression: the PR-5 bug class — acking the group before its
/// WAL effects are durable. The model checker must produce a schedule
/// where a follower observes `done` and finds its seqno past the durable
/// watermark; if this test fails, the harness has gone blind.
#[test]
fn seeded_ack_before_durable_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let p = Arc::new(Pipeline::new(8));
            let mk = |n_ops| {
                Arc::new(Req {
                    n_ops,
                    want_sync: true,
                    done: AtomicBool::new(false),
                    seqno_hi: AtomicU64::new(0),
                })
            };
            let (ra, rb) = (mk(1), mk(1));
            p.commit_mx.lock().push_back(Arc::clone(&ra));
            p.commit_mx.lock().push_back(Arc::clone(&rb));

            // Buggy leader: assigns seqnos and acks the group *before*
            // appending/syncing (the durability stores land too late).
            let p2 = Arc::clone(&p);
            let (ra2, rb2) = (Arc::clone(&ra), Arc::clone(&rb));
            let leader = loom::thread::spawn(move || {
                let mut writer = p2.write_mx.lock();
                let group = drain_group(&p2);
                let base = p2.seqno.load(Ordering::Acquire);
                let mut n = 0u64;
                for r in &group {
                    n += r.n_ops;
                    r.seqno_hi.store(base + n, Ordering::Release);
                }
                for r in &group {
                    r.done.store(true, Ordering::Release); // BUG: ack first
                }
                p2.appended_hi.store(base + n, Ordering::Release);
                p2.synced_hi.store(base + n, Ordering::Release);
                p2.seqno.store(base + n, Ordering::Release);
                writer.groups += 1;
                drop(writer);
                let _q = p2.commit_mx.lock();
                p2.commit_cv.notify_all();
                drop((ra2, rb2));
            });

            // Follower: polls `done` exactly like commit_write's fast path,
            // then runs the at-ack durability check.
            let p3 = Arc::clone(&p);
            let follower = loom::thread::spawn(move || {
                while !rb.done.load(Ordering::Acquire) {
                    loom::thread::yield_now();
                }
                let hi = rb.seqno_hi.load(Ordering::Acquire);
                let durable = p3.synced_hi.load(Ordering::Acquire);
                assert!(
                    hi <= durable,
                    "acked seqno {hi} beyond the durable watermark {durable}"
                );
            });

            leader.join().expect("leader completes");
            follower.join().expect("follower completes");
        });
    }));
    let msg = match result {
        Ok(()) => panic!("model checker missed the seeded ack-before-durable bug"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .expect("counterexample report is a String"),
    };
    assert!(
        msg.contains("counterexample") && msg.contains("durable watermark"),
        "report must cite the schedule and the violated invariant: {msg}"
    );
}
