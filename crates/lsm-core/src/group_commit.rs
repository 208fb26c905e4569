//! The leader/follower group commit (RocksDB's write-thread scheme; the
//! tutorial's foreground parallelism, §2.2.5). [`GroupCommit::commit_in_group`]
//! is the one driver: the engine runs it on every queued write, and the loom
//! models below run it over WAL watermark counters. The group's commit is a
//! trait method, not a closure, so `lsm-lint` (which follows `self`-rooted
//! calls, never closures) sees the engine's locks and durable effects from
//! the driver: `write_mx → mem` for L5, no ack before the WAL append for L7.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use lsm_sync::atomic::{AtomicBool, Ordering};
use lsm_sync::{ranks, Condvar, OrderedMutex};
use lsm_types::{Error, Result};

/// One writer's request in the queue, completed by whichever leader
/// drains it.
pub(crate) struct Member<R> {
    req: R,
    /// Set (with `Release`) by the leader after the whole group committed
    /// or failed; the owning writer polls and parks on it.
    done: AtomicBool,
    /// The group's failure, when it failed: every member gets a clone of
    /// the leader's error (nothing from a failed group is applied).
    error: OnceLock<Error>,
}

impl<R> Member<R> {
    /// A pending member carrying `req`.
    pub(crate) fn new(req: R) -> Arc<Self> {
        Arc::new(Member {
            req,
            done: AtomicBool::new(false),
            error: OnceLock::new(),
        })
    }
}

impl<R> Deref for Member<R> {
    type Target = R;
    fn deref(&self) -> &R {
        &self.req
    }
}

/// The queue state one committer's writers share.
pub(crate) struct GroupQueue<R> {
    /// The writer ticket. Serializes group leaders (and the engine's
    /// `update`/`bulk_load`, which hold it themselves instead of
    /// queueing); a group publishes its seqnos atomically under it.
    pub(crate) write_mx: OrderedMutex<()>,
    /// Pending requests, oldest first.
    pub(crate) commit_mx: OrderedMutex<VecDeque<Arc<Member<R>>>>,
    /// Signalled (under `commit_mx`) when a leader finishes a group.
    commit_cv: Condvar,
    /// A group stops growing before it would pass either bound (ops,
    /// approximate bytes); its first request always joins, so an oversized
    /// batch still commits (alone).
    max_ops: usize,
    max_bytes: usize,
}

impl<R> GroupQueue<R> {
    pub(crate) fn new(max_ops: usize, max_bytes: usize) -> Self {
        GroupQueue {
            write_mx: OrderedMutex::new(ranks::DB_WRITE, ()),
            commit_mx: OrderedMutex::new(ranks::DB_COMMIT, VecDeque::new()),
            commit_cv: Condvar::new(),
            max_ops,
            max_bytes,
        }
    }
}

/// A store whose writes commit in groups through one shared queue.
pub(crate) trait GroupCommit {
    /// One writer's request.
    type Request;

    /// Whether a leader wakes the parked followers. Every committer keeps
    /// the default; the loom models turn it off to seed a lost wakeup.
    const WAKE_FOLLOWERS: bool = true;

    fn queue(&self) -> &GroupQueue<Self::Request>;

    /// What `req` counts against the group bound: (ops, approximate bytes).
    fn request_size(req: &Self::Request) -> (usize, usize);

    /// Commits one drained group while the caller holds `write_mx`. An
    /// error fails every member of the group.
    fn commit_group(&self, group: &[Arc<Member<Self::Request>>]) -> Result<()>;

    /// Commits `req` in some group; returns `Ok` once the group committed,
    /// or a clone of the leader's error. The writer enqueues, then loops: if
    /// a leader already committed it, done; at the queue front it becomes
    /// the leader — takes `write_mx`, drains a prefix, commits the group,
    /// marks every member done and wakes the rest via `commit_cv`. Else it
    /// parks (the notify happens under `commit_mx` after `done` is set, and
    /// the waiter re-checks `done` under that lock, so no wakeup is missed;
    /// the timeout is a safety net, not the progress mechanism).
    fn commit_in_group(&self, req: Self::Request) -> Result<()> {
        let queue = self.queue();
        let member = Member::new(req);
        queue.commit_mx.lock().push_back(Arc::clone(&member));

        loop {
            if member.done.load(Ordering::Acquire) {
                break;
            }
            let at_front = {
                let q = queue.commit_mx.lock();
                q.front().is_some_and(|f| Arc::ptr_eq(f, &member))
            };
            if at_front {
                // Become the leader. `write_mx` is held across the drain
                // and the group's commit: that is what makes the group one
                // durable, atomically-published unit.
                let writer = queue.write_mx.lock();
                if member.done.load(Ordering::Acquire) {
                    // The previous leader drained us while we waited for
                    // the ticket (drains always take a queue prefix).
                    break;
                }
                let group = self.drain_group();
                debug_assert!(group.iter().any(|m| Arc::ptr_eq(m, &member)));
                // lsm-lint: allow(io-under-lock)
                let result = self.commit_group(&group);
                for m in &group {
                    if let Err(e) = &result {
                        let _ = m.error.set(e.clone());
                    }
                    m.done.store(true, Ordering::Release);
                }
                drop(writer);
                if Self::WAKE_FOLLOWERS {
                    let _q = queue.commit_mx.lock();
                    queue.commit_cv.notify_all();
                }
                break; // acknowledged below like every member of the group
            }
            let mut q = queue.commit_mx.lock();
            if member.done.load(Ordering::Acquire) {
                break;
            }
            if q.front().is_some_and(|f| Arc::ptr_eq(f, &member)) {
                continue; // promoted to front while taking the lock
            }
            queue.commit_cv.wait_for(&mut q, Duration::from_millis(50));
        }
        match member.error.get() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Pops the next group off the queue: a non-empty prefix within the
    /// group bound.
    fn drain_group(&self) -> Vec<Arc<Member<Self::Request>>> {
        let queue = self.queue();
        let mut q = queue.commit_mx.lock();
        let mut group = Vec::new();
        let (mut ops, mut bytes) = (0usize, 0usize);
        while let Some(front) = q.front() {
            let (req_ops, req_bytes) = Self::request_size(front);
            if !group.is_empty()
                && (ops + req_ops > queue.max_ops || bytes + req_bytes > queue.max_bytes)
            {
                break;
            }
            ops += req_ops;
            bytes += req_bytes;
            if let Some(m) = q.pop_front() {
                group.push(m);
            }
        }
        group
    }
}

/// The driver under the model checker (`cargo test -p lsm-core --features
/// loom --lib group_commit::`), over WAL watermark counters. In every
/// schedule within the preemption bound: an acked request is durable, a
/// failed group fails its members with the leader's error class, and the
/// seqno moves by exactly the acked ops (no gaps, no double commit, nothing
/// from a failed group). Seeded twins prove the checks can fail.
#[cfg(all(test, feature = "loom"))]
mod loom_models {
    // A panic is how a model reports a counterexample.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use std::panic::{catch_unwind, AssertUnwindSafe};

    use lsm_sync::atomic::AtomicU64;

    use super::*;

    struct Req {
        n_ops: u64,
        sync: bool,
        /// Last seqno the group's leader assigned to this request.
        seqno_hi: AtomicU64,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Durable,
        /// The first group's commit fails with a transient error.
        FailFirstGroup,
        /// Seeded bug: the watermark stores land on another thread after
        /// `commit_group` returns, so the driver acks too early.
        AckBeforeDurable,
    }

    /// `WAKE = false` seeds a leader that never notifies.
    struct Wal<const WAKE: bool> {
        queue: GroupQueue<Arc<Req>>,
        mode: Mode,
        seqno: AtomicU64,
        /// Highest seqno appended / synced.
        appended_hi: Arc<AtomicU64>,
        synced_hi: Arc<AtomicU64>,
        /// Plain bookkeeping, not protocol state: no scheduling points.
        groups: std::sync::atomic::AtomicU64,
    }

    impl<const WAKE: bool> GroupCommit for Wal<WAKE> {
        type Request = Arc<Req>;
        const WAKE_FOLLOWERS: bool = WAKE;

        fn queue(&self) -> &GroupQueue<Arc<Req>> {
            &self.queue
        }

        fn request_size(req: &Arc<Req>) -> (usize, usize) {
            (req.n_ops as usize, 0)
        }

        fn commit_group(&self, group: &[Arc<Member<Arc<Req>>>]) -> Result<()> {
            let first = self.groups.fetch_add(1, Ordering::Relaxed) == 0;
            if first && self.mode == Mode::FailFirstGroup {
                return Err(Error::Transient("injected WAL append failure".into()));
            }
            let base = self.seqno.load(Ordering::Acquire);
            let (mut hi, mut sync) = (base, false);
            for m in group {
                hi += m.n_ops;
                m.seqno_hi.store(hi, Ordering::Release);
                sync |= m.sync;
            }
            let (appended, synced) = (Arc::clone(&self.appended_hi), Arc::clone(&self.synced_hi));
            let persist = move || {
                appended.store(hi, Ordering::Release);
                if sync {
                    synced.store(hi, Ordering::Release);
                }
            };
            if self.mode == Mode::AckBeforeDurable {
                // Not joined: the model still runs it to completion, in
                // every order against the acks.
                drop(loom::thread::spawn(persist));
            } else {
                persist();
            }
            // Holding `write_mx` means no other leader moved the seqno.
            assert_eq!(self.seqno.load(Ordering::Acquire), base, "two leaders");
            self.seqno.store(hi, Ordering::Release);
            Ok(())
        }
    }

    /// Explores every schedule of `writers` concurrent commits of mixed
    /// sizes and sync flags, checking each ack and the end state.
    fn check<const WAKE: bool>(writers: u64, max_ops: usize, mode: Mode, strict: bool) {
        let body = move || {
            let wal = Arc::new(Wal::<WAKE> {
                queue: GroupQueue::new(max_ops, usize::MAX),
                mode,
                seqno: AtomicU64::new(0),
                appended_hi: Arc::new(AtomicU64::new(0)),
                synced_hi: Arc::new(AtomicU64::new(0)),
                groups: Default::default(),
            });
            let writer = |i: u64| {
                let wal = Arc::clone(&wal);
                loom::thread::spawn(move || {
                    let (n_ops, sync) = (i % 2 + 1, i % 2 == 0);
                    let seqno_hi = AtomicU64::new(0);
                    let req = Arc::new(Req {
                        n_ops,
                        sync,
                        seqno_hi,
                    });
                    if let Err(e) = wal.commit_in_group(Arc::clone(&req)) {
                        assert!(mode == Mode::FailFirstGroup && e.is_transient(), "{e}");
                        return 0;
                    }
                    let hi = req.seqno_hi.load(Ordering::Acquire);
                    let watermark = if sync {
                        &wal.synced_hi
                    } else {
                        &wal.appended_hi
                    };
                    let durable = watermark.load(Ordering::Acquire);
                    assert!(
                        hi <= durable,
                        "acked seqno {hi} beyond the durable watermark {durable}"
                    );
                    n_ops
                })
            };
            let handles: Vec<_> = (0..writers).map(writer).collect();
            let acked: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(
                wal.seqno.load(Ordering::Acquire),
                acked,
                "seqno vs acked ops"
            );
            assert!(wal.queue.commit_mx.lock().is_empty(), "queue fully drained");
        };
        let mut builder = loom::model::Builder::new();
        builder.strict_waits = strict;
        builder.check(body);
    }

    /// The report of a model run that must find a counterexample.
    fn counterexample(run: impl FnOnce()) -> String {
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(()) => panic!("the model checker missed the seeded bug"),
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
        }
    }

    #[test]
    fn two_writers_one_group() {
        check::<true>(2, 8, Mode::Durable, false);
    }

    /// A one-op bound hands leadership over after every request,
    /// exercising front promotion after a partial drain.
    #[test]
    fn two_writers_forced_separate_groups() {
        check::<true>(2, 1, Mode::Durable, false);
    }

    #[test]
    fn three_writers_mixed_groups() {
        check::<true>(3, 2, Mode::Durable, false);
    }

    #[test]
    fn a_failed_group_fails_every_member_with_the_leaders_error_class() {
        check::<true>(2, 8, Mode::FailFirstGroup, false);
        check::<true>(3, 2, Mode::FailFirstGroup, false);
    }

    /// Strict waits never fire a timeout, so a lost notify deadlocks: green
    /// means the protocol needs no timeout to make progress.
    #[test]
    fn two_writers_no_lost_wakeup_under_strict_waits() {
        check::<true>(2, 8, Mode::Durable, true);
    }

    #[test]
    fn three_writers_no_lost_wakeup_under_strict_waits() {
        check::<true>(3, 1, Mode::Durable, true);
    }

    /// A leader that never notifies passes when timeouts fire at
    /// quiescence; strict waits must report the deadlock.
    #[test]
    fn seeded_missing_notify_is_caught_only_under_strict_waits() {
        check::<false>(2, 8, Mode::Durable, false);
        let msg = counterexample(|| check::<false>(2, 8, Mode::Durable, true));
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn seeded_ack_before_durable_is_caught() {
        let msg = counterexample(|| check::<true>(2, 8, Mode::AckBeforeDurable, false));
        assert!(msg.contains("durable watermark"), "{msg}");
    }
}
