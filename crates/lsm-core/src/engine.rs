//! The reusable engine instance: one memtable + WAL + commit queue +
//! maintenance pipeline + manifest. A [`crate::Db`] owns one `Engine` per
//! shard (one by default) and routes every call by key. The engine is
//! crate-private on purpose: every supported construction path goes
//! through [`crate::DbBuilder`].

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lsm_compaction::{plan_observed, CompactionPlan, Granularity, PickPolicy};
use lsm_memtable::{make_memtable, MemTable};
use lsm_obs::{
    key_hash, recovery_phase, slow_op, stall_reason, EventKind, HistKind, ObsHandle, OpKind,
    ReadProbe,
};
use lsm_sstable::{ReadCtx, Table};
use lsm_storage::{wal, Backend, BlockCache, FileId};
use lsm_sync::{ranks, Condvar, OrderedMutex, OrderedRwLock};
use lsm_types::encoding::{put_varint, Decoder};
use lsm_types::{
    EntryKind, Error, InternalEntry, InternalKey, KeyRange, Result, SeqNo, UserKey, Value,
};

use crate::compact::{execute_plan, GcRules, OutputWriter};
use crate::db::{fg_write, DbScanIter, ReadOptions, WriteBatch, WriteOptions};
use crate::manifest::Manifest;
use crate::options::Options;
use crate::scan::{build_scan_merge, VisibleIter};
use crate::stats::DbStats;
use crate::version::{Run, Version, VersionEdit};

/// One write buffer plus its side state: range-tombstone list and WAL
/// segment.
pub(crate) struct MemHandle {
    pub(crate) id: u64,
    pub(crate) table: Box<dyn MemTable>,
    pub(crate) rts: OrderedRwLock<Vec<(UserKey, UserKey, SeqNo)>>,
    pub(crate) wal: Option<FileId>,
}

impl MemHandle {
    /// The only place an entry enters a memtable, for a live commit and for
    /// WAL replay alike: a range tombstone is also noted in the side list
    /// reads consult for coverage.
    pub(crate) fn apply(&self, entry: InternalEntry) {
        if let Some(end) = entry.range_delete_end() {
            self.rts
                .write()
                .push((entry.user_key().clone(), end, entry.seqno()));
        }
        self.table.insert(entry);
    }

    pub(crate) fn max_rt_covering(&self, key: &[u8], snapshot: SeqNo) -> SeqNo {
        self.rts
            .read()
            .iter()
            .filter(|(start, end, seqno)| {
                *seqno <= snapshot && start.as_bytes() <= key && key < end.as_bytes()
            })
            .map(|(_, _, s)| *s)
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn rt_list(&self) -> Vec<(UserKey, UserKey, SeqNo)> {
        self.rts.read().clone()
    }
}

pub(crate) struct MemState {
    pub(crate) active: Arc<MemHandle>,
    /// Frozen memtables, oldest first.
    pub(crate) immutables: VecDeque<Arc<MemHandle>>,
    pub(crate) next_id: u64,
}

pub(crate) struct Scheduler {
    /// Levels currently involved in a compaction.
    pub(crate) busy_levels: HashSet<usize>,
    /// Memtable ids currently being flushed.
    pub(crate) flushing: HashSet<u64>,
    /// Per-level round-robin cursors (last compacted max key).
    pub(crate) cursors: Vec<Option<Vec<u8>>>,
}

/// What recovery found and did while opening a database from a manifest.
///
/// Aggregated across every WAL segment the manifest referenced; the crash
/// harness asserts on these numbers (e.g. that a post-power-cut reopen
/// truncated the torn tail instead of failing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// WAL segments found and replayed.
    pub segments_replayed: usize,
    /// WAL segments the manifest referenced but the backend no longer had
    /// (deleted after their flush committed, before the manifest caught up).
    pub segments_missing: usize,
    /// WAL records applied to the rebuilt memtable.
    pub records_recovered: usize,
    /// Epoch-tagged WAL records discarded because their cross-shard commit
    /// epoch never committed (see the DESIGN.md "Sharding" section). Always
    /// zero unless the [`crate::Db`] has several shards.
    pub records_discarded: usize,
    /// Bytes discarded across all torn WAL tails.
    pub wal_bytes_truncated: u64,
    /// Segments that ended in a torn record (power cut mid-append).
    pub torn_segments: usize,
}

/// Name of the backend metadata blob holding the serialized manifest.
pub(crate) const MANIFEST_META: &str = "MANIFEST";

/// In-band marker prefix for epoch-tagged WAL records. A canonical LEB128
/// varint never emits a `0x00` continuation group, and every plain record
/// starts with a varint, so `[0xFF, 0x00]` cannot begin an untagged record
/// — the tag is unambiguous without a format version bump.
pub(crate) const EPOCH_TAG: [u8; 2] = [0xFF, 0x00];

/// Prefixes `payload` with the epoch tag for cross-shard batch records.
pub(crate) fn encode_epoch_tag(payload: &mut Vec<u8>, epoch: u64) {
    payload.extend_from_slice(&EPOCH_TAG);
    put_varint(payload, epoch);
}

/// Splits a replayed WAL record into its optional epoch tag and the entry
/// body. Untagged records pass through unchanged.
pub(crate) fn split_epoch_tag(record: &[u8]) -> Result<(Option<u64>, &[u8])> {
    if record.len() < 2 || record[..2] != EPOCH_TAG {
        return Ok((None, record));
    }
    let mut dec = Decoder::new(&record[2..]);
    let epoch = dec.varint()?;
    Ok((Some(epoch), dec.rest()))
}

/// Which cross-shard commit epochs recovery may keep. Built by
/// [`crate::DbBuilder`] from the coordinator's epoch log and handed
/// to every shard's recovery: tagged records whose epoch is absent belong
/// to a batch that never fully committed and are discarded.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochFilter {
    pub(crate) committed: Arc<HashSet<u64>>,
}

impl EpochFilter {
    pub(crate) fn is_committed(&self, epoch: u64) -> bool {
        self.committed.contains(&epoch)
    }
}

/// One writer's pending work in the commit queue: its operations plus the
/// durability it requires, completed by whichever leader drains it.
pub(crate) struct CommitRequest {
    pub(crate) ops: Vec<BatchOp>,
    /// Include this request in the group's WAL append.
    pub(crate) wal: bool,
    /// This request requires the group to sync before acknowledgement.
    pub(crate) sync: bool,
    /// Cross-shard commit epoch: when set, the request's WAL record is
    /// prefixed with [`EPOCH_TAG`] so recovery can discard it unless the
    /// coordinator recorded the epoch as committed.
    pub(crate) epoch: Option<u64>,
    /// Set (with `Release`) by the leader after the whole group committed
    /// or failed; the owning writer spins/waits on it.
    pub(crate) done: AtomicBool,
    /// The group's failure, when it failed (every member sees the same
    /// error — nothing from a failed group reaches the memtable).
    pub(crate) error: OnceLock<Error>,
}

/// A copy of `e` for another member of the same failed commit group: the
/// same variant and message, so `is_transient()`/`is_corruption()` answer
/// alike for every writer (`io::Error` is not `Clone`; its kind and text
/// are kept).
fn same_error(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Corruption(msg) => Error::Corruption(msg.clone()),
        Error::NotFound(msg) => Error::NotFound(msg.clone()),
        Error::InvalidArgument(msg) => Error::InvalidArgument(msg.clone()),
        Error::ShuttingDown => Error::ShuttingDown,
        Error::Transient(msg) => Error::Transient(msg.clone()),
    }
}

/// One mutation as the API hands it to the commit path: an entry that has
/// no seqno yet (`value` is a put's value, a range delete's end key, empty
/// otherwise). The bytes were copied once, at the API boundary, into the
/// shared buffers the memtable keeps (an adopted `Vec` key would cost its
/// comparisons a second pointer chase); the commit clones the handles.
#[derive(Clone, Debug)]
pub(crate) struct BatchOp {
    pub(crate) kind: EntryKind,
    pub(crate) key: UserKey,
    pub(crate) value: Value,
}

impl BatchOp {
    /// Key plus value (or range end) bytes the caller handed in.
    pub(crate) fn user_bytes(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

/// A self-contained storage engine instance: memtable stack, WAL, group
/// commit queue, compaction scheduler, and manifest persistence. Exactly
/// the former `DbInner`, extracted so one `Db` can own several.
pub(crate) struct Engine {
    pub(crate) opts: Options,
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) cache: Option<Arc<BlockCache>>,
    pub(crate) stats: DbStats,
    /// Last assigned sequence number.
    pub(crate) seqno: AtomicU64,
    /// Logical clock (one tick per write).
    pub(crate) clock: AtomicU64,
    pub(crate) mem: OrderedRwLock<MemState>,
    /// Current version; the mutex doubles as the install lock.
    pub(crate) current: OrderedMutex<Arc<Version>>,
    pub(crate) snapshots: OrderedMutex<BTreeMap<SeqNo, usize>>,
    pub(crate) sched: OrderedMutex<Scheduler>,
    /// Serializes group-commit leaders (and `update`/`bulk_load`, which
    /// hold it themselves instead of queueing); groups publish their
    /// sequence numbers atomically under it.
    pub(crate) write_mx: OrderedMutex<()>,
    /// Pending group-commit requests, oldest first. Writers enqueue here
    /// and the front writer becomes the leader: it takes `write_mx`, drains
    /// a prefix of this queue (bounded by `max_group_ops`/`max_group_bytes`),
    /// commits the whole group with one WAL append and at most one sync,
    /// then wakes the followers via `commit_cv`.
    pub(crate) commit_mx: OrderedMutex<VecDeque<Arc<CommitRequest>>>,
    /// Signalled (under `commit_mx`) when a leader finishes a group.
    pub(crate) commit_cv: Condvar,
    /// Manifest persistence ticket: build-manifest + `put_meta` happen as
    /// one unit under this lock, so a save built from older state can
    /// never land after (and overwrite) a save that already recorded a
    /// newer WAL segment — which would lose acknowledged writes at the
    /// next recovery.
    pub(crate) manifest_mx: OrderedMutex<()>,
    /// Signalled whenever background work may exist.
    pub(crate) work_mx: OrderedMutex<bool>,
    pub(crate) work_cv: Condvar,
    /// Signalled (always while holding `stall_mx`, see `notify_progress`)
    /// whenever maintenance makes observable progress: the immutable queue
    /// shrinks, a flush or compaction commits, or a background error lands.
    pub(crate) stall_mx: OrderedMutex<()>,
    pub(crate) stall_cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) bg_error: OrderedMutex<Option<String>>,
    /// When set, every structural change rewrites the backend's `MANIFEST`
    /// metadata blob (see [`MANIFEST_META`]).
    pub(crate) persist_manifest: bool,
    /// Latency histograms + structured event trace (atomics only — never
    /// part of the lock hierarchy, safe to call from any lock scope).
    pub(crate) obs: ObsHandle,
    /// What recovery did at open time (`None` for a fresh database).
    pub(crate) recovery: OrderedMutex<Option<RecoverySummary>>,
    /// Count of in-flight cross-shard epoch commits touching this engine.
    /// While non-zero, `freeze_active` refuses to freeze: a flush would
    /// persist epoch-tagged entries into SSTs, where recovery could no
    /// longer discard them if the epoch never commits. Incremented and
    /// decremented by the `Db` around each epoch window.
    pub(crate) epoch_pins: AtomicU64,
}

impl Engine {
    pub(crate) fn new(
        backend: Arc<dyn Backend>,
        opts: Options,
        cache: Option<Arc<BlockCache>>,
        persist_manifest: bool,
        obs: ObsHandle,
    ) -> Result<Arc<Engine>> {
        let wal_id = if opts.wal {
            Some(backend.create_appendable()?)
        } else {
            None
        };
        let active = Arc::new(MemHandle {
            id: 0,
            table: make_memtable(opts.memtable_kind),
            rts: OrderedRwLock::new(ranks::MEM_RTS, Vec::new()),
            wal: wal_id,
        });
        Ok(Arc::new(Engine {
            opts,
            backend,
            cache,
            stats: DbStats::default(),
            seqno: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            mem: OrderedRwLock::new(
                ranks::DB_MEM,
                MemState {
                    active,
                    immutables: VecDeque::new(),
                    next_id: 1,
                },
            ),
            current: OrderedMutex::new(ranks::DB_CURRENT, Arc::new(Version::default())),
            snapshots: OrderedMutex::new(ranks::DB_SNAPSHOTS, BTreeMap::new()),
            sched: OrderedMutex::new(
                ranks::DB_SCHED,
                Scheduler {
                    busy_levels: HashSet::new(),
                    flushing: HashSet::new(),
                    cursors: Vec::new(),
                },
            ),
            write_mx: OrderedMutex::new(ranks::DB_WRITE, ()),
            commit_mx: OrderedMutex::new(ranks::DB_COMMIT, VecDeque::new()),
            commit_cv: Condvar::new(),
            manifest_mx: OrderedMutex::new(ranks::DB_MANIFEST, ()),
            work_mx: OrderedMutex::new(ranks::DB_WORK, false),
            work_cv: Condvar::new(),
            stall_mx: OrderedMutex::new(ranks::DB_STALL, ()),
            stall_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            bg_error: OrderedMutex::new(ranks::DB_BG_ERROR, None),
            persist_manifest,
            obs,
            recovery: OrderedMutex::new(ranks::DB_RECOVERY, None),
            epoch_pins: AtomicU64::new(0),
        }))
    }

    pub(crate) fn recover(
        backend: Arc<dyn Backend>,
        opts: Options,
        cache: Option<Arc<BlockCache>>,
        manifest_bytes: &[u8],
        persist_manifest: bool,
        obs: ObsHandle,
        epoch_filter: Option<&EpochFilter>,
    ) -> Result<Arc<Engine>> {
        let manifest = Manifest::decode(manifest_bytes)?;
        let inner = Engine::new(backend.clone(), opts, cache, persist_manifest, obs)?;
        inner.obs.emit(
            EventKind::RecoveryPhase,
            None,
            recovery_phase::MANIFEST,
            manifest.wal_segments.len() as u64,
        );

        // Rebuild the tree. Hot-level tables (L0/L1) come back with their
        // index/filter partitions pinned, same as freshly flushed ones.
        let mut levels = Vec::with_capacity(manifest.levels.len());
        for (level_idx, level) in manifest.levels.iter().enumerate() {
            let mut runs = Vec::with_capacity(level.len());
            for run_ids in level {
                let mut tables = Vec::with_capacity(run_ids.len());
                for &id in run_ids {
                    tables.push(Table::open_pinned(
                        backend.clone(),
                        id,
                        inner.cache.clone(),
                        inner.pin_for_level(level_idx),
                    )?);
                }
                runs.push(Run::new(tables));
            }
            levels.push(runs);
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        *inner.current.lock() = Arc::new(Version { levels });
        // Recovery runs single-threaded before `open` returns: no writer
        // can observe this seqno until the re-log below has restored WAL
        // durability for every replayed entry.
        // lsm-lint: allow(durability-order)
        inner.seqno.store(manifest.next_seqno, Ordering::Release);
        inner.clock.store(manifest.next_ts, Ordering::Release);

        // Replay WAL segments (oldest first) into the active memtable.
        // A segment may be gone (its flush committed, then the crash hit
        // before the manifest dropped the reference) — that is not data
        // loss, the entries live in a table. A torn tail is truncated per
        // the standard contract: bytes past the last intact record were
        // never acknowledged as durable. Epoch-tagged records (cross-shard
        // batches) are kept only if the coordinator's epoch log marks their
        // epoch committed; a sharded reopen passes that log in as
        // `epoch_filter`, a plain reopen keeps every tagged record (the
        // tag is stripped either way).
        let mut summary = RecoverySummary::default();
        let mut max_seqno = manifest.next_seqno;
        let mut max_ts = manifest.next_ts;
        let active = Arc::clone(&inner.mem.read().active);
        for &segment in &manifest.wal_segments {
            let report =
                match wal::replay(backend.as_ref(), segment, wal::RecoveryMode::TruncateTail) {
                    Ok(r) => r,
                    Err(Error::NotFound(_)) => {
                        summary.segments_missing += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
            summary.segments_replayed += 1;
            summary.wal_bytes_truncated += report.bytes_truncated;
            if !report.clean() {
                summary.torn_segments += 1;
            }
            for record in &report.records {
                let (epoch, body) = split_epoch_tag(record)?;
                if let (Some(e), Some(filter)) = (epoch, epoch_filter) {
                    if !filter.is_committed(e) {
                        summary.records_discarded += 1;
                        continue;
                    }
                }
                summary.records_recovered += 1;
                let mut dec = Decoder::new(body);
                while !dec.is_empty() {
                    let entry = InternalEntry::decode_from(&mut dec)?;
                    max_seqno = max_seqno.max(entry.seqno());
                    max_ts = max_ts.max(entry.ts + 1);
                    active.apply(entry);
                }
            }
        }
        // Single-threaded recovery: the replayed entries are re-logged
        // into the fresh segment (and the old segments kept) before any
        // external writer can commit.
        // lsm-lint: allow(durability-order)
        inner.seqno.store(max_seqno, Ordering::Release);
        inner.clock.store(max_ts, Ordering::Release);
        inner.obs.emit(
            EventKind::RecoveryPhase,
            None,
            recovery_phase::WAL_REPLAY,
            summary.records_recovered as u64,
        );
        *inner.recovery.lock() = Some(summary);

        // Re-log the replayed entries into the fresh active WAL (synced, so
        // recovered data is durable again before we drop the old segments),
        // persist a manifest referencing the fresh WAL, and only then
        // delete the old segments — in that order, so a crash at any point
        // leaves a manifest whose WAL references still hold the data.
        // Surviving epoch-tagged entries are re-logged untagged: their
        // epoch committed, so they are ordinary durable writes from here on.
        if let Some(wal_id) = active.wal {
            let entries = active.table.sorted_entries();
            inner.obs.emit(
                EventKind::RecoveryPhase,
                None,
                recovery_phase::RELOG,
                entries.len() as u64,
            );
            if !entries.is_empty() {
                let mut payload = Vec::new();
                for e in &entries {
                    e.encode_into(&mut payload);
                }
                let writer = wal::WalWriter::open(inner.backend.as_ref(), wal_id);
                writer.append(&payload)?;
                if inner.opts.wal_sync {
                    writer.sync()?;
                }
            }
        }
        inner.save_manifest()?;
        if active.wal.is_some() {
            for &segment in &manifest.wal_segments {
                match inner.backend.delete(segment) {
                    Ok(()) | Err(Error::NotFound(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(inner)
    }

    pub(crate) fn check_bg_error(&self) -> Result<()> {
        if let Some(msg) = self.bg_error.lock().as_ref() {
            return Err(Error::Corruption(format!("background error: {msg}")));
        }
        Ok(())
    }

    /// Records a background-class error (used by a `Db` with shards when a
    /// cross-shard commit could not be recorded on the coordinator, so no
    /// further acknowledged write builds on a maybe-discarded prefix).
    pub(crate) fn set_bg_error(&self, msg: &str) {
        self.bg_error.lock().get_or_insert_with(|| msg.to_string());
        self.notify_progress();
    }

    pub(crate) fn kick_work(&self) {
        let mut flag = self.work_mx.lock();
        *flag = true;
        self.work_cv.notify_all();
    }

    /// Wakes everything parked on maintenance progress: stalled writers,
    /// `wait_idle`, and flush commit-order waiters. The notification happens
    /// under `stall_mx`, pairing with waiters that re-check their predicate
    /// under the same lock — that handshake is what eliminates missed
    /// wakeups and with them any need for polling loops.
    pub(crate) fn notify_progress(&self) {
        let _guard = self.stall_mx.lock();
        self.stall_cv.notify_all();
    }

    /// No immutables queued, no compaction plan pending, nothing running.
    pub(crate) fn is_idle(&self) -> bool {
        let mem_idle = self.mem.read().immutables.is_empty();
        let plan_idle = self.next_plan().is_none();
        let busy = {
            let sched = self.sched.lock();
            !sched.busy_levels.is_empty() || !sched.flushing.is_empty()
        };
        mem_idle && plan_idle && !busy
    }

    // ---------------------------------------------------------------- write

    /// The group-commit write pipeline (RocksDB-style leader/follower).
    ///
    /// The writer enqueues its request, then loops: if a leader already
    /// committed it, done; if it sits at the queue front, it becomes the
    /// leader — takes `write_mx`, drains a prefix of the queue, commits the
    /// whole group ([`Engine::commit_group`]), marks every member done and
    /// wakes the rest via `commit_cv`. Otherwise it parks on the condvar
    /// (notification happens under `commit_mx` after `done` is set, and the
    /// waiter re-checks `done` under the same lock, so no wakeup is missed;
    /// the timeout is a safety net, not the progress mechanism).
    ///
    /// `epoch` is `Some` only for a sub-batch of a cross-shard batch: the
    /// request's WAL record gets the epoch tag so recovery can make the
    /// whole multi-shard batch all-or-none.
    pub(crate) fn commit_write(
        &self,
        ops: Vec<BatchOp>,
        w: &WriteOptions,
        epoch: Option<u64>,
    ) -> Result<()> {
        self.check_bg_error()?;
        if self.shutdown.load(Ordering::Acquire) {
            return Err(Error::ShuttingDown);
        }
        self.maybe_stall()?;

        let req = self.request(ops, w, epoch);
        // Queue-wait is per-request bookkeeping on a sub-microsecond path:
        // decide sampling once at enqueue so unsampled requests skip both
        // clock reads, not just the histogram write — and read the obs
        // clock, which is a fraction of an `Instant::now` here.
        let enqueued = self
            .obs
            .fg_sample_weight()
            .map(|weight| (self.obs.now_nanos(), weight));
        self.commit_mx.lock().push_back(Arc::clone(&req));

        loop {
            if req.done.load(Ordering::Acquire) {
                break;
            }
            let at_front = {
                let q = self.commit_mx.lock();
                q.front().is_some_and(|f| Arc::ptr_eq(f, &req))
            };
            if at_front {
                // Become the leader. `write_mx` is held across the drain,
                // the WAL append, and every memtable insert: that is what
                // makes the group one durable, atomically-published unit.
                let writer = self.write_mx.lock();
                if req.done.load(Ordering::Acquire) {
                    // The previous leader drained us while we waited for
                    // the ticket (drains always take a queue prefix).
                    break;
                }
                let group = self.drain_group();
                debug_assert!(group.iter().any(|r| Arc::ptr_eq(r, &req)));
                // lsm-lint: allow(io-under-lock)
                let result = self.commit_group(&group);
                for r in &group {
                    if let Err(e) = &result {
                        let _ = r.error.set(same_error(e));
                    }
                    r.done.store(true, Ordering::Release);
                }
                drop(writer);
                {
                    let _q = self.commit_mx.lock();
                    self.commit_cv.notify_all();
                }
                break; // acknowledged below like every member of the group
            }
            let mut q = self.commit_mx.lock();
            if req.done.load(Ordering::Acquire) {
                break;
            }
            if q.front().is_some_and(|f| Arc::ptr_eq(f, &req)) {
                continue; // promoted to front while taking the lock
            }
            self.commit_cv.wait_for(&mut q, Duration::from_millis(50));
        }
        if let Some((t, weight)) = enqueued {
            self.obs.record_weighted(
                HistKind::GroupWait,
                self.obs.now_nanos().saturating_sub(t),
                weight,
            );
        }
        if let Some(e) = req.error.get() {
            return Err(same_error(e));
        }
        self.maybe_freeze()
    }

    /// The commit behind every routed write: [`fg_write`] through the
    /// group-commit queue. `epoch` is set only for a sub-batch of a
    /// cross-shard batch (see [`Engine::commit_write`]).
    pub(crate) fn commit_batch(
        &self,
        batch: WriteBatch,
        w: &WriteOptions,
        epoch: Option<u64>,
    ) -> Result<()> {
        fg_write(self, batch, |ops| self.commit_write(ops, w, epoch))
    }

    /// [`Db::update`](crate::Db::update) on this shard: the read and the
    /// write happen under the writer ticket, so concurrent `update`s to the
    /// same key never lose increments.
    pub(crate) fn update(
        &self,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        self.check_bg_error()?;
        self.maybe_stall()?;
        {
            // Holding the writer ticket from the read to the publish is the
            // read-modify-write contract: no commit lands in between.
            let _writer = self.write_mx.lock();
            let snapshot = self.seqno.load(Ordering::Acquire);
            let current = self.get(key, snapshot, &mut ReadCtx::default())?;
            let mut batch = WriteBatch::new();
            match f(current.as_deref()) {
                Some(new) => batch.push(EntryKind::Put, key, new.into()),
                None if current.is_some() => batch.delete(key),
                None => &mut batch, // nothing to delete: an empty batch commits nothing
            };
            // The result commits as a one-request group under the ticket
            // already held, which is exactly what a queue leader holds.
            fg_write(self, batch, |ops| {
                let req = self.request(ops, &WriteOptions::default(), None);
                // lsm-lint: allow(io-under-lock)
                self.commit_group(&[req])
            })?;
        }
        self.maybe_freeze()
    }

    /// [`Db::bulk_load`](crate::Db::bulk_load) on a one-shard database.
    pub(crate) fn bulk_load<I>(&self, pairs: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let _writer = self.write_mx.lock();
        {
            let mem = self.mem.read();
            if !mem.active.table.is_empty() || !mem.immutables.is_empty() {
                return Err(Error::InvalidArgument(
                    "bulk_load requires empty memtables (flush first)".into(),
                ));
            }
        }
        let base = self.seqno.load(Ordering::Acquire);
        let ts = self.clock.load(Ordering::Acquire);
        let version = self.current.lock().clone();
        // Lands as a new run at the deepest occupied level.
        let last_level = version
            .levels
            .iter()
            .rposition(|l| !l.is_empty())
            .unwrap_or(0);

        let mut pairs = pairs.into_iter();
        let (mut count, mut bytes) = (0u64, 0u64);
        let mut last_key: Option<UserKey> = None;
        let mut ascending = true;
        let writer = OutputWriter {
            warm_cache: false,
            ..self.output_writer(&version, last_level)
        };
        // Bulk load owns the writer ticket end-to-end by design.
        // lsm-lint: allow(io-under-lock)
        let written = writer.write(
            || {
                let Some((key, value)) = pairs.next() else {
                    return Ok(None);
                };
                if last_key.as_ref().is_some_and(|l| l.as_bytes() >= &key[..]) {
                    // The stream ends here; what it wrote is withdrawn below.
                    ascending = false;
                    return Ok(None);
                }
                count += 1;
                bytes += (key.len() + value.len()) as u64;
                let key = UserKey::from(key);
                last_key = Some(key.clone());
                Ok(Some(InternalEntry::put(key, value, base + count, ts)))
            },
            // Unique keys, one version each: nothing for GC to drop.
            GcRules {
                snapshots: &[],
                bottommost: false,
                range_tombstones: Vec::new(),
                may_drop_range_tombstone: &|_| false,
            },
            u64::MAX,
        )?;
        let loaded = KeyRange::union_all(written.tables.iter().map(|t| &t.meta().key_range));
        let overlaps = loaded.is_some_and(|loaded| {
            version
                .all_tables()
                .any(|t| t.meta().key_range.overlaps(&loaded))
        });
        if !ascending || overlaps {
            for t in &written.tables {
                t.mark_obsolete();
            }
            return Err(Error::InvalidArgument(if ascending {
                "bulk_load key range overlaps existing data".into()
            } else {
                "bulk_load input must be strictly ascending".into()
            }));
        }
        if written.tables.is_empty() {
            return Ok(());
        }
        {
            let mut current = self.current.lock();
            let edit = VersionEdit {
                add_runs: vec![(last_level, Run::new(written.tables))],
                ..Default::default()
            };
            *current = Arc::new(edit.apply(current.as_ref()));
        }
        self.stats.puts.fetch_add(count, Ordering::Relaxed);
        self.stats.user_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats
            .flush_bytes
            .fetch_add(written.bytes_written, Ordering::Relaxed);
        self.clock.fetch_add(count, Ordering::AcqRel);
        self.seqno.store(base + count, Ordering::Release);
        // Bulk load owns the writer ticket end-to-end by design.
        // lsm-lint: allow(io-under-lock)
        self.save_manifest()?;
        Ok(())
    }

    /// One writer's request: its ops plus the durability `w` asks for.
    pub(crate) fn request(
        &self,
        ops: Vec<BatchOp>,
        w: &WriteOptions,
        epoch: Option<u64>,
    ) -> Arc<CommitRequest> {
        Arc::new(CommitRequest {
            ops,
            wal: self.opts.wal && !w.no_wal,
            sync: w.sync.unwrap_or(self.opts.wal_sync),
            epoch,
            done: AtomicBool::new(false),
            error: OnceLock::new(),
        })
    }

    /// Pops the next commit group off the queue: a non-empty prefix bounded
    /// by `max_group_ops`/`max_group_bytes`. The first request always joins
    /// regardless of size, so an oversized batch still commits (alone).
    pub(crate) fn drain_group(&self) -> Vec<Arc<CommitRequest>> {
        let mut q = self.commit_mx.lock();
        let mut group = Vec::new();
        let mut ops = 0usize;
        let mut bytes = 0usize;
        while let Some(front) = q.front() {
            let req_ops = front.ops.len();
            // Approximate encoded size: payload bytes plus a small per-entry
            // framing allowance.
            let req_bytes: usize = front.ops.iter().map(|op| op.user_bytes() + 16).sum();
            if !group.is_empty()
                && (ops + req_ops > self.opts.max_group_ops
                    || bytes + req_bytes > self.opts.max_group_bytes)
            {
                break;
            }
            ops += req_ops;
            bytes += req_bytes;
            if let Some(r) = q.pop_front() {
                group.push(r);
            }
        }
        group
    }

    /// Commits one drained group while the caller holds `write_mx`: builds
    /// every request's entries over one contiguous seqno range, performs
    /// **one** WAL append (each request is its own framed record inside it,
    /// so torn-tail truncation keeps requests all-or-nothing) and **at most
    /// one** sync, applies everything to the memtable, then publishes the
    /// group's last seqno so the whole group becomes visible as a unit.
    ///
    /// Any failure before the memtable applies fails the whole group with
    /// nothing applied, preserving acknowledged == durable.
    pub(crate) fn commit_group(&self, group: &[Arc<CommitRequest>]) -> Result<()> {
        // Per-group bookkeeping samples 1-in-FG_SAMPLE like the foreground
        // ops: an uncontended group is one sub-microsecond put, and timing
        // every one of them would tax the very path being measured. A
        // sampled group is also a span, so WAL rotations triggered by the
        // freeze it causes nest under it in the trace — opened with the
        // same clock reading that starts the latency sample.
        let started = self
            .obs
            .fg_sample_weight()
            .map(|weight| (self.obs.now_nanos(), weight));
        let span = started.map(|(t0, _)| {
            self.obs
                .span_begin_at(t0, EventKind::GroupCommitStart, None, group.len() as u64, 0)
        });
        let mut committed = (0u64, 0u64);
        let result = self.commit_group_inner(group, started, &mut committed);
        if let (Some((t0, weight)), Some(span)) = (started, span) {
            // One clock read closes both the latency sample and the span.
            let t1 = self.obs.now_nanos();
            if result.is_ok() {
                self.obs
                    .record_weighted(HistKind::GroupCommit, t1.saturating_sub(t0), weight);
            }
            self.obs.span_end_at(
                t1,
                span,
                EventKind::GroupCommitEnd,
                None,
                committed.0,
                committed.1,
            );
        }
        result
    }

    fn commit_group_inner(
        &self,
        group: &[Arc<CommitRequest>],
        started: Option<(u64, u64)>,
        committed: &mut (u64, u64),
    ) -> Result<()> {
        let mem = self.mem.read();
        let base = self.seqno.load(Ordering::Acquire);
        let ts0 = self.clock.load(Ordering::Acquire);

        let mut entries: Vec<InternalEntry> = Vec::new();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut want_sync = false;
        let mut i: u64 = 0;
        for req in group {
            let start_idx = entries.len();
            for op in &req.ops {
                entries.push(InternalEntry {
                    key: InternalKey::new(op.key.clone(), base + 1 + i, op.kind),
                    value: op.value.clone(),
                    ts: ts0 + i,
                });
                i += 1;
            }
            if req.wal && mem.active.wal.is_some() {
                let mut payload = Vec::new();
                if let Some(epoch) = req.epoch {
                    encode_epoch_tag(&mut payload, epoch);
                }
                for e in &entries[start_idx..] {
                    e.encode_into(&mut payload);
                }
                payloads.push(payload);
                want_sync |= req.sync;
            }
        }
        let n = i;
        if n == 0 {
            return Ok(());
        }
        committed.0 = n;
        committed.1 = payloads.iter().map(|p| p.len() as u64).sum();
        if let Some(wal_id) = mem.active.wal {
            if !payloads.is_empty() {
                // The WAL append must happen under `mem` so the segment
                // cannot be frozen/deleted between append and insert.
                // lsm-lint: allow(io-under-lock)
                let writer = wal::WalWriter::open(self.backend.as_ref(), wal_id);
                // lsm-lint: allow(io-under-lock)
                writer.append_records(&payloads)?;
                self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
                if want_sync {
                    // Acknowledged == durable: the group errors (and is not
                    // applied to the memtable) if the sync fails.
                    // lsm-lint: allow(io-under-lock)
                    writer.sync()?;
                    self.stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for entry in entries {
            debug_assert!(entry.seqno() > base && entry.seqno() <= base + n);
            mem.active.apply(entry);
        }
        self.clock.fetch_add(n, Ordering::AcqRel);
        // Publish: the group becomes visible as a unit.
        self.seqno.store(base + n, Ordering::Release);
        drop(mem);

        self.stats.group_commits.fetch_add(1, Ordering::Relaxed);
        // The commit latency itself is recorded by the wrapper, which
        // closes the span with the same clock read.
        if let Some((_, weight)) = started {
            self.obs.record_weighted(HistKind::GroupSize, n, weight);
        }
        Ok(())
    }

    /// Blocks (or inline-maintains) while the immutable queue is full.
    /// Each stall is a span carrying its classified reason, and every
    /// waited chunk lands in that reason's stalled-time histogram — so a
    /// trace shows *why* writers stopped, not just that they did.
    pub(crate) fn maybe_stall(&self) -> Result<()> {
        let mut span: Option<(lsm_obs::SpanId, u64)> = None;
        let mut total_waited = 0u64;
        let result = loop {
            let queued = self.mem.read().immutables.len();
            if queued < self.opts.max_immutable_memtables {
                break Ok(());
            }
            let reason = self.classify_stall();
            if span.is_none() {
                span = Some((
                    self.obs
                        .span_begin(EventKind::StallBegin, None, queued as u64, reason),
                    reason,
                ));
            }
            let started = Instant::now();
            self.stats.stall_count.fetch_add(1, Ordering::Relaxed);
            let step = if self.opts.background_threads == 0 {
                self.drain_maintenance()
            } else {
                self.kick_work();
                let mut guard = self.stall_mx.lock();
                // Re-check under the lock to avoid missed wakeups.
                if self.mem.read().immutables.len() >= self.opts.max_immutable_memtables {
                    self.stall_cv
                        .wait_for(&mut guard, Duration::from_millis(10));
                }
                Ok(())
            };
            let waited = started.elapsed().as_nanos() as u64;
            total_waited += waited;
            self.stats.stall_nanos.fetch_add(waited, Ordering::Relaxed);
            self.obs.record(HistKind::for_stall_reason(reason), waited);
            if let Err(e) = step.and_then(|()| self.check_bg_error()) {
                break Err(e);
            }
        };
        if let Some((span, reason)) = span {
            self.obs
                .span_end(span, EventKind::StallEnd, None, total_waited, reason);
        }
        result
    }

    /// Why writers are stalled right now: flushes stacking at level 0
    /// ([`stall_reason::L0_FILES`]), deeper levels over capacity
    /// ([`stall_reason::COMPACTION_DEBT`]), or simply a full immutable
    /// queue the flusher hasn't drained ([`stall_reason::MEMTABLE_FULL`]).
    fn classify_stall(&self) -> u64 {
        let version = self.current.lock().clone();
        let depth = version.levels.len();
        let l0_runs = version.levels.first().map_or(0, |l| l.len());
        if l0_runs >= self.opts.compaction.l0_run_trigger(depth) {
            return stall_reason::L0_FILES;
        }
        for (i, level) in version.levels.iter().enumerate().skip(1) {
            let bytes: u64 = level.iter().map(|r| r.size_bytes()).sum();
            if bytes > self.opts.compaction.level_capacity_bytes(i) {
                return stall_reason::COMPACTION_DEBT;
            }
        }
        stall_reason::MEMTABLE_FULL
    }

    /// Freezes the active memtable if it crossed the buffer size.
    pub(crate) fn maybe_freeze(&self) -> Result<()> {
        if self.mem.read().active.table.approximate_size() < self.opts.write_buffer_bytes {
            return Ok(());
        }
        self.freeze_active(false)?;
        if self.opts.background_threads == 0 {
            self.drain_maintenance()
        } else {
            self.kick_work();
            Ok(())
        }
    }

    pub(crate) fn freeze_active(&self, even_if_small: bool) -> Result<()> {
        // Lock order: manifest ticket (125) -> current (130, released
        // immediately) -> mem (150). The manifest referencing the fresh
        // WAL segment must be durable *before* any writer can commit into
        // that segment — otherwise a crash on this save loses writes that
        // were acknowledged into a segment no manifest names. Holding
        // `mem` across the save is what closes that window.
        let _ticket = self.manifest_mx.lock();
        let version = self.current.lock().clone();
        let mut mem = self.mem.write();
        if self.epoch_pins.load(Ordering::Acquire) > 0 {
            // A cross-shard epoch commit is in flight: freezing now could
            // flush epoch-tagged entries into an SST before the epoch's
            // fate is recorded, making a never-committed batch durable.
            // Skip; the next write after the epoch window retries.
            return Ok(());
        }
        let size = mem.active.table.approximate_size();
        if !even_if_small && size < self.opts.write_buffer_bytes {
            return Ok(()); // raced with another freezer
        }
        if mem.active.table.is_empty() {
            return Ok(());
        }
        let wal_id = if self.opts.wal {
            // Created under `mem` so exactly one freezer wins the race and
            // no orphan segment is created by the loser. The rotation is a
            // span: during a flush-triggered freeze it nests under the
            // flush, tying the fresh segment to what caused it.
            let span = self
                .obs
                .span_begin(EventKind::WalRotateStart, None, 0, size as u64);
            // lsm-lint: allow(io-under-lock)
            let created = self.backend.create_appendable();
            let id = *created.as_ref().unwrap_or(&0);
            self.obs
                .span_end(span, EventKind::WalRotateEnd, None, id, size as u64);
            Some(created?)
        } else {
            None
        };
        let id = mem.next_id;
        mem.next_id += 1;
        let fresh = Arc::new(MemHandle {
            id,
            table: make_memtable(self.opts.memtable_kind),
            rts: OrderedRwLock::new(ranks::MEM_RTS, Vec::new()),
            wal: wal_id,
        });
        let frozen = std::mem::replace(&mut mem.active, fresh);
        mem.immutables.push_back(frozen);
        if self.persist_manifest {
            let bytes = self.manifest_from(&version, &mem).encode();
            // lsm-lint: allow(io-under-lock)
            self.backend.put_meta(MANIFEST_META, &bytes)?;
        }
        Ok(())
    }

    // ----------------------------------------------------------------- read

    /// Whether tables opened for `level` should pin their index/filter
    /// partitions in the cache. The hot set is L0 plus L1 (the levels every
    /// lookup probes first and the cheapest to keep routed), matching
    /// RocksDB's `pin_l0_filter_and_index_blocks_in_cache` recipe; the
    /// policy switch lives in [`lsm_storage::CacheConfig`].
    pub(crate) fn pin_for_level(&self, level: usize) -> bool {
        level <= 1
            && self
                .cache
                .as_ref()
                .is_some_and(|c| c.config().pin_index_filter)
    }

    /// Runs one foreground op under a single 1-in-16 sampling decision:
    /// a sampled op feeds its latency histogram, the workload sampler
    /// (hashing `key` only then — never on the unsampled fast path), and
    /// the slow-op check (emitting a receipt with the read-path breakdown
    /// when it crosses `Options::slow_op_threshold`); the unsampled
    /// 15-in-16 pay one branch and no clock read. Every public surface
    /// (`Db` and `Snapshot`, on whichever shard a call routes to) reads
    /// and writes through this one wrapper.
    #[inline]
    pub(crate) fn instrument_fg<T>(
        &self,
        hist: HistKind,
        op: OpKind,
        key: &[u8],
        run: impl FnOnce(Option<&mut ReadProbe>) -> Result<T>,
    ) -> Result<T> {
        let obs = &self.obs;
        let Some(weight) = obs.fg_sample_weight() else {
            return run(None);
        };
        // An empty key (unbounded scan) has nothing to attribute.
        let kh = if key.is_empty() { 0 } else { key_hash(key) };
        obs.workload_record(op, kh, weight);
        let mut probe = ReadProbe::default();
        let start = obs.now_nanos();
        let result = run(Some(&mut probe));
        let dur = obs.now_nanos().saturating_sub(start);
        obs.record_weighted(hist, dur, weight);
        if dur >= self.opts.slow_op_threshold.as_nanos() as u64 {
            let code = match op {
                OpKind::Get => slow_op::GET,
                OpKind::Put => slow_op::PUT,
                OpKind::Delete => slow_op::DELETE,
                OpKind::Scan => slow_op::SCAN,
            };
            obs.emit_slow_op(code, dur, &probe);
        }
        result
    }

    /// The seqno a read observes: the latest published one, unless
    /// [`ReadOptions::snapshot`] names another; a [`crate::Snapshot`]'s
    /// `pin` caps either (options may read further into the past than the
    /// pin, never past it).
    pub(crate) fn read_seqno(&self, pin: Option<SeqNo>, opts: &ReadOptions) -> SeqNo {
        match (pin, opts.snapshot) {
            (Some(pin), Some(at)) => at.min(pin),
            (Some(at), None) | (None, Some(at)) => at,
            (None, None) => self.seqno.load(Ordering::Acquire),
        }
    }

    /// The point lookup, at `snapshot`: memtables newest-first, then each
    /// level's runs. `ctx` carries the per-read table options and, on
    /// sampled foreground gets only, the [`ReadProbe`] attributing where
    /// the lookup spent its effort.
    pub(crate) fn get(
        &self,
        key: &[u8],
        snapshot: SeqNo,
        ctx: &mut ReadCtx<'_>,
    ) -> Result<Option<Value>> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let (mem_sources, version) = self.read_view();

        // Range tombstones do not obey per-level recency under partial
        // compaction, so coverage is computed across every source up front
        // (the per-run lists are tiny and memory-resident).
        let mut covering: SeqNo = 0;
        for h in &mem_sources {
            covering = covering.max(h.max_rt_covering(key, snapshot));
        }
        for run in version.runs_newest_first() {
            covering = covering.max(run.max_rt_covering(key, snapshot));
        }

        for h in &mem_sources {
            ctx.note(|p| p.memtables_probed += 1);
            if let Some(e) = h.table.get(key, snapshot) {
                if e.kind() == EntryKind::RangeDelete {
                    // A range tombstone occupies its start key's slot but
                    // says nothing about a point value; keep descending.
                    continue;
                }
                return Ok(Self::interpret(e, covering));
            }
        }
        for level in &version.levels {
            if level.is_empty() {
                continue;
            }
            ctx.note(|p| p.levels_touched += 1);
            // Runs within a level are newest-first, matching
            // `runs_newest_first()`.
            for run in level {
                if let Some(e) = run.get(key, snapshot, ctx)? {
                    if e.kind() == EntryKind::RangeDelete {
                        continue;
                    }
                    // A table's entry is a slice of its block: the caller
                    // gets a copy, so a value it holds on to never pins
                    // the 4 KiB around it.
                    return Ok(Self::interpret(e, covering).map(|v| Value::copy_from_slice(&v)));
                }
            }
        }
        Ok(None)
    }

    fn interpret(e: InternalEntry, covering: SeqNo) -> Option<Value> {
        if covering > e.seqno() {
            return None; // masked by a newer range tombstone
        }
        match e.kind() {
            EntryKind::Put | EntryKind::ValuePtr => Some(e.value),
            _ => None,
        }
    }

    /// Memtable handles (newest first) plus the current version.
    pub(crate) fn read_view(&self) -> (Vec<Arc<MemHandle>>, Arc<Version>) {
        let mem = self.mem.read();
        let mut sources = Vec::with_capacity(1 + mem.immutables.len());
        sources.push(Arc::clone(&mem.active));
        for h in mem.immutables.iter().rev() {
            sources.push(Arc::clone(h));
        }
        drop(mem);
        let version = self.current.lock().clone();
        (sources, version)
    }

    /// The range scan over `[start, end)`, at `snapshot`. On sampled scans
    /// the sources opened are attributed to `ctx.probe` (memtables and
    /// non-empty levels; block fetches happen lazily during iteration and
    /// are not attributed); every table iterator the scan opens reads
    /// under `ctx.opts`.
    pub(crate) fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        snapshot: SeqNo,
        ctx: &mut ReadCtx<'_>,
    ) -> Result<DbScanIter> {
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        let (mem_sources, version) = self.read_view();
        ctx.note(|p| {
            p.memtables_probed += mem_sources.len() as u32;
            p.levels_touched += version.levels.iter().filter(|l| !l.is_empty()).count() as u32;
        });
        let mut rts: Vec<(UserKey, UserKey, SeqNo)> = Vec::new();
        let mut mem_entries = Vec::with_capacity(mem_sources.len());
        for h in &mem_sources {
            rts.extend(h.rt_list());
            mem_entries.push(h.table.range_entries(start, end));
        }
        for run in version.runs_newest_first() {
            rts.extend(run.range_tombstones.iter().cloned());
        }
        let merge = build_scan_merge(mem_entries, &version, start, end, ctx.opts);
        Ok(DbScanIter::single(VisibleIter::new(
            merge,
            snapshot,
            rts,
            end.map(|e| e.to_vec()),
        )))
    }

    // ---------------------------------------------------------- maintenance

    /// Runs `f`, retrying [`Error::Transient`] failures with doubling
    /// backoff up to `opts.transient_retries` times. Background maintenance
    /// goes through this so one flaky write doesn't kill a compaction
    /// thread; any other error (or exhausted retries) surfaces unchanged.
    pub(crate) fn with_transient_retry<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match f() {
                Err(e) if e.is_transient() && attempt < self.opts.transient_retries => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(1u64 << attempt.min(6)));
                }
                other => return other,
            }
        }
    }

    /// One shard's part of [`Db::maintain`](crate::Db::maintain): drain
    /// inline in synchronous mode, else wake the workers.
    pub(crate) fn maintain_shard(&self) -> Result<()> {
        if self.opts.background_threads > 0 {
            self.kick_work();
            return Ok(());
        }
        self.drain_maintenance()
    }

    /// One shard's part of [`Db::wait_idle`](crate::Db::wait_idle).
    pub(crate) fn wait_idle_shard(&self) -> Result<()> {
        if self.opts.background_threads == 0 {
            return self.drain_maintenance();
        }
        loop {
            self.check_bg_error()?;
            if self.is_idle() {
                return Ok(());
            }
            self.kick_work();
            // Park on the maintenance-progress condvar instead of polling.
            // Completions notify `stall_cv` while holding `stall_mx`, so
            // re-checking idleness under the lock cannot miss a wakeup; the
            // timeout is a safety net, not the progress mechanism.
            let mut guard = self.stall_mx.lock();
            if self.is_idle() {
                return Ok(());
            }
            self.stats.idle_waits.fetch_add(1, Ordering::Relaxed);
            self.stall_cv
                .wait_for(&mut guard, Duration::from_millis(100));
        }
    }

    /// One shard's part of [`Db::flush`](crate::Db::flush).
    pub(crate) fn flush_shard(&self) -> Result<()> {
        self.freeze_active(true)?;
        if self.opts.background_threads == 0 {
            self.drain_maintenance()
        } else {
            self.kick_work();
            self.wait_idle_shard()
        }
    }

    pub(crate) fn drain_maintenance(&self) -> Result<()> {
        loop {
            if self.with_transient_retry(|| self.try_flush_one())? {
                continue;
            }
            if self.with_transient_retry(|| self.try_compact_one())? {
                continue;
            }
            return Ok(());
        }
    }

    pub(crate) fn worker_loop(self: Arc<Self>) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let did = (|| -> Result<bool> {
                Ok(self.with_transient_retry(|| self.try_flush_one())?
                    || self.with_transient_retry(|| self.try_compact_one())?)
            })();
            match did {
                Ok(true) => continue,
                Ok(false) => {
                    let mut flag = self.work_mx.lock();
                    if !*flag {
                        self.work_cv.wait_for(&mut flag, Duration::from_millis(20));
                    }
                    *flag = false;
                }
                Err(e) => {
                    self.bg_error.lock().get_or_insert(e.to_string());
                    self.notify_progress();
                    return;
                }
            }
        }
    }

    /// Filter budget (bits/key) for a table landing at `level`.
    pub(crate) fn bits_for_level(&self, version: &Version, level: usize) -> f64 {
        if !self.opts.monkey_filters {
            return self.opts.filter_bits_per_key;
        }
        let mut entries = version.entries_per_level();
        while entries.len() <= level {
            entries.push(0);
        }
        // Budget follows the classical total: bits/key times total entries.
        let total: u64 = entries.iter().sum();
        if total == 0 {
            return self.opts.filter_bits_per_key;
        }
        let alloc =
            lsm_filters::monkey::allocate(&entries, self.opts.filter_bits_per_key * total as f64);
        alloc.get(level).copied().unwrap_or(0.0)
    }

    /// The writer of tables landing at `level`: a compaction's as is, a
    /// flush's and a bulk load's with the fields they override.
    pub(crate) fn output_writer(&self, version: &Version, level: usize) -> OutputWriter<'_> {
        OutputWriter {
            backend: &self.backend,
            cache: self.cache.as_ref(),
            opts: &self.opts,
            obs: &self.obs,
            bits_per_key: self.bits_for_level(version, level),
            target_bytes: self.opts.table_target_bytes,
            pin_aux: self.pin_for_level(level),
            warm_cache: self.opts.warm_cache_after_compaction,
        }
    }

    pub(crate) fn try_flush_one(&self) -> Result<bool> {
        // Claim the oldest immutable memtable not already being flushed.
        let handle = {
            let mem = self.mem.read();
            let mut sched = self.sched.lock();
            let candidate = mem
                .immutables
                .iter()
                .find(|h| !sched.flushing.contains(&h.id))
                .cloned();
            match candidate {
                Some(h) => {
                    sched.flushing.insert(h.id);
                    h
                }
                None => return Ok(false),
            }
        };

        let result = self.flush_handle(&handle);
        self.sched.lock().flushing.remove(&handle.id);
        self.notify_progress();
        result?;
        self.kick_work();
        Ok(true)
    }

    pub(crate) fn flush_handle(&self, handle: &Arc<MemHandle>) -> Result<()> {
        let _t = self.obs.timer(HistKind::Flush);
        let span = self.obs.span_begin(
            EventKind::FlushStart,
            Some(0),
            handle.table.approximate_size() as u64,
            handle.id,
        );
        let mut flushed_bytes: u64 = 0;
        let result = self.flush_handle_inner(handle, &mut flushed_bytes);
        // Always close the span — an error mid-flush must not leave the
        // thread's span stack (and the Chrome B/E pairing) unbalanced.
        self.obs
            .span_end(span, EventKind::FlushEnd, Some(0), flushed_bytes, handle.id);
        if result.is_ok() {
            self.notify_progress();
        }
        result
    }

    fn flush_handle_inner(&self, handle: &Arc<MemHandle>, flushed_bytes: &mut u64) -> Result<()> {
        // The memtable goes through the same GC → writer path as a
        // compaction's merge, as a non-bottommost job: versions no snapshot
        // can read are dropped here instead of being written, read back and
        // dropped by the first compaction; tombstones all survive. The
        // snapshot list is read after the memtable froze, so every seqno in
        // it is final and a later snapshot sees only its newest versions.
        let mut entries = handle.table.sorted_entries().into_iter();
        let snapshots: Vec<SeqNo> = self.snapshots.lock().keys().copied().collect();
        let version = self.current.lock().clone();
        let writer = OutputWriter {
            target_bytes: u64::MAX, // one memtable, one table
            warm_cache: false,
            ..self.output_writer(&version, 0)
        };
        let written = writer.write(
            || Ok(entries.next()),
            GcRules {
                snapshots: &snapshots,
                bottommost: false,
                range_tombstones: handle.rt_list(),
                may_drop_range_tombstone: &|_| false,
            },
            handle.table.approximate_size() as u64,
        )?;
        self.stats
            .flush_bytes
            .fetch_add(written.bytes_written, Ordering::Relaxed);
        self.stats
            .gc_dropped_entries
            .fetch_add(written.dropped_entries, Ordering::Relaxed);
        self.stats
            .tombstones_purged
            .fetch_add(written.tombstones_purged, Ordering::Relaxed);
        *flushed_bytes = written.bytes_written;
        let new_run = (!written.tables.is_empty()).then(|| Run::new(written.tables));

        // Commit in memtable order: wait until this handle is the oldest
        // remaining immutable so L0 runs stay recency-sorted. The front
        // check is re-done under `stall_mx` (progress notifications are
        // sent under the same lock) so a concurrent commit cannot slip
        // between the check and the wait. Waiting is only sound while some
        // other thread is responsible for the front handle: claiming is
        // oldest-first, so a front that is neither ours nor in
        // `sched.flushing` means its flusher failed and released the claim
        // — parking would then wait forever. Abort with a transient error
        // instead; the retry in the caller re-claims the front handle and
        // either flushes it or surfaces its real error. (The table blob
        // already written for this handle becomes an orphan, removed by
        // `clean_orphans` on reopen.)
        loop {
            let mut guard = self.stall_mx.lock();
            let front = self.mem.read().immutables.front().map(|h| h.id);
            if front == Some(handle.id) {
                break;
            }
            let front_claimed = front.is_some_and(|id| self.sched.lock().flushing.contains(&id));
            if !front_claimed {
                return Err(Error::Transient(
                    "flush of an older memtable failed; retry from the front".into(),
                ));
            }
            self.stall_cv
                .wait_for(&mut guard, Duration::from_millis(20));
        }

        {
            let mut current = self.current.lock();
            if let Some(run) = new_run {
                let edit = VersionEdit {
                    add_runs: vec![(0, run)],
                    ..Default::default()
                };
                *current = Arc::new(edit.apply(current.as_ref()));
            }
            let mut mem = self.mem.write();
            let popped = mem.immutables.pop_front();
            debug_assert_eq!(popped.map(|h| h.id), Some(handle.id));
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        // Persist the manifest (which now references the new table and no
        // longer lists this memtable's WAL) *before* deleting the WAL — a
        // crash between the two leaves an orphan segment (cleaned up on
        // reopen), never a manifest pointing at a missing one.
        self.save_manifest()?;
        if let Some(wal_id) = handle.wal {
            match self.backend.delete(wal_id) {
                Ok(()) | Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// In-place bottom-level delete compactions are only safe (and only
    /// guaranteed to make progress) when nothing can block the purge.
    pub(crate) fn bottom_ok(&self) -> bool {
        let snapshots_empty = self.snapshots.lock().is_empty();
        let mem = self.mem.read();
        snapshots_empty && mem.active.table.is_empty() && mem.immutables.is_empty()
    }

    pub(crate) fn next_plan(&self) -> Option<CompactionPlan> {
        let version = self.current.lock().clone();
        let bottom_ok = self.bottom_ok();
        let sched = self.sched.lock();
        let desc = version.describe();
        let now = self.clock.load(Ordering::Acquire);
        plan_observed(
            &desc,
            &self.opts.compaction,
            now,
            &sched.cursors,
            bottom_ok,
            &self.obs,
        )
    }

    pub(crate) fn try_compact_one(&self) -> Result<bool> {
        // Plan under the scheduler lock so busy levels are respected, on a
        // version read while that lock is held. A compaction clears its
        // busy levels only after installing, so every finished install is
        // in the plan's version; planning on an older one could merge
        // tables another worker already consumed and splice outputs that
        // overlap its outputs into one run.
        let (version, task) = {
            let current = self.current.lock();
            let bottom_ok = self.bottom_ok();
            let mut sched = self.sched.lock();
            let version = Arc::clone(&current);
            drop(current);
            let desc = version.describe();
            let now = self.clock.load(Ordering::Acquire);
            let Some(task) = plan_observed(
                &desc,
                &self.opts.compaction,
                now,
                &sched.cursors,
                bottom_ok,
                &self.obs,
            ) else {
                return Ok(false);
            };
            if sched.busy_levels.contains(&task.src_level)
                || sched.busy_levels.contains(&task.dst_level)
            {
                return Ok(false);
            }
            sched.busy_levels.insert(task.src_level);
            sched.busy_levels.insert(task.dst_level);
            (version, task)
        };

        let result = self.run_compaction(&version, &task);
        {
            let mut sched = self.sched.lock();
            sched.busy_levels.remove(&task.src_level);
            sched.busy_levels.remove(&task.dst_level);
        }
        self.notify_progress();
        result?;
        self.kick_work();
        Ok(true)
    }

    pub(crate) fn run_compaction(
        &self,
        version: &Arc<Version>,
        task: &CompactionPlan,
    ) -> Result<()> {
        let _t = self.obs.timer(HistKind::Compaction);
        let span = self.obs.span_begin(
            EventKind::CompactionStart,
            Some(task.src_level as u32),
            0,
            task.dst_level as u64,
        );
        let mut bytes_written = 0u64;
        let result = self.run_compaction_inner(version, task, &mut bytes_written);
        // Always close the span so per-file child spans stay nested and
        // the Chrome B/E pairing survives errors.
        self.obs.span_end(
            span,
            EventKind::CompactionEnd,
            Some(task.src_level as u32),
            bytes_written,
            task.dst_level as u64,
        );
        result
    }

    fn run_compaction_inner(
        &self,
        version: &Arc<Version>,
        task: &CompactionPlan,
        out_bytes_written: &mut u64,
    ) -> Result<()> {
        let snapshots: Vec<SeqNo> = self.snapshots.lock().keys().copied().collect();
        let mem_nonempty = {
            let mem = self.mem.read();
            !mem.active.table.is_empty() || !mem.immutables.is_empty()
        };
        let writer = self.output_writer(version, task.dst_level);
        let (bytes_read, outcome) = execute_plan(version, task, &snapshots, mem_nonempty, &writer)?;
        *out_bytes_written = outcome.bytes_written;

        // Install.
        let consumed: Vec<u64> = task
            .src_tables
            .iter()
            .chain(task.dst_tables.iter())
            .copied()
            .collect();
        {
            let mut current = self.current.lock();
            let mut edit = VersionEdit {
                remove: consumed.iter().copied().collect(),
                ..Default::default()
            };
            if !outcome.tables.is_empty() {
                if task.dst_append {
                    edit.add_runs
                        .push((task.dst_level, Run::new(outcome.tables.clone())));
                } else {
                    edit.merge_into_run = Some((task.dst_level, outcome.tables.clone()));
                }
            }
            // Mark inputs obsolete (deleted when the last reader drops).
            for t in current.as_ref().all_tables() {
                if edit.remove.contains(&t.file_id()) {
                    t.mark_obsolete();
                }
            }
            *current = Arc::new(edit.apply(current.as_ref()));
        }

        // Round-robin cursor: remember how far into the key space this
        // level has been compacted.
        if self.opts.compaction.pick == PickPolicy::RoundRobin
            && self.opts.compaction.granularity == Granularity::File
        {
            let max_key = version
                .levels
                .get(task.src_level)
                .into_iter()
                .flat_map(|runs| runs.iter())
                .flat_map(|r| r.tables.iter())
                .filter(|t| task.src_tables.contains(&t.file_id()))
                .map(|t| t.meta().key_range.max.as_bytes().to_vec())
                .max();
            let mut sched = self.sched.lock();
            while sched.cursors.len() <= task.src_level {
                sched.cursors.push(None);
            }
            sched.cursors[task.src_level] = max_key;
        }

        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .compact_bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.stats
            .compact_bytes_written
            .fetch_add(outcome.bytes_written, Ordering::Relaxed);
        self.stats
            .gc_dropped_entries
            .fetch_add(outcome.dropped_entries, Ordering::Relaxed);
        self.stats
            .tombstones_purged
            .fetch_add(outcome.tombstones_purged, Ordering::Relaxed);
        self.save_manifest()?;
        Ok(())
    }

    // ------------------------------------------------------------- manifest

    pub(crate) fn build_manifest(&self) -> Manifest {
        let version = self.current.lock().clone();
        let mem = self.mem.read();
        self.manifest_from(&version, &mem)
    }

    /// Builds the manifest from already-locked state, for callers (the
    /// freezer) that must persist it while still holding `mem`.
    pub(crate) fn manifest_from(&self, version: &Version, mem: &MemState) -> Manifest {
        let mut wal_segments = Vec::new();
        for h in &mem.immutables {
            if let Some(id) = h.wal {
                wal_segments.push(id);
            }
        }
        if let Some(id) = mem.active.wal {
            wal_segments.push(id);
        }
        Manifest {
            next_seqno: self.seqno.load(Ordering::Acquire),
            next_ts: self.clock.load(Ordering::Acquire),
            levels: version
                .levels
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|run| run.tables.iter().map(|t| t.file_id()).collect())
                        .collect()
                })
                .collect(),
            wal_segments,
        }
    }

    pub(crate) fn save_manifest(&self) -> Result<()> {
        if self.persist_manifest {
            // Build + persist are one unit under the manifest ticket:
            // without it, a save built before a concurrent freeze could
            // land after the freezer's save and erase the fresh WAL
            // segment from the manifest, losing acknowledged writes on
            // the next recovery.
            let _ticket = self.manifest_mx.lock();
            let bytes = self.build_manifest().encode();
            // lsm-lint: allow(io-under-lock)
            self.backend.put_meta(MANIFEST_META, &bytes)?;
        }
        Ok(())
    }

    /// See [`crate::Db::clean_orphans`].
    pub(crate) fn clean_orphans(&self, protected: &[FileId]) -> Result<usize> {
        let mut referenced: HashSet<FileId> = self.build_manifest().references().collect();
        referenced.extend(protected.iter().copied());
        let mut removed = 0;
        for id in self.backend.list_files() {
            if referenced.contains(&id) {
                continue;
            }
            match self.backend.delete(id) {
                Ok(()) => removed += 1,
                // Someone else (a dropped obsolete table) beat us to it.
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    // Test code: panicking on unexpected results is the assertion style.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use lsm_storage::{FaultBackend, MemBackend};

    use super::*;
    use crate::Db;

    /// A failed commit group tells every member what the leader was told:
    /// a flaky WAL append is `Transient` to the followers too, never
    /// `Corruption`, and nothing from the group becomes readable.
    #[test]
    fn followers_of_a_failed_group_get_the_leaders_error_class() {
        const WRITERS: usize = 4;
        let fault = Arc::new(FaultBackend::new(Arc::new(MemBackend::new())));
        let opts = Options {
            wal: true,
            background_threads: 0,
            ..Options::small_for_benchmarks()
        };
        let db = Db::builder()
            .backend(Arc::clone(&fault) as Arc<dyn Backend>)
            .options(opts)
            .open()
            .unwrap();
        let (db, engine) = (&db, &db.inner.engines[0]);

        // With the writer ticket taken nobody can lead: every writer
        // queues up, and the one group they form meets the armed fault.
        let ticket = engine.write_mx.lock();
        let armed_at = fault.write_ops() + 1;
        let results: Vec<Result<()>> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|i| s.spawn(move || db.put(format!("k{i}").as_bytes(), b"v")))
                .collect();
            while engine.commit_mx.lock().len() < WRITERS {
                std::thread::yield_now();
            }
            fault.fail_writes_transiently_at(&[armed_at]);
            drop(ticket);
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        assert_eq!(fault.write_ops(), armed_at, "one group, one append attempt");
        for result in results {
            let err = result.expect_err("the whole group failed");
            assert!(err.is_transient(), "{err}");
            assert!(!err.is_corruption(), "{err}");
        }
        for i in 0..WRITERS {
            assert_eq!(db.get(format!("k{i}").as_bytes()).unwrap(), None);
        }
        // The fault was transient: the next write goes through.
        db.put(b"k0", b"v").unwrap();
        assert_eq!(db.get(b"k0").unwrap().as_deref(), Some(&b"v"[..]));
    }
}
