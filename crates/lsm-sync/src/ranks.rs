//! The workspace lock hierarchy.
//!
//! Every tracked lock in the engine is constructed with one of these ranks.
//! A thread may only acquire a lock whose rank is *strictly greater* than
//! every rank it already holds; the debug-build assertions in
//! [`crate::OrderedMutex`] / [`crate::OrderedRwLock`] enforce this, and the
//! static lock graph emitted by `lsm-lint` (`lock_order.json`) is
//! cross-checked against this table by `tests/lock_order_spec.rs` at the
//! workspace root.
//!
//! Gaps between orders are deliberate so future locks can slot in without
//! renumbering. When you add a lock:
//!
//! 1. add a constant here (and to [`REGISTRY`]),
//! 2. construct the lock with it,
//! 3. regenerate the spec: `cargo run -p lsm-lint -- --write-lock-order lock_order.json`.

use crate::LockRank;

/// Cross-shard epoch ticket of a `Db` with several shards. Outermost lock
/// in the whole hierarchy: the `Db` holds it across a multi-shard batch —
/// coordinator epoch-log writes plus one full commit per involved shard —
/// and across a snapshot's per-shard registration, so it must rank below
/// every per-engine lock those acquire.
pub const SHARDED_EPOCH: LockRank = LockRank::new("sharded.epoch_mx", 80);
/// Metrics-exporter control mutex (interval/shutdown condvar). The export
/// thread parks on it holding nothing else, and `stop()` signals it from
/// outside the engine's lock stack, so it ranks above the per-engine
/// hierarchy next to the cross-shard epoch ticket.
pub const DB_METRICS_EXPORT: LockRank = LockRank::new("db.metrics_export_mx", 90);
/// `Db` single-writer queue ticket. Outermost engine lock: held across the
/// whole write path (WAL append, memtable insert, freeze).
pub const DB_WRITE: LockRank = LockRank::new("db.write_mx", 100);
/// `Db` group-commit queue (pending writer requests + the follower
/// condvar). Enqueued without other locks; the leader drains it while
/// holding `db.write_mx`, so it ranks directly above the writer ticket.
pub const DB_COMMIT: LockRank = LockRank::new("db.commit_mx", 105);
/// `Db` write-stall condvar mutex (waiters for immutable-memtable drain).
pub const DB_STALL: LockRank = LockRank::new("db.stall_mx", 110);
/// `Db` background-worker wakeup condvar mutex.
pub const DB_WORK: LockRank = LockRank::new("db.work_mx", 120);
/// `Db` manifest persistence ticket: serializes build-manifest +
/// `put_meta` so a save built from older state can never overwrite a
/// newer save (which would drop a live WAL segment from the manifest and
/// lose acknowledged writes on recovery). Ranks below `db.current` /
/// `db.mem` because the build acquires both while holding it.
pub const DB_MANIFEST: LockRank = LockRank::new("db.manifest_mx", 125);
/// `Db` current-version pointer (copy-on-write `Arc<Version>` swap).
pub const DB_CURRENT: LockRank = LockRank::new("db.current", 130);
/// `Db` live-snapshot refcount map.
pub const DB_SNAPSHOTS: LockRank = LockRank::new("db.snapshots", 140);
/// `Db` memtable state (active + immutable queue).
pub const DB_MEM: LockRank = LockRank::new("db.mem", 150);
/// `Db` maintenance scheduler (busy levels, flush set, cursors).
pub const DB_SCHED: LockRank = LockRank::new("db.sched", 160);
/// Per-memtable range-tombstone list (nested under `db.mem`).
pub const MEM_RTS: LockRank = LockRank::new("db.mem_handle.rts", 170);
/// `Db` sticky background-error slot.
pub const DB_BG_ERROR: LockRank = LockRank::new("db.bg_error", 180);
/// `Db` recovery-summary slot (written once at open).
pub const DB_RECOVERY: LockRank = LockRank::new("db.recovery", 185);
/// `Db` background-worker join handles (taken only at shutdown).
pub const DB_WORKERS: LockRank = LockRank::new("db.workers", 190);
/// Memtable index structure (skiplist / vector / btree / hash shard).
pub const MEMTABLE_INDEX: LockRank = LockRank::new("memtable.index", 210);
/// Memtable approximate-size counter (nested under `memtable.index`).
pub const MEMTABLE_SIZE: LockRank = LockRank::new("memtable.size", 220);
/// WiscKey value-log roster (segments, GC state, tail cursor).
pub const VLOG_STATE: LockRank = LockRank::new("vlog.state", 240);
/// WiscKey value-log recovery-summary slot.
pub const VLOG_RECOVERY: LockRank = LockRank::new("vlog.recovery", 250);
/// Block-cache shard (leaf: nothing may be acquired under it).
pub const CACHE_SHARD: LockRank = LockRank::new("cache.shard", 300);

/// Every rank in the hierarchy, keyed by the constant's identifier. The
/// linter resolves `OrderedMutex::new(ranks::<CONST>, ..)` construction
/// sites against this table (by parsing this file), and the workspace-root
/// spec test asserts `lock_order.json` agrees with it.
pub const REGISTRY: &[(&str, LockRank)] = &[
    ("SHARDED_EPOCH", SHARDED_EPOCH),
    ("DB_METRICS_EXPORT", DB_METRICS_EXPORT),
    ("DB_WRITE", DB_WRITE),
    ("DB_COMMIT", DB_COMMIT),
    ("DB_STALL", DB_STALL),
    ("DB_WORK", DB_WORK),
    ("DB_MANIFEST", DB_MANIFEST),
    ("DB_CURRENT", DB_CURRENT),
    ("DB_SNAPSHOTS", DB_SNAPSHOTS),
    ("DB_MEM", DB_MEM),
    ("DB_SCHED", DB_SCHED),
    ("MEM_RTS", MEM_RTS),
    ("DB_BG_ERROR", DB_BG_ERROR),
    ("DB_RECOVERY", DB_RECOVERY),
    ("DB_WORKERS", DB_WORKERS),
    ("MEMTABLE_INDEX", MEMTABLE_INDEX),
    ("MEMTABLE_SIZE", MEMTABLE_SIZE),
    ("VLOG_STATE", VLOG_STATE),
    ("VLOG_RECOVERY", VLOG_RECOVERY),
    ("CACHE_SHARD", CACHE_SHARD),
];
