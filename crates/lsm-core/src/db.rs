//! The public database handle. A [`Db`] owns `N >= 1` engines
//! ([`crate::engine::Engine`]: write path, read path, maintenance jobs,
//! recovery), routes every call by key, and runs one maintenance [`Pool`]
//! for all of them; `N = 1` is the plain single-keyspace store, and
//! [`crate::sharded`] holds what only `N > 1` needs (partitioning, the
//! cross-shard epoch window).

use std::cmp::Reverse;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lsm_obs::{recovery_phase, EventKind, HistKind, ObsHandle, Observability, OpKind, ReadProbe};
use lsm_sstable::{ReadCtx, TableReadOpts};
use lsm_storage::{
    shard_dir, Backend, BlockCache, CacheConfig, CacheStats, FileId, FsBackend, MemBackend,
    ObservedBackend,
};
use lsm_sync::{ranks, Condvar, OrderedMutex};
use lsm_types::{EntryKind, Error, Result, SeqNo, UserKey, Value};

use crate::engine::{BatchOp, Engine, MANIFEST_META};
use crate::manifest::Manifest;
use crate::metrics::MetricsSnapshot;
use crate::options::Options;
use crate::scan::VisibleIter;
use crate::sharded::{EpochLog, Partitioning};
use crate::version::Version;

pub use crate::engine::RecoverySummary;

/// The `lsm-lab` storage engine. Cheap to clone handles are not provided;
/// wrap in `Arc` to share across threads (all methods take `&self`).
///
/// A `Db` opened with [`DbBuilder::shards`]`(n)` runs `n` engines, each
/// with its own WAL and commit queue, and routes every call by key
/// (DESIGN.md, "Sharding"); the default is one. Their flushes and
/// compactions share one pool of [`Options::background_threads`] workers.
pub struct Db {
    pub(crate) inner: Arc<Shards>,
    workers: OrderedMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The maintenance workers of one [`Db`], shared by every shard (each
/// engine holds an `Arc`): `threads` workers (none in synchronous mode),
/// the wake flag they park on, and the stop flag `Db::drop` raises. Which
/// job a worker runs next is [`Shards::step`]'s choice.
pub(crate) struct Pool {
    /// Worker count, [`Options::background_threads`]; 0 runs maintenance
    /// inline on the calling thread ([`Engine::kick`]).
    pub(crate) threads: usize,
    /// Set when maintenance work may exist on some shard.
    wake_mx: OrderedMutex<bool>,
    wake_cv: Condvar,
    shutdown: AtomicBool,
}

impl Pool {
    /// Wakes the workers: some shard may have work.
    pub(crate) fn signal(&self) {
        let mut flag = self.wake_mx.lock();
        *flag = true;
        self.wake_cv.notify_all();
    }
}

/// The engines behind one [`Db`] and what routes between them. Shared
/// (behind an `Arc`) with snapshots, the metrics exporter and the pool's
/// workers, which need the engines but not the worker registry.
pub(crate) struct Shards {
    pub(crate) engines: Vec<Arc<Engine>>,
    pub(crate) partitioning: Partitioning,
    /// Shard 0's raw backend, doubling as the coordinator metadata store
    /// for the `SHARDS` and `EPOCHS` blobs when there are several shards.
    pub(crate) coord: Arc<dyn Backend>,
    /// Serializes multi-shard batches and snapshot cuts, and guards the
    /// epoch log. Rank `sharded.epoch_mx` (80) sits below every engine
    /// rank, because the holder runs full per-shard commits inside it.
    pub(crate) epoch_mx: OrderedMutex<EpochLog>,
    pub(crate) persist_epochs: bool,
}

/// A consistent read view pinned at one sequence number per shard. Dropping
/// the snapshot releases its pins on compaction garbage collection.
pub struct Snapshot {
    inner: Arc<Shards>,
    seqnos: Vec<SeqNo>,
}

impl Snapshot {
    /// The sequence number this snapshot reads at (with several shards,
    /// the sum of the per-shard pins: a high-water mark, not an order).
    pub fn seqno(&self) -> SeqNo {
        self.seqnos.iter().sum()
    }

    /// Point lookup at this snapshot.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }

    /// [`Snapshot::get`] with per-read options. The snapshot's pinned
    /// seqno wins; [`ReadOptions::snapshot`] may only narrow it further
    /// (read even further into the past), never widen it.
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        self.inner.get(Some(&self.seqnos), key, opts)
    }

    /// Range scan at this snapshot.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Result<DbScanIter> {
        self.scan_opt(start, end, &ReadOptions::default())
    }

    /// [`Snapshot::scan`] with per-read options (seqno resolution as in
    /// [`Snapshot::get_opt`]).
    pub fn scan_opt(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        opts: &ReadOptions,
    ) -> Result<DbScanIter> {
        self.inner.scan(Some(&self.seqnos), start, end, opts)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        for (engine, seqno) in self.inner.engines.iter().zip(&self.seqnos) {
            let mut snaps = engine.snapshots.lock();
            if let Some(count) = snaps.get_mut(seqno) {
                *count -= 1;
                if *count == 0 {
                    snaps.remove(seqno);
                }
            }
        }
    }
}

/// Per-write durability options, threaded through the `*_opt` write
/// methods ([`Db::put_opt`], [`Db::delete_opt`], [`Db::write_opt`]).
/// The plain methods use [`WriteOptions::default`], which inherits the
/// database-wide [`Options::wal`]/[`Options::wal_sync`] behaviour — so
/// per-write durability is an API choice, not only a global.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// Per-write sync override: `Some(true)` forces an fsync before the
    /// write is acknowledged (even when [`Options::wal_sync`] is off),
    /// `Some(false)` suppresses it, `None` inherits the global setting.
    /// Within one commit group, a single sync satisfies every member that
    /// asked for one.
    pub sync: Option<bool>,
    /// Skip the WAL entirely for this write: fastest, but the write is
    /// lost on any crash before the memtable flushes. Ignored when the
    /// database runs without a WAL anyway.
    pub no_wal: bool,
}

/// Per-read options, threaded through the `*_opt` read methods
/// ([`Db::get_opt`], [`Db::scan_opt`], and the [`Snapshot`]
/// counterparts) — the read-side mirror of [`WriteOptions`]. The plain
/// methods use [`ReadOptions::default`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOptions {
    /// Insert data blocks fetched for this read into the block cache
    /// (RocksDB `fill_cache`). Turn off for one-shot analytical scans so
    /// they do not evict the point-lookup working set.
    pub fill_cache: bool,
    /// Pin index/filter partitions this read faults in, keeping them
    /// outside the LRU list (deliberate warming of a cold level; the
    /// engine already pins hot-level partitions at table-open time).
    pub pin_index_filter: bool,
    /// Re-verify block checksums on cache hits. Fills always verify once;
    /// the fast path then trusts cached bytes, so this trades speed for
    /// detection of in-memory corruption.
    pub verify_checksums: bool,
    /// Read at this sequence number instead of the latest. Through a
    /// [`Snapshot`], the pinned seqno caps whatever is given here. Seqnos
    /// are per shard: with several shards this names a seqno of the shard
    /// a read routes to, and a scan spanning shards ignores it (take a
    /// [`Snapshot`] for a cross-shard cut).
    pub snapshot: Option<SeqNo>,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            fill_cache: true,
            pin_index_filter: false,
            verify_checksums: false,
            snapshot: None,
        }
    }
}

impl ReadOptions {
    /// The read context one read carries down the layers: the
    /// sstable-layer slice of these options (everything but the snapshot,
    /// which the engine resolves before tables are consulted) plus the
    /// probe of a sampled op.
    pub(crate) fn ctx<'a>(&self, probe: Option<&'a mut ReadProbe>) -> ReadCtx<'a> {
        ReadCtx {
            opts: TableReadOpts {
                fill_cache: self.fill_cache,
                pin_index_filter: self.pin_index_filter,
                verify_checksums: self.verify_checksums,
            },
            probe,
        }
    }
}

/// A group of writes applied atomically: one WAL record, contiguous
/// sequence numbers, and all-or-nothing visibility to readers and
/// snapshots.
#[derive(Default, Clone, Debug)]
pub struct WriteBatch {
    pub(crate) ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    pub(crate) fn push(&mut self, kind: EntryKind, key: &[u8], value: Value) -> &mut Self {
        let key = key.into();
        self.ops.push(BatchOp { kind, key, value });
        self
    }

    /// Queues an insert/update.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.push(EntryKind::Put, key, Value::copy_from_slice(value))
    }

    /// Queues a point delete.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.push(EntryKind::Delete, key, Value::new())
    }

    /// Queues a single-delete.
    pub fn single_delete(&mut self, key: &[u8]) -> &mut Self {
        self.push(EntryKind::SingleDelete, key, Value::new())
    }

    /// Queues a range delete of `[start, end)`.
    pub fn delete_range(&mut self, start: &[u8], end: &[u8]) -> &mut Self {
        self.push(EntryKind::RangeDelete, start, Value::copy_from_slice(end))
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Turns away a batch no part of which may be applied: every range
    /// delete needs `start < end`.
    pub(crate) fn validate(&self) -> Result<()> {
        let inverted =
            |op: &BatchOp| op.kind == EntryKind::RangeDelete && op.key.as_bytes() >= &op.value[..];
        if self.ops.iter().any(inverted) {
            return Err(Error::InvalidArgument(
                "delete_range requires start < end".into(),
            ));
        }
        Ok(())
    }
}

/// Configures and opens a [`Db`] — the single construction path.
///
/// Every knob is optional:
///
/// * No backend, no directory → a fresh in-memory database.
/// * [`dir`](DbBuilder::dir) → an [`FsBackend`] over that directory with
///   manifest persistence and recovery on by default.
/// * [`backend`](DbBuilder::backend) → any backend; pair with
///   [`recover`](DbBuilder::recover) / [`manifest`](DbBuilder::manifest) /
///   [`persist_manifest`](DbBuilder::persist_manifest) as needed.
/// * [`shards`](DbBuilder::shards)`(n)` → `n` engines behind one handle,
///   routed by [`partitioning`](DbBuilder::partitioning); a directory then
///   holds one sub-directory per shard, and
///   [`backends`](DbBuilder::backends) takes one backend per shard.
///
/// ```
/// # use lsm_core::{Db, Options};
/// let db = Db::builder().options(Options::small_for_benchmarks()).open()?;
/// db.put(b"k", b"v")?;
///
/// let sharded = Db::builder().shards(4).open()?;
/// sharded.put(b"k", b"v")?;
/// assert_eq!(sharded.get(b"k")?.as_deref(), Some(&b"v"[..]));
/// # lsm_core::Result::Ok(())
/// ```
#[derive(Default)]
pub struct DbBuilder {
    backends: Option<Vec<Arc<dyn Backend>>>,
    dir: Option<PathBuf>,
    opts: Options,
    manifest: Option<Vec<u8>>,
    persist_manifest: Option<bool>,
    recover: Option<bool>,
    clean_orphans: bool,
    obs: Observability,
    cache_config: Option<CacheConfig>,
    shards: Option<usize>,
    partitioning: Partitioning,
}

impl DbBuilder {
    /// Uses `backend` as the storage substrate: `backends(vec![backend])`.
    /// Mutually exclusive with [`dir`](DbBuilder::dir).
    pub fn backend(self, backend: Arc<dyn Backend>) -> Self {
        self.backends(vec![backend])
    }

    /// Uses the given backends, one per shard (the length must equal the
    /// shard count). Shard 0's backend doubles as the coordinator metadata
    /// store of a store with several shards. Mutually exclusive with
    /// [`dir`](DbBuilder::dir).
    pub fn backends(mut self, backends: Vec<Arc<dyn Backend>>) -> Self {
        self.backends = Some(backends);
        self
    }

    /// Stores data in a filesystem directory (an [`FsBackend`]; with
    /// several shards, one per shard under `<dir>/shard-NNN`, see
    /// [`shard_dir`]); switches the defaults to persistent mode: the
    /// manifest is saved to the backend's `MANIFEST` metadata blob and
    /// recovered from it on reopen.
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Engine options (defaults to [`Options::default`]), applied to every
    /// shard. [`Options::write_buffer_bytes`] and friends are per shard, so
    /// memtable memory scales with the shard count.
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Number of shards (default 1). Each shard is a full engine: its own
    /// memtable stack, WAL, commit queue and compaction scheduler; the
    /// shards share one pool of [`Options::background_threads`] workers.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// How keys map to shards (default [`Partitioning::Hash`]). A store
    /// reopened with another shard count or partitioning is refused.
    pub fn partitioning(mut self, p: Partitioning) -> Self {
        self.partitioning = p;
        self
    }

    /// Recovers from an explicit manifest blob (as returned by
    /// [`Db::manifest_bytes`]) instead of the backend's stored one. One
    /// shard only: [`open`](DbBuilder::open) refuses it with several.
    pub fn manifest(mut self, bytes: &[u8]) -> Self {
        self.manifest = Some(bytes.to_vec());
        self
    }

    /// Whether to rewrite the backend's `MANIFEST` metadata blob after
    /// every structural change. Default: `true` with [`dir`](DbBuilder::dir),
    /// `false` otherwise.
    pub fn persist_manifest(mut self, on: bool) -> Self {
        self.persist_manifest = Some(on);
        self
    }

    /// Whether to look for a stored manifest and recover from it (WAL
    /// replay included, with cross-shard epoch filtering when there are
    /// several shards). Default: `true` with [`dir`](DbBuilder::dir) or an
    /// explicit [`manifest`](DbBuilder::manifest), `false` otherwise.
    pub fn recover(mut self, on: bool) -> Self {
        self.recover = Some(on);
        self
    }

    /// Delete backend files referenced by neither the recovered manifest
    /// nor the live WALs, before returning (idempotent obsolete-file
    /// cleanup after a crash). Off by default — enable only when nothing
    /// else (e.g. a WiscKey value log) stores files in the same backend,
    /// or clean via [`Db::clean_orphans`] with a protected list instead.
    pub fn clean_orphans(mut self, on: bool) -> Self {
        self.clean_orphans = on;
        self
    }

    /// Observability configuration: latency histograms and the structured
    /// event trace. Recording is on by default ([`Observability::On`]);
    /// pass [`Observability::Off`] to reduce every instrumentation point
    /// to a branch, or [`Observability::Shared`] to record into a handle
    /// shared with other components (e.g. a fault-injecting backend).
    /// Every shard records into the one handle this resolves to.
    pub fn obs(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Block-cache configuration: capacity, shard count, and the
    /// index/filter pinning policy. Takes precedence over the legacy
    /// [`Options::block_cache_bytes`] knob; a zero-capacity config runs
    /// without a cache. One cache serves every shard, so capacity is a
    /// database-wide budget and a hot shard borrows room from cold ones.
    pub fn cache_config(mut self, cfg: CacheConfig) -> Self {
        self.cache_config = Some(cfg);
        self
    }

    /// Opens (or recovers) the database.
    pub fn open(mut self) -> Result<Db> {
        self.opts.validate()?;
        let n = self.shards.unwrap_or(1);
        self.partitioning.validate(n)?;
        if n > 1 && self.manifest.is_some() {
            return Err(Error::InvalidArgument(
                "DbBuilder: an explicit manifest needs a one-shard Db".into(),
            ));
        }
        let is_dir = self.dir.is_some();
        let raw: Vec<Arc<dyn Backend>> = match (self.backends.take(), self.dir.take()) {
            (Some(_), Some(_)) => {
                return Err(Error::InvalidArgument(
                    "DbBuilder: backends and dir are mutually exclusive".into(),
                ))
            }
            (Some(b), None) if b.len() != n => {
                return Err(Error::InvalidArgument(format!(
                    "DbBuilder: {} backends for {n} shards",
                    b.len()
                )))
            }
            (Some(b), None) => b,
            (None, Some(dir)) if n == 1 => {
                vec![Arc::new(FsBackend::open(dir)?) as Arc<dyn Backend>]
            }
            (None, Some(root)) => (0..n)
                .map(|i| {
                    let shard = FsBackend::open(shard_dir(root.clone(), i))?;
                    Ok(Arc::new(shard) as Arc<dyn Backend>)
                })
                .collect::<Result<_>>()?,
            (None, None) => (0..n)
                .map(|_| Arc::new(MemBackend::new()) as Arc<dyn Backend>)
                .collect(),
        };
        let persist = self.persist_manifest.unwrap_or(is_dir);
        let want_recover = self.recover.unwrap_or(is_dir || self.manifest.is_some());
        let coord = Arc::clone(&raw[0]);
        // A store of several shards keeps its layout and epoch log on shard
        // 0's raw backend; one shard has neither.
        let epochs = match n {
            1 => None,
            _ if want_recover => Some(EpochLog::load(coord.as_ref(), n, &self.partitioning)?),
            _ => Some(EpochLog::default()),
        };
        let filter = epochs
            .as_ref()
            .filter(|_| want_recover)
            .map(EpochLog::filter);
        let obs = self.obs.into_handle();
        // Wrap once at construction so every engine I/O path is timed
        // without touching any call site (the wrapper delegates `stats()`
        // to the inner backend, so I/O byte counters are unaffected).
        let backends: Vec<Arc<dyn Backend>> = raw
            .into_iter()
            .map(|b| {
                if obs.enabled() {
                    Arc::new(ObservedBackend::new(b, obs.clone()))
                } else {
                    b
                }
            })
            .collect();
        let mut manifests = Vec::with_capacity(n);
        for backend in &backends {
            manifests.push(match self.manifest.take() {
                Some(bytes) => Some(bytes),
                None if want_recover => backend.get_meta(MANIFEST_META)?.map(|b| b.to_vec()),
                None => None,
            });
        }
        // Recovery is a span: the phase instants (manifest, WAL replay,
        // relog, orphan sweep) emitted inside attach to it as children,
        // so a trace shows startup as one bracketed region.
        let recovering = manifests.iter().any(Option::is_some) || self.clean_orphans;
        let span = recovering.then(|| obs.span_begin(EventKind::RecoveryStart, None, 0, 0));
        let mut swept = 0u64;
        // Cache resolution: an explicit config, then the legacy capacity
        // knob (which inherits the default sharding/pinning policy).
        let cache: Option<BlockCache> = self
            .cache_config
            .or_else(|| {
                (self.opts.block_cache_bytes > 0).then(|| CacheConfig {
                    capacity_bytes: self.opts.block_cache_bytes,
                    ..CacheConfig::default()
                })
            })
            .filter(|c| c.capacity_bytes > 0)
            .map(BlockCache::with_config);
        let pool = Arc::new(Pool {
            threads: self.opts.background_threads,
            wake_mx: OrderedMutex::new(ranks::DB_WORK, false),
            wake_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let opened = (|| -> Result<Vec<Arc<Engine>>> {
            let mut engines = Vec::with_capacity(n);
            for (i, (backend, manifest)) in backends.into_iter().zip(manifests).enumerate() {
                let manifest = manifest.as_deref().map(Manifest::decode).transpose()?;
                // Shards allocate file ids independently: one namespace
                // each keeps their blocks apart in the one cache.
                let cache = cache.as_ref().map(|c| Arc::new(c.namespaced(i as u64)));
                let (opts, obs, pool) = (self.opts.clone(), obs.clone(), Arc::clone(&pool));
                let engine = Engine::new(backend, opts, cache, persist, obs, pool)?;
                match manifest {
                    Some(manifest) => engine.recover(manifest, filter.as_ref())?,
                    None => engine.save_manifest()?,
                }
                if self.clean_orphans {
                    let removed = engine.clean_orphans(&[])?;
                    swept += removed as u64;
                    engine.obs.emit(
                        EventKind::RecoveryPhase,
                        None,
                        recovery_phase::ORPHAN_SWEEP,
                        removed as u64,
                    );
                }
                engines.push(engine);
            }
            Ok(engines)
        })();
        if let Some(span) = span {
            obs.span_end(span, EventKind::RecoveryEnd, None, swept, 0);
        }
        let engines = opened?;
        let log = match epochs {
            Some(log) => log.reset(coord.as_ref(), n, &self.partitioning, persist)?,
            None => EpochLog::default(),
        };
        let mut db = Db {
            inner: Arc::new(Shards {
                engines,
                partitioning: self.partitioning,
                coord,
                epoch_mx: OrderedMutex::new(ranks::SHARDED_EPOCH, log),
                persist_epochs: persist,
            }),
            workers: OrderedMutex::new(ranks::DB_WORKERS, Vec::new()),
        };
        // A spawn failure drops the half-built `Db`, which stops and joins
        // the workers already running.
        for i in 0..self.opts.background_threads {
            let shards = Arc::clone(&db.inner);
            let worker = std::thread::Builder::new()
                .name(format!("lsm-bg-{i}"))
                .spawn(move || shards.work())
                .map_err(Error::Io)?;
            db.workers.get_mut().push(worker);
        }
        Ok(db)
    }
}

impl Db {
    /// Starts building a database; see [`DbBuilder`].
    pub fn builder() -> DbBuilder {
        DbBuilder::default()
    }

    /// Shard 0's engine: what the whole-tree accessors describe.
    fn first(&self) -> &Engine {
        &self.inner.engines[0]
    }

    /// The one engine of a one-shard `Db`; `InvalidArgument` naming `what`
    /// with several.
    fn sole_engine(&self, what: &str) -> Result<&Engine> {
        match &self.inner.engines[..] {
            [engine] => Ok(engine.as_ref()),
            _ => Err(Error::InvalidArgument(format!(
                "{what} needs a one-shard Db"
            ))),
        }
    }

    /// The current serialized manifest (tree shape + WAL list + clocks) of
    /// shard 0.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        self.first().build_manifest().encode()
    }

    /// Inserts or updates `key -> value`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opt(key, value, &WriteOptions::default())
    }

    /// [`Db::put`] with per-write durability options, honoured by the
    /// owning shard alone — a `no_wal` or unsynced write on one shard never
    /// forces (or skips) a sync on any other.
    pub fn put_opt(&self, key: &[u8], value: &[u8], w: &WriteOptions) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write_opt(batch, w)
    }

    /// Deletes `key` (writes a point tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.delete_opt(key, &WriteOptions::default())
    }

    /// [`Db::delete`] with per-write durability options (routed like
    /// [`Db::put_opt`]).
    pub fn delete_opt(&self, key: &[u8], w: &WriteOptions) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write_opt(batch, w)
    }

    /// Deletes `key`, promising it was written at most once since the last
    /// delete (RocksDB `SingleDelete`: the tombstone annihilates with the
    /// matching put during compaction instead of surviving to the bottom).
    pub fn single_delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.single_delete(key);
        self.write_opt(batch, &WriteOptions::default())
    }

    /// Deletes every key in `[start, end)` with one range tombstone. With
    /// several shards the tombstone goes to every shard the range can
    /// cover: the intersecting ones under [`Partitioning::Range`], all of
    /// them under [`Partitioning::Hash`] (a multi-shard batch).
    pub fn delete_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_range(start, end);
        self.write_opt(batch, &WriteOptions::default())
    }

    /// Applies a [`WriteBatch`] atomically.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(batch, &WriteOptions::default())
    }

    /// [`Db::write`] with per-write durability options. A batch whose ops
    /// all land on one shard stays atomic by occupying one framed WAL
    /// record inside its group's append, so recovery replays it
    /// all-or-nothing. A batch spanning shards commits in the cross-shard
    /// epoch window (DESIGN.md, "Sharding"): crash-atomic whatever `w.sync`
    /// says, unless `w.no_wal` opts it out.
    pub fn write_opt(&self, batch: WriteBatch, w: &WriteOptions) -> Result<()> {
        match self.inner.sole_shard(&batch) {
            Some(i) => self.inner.engines[i].commit_batch(batch, w, None),
            None => self.inner.write_epoch(batch, w),
        }
    }

    /// Atomic read-modify-write on `key`'s shard (the FASTER-style
    /// operation of tutorial §2.2.6, RocksDB's merge-operator use case):
    /// `f` receives the current value (if any) and returns the new value
    /// (`None` deletes the key). The read and the write happen under the
    /// writer lock, so concurrent `update`s to the same key never lose
    /// increments.
    pub fn update(
        &self,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        let shard = self.inner.partitioning.shard_of(key, self.num_shards());
        self.inner.engines[shard].update(key, f)
    }

    /// Bulk-loads sorted, unique `(key, value)` pairs directly into the
    /// deepest level, bypassing the memtable, the WAL, and every
    /// compaction — the fast-loading path the tutorial credits WiscKey
    /// with (§2.2.2) and the reason LSM bulk ingestion can be ~100× faster
    /// than put-at-a-time. The tables come from the writer flush and
    /// compaction use, so they split, pin and are counted the same way.
    ///
    /// Requirements (checked): one shard; keys strictly ascending; the
    /// memtables are empty; the loaded key range overlaps no existing
    /// table.
    pub fn bulk_load<I>(&self, pairs: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        self.sole_engine("bulk_load")?.bulk_load(pairs)
    }

    /// Returns the newest value of `key`, if it exists.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }

    /// [`Db::get`] with per-read options ([`ReadOptions::snapshot`] reads
    /// at a pinned seqno of the key's shard without holding a
    /// [`Snapshot`]).
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        self.inner.get(None, key, opts)
    }

    /// Scans `[start, end)` (`None` = unbounded above) at the current
    /// sequence number, merged across the shards the range intersects.
    /// The scan histogram records iterator construction (source collection
    /// + merge setup), not iteration.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Result<DbScanIter> {
        self.scan_opt(start, end, &ReadOptions::default())
    }

    /// [`Db::scan`] with per-read options — e.g. `fill_cache: false` for
    /// analytical scans that must not evict the hot set.
    pub fn scan_opt(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        opts: &ReadOptions,
    ) -> Result<DbScanIter> {
        self.inner.scan(None, start, end, opts)
    }

    /// Pins a consistent read view: one seqno per shard, read and
    /// registered inside the epoch window, so a multi-shard batch is in
    /// the view whole or not at all.
    pub fn snapshot(&self) -> Snapshot {
        let _cut = self.inner.epoch_mx.lock();
        // Each seqno is read while its registry is locked: a flush or
        // compaction that listed the registry before this lock was taken
        // only has inputs published before its listing, so whatever it
        // drops is older than a version this snapshot sees.
        let seqnos = self
            .inner
            .engines
            .iter()
            .map(|engine| {
                let mut snapshots = engine.snapshots.lock();
                let seqno = engine.seqno.load(Ordering::Acquire);
                *snapshots.entry(seqno).or_insert(0) += 1;
                seqno
            })
            .collect();
        Snapshot {
            inner: Arc::clone(&self.inner),
            seqnos,
        }
    }

    /// Runs flushes and compactions until the tree satisfies every trigger
    /// on every shard (synchronous mode), or wakes the background workers.
    pub fn maintain(&self) -> Result<()> {
        self.inner.engines.iter().try_for_each(|e| e.kick())
    }

    /// Blocks until no shard has maintenance work remaining (flushes done,
    /// no plan pending). In synchronous mode this is [`Db::maintain`].
    pub fn wait_idle(&self) -> Result<()> {
        self.inner
            .engines
            .iter()
            .try_for_each(|e| e.wait_idle_shard())
    }

    /// Forces every shard's active memtable to freeze and flush, even if
    /// not full.
    pub fn flush(&self) -> Result<()> {
        self.inner.engines.iter().try_for_each(|e| {
            e.freeze_active(true)?;
            e.wait_idle_shard()
        })
    }

    /// Every counter surface in one snapshot (engine + backend I/O +
    /// cache), with a [`MetricsSnapshot::delta`] combinator for phase
    /// measurements. With several shards the per-shard counters add, the
    /// levels add index-wise, and the read-amp estimate averages weighted
    /// by read traffic; the cache and the latency histograms are
    /// database-wide and count once.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.engines.len()
    }

    /// One shard's unmerged counters, I/O and tree shape (per-shard sync
    /// counts for experiments; see benchmark E14). The cache and latency
    /// columns are the database-wide ones.
    pub fn shard_metrics(&self, i: usize) -> MetricsSnapshot {
        engine_metrics(&self.inner.engines[i])
    }

    /// Spawns a [`MetricsExporter`](crate::MetricsExporter) appending one
    /// metrics-delta JSONL line of [`Db::metrics`] per
    /// [`Options::metrics_export_interval`] to `sink`. The exporter holds
    /// only the engines (not the worker threads), so it keeps running
    /// until stopped or dropped even if this `Db` handle is dropped first.
    pub fn metrics_exporter<W>(&self, sink: W) -> crate::MetricsExporter
    where
        W: std::io::Write + Send + 'static,
    {
        let shards = Arc::clone(&self.inner);
        crate::MetricsExporter::spawn(
            move || shards.metrics(),
            self.first().opts.metrics_export_interval,
            sink,
        )
    }

    /// The full metrics surface rendered as Prometheus text exposition:
    /// counters, gauges, and latency quantiles from [`Db::metrics`] (with
    /// several shards, followed by every shard's samples labelled
    /// `shard="i"` against the same family declarations), plus the
    /// observability-side series (event drops, workload op mix, hot keys)
    /// that live outside [`MetricsSnapshot`].
    pub fn metrics_text(&self) -> String {
        let mut prom = lsm_obs::PromText::new();
        self.metrics().prometheus_render(&mut prom, &[]);
        if self.num_shards() > 1 {
            for i in 0..self.num_shards() {
                let label = i.to_string();
                self.shard_metrics(i)
                    .prometheus_render(&mut prom, &[("shard", &label)]);
            }
        }
        self.obs().prometheus_render_aux(&mut prom, &[]);
        prom.finish()
    }

    /// The observability handle every shard records into: latency
    /// histograms and the structured event trace. Always present; a handle
    /// opened with [`Observability::Off`] reports empty surfaces.
    pub fn obs(&self) -> &ObsHandle {
        &self.first().obs
    }

    /// What recovery did when this database was opened, summed over
    /// shards: `None` for a fresh database, `Some` after a manifest-driven
    /// recovery (even a clean one).
    pub fn recovery_summary(&self) -> Option<RecoverySummary> {
        let mut sum: Option<RecoverySummary> = None;
        for engine in &self.inner.engines {
            let Some(r) = engine.recovery.get() else {
                continue;
            };
            let s = sum.get_or_insert_with(RecoverySummary::default);
            s.segments_replayed += r.segments_replayed;
            s.segments_missing += r.segments_missing;
            s.records_recovered += r.records_recovered;
            s.records_discarded += r.records_discarded;
            s.wal_bytes_truncated += r.wal_bytes_truncated;
            s.torn_segments += r.torn_segments;
        }
        sum
    }

    /// Deletes backend files referenced by neither the manifest (tables,
    /// live WAL segments) nor `protected` (e.g. WiscKey value-log
    /// segments), on every shard. Idempotent; tolerates
    /// concurrently-vanishing files. Returns the number of files removed.
    pub fn clean_orphans(&self, protected: &[FileId]) -> Result<usize> {
        let mut removed = 0;
        for engine in &self.inner.engines {
            removed += engine.clean_orphans(protected)?;
        }
        Ok(removed)
    }

    /// Shard 0's current tree shape, for inspection and experiments.
    pub fn version(&self) -> Arc<Version> {
        self.first().current.lock().clone()
    }

    /// Space amplification of shard 0: bytes on the backend divided by the
    /// bytes of live (visible) entries is hard to measure cheaply, so we
    /// report the standard proxy: total tree bytes over last-level bytes.
    pub fn space_amplification(&self) -> f64 {
        let v = self.version();
        let last = v.levels.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
        let last_bytes: u64 = v.levels[last].iter().map(|r| r.size_bytes()).sum();
        if last_bytes == 0 {
            1.0
        } else {
            v.total_bytes() as f64 / last_bytes as f64
        }
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &Options {
        &self.first().opts
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let pool = &self.inner.engines[0].pool;
        pool.shutdown.store(true, Ordering::Release);
        pool.signal();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One engine's metrics, without holding (and without keeping alive) the
/// worker threads a full [`Db`] handle owns.
fn engine_metrics(inner: &Engine) -> MetricsSnapshot {
    let version = inner.current.lock().clone();
    let levels = version.describe().level_gauges();
    MetricsSnapshot {
        db: inner.stats.snapshot(),
        io: inner.backend.stats().snapshot(),
        cache: inner.cache.as_ref().map(|c| c.stats()),
        latency: inner.obs.latency(),
        read_amp_estimate: lsm_obs::estimated_read_amp(&levels) as f64,
        levels,
    }
}

impl Shards {
    /// A pool worker: one job per iteration until the `Db` drops. With no
    /// job on any shard it parks until signalled, for at most 20 ms.
    fn work(&self) {
        let (pool, mut last) = (&self.engines[0].pool, 0);
        while !pool.shutdown.load(Ordering::Acquire) {
            if self.step(&mut last) {
                continue;
            }
            let mut flag = pool.wake_mx.lock();
            if !*flag {
                pool.wake_cv.wait_for(&mut flag, Duration::from_millis(20));
            }
            *flag = false;
        }
    }

    /// Runs at most one maintenance job and reports whether it did: a
    /// flush, on the shard with the most immutable memtables no worker has
    /// claimed yet; else a compaction, trying shards round-robin from the one
    /// after `last` (the shard this worker compacted last, updated). A
    /// failed job records its shard's background error (and counts as
    /// work); the pool skips that shard from then on. With one shard this
    /// is `try_flush_one() || try_compact_one()`.
    pub(crate) fn step(&self, last: &mut usize) -> bool {
        let live = |i: &usize| self.engines[*i].bg_error.get().is_none();
        let run = |i: usize, job: fn(&Engine) -> Result<bool>| {
            let e = &self.engines[i];
            e.with_transient_retry(|| job(e)).unwrap_or_else(|err| {
                e.set_bg_error(&err.to_string());
                true
            })
        };
        let mut by_queue: Vec<usize> = (0..self.engines.len()).filter(live).collect();
        by_queue.sort_by_cached_key(|&i| {
            let e = &self.engines[i];
            let queued = e.mem.read().immutables.len();
            Reverse(queued.saturating_sub(e.sched.lock().flushing.len()))
        });
        if by_queue.into_iter().any(|i| run(i, Engine::try_flush_one)) {
            return true;
        }
        let n = self.engines.len();
        let mut round = (1..=n).map(|k| (*last + k) % n).filter(live);
        round
            .find(|&i| run(i, Engine::try_compact_one))
            .map(|i| *last = i)
            .is_some()
    }

    /// [`Db::metrics`]: shard 0's snapshot with every other shard merged
    /// in. All shards share one cache and one obs handle, so those columns
    /// are taken once, not summed N times.
    fn metrics(&self) -> MetricsSnapshot {
        let mut acc = engine_metrics(&self.engines[0]);
        for engine in &self.engines[1..] {
            acc.merge(&MetricsSnapshot {
                cache: acc.cache.map(|_| CacheStats::default()),
                latency: Default::default(),
                ..engine_metrics(engine)
            });
        }
        acc
    }

    /// The shard every op of `batch` lands on (shard 0 for an empty batch),
    /// or `None` when it spans several.
    fn sole_shard(&self, batch: &WriteBatch) -> Option<usize> {
        if self.engines.len() == 1 {
            return Some(0);
        }
        let mut sole = None;
        for op in &batch.ops {
            let shards = self.shards_of_op(op);
            let first = *shards.start();
            if *shards.end() != first || sole.is_some_and(|s| s != first) {
                return None;
            }
            sole = Some(first);
        }
        Some(sole.unwrap_or(0))
    }

    /// The foreground point read behind every public `get`: on the key's
    /// shard, sampled by [`Engine::instrument_fg`], at the seqno
    /// [`Engine::read_seqno`] resolves (`pins` are a [`Snapshot`]'s
    /// per-shard seqnos, `None` through a [`Db`]).
    fn get(&self, pins: Option<&[SeqNo]>, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        let i = self.partitioning.shard_of(key, self.engines.len());
        let engine = &self.engines[i];
        engine.instrument_fg(HistKind::Get, OpKind::Get, key, |probe| {
            let seqno = engine.read_seqno(pins.map(|p| p[i]), opts);
            engine.get(key, seqno, &mut opts.ctx(probe))
        })
    }

    /// The same for every public `scan`: only the shards `[start, end)`
    /// intersects are opened, one of them without a merge. A scan over
    /// several shards ignores [`ReadOptions::snapshot`] (shard seqnos are
    /// independent; a [`Snapshot`] is the cross-shard cut).
    fn scan(
        &self,
        pins: Option<&[SeqNo]>,
        start: &[u8],
        end: Option<&[u8]>,
        opts: &ReadOptions,
    ) -> Result<DbScanIter> {
        let shards = self.partitioning.shards_of(start, end, self.engines.len());
        let one = |i: usize, opts: &ReadOptions| {
            let engine = &self.engines[i];
            engine.instrument_fg(HistKind::Scan, OpKind::Scan, start, |probe| {
                let seqno = engine.read_seqno(pins.map(|p| p[i]), opts);
                engine.scan(start, end, seqno, &mut opts.ctx(probe))
            })
        };
        if shards.start() == shards.end() {
            return one(*shards.start(), opts);
        }
        let opts = ReadOptions {
            snapshot: None,
            ..*opts
        };
        let iters = shards.map(|i| one(i, &opts)).collect::<Result<_>>()?;
        DbScanIter::merged(iters)
    }
}

/// The foreground write behind every public mutation, the twin of
/// [`Shards::get`]: the one place that turns away an empty or invalid
/// batch, counts `puts`/`deletes`/`user_bytes`, and samples the commit
/// through [`Engine::instrument_fg`] (histogram and op class from the
/// first op). `commit` is the queue ([`Engine::commit_batch`]) for every
/// caller but [`Engine::update`], which commits under the ticket it
/// already holds.
pub(crate) fn fg_write(
    engine: &Engine,
    batch: WriteBatch,
    commit: impl FnOnce(Vec<BatchOp>) -> Result<()>,
) -> Result<()> {
    let Some(first) = batch.ops.first() else {
        return Ok(());
    };
    batch.validate()?;
    let (hist, kind) = match first.kind {
        EntryKind::Put => (HistKind::Put, OpKind::Put),
        _ => (HistKind::Delete, OpKind::Delete),
    };
    let key = first.key.clone();
    let (mut puts, mut bytes) = (0u64, 0u64);
    for op in &batch.ops {
        puts += u64::from(op.kind == EntryKind::Put);
        bytes += op.user_bytes() as u64;
    }
    let deletes = batch.len() as u64 - puts;
    engine.stats.puts.fetch_add(puts, Ordering::Relaxed);
    engine.stats.deletes.fetch_add(deletes, Ordering::Relaxed);
    engine.stats.user_bytes.fetch_add(bytes, Ordering::Relaxed);
    engine.instrument_fg(hist, kind, key.as_bytes(), |_| commit(batch.ops))
}

/// A consistent read surface — either the live [`Db`] (which reads at the
/// latest published seqno) or a pinned [`Snapshot`]. Benchmarks and the
/// crash harness are written once against this trait and run on either.
pub trait ReadView {
    /// Point lookup with per-read options.
    fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>>;
    /// Range scan over `[start, end)` (`None` = unbounded above) with
    /// per-read options.
    fn scan_opt(&self, start: &[u8], end: Option<&[u8]>, opts: &ReadOptions) -> Result<DbScanIter>;
    /// The sequence number reads through this view observe.
    fn seqno(&self) -> SeqNo;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }
    /// Range scan over `[start, end)` (`None` = unbounded above).
    fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Result<DbScanIter> {
        self.scan_opt(start, end, &ReadOptions::default())
    }
}

impl ReadView for Db {
    fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        Db::get_opt(self, key, opts)
    }

    fn scan_opt(&self, start: &[u8], end: Option<&[u8]>, opts: &ReadOptions) -> Result<DbScanIter> {
        Db::scan_opt(self, start, end, opts)
    }

    /// With several shards, the sum of every shard's published seqno: a
    /// monotone high-water mark of applied writes (shards allocate
    /// independently, so this is not a global ordering).
    fn seqno(&self) -> SeqNo {
        let engines = self.inner.engines.iter();
        engines.map(|e| e.seqno.load(Ordering::Acquire)).sum()
    }
}

impl ReadView for Snapshot {
    fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        Snapshot::get_opt(self, key, opts)
    }

    fn scan_opt(&self, start: &[u8], end: Option<&[u8]>, opts: &ReadOptions) -> Result<DbScanIter> {
        Snapshot::scan_opt(self, start, end, opts)
    }

    fn seqno(&self) -> SeqNo {
        Snapshot::seqno(self)
    }
}

/// An owning iterator over visible `(key, value)` pairs of a scan — either
/// one engine's merged view or a cross-shard min-key merge of several
/// (shard keyspaces are disjoint, so the merge never sees duplicates).
pub struct DbScanIter {
    imp: ScanImp,
}

enum ScanImp {
    Single(VisibleIter),
    Merged(MergedScan),
}

/// Linear min-key merge over per-shard scan iterators. Shard counts are
/// small (single digits), so a loser tree would be overkill; each `next`
/// scans the peeked heads for the smallest key.
struct MergedScan {
    iters: Vec<DbScanIter>,
    peeked: Vec<Option<(UserKey, Value)>>,
}

impl DbScanIter {
    pub(crate) fn single(vis: VisibleIter) -> DbScanIter {
        DbScanIter {
            imp: ScanImp::Single(vis),
        }
    }

    /// Merges per-shard scans into one ascending stream (a [`Db`] scan
    /// over several shards).
    pub(crate) fn merged(iters: Vec<DbScanIter>) -> Result<DbScanIter> {
        let mut peeked = Vec::with_capacity(iters.len());
        let mut iters = iters;
        for it in &mut iters {
            peeked.push(it.next().transpose()?);
        }
        Ok(DbScanIter {
            imp: ScanImp::Merged(MergedScan { iters, peeked }),
        })
    }
}

impl Iterator for DbScanIter {
    type Item = Result<(UserKey, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.imp {
            ScanImp::Single(vis) => vis.next_visible().transpose(),
            ScanImp::Merged(m) => {
                let mut min: Option<usize> = None;
                for (i, head) in m.peeked.iter().enumerate() {
                    if let Some((key, _)) = head {
                        let smaller = match min {
                            None => true,
                            Some(j) => m.peeked[j]
                                .as_ref()
                                .is_some_and(|(mk, _)| key.as_bytes() < mk.as_bytes()),
                        };
                        if smaller {
                            min = Some(i);
                        }
                    }
                }
                let i = min?;
                let refill = match m.iters[i].next() {
                    Some(Ok(pair)) => Some(pair),
                    Some(Err(e)) => return Some(Err(e)),
                    None => None,
                };
                let out = std::mem::replace(&mut m.peeked[i], refill);
                out.map(Ok)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code: panicking on unexpected results is the assertion style.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use lsm_storage::FaultBackend;

    use super::*;
    use crate::Partitioning;

    /// Two shards split at `m`: keys below go to shard 0, the rest to 1.
    fn two_shards(opts: Options, shard0: Arc<dyn Backend>) -> Db {
        Db::builder()
            .shards(2)
            .partitioning(Partitioning::Range {
                split_points: vec![b"m".to_vec()],
            })
            .backends(vec![shard0, Arc::new(MemBackend::new())])
            .options(opts)
            .open()
            .unwrap()
    }

    fn put_many(db: &Db, prefix: &str, n: usize) {
        for i in 0..n {
            db.put(format!("{prefix}{i:06}").as_bytes(), &[7u8; 100])
                .unwrap();
        }
    }

    #[test]
    fn background_threads_counts_workers_per_db_not_per_shard() {
        let opts = Options {
            background_threads: 1,
            ..Options::small_for_benchmarks()
        };
        let db = Db::builder().shards(4).options(opts).open().unwrap();
        assert_eq!(db.workers.lock().len(), 1);
        let sync = Db::builder().shards(4).open().unwrap();
        assert!(sync.workers.lock().is_empty(), "synchronous mode");
    }

    /// A permanent write fault on shard 0 poisons shard 0 alone: the one
    /// worker records the error, skips the shard, and keeps flushing and
    /// compacting shard 1.
    #[test]
    fn a_failed_shard_leaves_the_pool_serving_the_others() {
        let fault = Arc::new(FaultBackend::new(Arc::new(MemBackend::new())));
        let opts = Options {
            background_threads: 1,
            ..Options::small_for_benchmarks()
        };
        let db = two_shards(opts, Arc::clone(&fault) as Arc<dyn Backend>);
        fault.fail_writes_permanently(true);
        for i in 0..2_000 {
            // Once the failed flush lands, shard 0 refuses writes.
            let _ = db.put(format!("a{i:06}").as_bytes(), &[7u8; 100]);
        }
        let (shard0, shard1) = (&db.inner.engines[0], &db.inner.engines[1]);
        assert!(shard0.wait_idle_shard().unwrap_err().is_corruption());
        assert!(db.put(b"a", b"v").is_err(), "shard 0 stays poisoned");

        put_many(&db, "n", 10_000);
        shard1.wait_idle_shard().unwrap();
        let stats = db.shard_metrics(1).db;
        assert!(stats.flushes > 0 && stats.compactions > 0, "{stats:?}");
        assert!(shard1.check_bg_error().is_ok());
        assert_eq!(db.workers.lock().len(), 1);
        assert!(!db.workers.lock()[0].is_finished(), "the worker lives on");
        assert_eq!(
            db.get(b"n000042").unwrap().as_deref(),
            Some(&[7u8; 100][..])
        );
    }

    /// Flushes come before compactions across shards: driving the pool's
    /// one-job step by hand (synchronous mode, so no worker runs), a
    /// frozen memtable on shard 0 is flushed before shard 1's pending
    /// compaction, and the compaction is served by the next step.
    #[test]
    fn a_frozen_memtable_is_flushed_before_another_shards_compaction() {
        let opts = Options {
            write_buffer_bytes: 64 << 20,
            ..Options::small_for_benchmarks()
        };
        let db = two_shards(opts, Arc::new(MemBackend::new()));
        let (shard0, shard1) = (&db.inner.engines[0], &db.inner.engines[1]);
        let count = |e: &Engine| {
            let s = e.stats.snapshot();
            (s.flushes, s.compactions)
        };
        // Level-0 runs on shard 1 until a compaction is due.
        for run in 0.. {
            assert!(run < 32, "no compaction ever became due");
            put_many(&db, &format!("n{run:02}-"), 200);
            shard1.freeze_active(true).unwrap();
            assert!(shard1.try_flush_one().unwrap());
            if shard1.next_plan().is_some() {
                break;
            }
        }
        let (flushed, compacted) = count(shard1);

        put_many(&db, "a", 200);
        shard0.freeze_active(true).unwrap();
        let mut last = 0;
        assert!(db.inner.step(&mut last));
        assert_eq!(count(shard0), (1, 0), "the flush ran first");
        assert_eq!(count(shard1), (flushed, compacted), "shard 1 waited");
        assert!(shard1.next_plan().is_some());

        assert!(db.inner.step(&mut last));
        assert_eq!(count(shard1), (flushed, compacted + 1));
        assert_eq!(last, 1);

        // Frozen again while shard 1 may still owe compactions: still
        // at most the one compaction above before the flush.
        put_many(&db, "b", 200);
        shard0.freeze_active(true).unwrap();
        assert!(db.inner.step(&mut last));
        assert_eq!(count(shard0), (2, 0));
        while db.inner.step(&mut last) {}
        assert!(shard0.is_idle() && shard1.is_idle());
    }
}
