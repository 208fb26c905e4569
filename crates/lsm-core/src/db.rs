//! The public single-keyspace database handle: a thin wrapper over one
//! [`crate::engine::Engine`] instance (write path, read path, maintenance,
//! recovery). The multi-shard router lives in [`crate::sharded`].

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use lsm_obs::{recovery_phase, EventKind, HistKind, ObsHandle, Observability, OpKind, ReadProbe};
use lsm_sstable::{ReadCtx, TableReadOpts};
use lsm_storage::{
    Backend, BlockCache, CacheConfig, FileId, FsBackend, MemBackend, ObservedBackend,
};
use lsm_sync::{ranks, OrderedMutex};
use lsm_types::{EntryKind, Error, InternalEntry, KeyRange, Result, SeqNo, UserKey, Value};

use crate::compact::{GcRules, OutputWriter};
use crate::engine::{BatchOp, Engine, EpochFilter, MANIFEST_META};
use crate::metrics::MetricsSnapshot;
use crate::options::Options;
use crate::scan::VisibleIter;
use crate::version::{Run, Version, VersionEdit};

pub use crate::engine::RecoverySummary;

/// The `lsm-lab` storage engine. Cheap to clone handles are not provided;
/// wrap in `Arc` to share across threads (all methods take `&self`).
pub struct Db {
    pub(crate) inner: Arc<Engine>,
    workers: OrderedMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A consistent read view pinned at a sequence number. Dropping the
/// snapshot releases its pin on compaction garbage collection.
pub struct Snapshot {
    inner: Arc<Engine>,
    seqno: SeqNo,
}

impl Snapshot {
    /// The sequence number this snapshot reads at.
    pub fn seqno(&self) -> SeqNo {
        self.seqno
    }

    /// Point lookup at this snapshot.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }

    /// [`Snapshot::get`] with per-read options. The snapshot's pinned
    /// seqno wins; [`ReadOptions::snapshot`] may only narrow it further
    /// (read even further into the past), never widen it.
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        fg_get(&self.inner, Some(self.seqno), key, opts)
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
        fg_scan(&self.inner, Some(self.seqno), start, end, opts)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seqno) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seqno);
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
/// ([`Db::get_opt`], [`Db::scan_opt`], and the [`Snapshot`] /
/// [`crate::ShardedDb`] counterparts) — the read-side mirror of
/// [`WriteOptions`]. The plain methods use [`ReadOptions::default`].
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
    /// [`Snapshot`], the pinned seqno caps whatever is given here.
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

    fn push(&mut self, kind: EntryKind, key: &[u8], value: Value) -> &mut Self {
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
///
/// ```
/// # use lsm_core::{Db, Options};
/// let db = Db::builder().options(Options::small_for_benchmarks()).open()?;
/// db.put(b"k", b"v")?;
/// # lsm_core::Result::Ok(())
/// ```
#[derive(Default)]
pub struct DbBuilder {
    backend: Option<Arc<dyn Backend>>,
    dir: Option<PathBuf>,
    opts: Options,
    manifest: Option<Vec<u8>>,
    persist_manifest: Option<bool>,
    recover: Option<bool>,
    clean_orphans: bool,
    obs: Observability,
    cache_config: Option<CacheConfig>,
    /// Pre-built cache shared across databases; set (crate-internally) by
    /// `ShardedDbBuilder` so every shard charges one capacity pool.
    pub(crate) shared_cache: Option<Arc<BlockCache>>,
    /// Cross-shard epoch filter for recovery; set (crate-internally) by
    /// `ShardedDbBuilder` so each shard's replay can discard WAL records
    /// of epochs the coordinator never committed.
    pub(crate) epoch_filter: Option<EpochFilter>,
}

impl DbBuilder {
    /// Uses `backend` as the storage substrate. Mutually exclusive with
    /// [`dir`](DbBuilder::dir).
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Stores data in a filesystem directory (an [`FsBackend`]); switches
    /// the defaults to persistent mode: the manifest is saved to the
    /// backend's `MANIFEST` metadata blob and recovered from it on reopen.
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Engine options (defaults to [`Options::default`]).
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Recovers from an explicit manifest blob (as returned by
    /// [`Db::manifest_bytes`]) instead of the backend's stored one.
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
    /// replay included). Default: `true` with [`dir`](DbBuilder::dir) or an
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
    pub fn obs(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Block-cache configuration: capacity, shard count, and the
    /// index/filter pinning policy. Takes precedence over the legacy
    /// [`Options::block_cache_bytes`] knob; a zero-capacity config runs
    /// without a cache.
    pub fn cache_config(mut self, cfg: CacheConfig) -> Self {
        self.cache_config = Some(cfg);
        self
    }

    /// Opens the database.
    pub fn open(self) -> Result<Db> {
        self.opts.validate()?;
        if self.backend.is_some() && self.dir.is_some() {
            return Err(Error::InvalidArgument(
                "DbBuilder: backend and dir are mutually exclusive".into(),
            ));
        }
        let is_dir = self.dir.is_some();
        let backend: Arc<dyn Backend> = match (self.backend, self.dir) {
            (Some(b), None) => b,
            (None, Some(d)) => Arc::new(FsBackend::open(d)?),
            (None, None) => Arc::new(MemBackend::new()),
            (Some(_), Some(_)) => unreachable!("rejected above"),
        };
        let obs = self.obs.into_handle();
        // Wrap once at construction so every engine I/O path is timed
        // without touching any call site (the wrapper delegates `stats()`
        // to the inner backend, so I/O byte counters are unaffected).
        let backend: Arc<dyn Backend> = if obs.enabled() {
            Arc::new(ObservedBackend::new(backend, obs.clone()))
        } else {
            backend
        };
        let persist = self.persist_manifest.unwrap_or(is_dir);
        let want_recover = self.recover.unwrap_or(is_dir || self.manifest.is_some());
        let manifest_bytes = match self.manifest {
            Some(bytes) => Some(bytes),
            None if want_recover => backend.get_meta(MANIFEST_META)?.map(|b| b.to_vec()),
            None => None,
        };
        // Recovery is a span: the phase instants (manifest, WAL replay,
        // relog, orphan sweep) emitted inside attach to it as children,
        // so a trace shows startup as one bracketed region.
        let recovering = manifest_bytes.is_some() || self.clean_orphans;
        let span = recovering.then(|| obs.span_begin(EventKind::RecoveryStart, None, 0, 0));
        let end_obs = obs.clone();
        let mut swept = 0u64;
        // Cache resolution: an explicitly shared cache wins (sharded
        // router), then an explicit config, then the legacy capacity knob
        // (which inherits the default sharding/pinning policy).
        let cache: Option<Arc<BlockCache>> = match self.shared_cache {
            Some(c) => Some(c),
            None => self
                .cache_config
                .or_else(|| {
                    (self.opts.block_cache_bytes > 0).then(|| CacheConfig {
                        capacity_bytes: self.opts.block_cache_bytes,
                        ..CacheConfig::default()
                    })
                })
                .filter(|c| c.capacity_bytes > 0)
                .map(|c| Arc::new(BlockCache::with_config(c))),
        };
        let opened = (|| -> Result<Arc<Engine>> {
            let inner = match manifest_bytes {
                Some(bytes) => Engine::recover(
                    backend,
                    self.opts,
                    cache,
                    &bytes,
                    persist,
                    obs,
                    self.epoch_filter.as_ref(),
                )?,
                None => {
                    let inner = Engine::new(backend, self.opts, cache, persist, obs)?;
                    inner.save_manifest()?;
                    inner
                }
            };
            if self.clean_orphans {
                let removed = inner.clean_orphans(&[])?;
                swept = removed as u64;
                inner.obs.emit(
                    EventKind::RecoveryPhase,
                    None,
                    recovery_phase::ORPHAN_SWEEP,
                    removed as u64,
                );
            }
            Ok(inner)
        })();
        if let Some(span) = span {
            end_obs.span_end(span, EventKind::RecoveryEnd, None, swept, 0);
        }
        Db::finish_open(opened?)
    }
}

impl Db {
    /// Starts building a database; see [`DbBuilder`].
    pub fn builder() -> DbBuilder {
        DbBuilder::default()
    }

    fn finish_open(inner: Arc<Engine>) -> Result<Db> {
        let mut workers = Vec::new();
        for i in 0..inner.opts.background_threads {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("lsm-bg-{i}"))
                    .spawn(move || inner.worker_loop())
                    .map_err(Error::Io)?,
            );
        }
        Ok(Db {
            inner,
            workers: OrderedMutex::new(ranks::DB_WORKERS, workers),
        })
    }

    /// The current serialized manifest (tree shape + WAL list + clocks).
    pub fn manifest_bytes(&self) -> Vec<u8> {
        self.inner.build_manifest().encode()
    }

    /// Inserts or updates `key -> value`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opt(key, value, &WriteOptions::default())
    }

    /// [`Db::put`] with per-write durability options.
    pub fn put_opt(&self, key: &[u8], value: &[u8], w: &WriteOptions) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write_opt(batch, w)
    }

    /// Deletes `key` (writes a point tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.delete_opt(key, &WriteOptions::default())
    }

    /// [`Db::delete`] with per-write durability options.
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
        self.write(batch)
    }

    /// Deletes every key in `[start, end)` with one range tombstone.
    pub fn delete_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_range(start, end);
        self.write(batch)
    }

    /// Applies a [`WriteBatch`] atomically.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(batch, &WriteOptions::default())
    }

    /// [`Db::write`] with per-write durability options. The batch stays
    /// atomic: it occupies one framed WAL record inside the group's
    /// append, so recovery replays it all-or-nothing.
    pub fn write_opt(&self, batch: WriteBatch, w: &WriteOptions) -> Result<()> {
        fg_write(&self.inner, batch, |ops| {
            self.inner.commit_write(ops, w, None)
        })
    }

    /// Atomic read-modify-write (the FASTER-style operation of tutorial
    /// §2.2.6, RocksDB's merge-operator use case): `f` receives the current
    /// value (if any) and returns the new value (`None` deletes the key).
    /// The read and the write happen under the writer lock, so concurrent
    /// `update`s to the same key never lose increments.
    pub fn update(
        &self,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        self.inner.check_bg_error()?;
        self.inner.maybe_stall()?;
        {
            // Holding the writer ticket from the read to the publish is the
            // read-modify-write contract: no commit lands in between.
            let _writer = self.inner.write_mx.lock();
            let snapshot = self.inner.seqno.load(Ordering::Acquire);
            let current = self.inner.get(key, snapshot, &mut ReadCtx::default())?;
            let mut batch = WriteBatch::new();
            match f(current.as_deref()) {
                Some(new) => batch.push(EntryKind::Put, key, new.into()),
                None if current.is_some() => batch.delete(key),
                None => &mut batch, // nothing to delete: an empty batch commits nothing
            };
            // The result commits as a one-request group under the ticket
            // already held, which is exactly what a queue leader holds.
            fg_write(&self.inner, batch, |ops| {
                let req = self.inner.request(ops, &WriteOptions::default(), None);
                // lsm-lint: allow(io-under-lock)
                self.inner.commit_group(&[req])
            })?;
        }
        self.inner.maybe_freeze()
    }

    /// Bulk-loads sorted, unique `(key, value)` pairs directly into the
    /// deepest level, bypassing the memtable, the WAL, and every
    /// compaction — the fast-loading path the tutorial credits WiscKey
    /// with (§2.2.2) and the reason LSM bulk ingestion can be ~100× faster
    /// than put-at-a-time. The tables come from the writer flush and
    /// compaction use, so they split, pin and are counted the same way.
    ///
    /// Requirements (checked): keys strictly ascending; the memtables are
    /// empty; the loaded key range overlaps no existing table.
    pub fn bulk_load<I>(&self, pairs: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let _writer = self.inner.write_mx.lock();
        {
            let mem = self.inner.mem.read();
            if !mem.active.table.is_empty() || !mem.immutables.is_empty() {
                return Err(Error::InvalidArgument(
                    "bulk_load requires empty memtables (flush first)".into(),
                ));
            }
        }
        let base = self.inner.seqno.load(Ordering::Acquire);
        let ts = self.inner.clock.load(Ordering::Acquire);
        let version = self.inner.current.lock().clone();
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
            ..self.inner.output_writer(&version, last_level)
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
            let mut current = self.inner.current.lock();
            let edit = VersionEdit {
                add_runs: vec![(last_level, Run::new(written.tables))],
                ..Default::default()
            };
            *current = Arc::new(edit.apply(current.as_ref()));
        }
        self.inner.stats.puts.fetch_add(count, Ordering::Relaxed);
        self.inner
            .stats
            .user_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.inner
            .stats
            .flush_bytes
            .fetch_add(written.bytes_written, Ordering::Relaxed);
        self.inner.clock.fetch_add(count, Ordering::AcqRel);
        self.inner.seqno.store(base + count, Ordering::Release);
        // Bulk load owns the writer ticket end-to-end by design.
        // lsm-lint: allow(io-under-lock)
        self.inner.save_manifest()?;
        Ok(())
    }

    /// Returns the newest value of `key`, if it exists.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }

    /// [`Db::get`] with per-read options ([`ReadOptions::snapshot`] reads
    /// at a pinned seqno without holding a [`Snapshot`]).
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        fg_get(&self.inner, None, key, opts)
    }

    /// Scans `[start, end)` (`None` = unbounded above) at the current
    /// sequence number. The scan histogram records iterator construction
    /// (source collection + merge setup), not iteration.
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
        fg_scan(&self.inner, None, start, end, opts)
    }

    /// Pins a consistent read view.
    pub fn snapshot(&self) -> Snapshot {
        // The seqno is read while the registry is locked: a flush or
        // compaction that listed the registry before this lock was taken
        // only has inputs published before its listing, so whatever it
        // drops is older than a version this snapshot sees.
        let seqno = {
            let mut snapshots = self.inner.snapshots.lock();
            let seqno = self.inner.seqno.load(Ordering::Acquire);
            *snapshots.entry(seqno).or_insert(0) += 1;
            seqno
        };
        Snapshot {
            inner: Arc::clone(&self.inner),
            seqno,
        }
    }

    /// Runs flushes and compactions until the tree satisfies every trigger
    /// (synchronous mode) or until background workers have nothing queued.
    pub fn maintain(&self) -> Result<()> {
        if self.inner.opts.background_threads > 0 {
            self.inner.kick_work();
            return Ok(());
        }
        self.inner.drain_maintenance()
    }

    /// Blocks until no maintenance work remains (flushes done, no plan
    /// pending). In synchronous mode this is [`Db::maintain`].
    pub fn wait_idle(&self) -> Result<()> {
        if self.inner.opts.background_threads == 0 {
            return self.inner.drain_maintenance();
        }
        loop {
            self.inner.check_bg_error()?;
            if self.inner.is_idle() {
                return Ok(());
            }
            self.inner.kick_work();
            // Park on the maintenance-progress condvar instead of polling.
            // Completions notify `stall_cv` while holding `stall_mx`, so
            // re-checking idleness under the lock cannot miss a wakeup; the
            // timeout is a safety net, not the progress mechanism.
            let mut guard = self.inner.stall_mx.lock();
            if self.inner.is_idle() {
                return Ok(());
            }
            self.inner.stats.idle_waits.fetch_add(1, Ordering::Relaxed);
            self.inner
                .stall_cv
                .wait_for(&mut guard, Duration::from_millis(100));
        }
    }

    /// Forces the active memtable to freeze and flush, even if not full.
    pub fn flush(&self) -> Result<()> {
        self.inner.freeze_active(true)?;
        if self.inner.opts.background_threads == 0 {
            self.inner.drain_maintenance()
        } else {
            self.inner.kick_work();
            self.wait_idle()
        }
    }

    /// Every counter surface in one snapshot (engine + backend I/O +
    /// cache), with a [`MetricsSnapshot::delta`] combinator for phase
    /// measurements.
    pub fn metrics(&self) -> MetricsSnapshot {
        engine_metrics(&self.inner)
    }

    /// Spawns a [`MetricsExporter`] appending one metrics-delta JSONL line
    /// per [`Options::metrics_export_interval`] to `sink`. The exporter
    /// holds only the engine (not the worker threads), so it keeps running
    /// until stopped or dropped even if this `Db` handle is dropped first.
    pub fn metrics_exporter<W>(&self, sink: W) -> crate::MetricsExporter
    where
        W: std::io::Write + Send + 'static,
    {
        let engine = Arc::clone(&self.inner);
        crate::MetricsExporter::spawn(
            move || engine_metrics(&engine),
            self.inner.opts.metrics_export_interval,
            sink,
        )
    }

    /// The full metrics surface rendered as Prometheus text exposition:
    /// counters, gauges, and latency quantiles from [`Db::metrics`], plus
    /// the observability-side series (event drops, workload op mix, hot
    /// keys) that live outside [`MetricsSnapshot`].
    pub fn metrics_text(&self) -> String {
        let mut prom = lsm_obs::PromText::new();
        self.metrics().prometheus_render(&mut prom, &[]);
        self.inner.obs.prometheus_render_aux(&mut prom, &[]);
        prom.finish()
    }

    /// The observability handle: latency histograms and the structured
    /// event trace. Always present; a handle opened with
    /// [`Observability::Off`] reports empty surfaces.
    pub fn obs(&self) -> &ObsHandle {
        &self.inner.obs
    }

    /// What recovery did when this database was opened: `None` for a fresh
    /// database, `Some` after a manifest-driven recovery (even a clean one).
    pub fn recovery_summary(&self) -> Option<RecoverySummary> {
        self.inner.recovery.lock().clone()
    }

    /// Deletes backend files referenced by neither the manifest (tables,
    /// live WAL segments) nor `protected` (e.g. WiscKey value-log
    /// segments). Idempotent; tolerates concurrently-vanishing files.
    /// Returns the number of files removed.
    pub fn clean_orphans(&self, protected: &[FileId]) -> Result<usize> {
        self.inner.clean_orphans(protected)
    }

    /// The current tree shape, for inspection and experiments.
    pub fn version(&self) -> Arc<Version> {
        self.inner.current.lock().clone()
    }

    /// Space amplification: bytes on the backend divided by the bytes of
    /// live (visible) entries is hard to measure cheaply, so we report the
    /// standard proxy: total tree bytes over last-level bytes.
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
        &self.inner.opts
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// [`Db::metrics`] against a bare engine, so the metrics exporter can
/// keep polling without holding (and without keeping alive) the worker
/// threads a full [`Db`] handle owns.
pub(crate) fn engine_metrics(inner: &Engine) -> MetricsSnapshot {
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

/// The foreground write behind every public mutation, the twin of
/// [`fg_get`]: the one place that turns away an empty or invalid batch,
/// counts `puts`/`deletes`/`user_bytes`, and samples the commit through
/// [`Engine::instrument_fg`] (histogram and op class from the first op).
/// `commit` is the queue ([`Engine::commit_write`]; the sharded router
/// passes its cross-shard epoch there) for every caller but [`Db::update`],
/// which commits under the ticket it already holds.
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

/// The foreground point read behind every public `get`: sampled by
/// [`Engine::instrument_fg`], at the seqno [`Engine::read_seqno`] resolves
/// (`pin` is a [`Snapshot`]'s seqno, `None` through a [`Db`]).
fn fg_get(
    engine: &Engine,
    pin: Option<SeqNo>,
    key: &[u8],
    opts: &ReadOptions,
) -> Result<Option<Value>> {
    engine.instrument_fg(HistKind::Get, OpKind::Get, key, |probe| {
        engine.get(key, engine.read_seqno(pin, opts), &mut opts.ctx(probe))
    })
}

/// [`fg_get`] for every public `scan`.
fn fg_scan(
    engine: &Engine,
    pin: Option<SeqNo>,
    start: &[u8],
    end: Option<&[u8]>,
    opts: &ReadOptions,
) -> Result<DbScanIter> {
    engine.instrument_fg(HistKind::Scan, OpKind::Scan, start, |probe| {
        engine.scan(
            start,
            end,
            engine.read_seqno(pin, opts),
            &mut opts.ctx(probe),
        )
    })
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

    fn seqno(&self) -> SeqNo {
        self.inner.seqno.load(Ordering::Acquire)
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

    /// Merges per-shard scans into one ascending stream (used by
    /// [`crate::ShardedDb::scan`]).
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
