//! Keyspace sharding for multi-core scale-out: [`ShardedDb`] owns N
//! independent [`crate::engine::Engine`] instances (one per shard, each with
//! its own WAL, commit queue, and maintenance threads) behind the same
//! key-value API as [`Db`].
//!
//! Sharding attacks the write-path bottleneck the single-keyspace engine
//! cannot: one commit queue means one WAL append stream and one fsync
//! pipeline, no matter how many cores submit writes. Partitioning the
//! keyspace gives every shard its own leader/follower group commit, so
//! aggregate ingest scales with shards until the device saturates
//! (measured by benchmark E14).
//!
//! # Cross-shard atomicity
//!
//! A [`WriteBatch`] that touches several shards commits under a shared
//! **epoch**: the router serializes multi-shard batches (lock rank
//! `sharded.epoch_mx`, the outermost rank in the workspace hierarchy),
//! tags every sub-batch's WAL record with the epoch, commits each involved
//! shard with a forced sync, and only then records the epoch as committed
//! in the coordinator's `EPOCHS` metadata blob. Recovery replays a tagged
//! record only when its epoch is in the committed set, so a power cut
//! anywhere in the window leaves the batch all-or-none on reopen. Live
//! readers may observe a multi-shard batch partially applied while the
//! window is open — only crash atomicity is promised, not isolation.

use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsm_obs::Observability;
use lsm_storage::{shard_dir, Backend, BlockCache, CacheConfig, FsBackend, MemBackend};
use lsm_sync::{ranks, OrderedMutex};
use lsm_types::encoding::{put_len_prefixed, put_varint, Decoder};
use lsm_types::{EntryKind, Error, Result, SeqNo, Value};

use crate::db::{fg_write, Db, DbScanIter, ReadOptions, ReadView, WriteBatch, WriteOptions};
use crate::engine::{Engine, EpochFilter};
use crate::metrics::MetricsSnapshot;
use crate::options::Options;

/// Name of the coordinator metadata blob holding the shard-layout config
/// (shard count + partitioning), validated on reopen.
const SHARDS_META: &str = "SHARDS";

/// Name of the coordinator metadata blob holding the epoch log (next epoch
/// + committed set). Lives on shard 0's *raw* backend.
const EPOCHS_META: &str = "EPOCHS";

/// How [`ShardedDb`] maps a user key to a shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Partitioning {
    /// FNV-1a hash of the key, modulo the shard count. Spreads any
    /// workload evenly; range scans must visit every shard.
    #[default]
    Hash,
    /// Contiguous key ranges split at the given points: shard `i` owns
    /// keys in `[split_points[i-1], split_points[i])` (unbounded at the
    /// ends). Requires exactly `shards - 1` strictly ascending points.
    /// Range scans touch only the shards the range intersects.
    Range {
        /// The ordered split keys; key `k` routes to the number of points
        /// `<= k`.
        split_points: Vec<Vec<u8>>,
    },
}

/// 64-bit FNV-1a: tiny, dependency-free, and plenty uniform for spreading
/// keys over single-digit shard counts.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Partitioning {
    /// The shard index owning `key` among `n` shards.
    pub(crate) fn shard_of(&self, key: &[u8], n: usize) -> usize {
        match self {
            Partitioning::Hash => (fnv1a(key) % n as u64) as usize,
            Partitioning::Range { split_points } => {
                split_points.partition_point(|p| p.as_slice() <= key)
            }
        }
    }

    fn validate(&self, shards: usize) -> Result<()> {
        if let Partitioning::Range { split_points } = self {
            if split_points.len() + 1 != shards {
                return Err(Error::InvalidArgument(format!(
                    "range partitioning needs exactly shards-1 split points \
                     ({} shards, {} points)",
                    shards,
                    split_points.len()
                )));
            }
            if split_points.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::InvalidArgument(
                    "range split points must be strictly ascending".into(),
                ));
            }
        }
        Ok(())
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Partitioning::Hash => buf.push(0),
            Partitioning::Range { split_points } => {
                buf.push(1);
                put_varint(buf, split_points.len() as u64);
                for p in split_points {
                    put_len_prefixed(buf, p);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Partitioning> {
        match dec.u8()? {
            0 => Ok(Partitioning::Hash),
            1 => {
                let count = dec.varint()? as usize;
                let mut split_points = Vec::with_capacity(count);
                for _ in 0..count {
                    split_points.push(dec.len_prefixed()?.to_vec());
                }
                Ok(Partitioning::Range { split_points })
            }
            other => Err(Error::Corruption(format!(
                "unknown partitioning discriminant {other}"
            ))),
        }
    }
}

/// The coordinator's record of cross-shard commit epochs: the next epoch to
/// hand out and the set recovery may keep. Persisted to [`EPOCHS_META`]
/// whenever an epoch commits; reset (committed set cleared, counter kept)
/// on every successful open, because recovery strips epoch tags while
/// re-logging survivors.
struct EpochLog {
    next: u64,
    committed: BTreeSet<u64>,
}

const SHARDS_META_VERSION: u8 = 1;
const EPOCHS_META_VERSION: u8 = 1;

impl EpochLog {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 2 * self.committed.len());
        buf.push(EPOCHS_META_VERSION);
        put_varint(&mut buf, self.next);
        put_varint(&mut buf, self.committed.len() as u64);
        for e in &self.committed {
            put_varint(&mut buf, *e);
        }
        buf
    }

    fn decode(data: &[u8]) -> Result<EpochLog> {
        let mut dec = Decoder::new(data);
        let version = dec.u8()?;
        if version != EPOCHS_META_VERSION {
            return Err(Error::Corruption(format!(
                "unknown epoch-log version {version}"
            )));
        }
        let next = dec.varint()?;
        let count = dec.varint()? as usize;
        let mut committed = BTreeSet::new();
        for _ in 0..count {
            committed.insert(dec.varint()?);
        }
        Ok(EpochLog { next, committed })
    }
}

fn encode_shards_meta(shards: usize, partitioning: &Partitioning) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.push(SHARDS_META_VERSION);
    put_varint(&mut buf, shards as u64);
    partitioning.encode(&mut buf);
    buf
}

fn decode_shards_meta(data: &[u8]) -> Result<(usize, Partitioning)> {
    let mut dec = Decoder::new(data);
    let version = dec.u8()?;
    if version != SHARDS_META_VERSION {
        return Err(Error::Corruption(format!(
            "unknown shard-config version {version}"
        )));
    }
    let shards = dec.varint()? as usize;
    let partitioning = Partitioning::decode(&mut dec)?;
    Ok((shards, partitioning))
}

/// Increments every involved engine's `epoch_pins` for the lifetime of one
/// epoch window, so no shard can freeze (and later flush) a memtable
/// holding epoch-tagged entries whose fate is not yet recorded.
struct EpochPins<'a> {
    engines: Vec<&'a Engine>,
}

impl<'a> EpochPins<'a> {
    fn pin(engines: impl Iterator<Item = &'a Engine>) -> Self {
        let engines: Vec<_> = engines.collect();
        for e in &engines {
            e.epoch_pins.fetch_add(1, Ordering::AcqRel);
        }
        EpochPins { engines }
    }
}

impl Drop for EpochPins<'_> {
    fn drop(&mut self) {
        for e in &self.engines {
            e.epoch_pins.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A keyspace-sharded database: N independent engines behind one handle,
/// with routed point operations, merged scans, aggregated metrics, and
/// crash-atomic (all-or-none) multi-shard write batches.
///
/// ```
/// # use lsm_core::{Options, ShardedDb};
/// let db = ShardedDb::builder()
///     .shards(4)
///     .options(Options::small_for_benchmarks())
///     .open()?;
/// db.put(b"k", b"v")?;
/// assert_eq!(db.get(b"k")?.as_deref(), Some(&b"v"[..]));
/// # lsm_core::Result::Ok(())
/// ```
pub struct ShardedDb {
    shards: Vec<Db>,
    partitioning: Partitioning,
    /// Shard 0's raw backend, doubling as the coordinator metadata store
    /// for [`SHARDS_META`] and [`EPOCHS_META`].
    coord: Arc<dyn Backend>,
    /// Serializes multi-shard epoch commits and guards the epoch log. Rank
    /// `sharded.epoch_mx` (80) sits below every engine rank, because the
    /// holder runs full per-shard commits inside the window.
    epoch_mx: OrderedMutex<EpochLog>,
    persist_epochs: bool,
    /// All shards record into one caller-provided handle
    /// ([`Observability::Shared`]); [`ShardedDb::metrics`] then takes the
    /// latency surface once instead of summing N copies of it.
    shared_obs: bool,
}

/// Configures and opens a [`ShardedDb`] — mirrors [`crate::DbBuilder`],
/// with per-shard substrate resolution:
///
/// * No backends, no directory → every shard is a fresh in-memory database.
/// * [`dir`](ShardedDbBuilder::dir) → one [`FsBackend`] per shard under
///   `<root>/shard-NNN` (see [`shard_dir`]), persistent and recovered.
/// * [`backends`](ShardedDbBuilder::backends) → caller-provided backends,
///   one per shard (the crash harness injects [`lsm_storage::FaultBackend`]s
///   here).
pub struct ShardedDbBuilder {
    shards: usize,
    partitioning: Partitioning,
    dir: Option<PathBuf>,
    backends: Option<Vec<Arc<dyn Backend>>>,
    opts: Options,
    persist_manifest: Option<bool>,
    recover: Option<bool>,
    clean_orphans: bool,
    obs: Observability,
    cache_config: Option<CacheConfig>,
}

impl Default for ShardedDbBuilder {
    fn default() -> Self {
        ShardedDbBuilder {
            shards: 1,
            partitioning: Partitioning::Hash,
            dir: None,
            backends: None,
            opts: Options::default(),
            persist_manifest: None,
            recover: None,
            clean_orphans: false,
            obs: Observability::default(),
            cache_config: None,
        }
    }
}

impl ShardedDbBuilder {
    /// Number of shards (default 1). Each shard is a full engine: its own
    /// memtable stack, WAL, commit queue, and maintenance threads.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// How keys map to shards (default [`Partitioning::Hash`]).
    pub fn partitioning(mut self, p: Partitioning) -> Self {
        self.partitioning = p;
        self
    }

    /// Stores each shard under `<root>/shard-NNN` (an [`FsBackend`] per
    /// shard); switches the defaults to persistent mode, exactly like
    /// [`crate::DbBuilder::dir`]. Mutually exclusive with
    /// [`backends`](ShardedDbBuilder::backends).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Uses the given backends, one per shard (the vector length must equal
    /// the shard count). Shard 0's backend doubles as the coordinator
    /// metadata store. Mutually exclusive with
    /// [`dir`](ShardedDbBuilder::dir).
    pub fn backends(mut self, backends: Vec<Arc<dyn Backend>>) -> Self {
        self.backends = Some(backends);
        self
    }

    /// Engine options, applied to every shard. Note
    /// [`Options::write_buffer_bytes`] and friends are per shard, so total
    /// memory scales with the shard count.
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Whether each shard rewrites its manifest after structural changes
    /// and the coordinator persists its metadata blobs. Default: `true`
    /// with [`dir`](ShardedDbBuilder::dir), `false` otherwise.
    pub fn persist_manifest(mut self, on: bool) -> Self {
        self.persist_manifest = Some(on);
        self
    }

    /// Whether to recover every shard from its stored manifest (WAL replay
    /// included, with cross-shard epoch filtering). Default: `true` with
    /// [`dir`](ShardedDbBuilder::dir), `false` otherwise.
    pub fn recover(mut self, on: bool) -> Self {
        self.recover = Some(on);
        self
    }

    /// Delete unreferenced backend files in every shard after recovery
    /// (see [`crate::DbBuilder::clean_orphans`]). Off by default.
    pub fn clean_orphans(mut self, on: bool) -> Self {
        self.clean_orphans = on;
        self
    }

    /// Observability configuration. [`Observability::On`] gives every
    /// shard its *own* handle (per-shard latency, see
    /// [`ShardedDb::shard_metrics`]); [`Observability::Shared`] records all
    /// shards into one caller-provided handle.
    pub fn obs(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Block-cache configuration for one cache **shared by every shard**
    /// (so capacity is a database-wide budget, not per shard N times
    /// over). Without it, each shard builds its own cache from the legacy
    /// [`Options::block_cache_bytes`] knob, exactly like [`crate::Db`].
    pub fn cache_config(mut self, cfg: CacheConfig) -> Self {
        self.cache_config = Some(cfg);
        self
    }

    /// Opens (or recovers) the sharded database.
    pub fn open(self) -> Result<ShardedDb> {
        self.opts.validate()?;
        if self.shards == 0 {
            return Err(Error::InvalidArgument(
                "ShardedDb requires at least one shard".into(),
            ));
        }
        self.partitioning.validate(self.shards)?;
        if self.backends.is_some() && self.dir.is_some() {
            return Err(Error::InvalidArgument(
                "ShardedDbBuilder: backends and dir are mutually exclusive".into(),
            ));
        }
        let is_dir = self.dir.is_some();
        let backends: Vec<Arc<dyn Backend>> = match (self.backends, self.dir) {
            (Some(b), None) => {
                if b.len() != self.shards {
                    return Err(Error::InvalidArgument(format!(
                        "ShardedDbBuilder: {} backends for {} shards",
                        b.len(),
                        self.shards
                    )));
                }
                b
            }
            (None, Some(root)) => {
                let mut v: Vec<Arc<dyn Backend>> = Vec::with_capacity(self.shards);
                for i in 0..self.shards {
                    v.push(Arc::new(FsBackend::open(shard_dir(root.clone(), i))?));
                }
                v
            }
            (None, None) => (0..self.shards)
                .map(|_| Arc::new(MemBackend::new()) as Arc<dyn Backend>)
                .collect(),
            (Some(_), Some(_)) => unreachable!("rejected above"),
        };
        let persist = self.persist_manifest.unwrap_or(is_dir);
        let want_recover = self.recover.unwrap_or(is_dir);
        let coord = Arc::clone(&backends[0]);

        // Reopen validation + epoch filter, both from the coordinator.
        let mut next_epoch = 0;
        let mut filter = None;
        if want_recover {
            if let Some(raw) = coord.get_meta(SHARDS_META)? {
                let (stored_shards, stored_part) = decode_shards_meta(&raw)?;
                if stored_shards != self.shards || stored_part != self.partitioning {
                    return Err(Error::InvalidArgument(format!(
                        "shard config mismatch: store has {stored_shards} shards \
                         ({stored_part:?}), caller asked for {} ({:?})",
                        self.shards, self.partitioning
                    )));
                }
            }
            let committed: HashSet<u64> = match coord.get_meta(EPOCHS_META)? {
                Some(raw) => {
                    let log = EpochLog::decode(&raw)?;
                    next_epoch = log.next;
                    log.committed.into_iter().collect()
                }
                // No epoch log: treat every tagged record as uncommitted
                // (a fresh store has no tagged records to lose).
                None => HashSet::new(),
            };
            filter = Some(EpochFilter {
                committed: Arc::new(committed),
            });
        }

        // One cache serving every shard keeps capacity a database-wide
        // budget and lets a hot shard borrow room from cold ones.
        let shared_cache = self
            .cache_config
            .filter(|c| c.capacity_bytes > 0)
            .map(|c| Arc::new(BlockCache::with_config(c)));
        let mut shards = Vec::with_capacity(self.shards);
        for backend in &backends {
            let mut builder = Db::builder()
                .backend(Arc::clone(backend))
                .options(self.opts.clone())
                .persist_manifest(persist)
                .recover(want_recover)
                .clean_orphans(self.clean_orphans)
                .obs(self.obs.clone());
            builder.epoch_filter = filter.clone();
            builder.shared_cache = shared_cache.clone();
            shards.push(builder.open()?);
        }

        // Every shard recovered and re-logged its survivors untagged, so no
        // pre-open epoch remains referenced anywhere: reset the committed
        // set (keeping the counter monotonic) and persist the reset. Doing
        // this only *after* all shards opened keeps the filter valid if we
        // crash mid-open and run recovery again.
        let log = EpochLog {
            next: next_epoch,
            committed: BTreeSet::new(),
        };
        if persist {
            coord.put_meta(
                SHARDS_META,
                &encode_shards_meta(self.shards, &self.partitioning),
            )?;
            coord.put_meta(EPOCHS_META, &log.encode())?;
        }
        Ok(ShardedDb {
            shards,
            partitioning: self.partitioning,
            coord,
            epoch_mx: OrderedMutex::new(ranks::SHARDED_EPOCH, log),
            persist_epochs: persist,
            shared_obs: matches!(self.obs, Observability::Shared(_)),
        })
    }
}

impl ShardedDb {
    /// Starts building a sharded database; see [`ShardedDbBuilder`].
    pub fn builder() -> ShardedDbBuilder {
        ShardedDbBuilder::default()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index that owns `key` under this database's partitioning.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.partitioning.shard_of(key, self.shards.len())
    }

    /// Direct handle to shard `i`, for tests and experiments that inspect
    /// a single engine. Writes through this handle bypass the router (and
    /// under [`Partitioning::Range`] can violate the keyspace layout).
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    /// The partitioning this database routes by.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Inserts or updates `key -> value` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opt(key, value, &WriteOptions::default())
    }

    /// [`ShardedDb::put`] with per-write durability options, honoured by
    /// the owning shard alone — a `no_wal` or unsynced write on one shard
    /// never forces (or skips) a sync on any other.
    pub fn put_opt(&self, key: &[u8], value: &[u8], w: &WriteOptions) -> Result<()> {
        self.shards[self.shard_of(key)].put_opt(key, value, w)
    }

    /// Deletes `key` on the owning shard.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.delete_opt(key, &WriteOptions::default())
    }

    /// [`ShardedDb::delete`] with per-write durability options (routed like
    /// [`ShardedDb::put_opt`]).
    pub fn delete_opt(&self, key: &[u8], w: &WriteOptions) -> Result<()> {
        self.shards[self.shard_of(key)].delete_opt(key, w)
    }

    /// Single-delete of `key` on the owning shard (see
    /// [`Db::single_delete`] for the contract).
    pub fn single_delete(&self, key: &[u8]) -> Result<()> {
        self.shards[self.shard_of(key)].single_delete(key)
    }

    /// Deletes every key in `[start, end)`. Under [`Partitioning::Range`]
    /// the tombstone goes only to intersecting shards; under
    /// [`Partitioning::Hash`] it is broadcast (each shard holds an
    /// arbitrary subset of the range), which makes it a multi-shard batch.
    pub fn delete_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_range(start, end);
        self.write(batch)
    }

    /// Applies a [`WriteBatch`], splitting it by owning shard. See
    /// [`ShardedDb::write_opt`] for the atomicity contract.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(batch, &WriteOptions::default())
    }

    /// [`ShardedDb::write`] with per-write durability options.
    ///
    /// A batch whose keys all route to one shard commits exactly like
    /// [`Db::write_opt`] (one WAL record, `w` honoured as given). A batch
    /// spanning shards commits under a shared epoch: sub-batches are
    /// synced and tagged, and the epoch is recorded on the coordinator
    /// only after every involved shard committed — so after a crash the
    /// batch is all-or-none, whatever `w.sync` says. `w.no_wal` (or a
    /// database without a WAL) opts the batch out of crash atomicity:
    /// sub-batches then commit independently and a crash can keep some
    /// shards' portion and lose others'.
    pub fn write_opt(&self, batch: WriteBatch, w: &WriteOptions) -> Result<()> {
        // Validate up front: nothing may reach any shard if one op is bad,
        // or a multi-shard batch could commit a prefix before the error.
        batch.validate()?;
        let parts = self.split_batch(batch);
        if parts.len() <= 1 || w.no_wal || !self.shards[0].options().wal {
            // One shard commits exactly like `Db::write_opt`. Without a WAL
            // no record will exist to tag: the batch has no crash durability
            // at all, so per-shard commits lose nothing.
            for (i, part) in parts {
                self.shards[i].write_opt(part, w)?;
            }
            return Ok(());
        }
        self.write_epoch(parts)
    }

    /// Splits `batch` into per-shard sub-batches (ascending shard index,
    /// empty shards omitted), preserving op order within each shard.
    fn split_batch(&self, batch: WriteBatch) -> Vec<(usize, WriteBatch)> {
        let n = self.shards.len();
        let mut per: Vec<WriteBatch> = vec![WriteBatch::new(); n];
        for op in batch.ops {
            if op.kind != EntryKind::RangeDelete {
                per[self.partitioning.shard_of(op.key.as_bytes(), n)]
                    .ops
                    .push(op);
                continue;
            }
            let targets = match &self.partitioning {
                // Hash scatters the range's keys everywhere, so every
                // shard gets the (unclipped) tombstone — harmless, as a
                // shard can only hold its own keys.
                Partitioning::Hash => &mut per[..],
                Partitioning::Range { split_points } => {
                    let lo = self.partitioning.shard_of(op.key.as_bytes(), n);
                    // The shard owning the last key strictly below the
                    // range's end (which is exclusive).
                    let hi = split_points.partition_point(|p| p[..] < op.value[..]);
                    &mut per[lo..=hi]
                }
            };
            for p in targets {
                p.ops.push(op.clone());
            }
        }
        per.into_iter()
            .enumerate()
            .filter(|(_, b)| !b.ops.is_empty())
            .collect()
    }

    /// Commits a multi-shard batch under a fresh epoch. The whole window —
    /// per-shard tagged commits plus the coordinator COMMIT record — runs
    /// under `epoch_mx`, serializing multi-shard batches with each other
    /// (single-shard traffic proceeds concurrently on its own shards).
    fn write_epoch(&self, parts: Vec<(usize, WriteBatch)>) -> Result<()> {
        let involved: Vec<usize> = parts.iter().map(|(i, _)| *i).collect();
        let mut log = self.epoch_mx.lock();
        let epoch = log.next;
        log.next += 1;
        // Freeze guard: while pinned, no involved shard may freeze (and
        // later flush) a memtable holding this epoch's entries — recovery
        // can discard tagged WAL records, but not rows inside an SST.
        let _pins = EpochPins::pin(involved.iter().map(|&i| self.shards[i].inner.as_ref()));
        let w = WriteOptions {
            sync: Some(true),
            no_wal: false,
        };
        for (pos, (i, part)) in parts.into_iter().enumerate() {
            let shard = &self.shards[i].inner;
            // The epoch protocol serializes multi-shard batches by design;
            // each sub-commit does WAL I/O inside the epoch_mx window.
            // lsm-lint: allow(io-under-lock)
            let committed = fg_write(shard, part, |ops| shard.commit_write(ops, &w, Some(epoch)));
            if let Err(e) = committed {
                // Shards before `pos` already applied their (never to be
                // committed) sub-batches: poison them so no later write can
                // trigger a freeze that would make the orphaned entries
                // durable. A crash now discards them — all-or-none holds.
                for &j in &involved[..pos] {
                    self.shards[j].inner.set_bg_error(&format!(
                        "cross-shard epoch {epoch} aborted: sibling shard {i} failed: {e}"
                    ));
                }
                return Err(e);
            }
        }
        log.committed.insert(epoch);
        if self.persist_epochs {
            // COMMIT point: every sub-batch is synced; recording the epoch
            // makes the whole batch recoverable atomically.
            // lsm-lint: allow(io-under-lock)
            if let Err(e) = self.coord.put_meta(EPOCHS_META, &log.encode()) {
                log.committed.remove(&epoch);
                // The shards hold acked-to-nobody tagged entries whose
                // epoch will read as uncommitted after a crash; poison them
                // so the entries cannot reach an SST (see above).
                for &j in &involved {
                    self.shards[j].inner.set_bg_error(&format!(
                        "cross-shard epoch {epoch} commit record failed: {e}"
                    ));
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Returns the newest value of `key` from its owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_opt(key, &ReadOptions::default())
    }

    /// [`ShardedDb::get`] with per-read options, honoured by the owning
    /// shard. Note [`ReadOptions::snapshot`] is a per-shard seqno — shards
    /// allocate independently, so it is only meaningful with a seqno
    /// previously read from the same key's shard.
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        self.shards[self.shard_of(key)].get_opt(key, opts)
    }

    /// Scans `[start, end)` (`None` = unbounded above) across every shard,
    /// merged into one ascending stream. Each shard's iterator is pinned
    /// at that shard's current seqno; the merged view is consistent per
    /// shard but not a single cross-shard snapshot.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Result<DbScanIter> {
        self.scan_opt(start, end, &ReadOptions::default())
    }

    /// [`ShardedDb::scan`] with per-read options applied to every shard's
    /// iterator ([`ReadOptions::snapshot`] is ignored here — shard seqnos
    /// are independent, so no single value names a cross-shard point in
    /// time; use per-shard snapshots for that).
    pub fn scan_opt(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        opts: &ReadOptions,
    ) -> Result<DbScanIter> {
        let opts = ReadOptions {
            snapshot: None,
            ..*opts
        };
        let mut iters = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            iters.push(shard.scan_opt(start, end, &opts)?);
        }
        DbScanIter::merged(iters)
    }

    /// Runs maintenance (flush + compaction to quiescence) on every shard.
    pub fn maintain(&self) -> Result<()> {
        for shard in &self.shards {
            shard.maintain()?;
        }
        Ok(())
    }

    /// Blocks until no shard has maintenance work remaining.
    pub fn wait_idle(&self) -> Result<()> {
        for shard in &self.shards {
            shard.wait_idle()?;
        }
        Ok(())
    }

    /// Forces every shard's active memtable to freeze and flush.
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Aggregated counters across all shards: engine stats, backend I/O,
    /// cache, latency histograms (bucket-wise), and per-level tree shape
    /// (index-wise). With [`Observability::Shared`] every shard records
    /// into one handle, so the latency surface is taken once rather than
    /// summed N times.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut acc = self.shards[0].metrics();
        for shard in &self.shards[1..] {
            let mut m = shard.metrics();
            if self.shared_obs {
                m.latency = lsm_obs::LatencySnapshot::default();
            }
            acc.merge(&m);
        }
        acc
    }

    /// One shard's unmerged metrics (per-shard sync counts and latency for
    /// experiments; see benchmark E14).
    pub fn shard_metrics(&self, i: usize) -> MetricsSnapshot {
        self.shards[i].metrics()
    }

    /// The full sharded metrics surface as Prometheus text exposition: the
    /// aggregate (unlabelled, via [`ShardedDb::metrics`]'s weighted merge)
    /// followed by every shard's samples labelled `shard="i"` against the
    /// same family declarations, plus the observability-side series (event
    /// drops, workload mix, hot keys).
    pub fn metrics_text(&self) -> String {
        let mut prom = lsm_obs::PromText::new();
        self.metrics().prometheus_render(&mut prom, &[]);
        let mut shard_label = String::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard_label.clear();
            shard_label.push_str(&i.to_string());
            shard
                .metrics()
                .prometheus_render(&mut prom, &[("shard", &shard_label)]);
        }
        // With a shared handle every shard reports the same sampler and
        // event ring; render the obs-side series once, unlabelled.
        if self.shared_obs {
            self.shards[0].obs().prometheus_render_aux(&mut prom, &[]);
        } else {
            for (i, shard) in self.shards.iter().enumerate() {
                shard_label.clear();
                shard_label.push_str(&i.to_string());
                shard
                    .obs()
                    .prometheus_render_aux(&mut prom, &[("shard", &shard_label)]);
            }
        }
        prom.finish()
    }

    /// Spawns a [`crate::MetricsExporter`] appending one *aggregate*
    /// metrics-delta JSONL line per shard-0
    /// [`Options::metrics_export_interval`] to `sink`. Holds the shard
    /// engines only, mirroring [`Db::metrics_exporter`].
    pub fn metrics_exporter<W>(&self, sink: W) -> crate::MetricsExporter
    where
        W: std::io::Write + Send + 'static,
    {
        let engines: Vec<Arc<Engine>> = self.shards.iter().map(|s| Arc::clone(&s.inner)).collect();
        let shared_obs = self.shared_obs;
        let interval = self.shards[0].options().metrics_export_interval;
        crate::MetricsExporter::spawn(
            move || {
                let mut acc = crate::db::engine_metrics(&engines[0]);
                for engine in &engines[1..] {
                    let mut m = crate::db::engine_metrics(engine);
                    if shared_obs {
                        m.latency = lsm_obs::LatencySnapshot::default();
                    }
                    acc.merge(&m);
                }
                acc
            },
            interval,
            sink,
        )
    }

    /// Total WAL records every shard's recovery discarded because their
    /// cross-shard epoch never committed (zero for a fresh database).
    pub fn records_discarded(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.recovery_summary())
            .map(|s| s.records_discarded)
            .sum()
    }
}

impl ReadView for ShardedDb {
    fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
        ShardedDb::get_opt(self, key, opts)
    }

    fn scan_opt(&self, start: &[u8], end: Option<&[u8]>, opts: &ReadOptions) -> Result<DbScanIter> {
        ShardedDb::scan_opt(self, start, end, opts)
    }

    /// Sum of every shard's published seqno: a monotone high-water mark of
    /// applied writes (shards allocate independently, so this is not a
    /// global ordering).
    fn seqno(&self) -> SeqNo {
        self.shards.iter().map(ReadView::seqno).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let p = Partitioning::Hash;
        for n in 1..5 {
            for key in [b"a".as_slice(), b"zzz", b"\x00", b""] {
                let s = p.shard_of(key, n);
                assert!(s < n);
                assert_eq!(s, p.shard_of(key, n));
            }
        }
    }

    #[test]
    fn range_routing_uses_partition_point() {
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        assert_eq!(p.shard_of(b"a", 3), 0);
        assert_eq!(p.shard_of(b"h", 3), 1); // split key belongs right
        assert_eq!(p.shard_of(b"m", 3), 1);
        assert_eq!(p.shard_of(b"t", 3), 2);
        assert_eq!(p.shard_of(b"z", 3), 2);
    }

    #[test]
    fn partitioning_validation() {
        assert!(Partitioning::Hash.validate(1).is_ok());
        let bad_count = Partitioning::Range {
            split_points: vec![b"h".to_vec()],
        };
        assert!(bad_count.validate(3).is_err());
        let not_ascending = Partitioning::Range {
            split_points: vec![b"t".to_vec(), b"h".to_vec()],
        };
        assert!(not_ascending.validate(3).is_err());
    }

    #[test]
    fn meta_blobs_round_trip() {
        let p = Partitioning::Range {
            split_points: vec![b"h".to_vec(), b"t".to_vec()],
        };
        let raw = encode_shards_meta(3, &p);
        assert_eq!(decode_shards_meta(&raw).unwrap(), (3, p));

        let log = EpochLog {
            next: 42,
            committed: [3, 7, 41].into_iter().collect(),
        };
        let back = EpochLog::decode(&log.encode()).unwrap();
        assert_eq!(back.next, 42);
        assert_eq!(back.committed, log.committed);
    }
}
