//! Reading tables: the point-lookup and scan path.
//!
//! Tables carry a two-level index (RocksDB's partitioned index): a tiny
//! top-level fence over *index partitions*, each of which fences over a
//! chunk of data blocks. Filters are partitioned the same way. How the
//! auxiliary blocks are held depends on how the table was opened:
//!
//! * **No cache** — partitions are decoded eagerly at open and stay
//!   memory-resident (the classic arrangement; a point lookup costs at most
//!   one data-block read).
//! * **Cache, pinned** ([`Table::open_pinned`]) — partitions are read once
//!   at open, charged to the block cache as *pinned* entries
//!   (`cache_index_and_filter_blocks` + `pin_l0_filter_and_index_blocks`
//!   semantics), and kept decoded in the table, so hot-table lookups pay
//!   zero auxiliary fetches while the cache accounting still reflects their
//!   memory.
//! * **Cache, unpinned** — partitions flow through the cache on demand like
//!   data blocks; cold tables cost an extra cached fetch per lookup but
//!   their routing state is evictable.
//!
//! Blocks come out of the cache as refcount-shared [`Bytes`] (zero-copy),
//! and cache hits skip the CRC pass they already paid at fill time unless
//! [`TableReadOpts::verify_checksums`] asks for end-to-end verification.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lsm_filters::{point_filter_from_bytes, PointFilter, PointFilterKind};
use lsm_obs::ReadProbe;
use lsm_storage::{Backend, BlockCache, BlockKey, BlockKind, FileId};
use lsm_types::{Error, InternalEntry, InternalKey, Result, SeqNo};

use crate::builder::{decode_index, Fence};
use crate::iter::EntryIter;
use crate::meta::{decode_footer, TableMeta, FOOTER_LEN};

/// Per-read knobs threaded down from the engine's `ReadOptions`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableReadOpts {
    /// Insert data blocks fetched from the backend into the cache.
    pub fill_cache: bool,
    /// Pin index/filter partitions this read pulls into the cache (they
    /// become evictable only via file invalidation).
    pub pin_index_filter: bool,
    /// Re-verify block checksums even on cache hits.
    pub verify_checksums: bool,
}

impl Default for TableReadOpts {
    fn default() -> Self {
        TableReadOpts {
            fill_cache: true,
            pin_index_filter: false,
            verify_checksums: false,
        }
    }
}

/// What one read carries down the stack — the per-read options plus, on
/// sampled foreground ops, the [`ReadProbe`] its stages add to. Every
/// layer's read entry point (`Table`, the engine's `Run` and `Engine`)
/// takes exactly this, so a new per-read fact has one place to land.
#[derive(Default)]
pub struct ReadCtx<'a> {
    /// Cache fill/pin and checksum behaviour for this read.
    pub opts: TableReadOpts,
    /// Filter consults, block fetches and cache hit/miss attribution
    /// accumulate here so a sampled lookup can explain where it went.
    pub probe: Option<&'a mut ReadProbe>,
}

impl ReadCtx<'_> {
    /// Applies `f` to the probe when this read carries one.
    #[inline]
    pub fn note(&mut self, f: impl FnOnce(&mut ReadProbe)) {
        if let Some(p) = self.probe.as_deref_mut() {
            f(p);
        }
    }
}

/// Per-table read statistics.
#[derive(Default, Debug)]
struct ReadStats {
    /// Point probes answered negatively by the filter (I/O saved).
    filter_negatives: AtomicU64,
    /// Point probes that went to a data block.
    block_probes: AtomicU64,
}

/// How the table's index/filter partitions are held.
enum AuxData {
    /// Decoded and resident in the table: no cache, or pinned into the
    /// cache at open (resident decoded form, raw bytes charged to cache).
    Resident {
        fences: Vec<Arc<Vec<Fence>>>,
        filters: Vec<Option<Box<dyn PointFilter>>>,
    },
    /// Fetched through the block cache on demand and decoded per access.
    Cached,
}

/// An open, immutable sorted-run file.
pub struct Table {
    backend: Arc<dyn Backend>,
    cache: Option<Arc<BlockCache>>,
    file: FileId,
    meta: TableMeta,
    /// Top-level fence over index partitions (always memory-resident; one
    /// entry per `index_partition_blocks` data blocks).
    partitions: Vec<Fence>,
    aux: AuxData,
    filter_kind: Option<PointFilterKind>,
    stats: ReadStats,
    /// When set, the backing file is deleted (and its cache blocks dropped)
    /// once the last reference to this table goes away. Compaction marks
    /// consumed inputs obsolete; in-flight iterators and snapshots keep the
    /// file alive until they finish.
    obsolete: AtomicBool,
}

impl Table {
    /// Opens the table stored in `file`. Without a cache the auxiliary
    /// structures are loaded into table-resident memory; with one, they are
    /// served through the cache on demand (unpinned).
    pub fn open(
        backend: Arc<dyn Backend>,
        file: FileId,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Arc<Table>> {
        Self::open_pinned(backend, file, cache, false)
    }

    /// [`Self::open`] for hot tables: when `pin_aux` is set (and a cache is
    /// present), every index/filter partition is read now, charged to the
    /// cache as a pinned entry, and kept decoded in the table so lookups
    /// never re-fetch routing state.
    pub fn open_pinned(
        backend: Arc<dyn Backend>,
        file: FileId,
        cache: Option<Arc<BlockCache>>,
        pin_aux: bool,
    ) -> Result<Arc<Table>> {
        let len = backend.len(file)?;
        let footer_offset = len.checked_sub(FOOTER_LEN as u64).ok_or_else(|| {
            Error::Corruption(format!(
                "table file {file} is shorter than a footer: {len} bytes"
            ))
        })?;
        let footer = backend.read(file, footer_offset, FOOTER_LEN)?;
        let (meta_offset, meta_len) = decode_footer(&footer)?;
        let meta_bytes = backend.read(file, meta_offset, meta_len as usize)?;
        let meta = TableMeta::decode(&meta_bytes)?;

        let top_bytes = backend.read(file, meta.index_offset, meta.index_len as usize)?;
        let partitions = decode_index(&top_bytes)?;
        if partitions.len() != meta.filter_partitions.len() {
            return Err(Error::Corruption(
                "index/filter partition counts disagree".into(),
            ));
        }

        let filter_kind = if meta.filter_len > 0 {
            Some(PointFilterKind::from_u8(meta.filter_kind)?)
        } else {
            None
        };

        let resident = cache.is_none() || pin_aux;
        let aux = if resident {
            let mut fences = Vec::with_capacity(partitions.len());
            let mut filters = Vec::with_capacity(partitions.len());
            for (pi, part) in partitions.iter().enumerate() {
                let bytes = backend.read(file, part.offset, part.len as usize)?;
                if let (Some(cache), true) = (&cache, pin_aux) {
                    let key = BlockKey {
                        file,
                        offset: part.offset,
                    };
                    cache.insert_kind(key, bytes.clone(), BlockKind::Index, true);
                }
                fences.push(Arc::new(decode_index(&bytes)?));

                let (foff, flen) = meta.filter_partitions[pi];
                let filter = if flen > 0 {
                    let fbytes = backend.read(file, foff, flen as usize)?;
                    if let (Some(cache), true) = (&cache, pin_aux) {
                        let key = BlockKey { file, offset: foff };
                        cache.insert_kind(key, fbytes.clone(), BlockKind::Filter, true);
                    }
                    match filter_kind {
                        Some(kind) => point_filter_from_bytes(kind, &fbytes)?,
                        None => None,
                    }
                } else {
                    None
                };
                filters.push(filter);
            }
            AuxData::Resident { fences, filters }
        } else {
            AuxData::Cached
        };

        Ok(Arc::new(Table {
            backend,
            cache,
            file,
            meta,
            partitions,
            aux,
            filter_kind,
            stats: ReadStats::default(),
            obsolete: AtomicBool::new(false),
        }))
    }

    /// Marks the table's file for deletion when the last reference drops.
    pub fn mark_obsolete(&self) {
        self.obsolete.store(true, Ordering::Release);
    }

    /// The table's metadata (counts, key range, ages).
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The backing file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.meta.data_blocks as usize
    }

    /// Number of auxiliary blocks (index partitions + non-empty filter
    /// partitions) that flow through the cache alongside the data blocks.
    pub fn aux_block_count(&self) -> usize {
        self.partitions.len()
            + self
                .meta
                .filter_partitions
                .iter()
                .filter(|(_, len)| *len > 0)
                .count()
    }

    /// Whether this table's index/filter partitions are table-resident
    /// (no cache, or pinned) as opposed to fetched through the cache.
    pub fn aux_resident(&self) -> bool {
        matches!(self.aux, AuxData::Resident { .. })
    }

    /// Memory held by this table's resident filters, in bits (0 when the
    /// filters live in the cache instead).
    pub fn filter_memory_bits(&self) -> usize {
        match &self.aux {
            AuxData::Resident { filters, .. } => filters
                .iter()
                .map(|f| f.as_ref().map_or(0, |f| f.memory_bits()))
                .sum(),
            AuxData::Cached => 0,
        }
    }

    /// How many point probes the filter answered negatively (I/O saved).
    pub fn filter_negatives(&self) -> u64 {
        self.stats.filter_negatives.load(Ordering::Relaxed)
    }

    /// How many point probes read a data block.
    pub fn block_probes(&self) -> u64 {
        self.stats.block_probes.load(Ordering::Relaxed)
    }

    /// Reads an auxiliary (index/filter partition) block, through the cache
    /// when one is configured.
    fn read_aux(
        &self,
        offset: u64,
        len: usize,
        kind: BlockKind,
        ctx: &mut ReadCtx<'_>,
    ) -> Result<Bytes> {
        ctx.note(|p| p.aux_fetches += 1);
        if let Some(cache) = &self.cache {
            let key = BlockKey {
                file: self.file,
                offset,
            };
            if let Some(bytes) = cache.get_kind(&key, kind) {
                return Ok(bytes);
            }
            let bytes = self.backend.read(self.file, offset, len)?;
            cache.insert_kind(key, bytes.clone(), kind, ctx.opts.pin_index_filter);
            return Ok(bytes);
        }
        self.backend.read(self.file, offset, len)
    }

    /// The fences of index partition `pi` (shared when resident, decoded
    /// from the cached partition block otherwise).
    fn partition_fences(&self, pi: usize, ctx: &mut ReadCtx<'_>) -> Result<Arc<Vec<Fence>>> {
        match &self.aux {
            AuxData::Resident { fences, .. } => Ok(Arc::clone(&fences[pi])),
            AuxData::Cached => {
                let part = &self.partitions[pi];
                let bytes = self.read_aux(part.offset, part.len as usize, BlockKind::Index, ctx)?;
                Ok(Arc::new(decode_index(&bytes)?))
            }
        }
    }

    /// Consults partition `pi`'s filter; `true` means the key may be
    /// present (absent filters always pass).
    fn filter_may_contain(&self, pi: usize, key: &[u8], ctx: &mut ReadCtx<'_>) -> Result<bool> {
        match &self.aux {
            AuxData::Resident { filters, .. } => match &filters[pi] {
                Some(filter) => {
                    ctx.note(|p| p.filters_consulted += 1);
                    Ok(filter.may_contain(key))
                }
                None => Ok(true),
            },
            AuxData::Cached => {
                let Some(kind) = self.filter_kind else {
                    return Ok(true);
                };
                let (foff, flen) = self.meta.filter_partitions[pi];
                if flen == 0 {
                    return Ok(true);
                }
                ctx.note(|p| p.filters_consulted += 1);
                let bytes = self.read_aux(foff, flen as usize, BlockKind::Filter, ctx)?;
                match point_filter_from_bytes(kind, &bytes)? {
                    Some(filter) => Ok(filter.may_contain(key)),
                    None => Ok(true),
                }
            }
        }
    }

    /// Index of the partition that could contain `probe` (the last one
    /// whose first key is `<= probe`).
    fn partition_for(&self, probe: &InternalKey) -> usize {
        self.partitions
            .partition_point(|f| f.first_key <= *probe)
            .saturating_sub(1)
    }

    /// Reads a data block, through the cache when one is configured.
    /// Returns the block and whether it came from the cache (already
    /// CRC-verified at fill time).
    fn read_block_fence(&self, fence: &Fence, ctx: &mut ReadCtx<'_>) -> Result<(Bytes, bool)> {
        ctx.note(|p| p.blocks_fetched += 1);
        let key = BlockKey {
            file: self.file,
            offset: fence.offset,
        };
        if let Some(block) = self.cache.as_ref().and_then(|cache| cache.get(&key)) {
            ctx.note(|p| p.cache_hits += 1);
            return Ok((block, true));
        }
        ctx.note(|p| p.cache_misses += 1);
        let block = self
            .backend
            .read(self.file, fence.offset, fence.len as usize)?;
        if let (Some(cache), true) = (&self.cache, ctx.opts.fill_cache) {
            cache.insert(key, block.clone());
        }
        Ok((block, false))
    }

    /// Iterates a fetched block, skipping re-verification for cache hits
    /// unless the read asked for end-to-end checksums.
    fn block_iter(
        block: Bytes,
        from_cache: bool,
        ropts: &TableReadOpts,
    ) -> Result<crate::block::BlockIter> {
        if from_cache && !ropts.verify_checksums {
            crate::block::BlockIter::new_trusted(block)
        } else {
            crate::block::BlockIter::new(block)
        }
    }

    /// Loads every data block and auxiliary partition into the cache
    /// (Leaper-style prefetch after compaction). No-op without a cache.
    pub fn warm_cache(&self) -> Result<()> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let mut ctx = ReadCtx::default();
        for (pi, part) in self.partitions.iter().enumerate() {
            let ikey = BlockKey {
                file: self.file,
                offset: part.offset,
            };
            if cache.get_kind(&ikey, BlockKind::Index).is_none() {
                let bytes = self
                    .backend
                    .read(self.file, part.offset, part.len as usize)?;
                cache.insert_kind(ikey, bytes, BlockKind::Index, false);
            }
            let (foff, flen) = self.meta.filter_partitions[pi];
            if flen > 0 {
                let fkey = BlockKey {
                    file: self.file,
                    offset: foff,
                };
                if cache.get_kind(&fkey, BlockKind::Filter).is_none() {
                    let bytes = self.backend.read(self.file, foff, flen as usize)?;
                    cache.insert_kind(fkey, bytes, BlockKind::Filter, false);
                }
            }
            let fences = self.partition_fences(pi, &mut ctx)?;
            for fence in fences.iter() {
                let key = BlockKey {
                    file: self.file,
                    offset: fence.offset,
                };
                if cache.get(&key).is_none() {
                    let block = self
                        .backend
                        .read(self.file, fence.offset, fence.len as usize)?;
                    cache.warm(key, block);
                }
            }
        }
        Ok(())
    }

    /// The newest version of `key` visible at `snapshot`, if this table has
    /// one. Tombstones are returned, not interpreted.
    pub fn get(&self, key: &[u8], snapshot: SeqNo) -> Result<Option<InternalEntry>> {
        self.get_with(key, snapshot, &mut ReadCtx::default())
    }

    /// The point lookup: [`Self::get`] under a caller's [`ReadCtx`].
    pub fn get_with(
        &self,
        key: &[u8],
        snapshot: SeqNo,
        ctx: &mut ReadCtx<'_>,
    ) -> Result<Option<InternalEntry>> {
        if !self.meta.key_range.contains(key) {
            return Ok(None);
        }
        if self.filter_kind.is_some() {
            // A key's filter entry lives in the partition where the builder
            // first saw it, even when the snapshot routes the data probe to a
            // later one. `(key, MAX)` sorts before every real version, so it
            // routes there — except when the key's newest version opens a
            // partition: then the routing lands one partition early, on a
            // filter that never saw the key, and the next one is asked too.
            let fpi = self.partition_for(&InternalKey::lookup(key, SeqNo::MAX));
            let mut may_contain = self.filter_may_contain(fpi, key, ctx)?;
            if !may_contain
                && self
                    .partitions
                    .get(fpi + 1)
                    .is_some_and(|next| next.first_key.user_key.as_bytes() == key)
            {
                may_contain = self.filter_may_contain(fpi + 1, key, ctx)?;
            }
            if !may_contain {
                self.stats.filter_negatives.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        self.stats.block_probes.fetch_add(1, Ordering::Relaxed);
        let probe = InternalKey::lookup(key, snapshot);
        let mut pi = self.partition_for(&probe);
        let mut fences = self.partition_fences(pi, ctx)?;
        let mut bi = fences
            .partition_point(|f| f.first_key <= probe)
            .saturating_sub(1);
        // The candidate is the first entry >= probe; it may sit at the head
        // of the next block (possibly in the next partition) when the probe
        // falls past the chosen block's last entry.
        loop {
            let (block, from_cache) = self.read_block_fence(&fences[bi], ctx)?;
            let mut it = Self::block_iter(block, from_cache, &ctx.opts)?;
            it.seek(&probe)?;
            if let Some(entry) = it.next().transpose()? {
                return Ok((entry.user_key().as_bytes() == key).then_some(entry));
            }
            // Advance to the next block, following only while it can still
            // hold this user key.
            bi += 1;
            if bi >= fences.len() {
                pi += 1;
                if pi >= self.partitions.len() {
                    return Ok(None);
                }
                fences = self.partition_fences(pi, ctx)?;
                bi = 0;
                if fences.is_empty() {
                    return Ok(None);
                }
            }
            if fences[bi].first_key.user_key.as_bytes() != key {
                return Ok(None);
            }
        }
    }

    /// An owning iterator over the whole table.
    pub fn scan(self: &Arc<Self>) -> TableIter {
        self.iter(None, TableReadOpts::default())
    }

    /// The iterator constructor: positioned at the first entry with
    /// internal key `>= start` (`None` = the table's first entry), reading
    /// under `opts`.
    pub fn iter(self: &Arc<Self>, start: Option<InternalKey>, opts: TableReadOpts) -> TableIter {
        TableIter {
            table: Arc::clone(self),
            pi: start.as_ref().map_or(0, |probe| self.partition_for(probe)),
            bi: 0,
            fences: None,
            current: None,
            start,
            ctx: ReadCtx { opts, probe: None },
        }
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        if self.obsolete.load(Ordering::Acquire) {
            if let Some(cache) = &self.cache {
                cache.invalidate_file(self.file);
            }
            let _ = self.backend.delete(self.file);
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("file", &self.file)
            .field("entries", &self.meta.entry_count)
            .field("range", &self.meta.key_range)
            .finish()
    }
}

/// An owning forward iterator over one table.
pub struct TableIter {
    table: Arc<Table>,
    /// Current index partition.
    pi: usize,
    /// Next block within the current partition's fences.
    bi: usize,
    /// The current partition's fences, fetched lazily.
    fences: Option<Arc<Vec<Fence>>>,
    current: Option<crate::block::BlockIter>,
    /// Seek target applied to the first opened block.
    start: Option<InternalKey>,
    ctx: ReadCtx<'static>,
}

impl EntryIter for TableIter {
    fn next_entry(&mut self) -> Result<Option<InternalEntry>> {
        loop {
            if let Some(block) = &mut self.current {
                if let Some(entry) = block.next().transpose()? {
                    return Ok(Some(entry));
                }
                self.current = None;
            }
            if self.pi >= self.table.partitions.len() {
                return Ok(None);
            }
            let fences = match &self.fences {
                Some(f) => Arc::clone(f),
                None => {
                    let f = self.table.partition_fences(self.pi, &mut self.ctx)?;
                    if let Some(probe) = &self.start {
                        // First positioning: land on the block that could
                        // contain the seek target.
                        self.bi = f
                            .partition_point(|fence| fence.first_key <= *probe)
                            .saturating_sub(1);
                    }
                    self.fences = Some(Arc::clone(&f));
                    f
                }
            };
            if self.bi >= fences.len() {
                self.pi += 1;
                self.bi = 0;
                self.fences = None;
                continue;
            }
            let (bytes, from_cache) = self
                .table
                .read_block_fence(&fences[self.bi], &mut self.ctx)?;
            self.bi += 1;
            let mut block = Table::block_iter(bytes, from_cache, &self.ctx.opts)?;
            if let Some(probe) = self.start.take() {
                block.seek(&probe)?;
            }
            self.current = Some(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{TableBuilder, TableBuilderOptions};
    use lsm_storage::{CacheConfig, MemBackend};

    fn test_cache(capacity: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache::with_config(CacheConfig {
            capacity_bytes: capacity,
            shard_bits: 4,
            pin_index_filter: false,
        }))
    }

    fn build_table(n: u64, cache: Option<Arc<BlockCache>>) -> (Arc<MemBackend>, Arc<Table>) {
        let backend = Arc::new(MemBackend::new());
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        for i in 0..n {
            b.add(&InternalEntry::put(
                format!("key{i:06}").into_bytes(),
                format!("value-{i}").into_bytes(),
                i + 1,
                i,
            ))
            .unwrap();
        }
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        let table = Table::open(backend.clone() as Arc<dyn Backend>, file, cache).unwrap();
        (backend, table)
    }

    fn probed(probe: &mut ReadProbe) -> ReadCtx<'_> {
        ReadCtx {
            probe: Some(probe),
            ..ReadCtx::default()
        }
    }

    /// A table forced to span several index partitions (4 blocks each).
    fn build_partitioned(
        n: u64,
        cache: Option<Arc<BlockCache>>,
        pin: bool,
    ) -> (Arc<MemBackend>, Arc<Table>) {
        let backend = Arc::new(MemBackend::new());
        let mut b = TableBuilder::new(TableBuilderOptions {
            index_partition_blocks: 4,
            ..TableBuilderOptions::default()
        });
        for i in 0..n {
            b.add(&InternalEntry::put(
                format!("key{i:06}").into_bytes(),
                format!("value-{i}").into_bytes(),
                i + 1,
                i,
            ))
            .unwrap();
        }
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        let table =
            Table::open_pinned(backend.clone() as Arc<dyn Backend>, file, cache, pin).unwrap();
        (backend, table)
    }

    #[test]
    fn file_shorter_than_a_footer_is_corruption() {
        // `len - FOOTER_LEN` used to be computed unchecked: a panic in
        // debug builds, a wrapped offset in release.
        let backend = Arc::new(MemBackend::new());
        for len in [0, 1, FOOTER_LEN - 1] {
            let file = backend.write_blob(&vec![0xAB; len]).unwrap();
            let err = Table::open(backend.clone() as Arc<dyn Backend>, file, None).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{len} bytes: {err}");
        }
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let (_, t) = build_table(2000, None);
        for i in [0u64, 777, 1999] {
            let got = t.get(format!("key{i:06}").as_bytes(), SeqNo::MAX).unwrap();
            assert_eq!(got.unwrap().value, format!("value-{i}").as_bytes());
        }
        assert!(t.get(b"key999999", SeqNo::MAX).unwrap().is_none());
        assert!(t.get(b"absent", SeqNo::MAX).unwrap().is_none());
    }

    #[test]
    fn lookup_costs_one_block_read() {
        let (backend, t) = build_table(2000, None);
        let before = backend.stats().snapshot();
        t.get(b"key000777", SeqNo::MAX).unwrap();
        let delta = backend.stats().snapshot().delta(&before);
        assert_eq!(delta.read_ops, 1, "one block read per lookup");
        assert!(delta.read_pages <= 2);
    }

    #[test]
    fn multi_partition_lookups_find_every_key() {
        // No cache: partitions resident.
        let (_, t) = build_partitioned(2000, None, false);
        assert!(t.partitions.len() > 2, "must span several partitions");
        for i in [0u64, 1, 499, 500, 777, 1998, 1999] {
            let got = t.get(format!("key{i:06}").as_bytes(), SeqNo::MAX).unwrap();
            assert_eq!(got.unwrap().value, format!("value-{i}").as_bytes());
        }
        assert!(t.get(b"key5", SeqNo::MAX).unwrap().is_none());

        // Cached (unpinned) partitions.
        let (_, t) = build_partitioned(2000, Some(test_cache(1 << 22)), false);
        assert!(!t.aux_resident());
        for i in [0u64, 499, 500, 1999] {
            let got = t.get(format!("key{i:06}").as_bytes(), SeqNo::MAX).unwrap();
            assert_eq!(got.unwrap().value, format!("value-{i}").as_bytes());
        }

        // Pinned partitions.
        let cache = test_cache(1 << 22);
        let (_, t) = build_partitioned(2000, Some(cache.clone()), true);
        assert!(t.aux_resident());
        assert!(cache.pinned_bytes() > 0, "aux charged to the cache");
        for i in [0u64, 499, 500, 1999] {
            let got = t.get(format!("key{i:06}").as_bytes(), SeqNo::MAX).unwrap();
            assert_eq!(got.unwrap().value, format!("value-{i}").as_bytes());
        }
    }

    #[test]
    fn pinned_lookup_costs_one_block_read() {
        let cache = test_cache(1 << 22);
        let (backend, t) = build_partitioned(2000, Some(cache), true);
        let before = backend.stats().snapshot();
        t.get(b"key000777", SeqNo::MAX).unwrap();
        let delta = backend.stats().snapshot().delta(&before);
        assert_eq!(
            delta.read_ops, 1,
            "pinned aux: only the data block hits the backend"
        );
    }

    #[test]
    fn cached_aux_lookup_attributes_aux_fetches() {
        let cache = test_cache(1 << 22);
        let (backend, t) = build_partitioned(2000, Some(cache), false);
        let mut probe = ReadProbe::default();
        t.get_with(b"key000777", SeqNo::MAX, &mut probed(&mut probe))
            .unwrap();
        assert_eq!(probe.aux_fetches, 2, "one filter + one index partition");
        assert_eq!(probe.blocks_fetched, 1);
        assert_eq!(probe.read_amp(), 3);

        // Second lookup: aux comes from the cache, no backend reads at all.
        let before = backend.stats().snapshot();
        let mut probe = ReadProbe::default();
        t.get_with(b"key000777", SeqNo::MAX, &mut probed(&mut probe))
            .unwrap();
        assert_eq!(backend.stats().snapshot().delta(&before).read_ops, 0);
        assert_eq!(probe.aux_fetches, 2);
        assert_eq!(probe.cache_hits, 1);
    }

    #[test]
    fn filter_skips_absent_keys_without_io() {
        let (backend, t) = build_table(2000, None);
        let before = backend.stats().snapshot();
        let mut skipped = 0;
        for i in 0..100 {
            // absent keys lexicographically inside the table's key range
            if t.get(format!("key{:06}x", i * 17).as_bytes(), SeqNo::MAX)
                .unwrap()
                .is_none()
            {
                skipped += 1;
            }
        }
        assert_eq!(skipped, 100);
        let delta = backend.stats().snapshot().delta(&before);
        // Bloom at 10 bits/key: ~1% FP, so almost all probes are free.
        assert!(
            delta.read_ops < 10,
            "filter should skip most reads: {delta:?}"
        );
        assert!(t.filter_negatives() > 90);
    }

    #[test]
    fn partitioned_filter_skips_absent_keys() {
        let (_, t) = build_partitioned(2000, None, false);
        let mut skipped = 0;
        for i in 0..100 {
            if t.get(format!("key{:06}x", i * 17).as_bytes(), SeqNo::MAX)
                .unwrap()
                .is_none()
            {
                skipped += 1;
            }
        }
        assert_eq!(skipped, 100);
        assert!(t.filter_negatives() > 90, "per-partition filters work");
    }

    #[test]
    fn block_cache_eliminates_repeat_reads() {
        let cache = test_cache(1 << 20);
        let backend = Arc::new(MemBackend::new());
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        for i in 0..2000u64 {
            b.add(&InternalEntry::put(
                format!("key{i:06}").into_bytes(),
                vec![b'v'; 16],
                i + 1,
                i,
            ))
            .unwrap();
        }
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        let t = Table::open(
            backend.clone() as Arc<dyn Backend>,
            file,
            Some(cache.clone()),
        )
        .unwrap();

        t.get(b"key000500", SeqNo::MAX).unwrap();
        let before = backend.stats().snapshot();
        for _ in 0..50 {
            t.get(b"key000500", SeqNo::MAX).unwrap();
        }
        let delta = backend.stats().snapshot().delta(&before);
        assert_eq!(delta.read_ops, 0, "hot block must come from cache");
        assert!(cache.stats().hits >= 50);
    }

    #[test]
    fn probed_lookup_attributes_filters_blocks_and_cache() {
        let cache = test_cache(1 << 20);
        let (_, t) = build_table(2000, Some(cache));
        let mut probe = ReadProbe::default();
        t.get_with(b"key000777", SeqNo::MAX, &mut probed(&mut probe))
            .unwrap();
        assert_eq!(probe.filters_consulted, 1);
        assert_eq!(probe.blocks_fetched, 1);
        assert_eq!((probe.cache_hits, probe.cache_misses), (0, 1));

        // Repeat lookup: same block now comes from the cache.
        let mut probe = ReadProbe::default();
        t.get_with(b"key000777", SeqNo::MAX, &mut probed(&mut probe))
            .unwrap();
        assert_eq!((probe.cache_hits, probe.cache_misses), (1, 0));

        // Filter-rejected probe consults the filter but fetches nothing.
        let mut probe = ReadProbe::default();
        t.get_with(b"key000777xx", SeqNo::MAX, &mut probed(&mut probe))
            .unwrap();
        assert_eq!(probe.filters_consulted, 1);
        assert_eq!(probe.blocks_fetched, 0);
    }

    #[test]
    fn fill_cache_false_leaves_cache_untouched() {
        let cache = test_cache(1 << 20);
        let (_, t) = build_table(2000, Some(cache.clone()));
        let mut ctx = ReadCtx::default();
        ctx.opts.fill_cache = false;
        t.get_with(b"key000777", SeqNo::MAX, &mut ctx).unwrap();
        // Aux partitions are always cached (routing hot set) but the data
        // block must not be.
        assert_eq!(
            cache.block_count(),
            t.aux_block_count(),
            "no data block inserted"
        );
    }

    #[test]
    fn scan_returns_everything_in_order() {
        let (_, t) = build_table(3000, None);
        let mut it = t.scan();
        let mut count = 0u64;
        let mut last: Option<InternalKey> = None;
        while let Some(e) = it.next_entry().unwrap() {
            if let Some(l) = &last {
                assert!(*l < e.key);
            }
            last = Some(e.key.clone());
            count += 1;
        }
        assert_eq!(count, 3000);
    }

    #[test]
    fn scan_spans_partitions_in_order() {
        let (_, t) = build_partitioned(3000, Some(test_cache(1 << 22)), false);
        let mut it = t.scan();
        let mut count = 0u64;
        let mut last: Option<InternalKey> = None;
        while let Some(e) = it.next_entry().unwrap() {
            if let Some(l) = &last {
                assert!(*l < e.key);
            }
            last = Some(e.key.clone());
            count += 1;
        }
        assert_eq!(count, 3000);
    }

    #[test]
    fn scan_from_seeks_across_blocks() {
        let (_, t) = build_table(3000, None);
        let probe = InternalKey::lookup(b"key002500", SeqNo::MAX);
        let mut it = t.iter(Some(probe), TableReadOpts::default());
        let first = it.next_entry().unwrap().unwrap();
        assert_eq!(first.user_key().as_bytes(), b"key002500");
        let mut count = 1;
        while it.next_entry().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn scan_from_seeks_across_partitions() {
        let (_, t) = build_partitioned(3000, None, false);
        let probe = InternalKey::lookup(b"key002500", SeqNo::MAX);
        let mut it = t.iter(Some(probe), TableReadOpts::default());
        let first = it.next_entry().unwrap().unwrap();
        assert_eq!(first.user_key().as_bytes(), b"key002500");
        let mut count = 1;
        while it.next_entry().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn snapshot_reads_see_old_versions() {
        let backend = Arc::new(MemBackend::new());
        let mut b = TableBuilder::new(TableBuilderOptions::default());
        // key "k": seqnos 30 (newest) then 10, internal order newest-first
        b.add(&InternalEntry::put(b"k", b"new".to_vec(), 30, 0))
            .unwrap();
        b.add(&InternalEntry::put(b"k", b"old".to_vec(), 10, 0))
            .unwrap();
        let (file, _) = b.finish(backend.as_ref()).unwrap();
        let t = Table::open(backend as Arc<dyn Backend>, file, None).unwrap();
        assert_eq!(&t.get(b"k", SeqNo::MAX).unwrap().unwrap().value[..], b"new");
        assert_eq!(&t.get(b"k", 20).unwrap().unwrap().value[..], b"old");
        assert!(t.get(b"k", 5).unwrap().is_none());
    }

    #[test]
    fn warm_cache_loads_all_blocks() {
        let cache = test_cache(1 << 22);
        let (backend, t) = {
            let backend = Arc::new(MemBackend::new());
            let mut b = TableBuilder::new(TableBuilderOptions::default());
            for i in 0..2000u64 {
                b.add(&InternalEntry::put(
                    format!("key{i:06}").into_bytes(),
                    vec![b'v'; 16],
                    i + 1,
                    i,
                ))
                .unwrap();
            }
            let (file, _) = b.finish(backend.as_ref()).unwrap();
            let t = Table::open(
                backend.clone() as Arc<dyn Backend>,
                file,
                Some(cache.clone()),
            )
            .unwrap();
            (backend, t)
        };
        t.warm_cache().unwrap();
        assert_eq!(
            cache.block_count(),
            t.block_count() + t.aux_block_count(),
            "data blocks plus index/filter partitions"
        );
        let before = backend.stats().snapshot();
        t.get(b"key001234", SeqNo::MAX).unwrap();
        assert_eq!(
            backend.stats().snapshot().delta(&before).read_ops,
            0,
            "post-warm lookups are free"
        );
    }

    #[test]
    fn cache_hit_returns_aliasing_bytes() {
        let cache = test_cache(1 << 22);
        let (_, t) = build_partitioned(2000, Some(cache), false);
        let mut ctx = ReadCtx::default();
        let fences = t.partition_fences(0, &mut ctx).unwrap();
        let (first, from_cache) = t.read_block_fence(&fences[0], &mut ctx).unwrap();
        assert!(!from_cache, "first read goes to the backend");
        let (a, hit_a) = t.read_block_fence(&fences[0], &mut ctx).unwrap();
        let (b, hit_b) = t.read_block_fence(&fences[0], &mut ctx).unwrap();
        assert!(hit_a && hit_b);
        assert_eq!(
            a.as_ptr(),
            b.as_ptr(),
            "cache hits must alias one allocation — any copy breaks zero-copy"
        );
        assert_eq!(a, first, "hit serves the same bytes the fill stored");
    }

    #[test]
    fn invalidate_file_keeps_concurrent_readers_valid() {
        let cache = test_cache(1 << 22);
        let (_, t) = build_partitioned(2000, Some(cache.clone()), true);
        assert!(cache.pinned_bytes() > 0, "pinned aux charged at open");
        let mut ctx = ReadCtx::default();
        let fences = t.partition_fences(0, &mut ctx).unwrap();
        t.read_block_fence(&fences[0], &mut ctx).unwrap();
        let (held, _) = t.read_block_fence(&fences[0], &mut ctx).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % 2000;
                    let got = t
                        .get(format!("key{k:06}").as_bytes(), SeqNo::MAX)
                        .unwrap()
                        .unwrap();
                    assert_eq!(got.value, format!("value-{k}").as_bytes());
                    i += 37;
                }
            }));
        }
        // What compaction's table teardown does: drop every cached entry
        // for the file — pinned partitions included — while reads are in
        // flight. Readers must refetch, never crash or misread.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(cache.invalidate_file(t.file) > 0);
        assert_eq!(cache.pinned_bytes(), 0, "pinned partitions dropped");
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }

        // A Bytes handle taken before the invalidation still reads
        // correctly: the refcount keeps the allocation alive after the
        // cache dropped its reference.
        let mut it = Table::block_iter(held, true, &ctx.opts).unwrap();
        let e = it.next().unwrap().unwrap();
        assert_eq!(e.user_key().as_bytes(), b"key000000");

        // And the table itself recovers: the next read refills the cache.
        let got = t.get(b"key000777", SeqNo::MAX).unwrap().unwrap();
        assert_eq!(got.value, b"value-777".as_slice());
    }
}
