//! A sharded LRU block cache.
//!
//! Commercial LSM engines put a block cache in front of the device to keep
//! hot data blocks (and optionally filter/index blocks) in memory (tutorial
//! §2.1.3). The cache is keyed by `(file, block_offset)`; because sorted
//! runs are immutable, entries never go stale — they only become garbage
//! when the file is compacted away, which callers signal with
//! [`BlockCache::invalidate_file`]. The eviction statistics let experiments
//! quantify compaction-induced cache thrashing, and
//! [`BlockCache::warm`] implements the Leaper-style "prefetch the output of
//! a compaction" mitigation.
//!
//! Index and filter partition blocks flow through the same cache
//! (`cache_index_and_filter_blocks` semantics): their memory is charged
//! against the cache capacity, and hot tables may *pin* them so the read
//! path never re-fetches routing state. Pinned entries live outside the
//! LRU list — they are never evicted by capacity pressure, only dropped by
//! [`BlockCache::invalidate_file`] when their table is compacted away.
//!
//! The shard count is a construction-time knob ([`CacheConfig::shard_bits`])
//! so the hit path takes one of `2^bits` leaf mutexes instead of a global
//! lock; hits return a refcount-bumped [`Bytes`] clone of the cached block,
//! never a copy.
//!
//! Several stores whose backends hand out the same [`FileId`]s (the shards
//! of one database) share one cache through [`BlockCache::namespaced`]
//! handles: one capacity, one set of counters, keys kept apart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lsm_sync::{ranks, OrderedMutex};

use crate::backend::FileId;

/// Cache key: a block is identified by its file and byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockKey {
    /// File containing the block.
    pub file: FileId,
    /// Byte offset of the block within the file.
    pub offset: u64,
}

/// What a cached block holds; used to attribute hits in [`CacheStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// An sstable data block.
    Data,
    /// An index partition (a chunk of fence pointers).
    Index,
    /// A filter partition.
    Filter,
}

/// Construction-time cache knobs, consumed by `DbBuilder::cache_config`
/// (and usable directly via [`BlockCache::with_config`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes across all shards; 0 disables caching.
    pub capacity_bytes: usize,
    /// Shard count as a power of two (`2^shard_bits` shards). More shards
    /// mean less lock contention on the hit path; clamped to `[0, 10]`.
    pub shard_bits: u8,
    /// Pin the index/filter partitions of L0 and hot-level tables in the
    /// cache (charged against capacity, never evicted). The policy is
    /// enforced by the engine when it opens tables; the cache only provides
    /// the pinned-insert machinery.
    pub pin_index_filter: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 8 << 20,
            shard_bits: 4,
            pin_index_filter: true,
        }
    }
}

lsm_obs::counter_table! {
    /// The cells behind [`BlockCache::stats`], shared by every namespaced
    /// handle of one cache.
    struct CacheCounters {
        /// Lookups that found their block (any kind).
        hits: AtomicU64,
        /// Lookups that missed.
        misses: AtomicU64,
        /// Hits served for index partition blocks.
        index_hits: AtomicU64,
        /// Hits served for filter partition blocks.
        filter_hits: AtomicU64,
        /// Blocks inserted.
        insertions: AtomicU64,
        /// Blocks evicted by capacity pressure.
        evictions: AtomicU64,
        /// Blocks dropped because their file was invalidated (compacted away).
        invalidations: AtomicU64,
    }

    /// Counters describing cache effectiveness.
    ///
    /// `hits`/`misses` count every lookup (data and auxiliary blocks alike);
    /// `index_hits` and `filter_hits` attribute the subset of `hits` served
    /// for index/filter partitions, so pinning efficacy is visible separately
    /// from data-block locality (`hits - index_hits - filter_hits` is the
    /// data-block hit count).
    #[derive(serde::Serialize)]
    snapshot CacheStats;
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` across all lookups; 0 when none happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// What a shard stores a block under: the handle's namespace plus the key.
type NsKey = (u64, BlockKey);

struct Node {
    key: NsKey,
    value: Bytes,
    prev: usize,
    next: usize,
    pinned: bool,
}

/// One shard: an intrusive doubly-linked LRU list over a slab of nodes,
/// indexed by a hash map. Pinned nodes sit in the map and slab but are
/// never linked into the LRU list, so eviction cannot reach them.
struct Shard {
    map: HashMap<NsKey, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: usize,
    pinned_bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            pinned_bytes: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if !self.slab[idx].pinned && self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn remove_node(&mut self, idx: usize) -> Bytes {
        if self.slab[idx].pinned {
            self.pinned_bytes -= self.slab[idx].value.len();
        } else {
            self.unlink(idx);
        }
        let value = std::mem::take(&mut self.slab[idx].value);
        self.map.remove(&self.slab[idx].key);
        self.bytes -= value.len();
        self.free.push(idx);
        value
    }

    fn insert_node(&mut self, key: NsKey, value: Bytes, pinned: bool) {
        self.bytes += value.len();
        if pinned {
            self.pinned_bytes += value.len();
        }
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
            pinned,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx] = node;
            idx
        } else {
            self.slab.push(node);
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        if !pinned {
            self.push_front(idx);
        }
    }
}

/// A sharded LRU cache of blocks, bounded by total bytes.
///
/// A zero-capacity cache is valid and caches nothing (every lookup misses),
/// which is how experiments express "no cache".
pub struct BlockCache {
    core: Arc<CacheCore>,
    /// Keeps this handle's blocks apart from other namespaces' blocks of
    /// the same `(file, offset)`.
    ns: u64,
}

/// The state every [`BlockCache::namespaced`] handle of one cache shares.
struct CacheCore {
    shards: Vec<OrderedMutex<Shard>>,
    capacity_per_shard: usize,
    cfg: CacheConfig,
    stats: CacheCounters,
}

impl BlockCache {
    /// Creates a cache from a [`CacheConfig`]; the preferred constructor
    /// (usually reached via `DbBuilder::cache_config`).
    pub fn with_config(cfg: CacheConfig) -> Self {
        let shard_count = 1usize << cfg.shard_bits.min(10);
        let core = CacheCore {
            shards: (0..shard_count)
                .map(|_| OrderedMutex::new(ranks::CACHE_SHARD, Shard::new()))
                .collect(),
            capacity_per_shard: cfg.capacity_bytes / shard_count,
            cfg,
            stats: CacheCounters::default(),
        };
        BlockCache {
            core: Arc::new(core),
            ns: 0,
        }
    }

    /// A handle onto the same cache (capacity, blocks, counters) whose keys
    /// live in namespace `ns`: a block cached through it never answers a
    /// lookup through a handle of another namespace. Lets stores whose
    /// backends allocate overlapping [`FileId`]s share one cache.
    pub fn namespaced(&self, ns: u64) -> BlockCache {
        BlockCache {
            core: Arc::clone(&self.core),
            ns,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.core.cfg
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    #[inline]
    fn shard_for(&self, key: &BlockKey) -> &OrderedMutex<Shard> {
        // Cheap mix of namespace, file id and block offset; offsets are
        // page-aligned so shift out the low zero bits before mixing.
        let h = (key.file ^ self.ns.rotate_right(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((key.offset >> 12).wrapping_mul(0xff51_afd7_ed55_8ccd));
        &self.core.shards[(h as usize) & (self.core.shards.len() - 1)]
    }

    /// Looks up a data block, promoting it to most-recently-used on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Bytes> {
        self.get_kind(key, BlockKind::Data)
    }

    /// Looks up a block of the given kind; hits are attributed per kind in
    /// [`CacheStats`]. The returned [`Bytes`] aliases the cached allocation
    /// (refcount bump, no copy).
    pub fn get_kind(&self, key: &BlockKey, kind: BlockKind) -> Option<Bytes> {
        if self.core.capacity_per_shard == 0 {
            self.core.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard_for(key).lock();
        if let Some(&idx) = shard.map.get(&(self.ns, *key)) {
            shard.touch(idx);
            self.core.stats.hits.fetch_add(1, Ordering::Relaxed);
            match kind {
                BlockKind::Data => {}
                BlockKind::Index => {
                    self.core.stats.index_hits.fetch_add(1, Ordering::Relaxed);
                }
                BlockKind::Filter => {
                    self.core.stats.filter_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(shard.slab[idx].value.clone())
        } else {
            self.core.stats.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts a data block, evicting least-recently-used blocks as needed.
    pub fn insert(&self, key: BlockKey, value: Bytes) {
        self.insert_kind(key, value, BlockKind::Data, false);
    }

    /// Inserts a block of the given kind. `pinned` entries are charged
    /// against capacity but never evicted (they may push total usage past
    /// capacity once every unpinned block is gone); they are dropped only by
    /// [`Self::invalidate_file`]. Inserting an existing unpinned key with
    /// `pinned = true` upgrades it in place.
    pub fn insert_kind(&self, key: BlockKey, value: Bytes, _kind: BlockKind, pinned: bool) {
        if self.core.capacity_per_shard == 0 {
            return;
        }
        if !pinned && value.len() > self.core.capacity_per_shard {
            return;
        }
        let mut shard = self.shard_for(&key).lock();
        let key = (self.ns, key);
        if let Some(&idx) = shard.map.get(&key) {
            // Immutable files: same key always means same bytes, so just
            // refresh recency — or upgrade to pinned when requested.
            if pinned && !shard.slab[idx].pinned {
                shard.unlink(idx);
                shard.slab[idx].pinned = true;
                let len = shard.slab[idx].value.len();
                shard.pinned_bytes += len;
            } else {
                shard.touch(idx);
            }
            return;
        }
        while shard.bytes + value.len() > self.core.capacity_per_shard && shard.tail != NIL {
            let tail = shard.tail;
            shard.remove_node(tail);
            self.core.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.insert_node(key, value, pinned);
        self.core.stats.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts without counting as an insertion-on-miss: used by prefetchers
    /// (Leaper-style warm-after-compaction) to distinguish demand fills from
    /// speculative fills in the statistics.
    pub fn warm(&self, key: BlockKey, value: Bytes) {
        self.insert(key, value);
    }

    /// Drops every cached block of `file`, pinned or not. Called when a
    /// compaction deletes the file; returns how many blocks were dropped.
    pub fn invalidate_file(&self, file: FileId) -> usize {
        let mut dropped = 0;
        for shard in &self.core.shards {
            let mut shard = shard.lock();
            let victims: Vec<usize> = shard
                .map
                .iter()
                .filter(|((ns, k), _)| *ns == self.ns && k.file == file)
                .map(|(_, &idx)| idx)
                .collect();
            for idx in victims {
                shard.remove_node(idx);
                dropped += 1;
            }
        }
        self.core
            .stats
            .invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Total bytes currently cached (pinned entries included).
    pub fn used_bytes(&self) -> usize {
        self.core.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Bytes held by pinned (never-evicted) entries.
    pub fn pinned_bytes(&self) -> usize {
        self.core.shards.iter().map(|s| s.lock().pinned_bytes).sum()
    }

    /// Number of cached blocks.
    pub fn block_count(&self) -> usize {
        self.core.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Copies the statistics counters.
    pub fn stats(&self) -> CacheStats {
        self.core.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARDS: usize = 16;

    fn cache(capacity: usize) -> BlockCache {
        BlockCache::with_config(CacheConfig {
            capacity_bytes: capacity,
            shard_bits: 4,
            pin_index_filter: false,
        })
    }

    fn key(file: FileId, offset: u64) -> BlockKey {
        BlockKey { file, offset }
    }

    fn block(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn namespaces_share_capacity_and_counters_but_not_keys() {
        let a = cache(1 << 20);
        let b = a.namespaced(1);
        a.insert(key(7, 0), block(100));
        assert!(b.get(&key(7, 0)).is_none(), "another namespace's block");
        b.insert(key(7, 0), block(200));
        assert_eq!(a.get(&key(7, 0)).unwrap().len(), 100);
        assert_eq!(b.get(&key(7, 0)).unwrap().len(), 200);
        assert_eq!(a.used_bytes(), 300);
        assert_eq!(b.stats().hits, 2);
        assert_eq!(b.invalidate_file(7), 1);
        assert_eq!(a.get(&key(7, 0)).unwrap().len(), 100);
    }

    #[test]
    fn hit_and_miss() {
        let c = cache(1 << 20);
        assert!(c.get(&key(1, 0)).is_none());
        c.insert(key(1, 0), block(100));
        assert_eq!(c.get(&key(1, 0)).unwrap().len(), 100);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shard_bits_sets_shard_count() {
        let c = BlockCache::with_config(CacheConfig {
            capacity_bytes: 1 << 20,
            shard_bits: 6,
            pin_index_filter: false,
        });
        assert_eq!(c.shard_count(), 64);
        let c = BlockCache::with_config(CacheConfig {
            capacity_bytes: 1 << 20,
            shard_bits: 0,
            pin_index_filter: false,
        });
        assert_eq!(c.shard_count(), 1);
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Single-shard-sized capacity per shard; use keys that land in the
        // same shard by sharing file and offset page bits.
        let c = cache(SHARDS * 1000);
        // All offsets multiples of 4096 with same (offset>>12) pattern vary;
        // to force same shard, use identical file and offsets differing in
        // low bits only.
        let k1 = key(7, 4096);
        let k2 = key(7, 4097); // same shard: (offset>>12) equal
        let k3 = key(7, 4098);
        c.insert(k1, block(400));
        c.insert(k2, block(400));
        assert!(c.get(&k1).is_some()); // touch k1 so k2 is LRU
        c.insert(k3, block(400)); // must evict k2
        assert!(c.get(&k2).is_none());
        assert!(c.get(&k1).is_some());
        assert!(c.get(&k3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let c = cache(0);
        c.insert(key(1, 0), block(10));
        c.insert_kind(key(1, 4096), block(10), BlockKind::Index, true);
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.block_count(), 0);
    }

    #[test]
    fn oversized_block_rejected() {
        let c = cache(SHARDS * 100);
        c.insert(key(1, 0), block(101));
        assert_eq!(c.block_count(), 0);
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let c = cache(1 << 20);
        for off in 0..10u64 {
            c.insert(key(1, off * 4096), block(64));
            c.insert(key(2, off * 4096), block(64));
        }
        assert_eq!(c.block_count(), 20);
        let dropped = c.invalidate_file(1);
        assert_eq!(dropped, 10);
        assert_eq!(c.block_count(), 10);
        assert!(c.get(&key(1, 0)).is_none());
        assert!(c.get(&key(2, 0)).is_some());
        assert_eq!(c.stats().invalidations, 10);
    }

    #[test]
    fn reinsert_same_key_keeps_bytes_consistent() {
        let c = cache(1 << 20);
        c.insert(key(1, 0), block(100));
        c.insert(key(1, 0), block(100));
        assert_eq!(c.used_bytes(), 100);
        assert_eq!(c.block_count(), 1);
    }

    #[test]
    fn used_bytes_tracks_evictions() {
        let c = cache(SHARDS * 256);
        let k1 = key(3, 4096);
        let k2 = key(3, 4097);
        c.insert(k1, block(200));
        c.insert(k2, block(200)); // evicts k1
        assert_eq!(c.used_bytes(), 200);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let c = cache(SHARDS * 1000);
        let pinned = key(7, 4096);
        c.insert_kind(pinned, block(400), BlockKind::Index, true);
        // Flood the same shard with unpinned blocks well past capacity.
        for i in 0..20u64 {
            c.insert(key(7, 4097 + i), block(400));
        }
        assert!(c.get_kind(&pinned, BlockKind::Index).is_some());
        assert_eq!(c.pinned_bytes(), 400);
        assert!(c.stats().evictions > 0);
        // Invalidation is the only way pinned entries leave.
        c.invalidate_file(7);
        assert!(c.get_kind(&pinned, BlockKind::Index).is_none());
        assert_eq!(c.pinned_bytes(), 0);
    }

    #[test]
    fn pinned_insert_may_exceed_capacity() {
        let c = cache(SHARDS * 100);
        // Oversized unpinned is rejected, but a pinned aux block larger than
        // a shard's slice is charged anyway (accounting over eviction).
        c.insert_kind(key(1, 0), block(150), BlockKind::Filter, true);
        assert_eq!(c.block_count(), 1);
        assert_eq!(c.used_bytes(), 150);
    }

    #[test]
    fn pin_upgrade_in_place() {
        let c = cache(SHARDS * 1000);
        let k = key(9, 4096);
        c.insert(k, block(300));
        c.insert_kind(k, block(300), BlockKind::Index, true);
        assert_eq!(c.pinned_bytes(), 300);
        assert_eq!(c.used_bytes(), 300, "upgrade must not double-charge");
        // Now immune to pressure in its shard.
        for i in 0..20u64 {
            c.insert(key(9, 4097 + i), block(400));
        }
        assert!(c.get_kind(&k, BlockKind::Index).is_some());
    }

    #[test]
    fn kind_attributed_hits() {
        let c = cache(1 << 20);
        c.insert_kind(key(1, 0), block(10), BlockKind::Index, false);
        c.insert_kind(key(1, 4096), block(10), BlockKind::Filter, false);
        c.insert(key(1, 8192), block(10));
        c.get_kind(&key(1, 0), BlockKind::Index);
        c.get_kind(&key(1, 0), BlockKind::Index);
        c.get_kind(&key(1, 4096), BlockKind::Filter);
        c.get(&key(1, 8192));
        let s = c.stats();
        assert_eq!(s.hits, 4);
        assert_eq!(s.index_hits, 2);
        assert_eq!(s.filter_hits, 1);
        assert_eq!(s.hits - s.index_hits - s.filter_hits, 1, "data hits");
    }

    #[test]
    fn get_returns_aliasing_bytes() {
        let c = cache(1 << 20);
        c.insert(key(1, 0), block(512));
        let a = c.get(&key(1, 0)).unwrap();
        let b = c.get(&key(1, 0)).unwrap();
        assert_eq!(
            a.as_ptr(),
            b.as_ptr(),
            "repeat hits must alias one allocation (zero-copy)"
        );
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let c = Arc::new(cache(1 << 16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = key(t, i * 4096);
                    c.insert(k, block(64));
                    c.get(&k);
                    if i % 50 == 0 {
                        c.invalidate_file(t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No panics, and accounting stayed within capacity.
        assert!(c.used_bytes() <= 1 << 16);
    }

    #[test]
    fn every_cell_reaches_its_field_in_declaration_order() {
        let c = CacheCounters::default();
        let cells = [
            ("hits", &c.hits),
            ("misses", &c.misses),
            ("index_hits", &c.index_hits),
            ("filter_hits", &c.filter_hits),
            ("insertions", &c.insertions),
            ("evictions", &c.evictions),
            ("invalidations", &c.invalidations),
        ];
        let mut expected = Vec::new();
        for ((name, cell), v) in cells.into_iter().zip(1..) {
            cell.fetch_add(v, Ordering::Relaxed);
            expected.push((name, v));
        }
        let snap = c.snapshot();
        assert_eq!(snap.fields().to_vec(), expected);
        assert_eq!(snap.delta(&CacheStats::default()), snap);
        let mut twice = snap;
        twice.merge(&snap);
        let doubled: Vec<_> = expected.iter().map(|&(n, v)| (n, 2 * v)).collect();
        assert_eq!(twice.fields().to_vec(), doubled);
    }
}
