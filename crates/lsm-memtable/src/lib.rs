//! Memtable implementations for `lsm-lab`.
//!
//! The memtable is the in-memory write buffer of the LSM-tree: every
//! external write lands here first, and a full memtable is frozen and
//! flushed to disk as a sorted run (tutorial §2.1.1-A). Commercial engines
//! let the developer pick the buffer's data structure because the choice
//! trades write throughput against read/scan support (tutorial §2.2.1,
//! citing RocksDB's four memtable factories). This crate implements the
//! same menu:
//!
//! * [`VectorMemTable`] — an append-only vector: the fastest possible
//!   ingestion, but point reads scan backwards linearly and flushing sorts.
//! * [`SkipListMemTable`] — the classic ordered skiplist: balanced
//!   `O(log n)` reads and writes, cheap sorted iteration.
//! * [`HashSkipListMemTable`] — key-prefix hash shards, each a skiplist:
//!   faster point access under skew, but cross-prefix scans must merge.
//! * [`HashLinkListMemTable`] — hash shards of sorted buckets: compact and
//!   fast for point-heavy workloads with small buckets.
//! * [`BTreeMemTable`] — a `BTreeMap` reference implementation used as the
//!   correctness oracle in property tests.
//!
//! All implementations are behind the object-safe [`MemTable`] trait and are
//! constructed from a [`MemTableKind`] by [`make_memtable`], which is how the
//! engine exposes the `memtable_kind` tuning knob.

mod btree;
mod hash_linklist;
mod hash_skiplist;
mod skiplist;
mod vector;

pub use btree::BTreeMemTable;
pub use hash_linklist::HashLinkListMemTable;
pub use hash_skiplist::HashSkipListMemTable;
pub use skiplist::{SkipList, SkipListMemTable};
pub use vector::VectorMemTable;

use std::sync::Arc;

use lsm_types::{InternalEntry, SeqNo};

/// An owning, forward memtable cursor in internal-key order (see
/// [`MemTable::cursor`]).
pub type MemCursor = Box<dyn Iterator<Item = InternalEntry> + Send>;

/// The write-buffer data structure menu (RocksDB `memtable_factory`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MemTableKind {
    /// Append-only vector; sorted lazily.
    Vector,
    /// Ordered skiplist (the default in most LSM engines).
    SkipList,
    /// Hash of skiplists, sharded by key prefix.
    HashSkipList,
    /// Hash of sorted buckets, sharded by key prefix.
    HashLinkList,
    /// `BTreeMap` reference implementation.
    BTree,
}

impl MemTableKind {
    /// All kinds, for experiment sweeps.
    pub const ALL: [MemTableKind; 5] = [
        MemTableKind::Vector,
        MemTableKind::SkipList,
        MemTableKind::HashSkipList,
        MemTableKind::HashLinkList,
        MemTableKind::BTree,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MemTableKind::Vector => "vector",
            MemTableKind::SkipList => "skiplist",
            MemTableKind::HashSkipList => "hash-skiplist",
            MemTableKind::HashLinkList => "hash-linklist",
            MemTableKind::BTree => "btree",
        }
    }
}

/// The write buffer interface the engine programs against.
///
/// Implementations are internally synchronized (`&self` methods) so the
/// engine can share a memtable between foreground writers and background
/// flush threads.
pub trait MemTable: Send + Sync {
    /// Inserts one internal entry. Internal keys are unique (seqnos are
    /// never reused), so this never overwrites.
    fn insert(&self, entry: InternalEntry);

    /// Returns the newest version of `key` visible at `snapshot`
    /// (i.e. with the largest `seqno <= snapshot`), tombstones included.
    fn get(&self, key: &[u8], snapshot: SeqNo) -> Option<InternalEntry>;

    /// Approximate bytes buffered; the engine freezes the memtable when this
    /// crosses the configured buffer size.
    fn approximate_size(&self) -> usize;

    /// Number of buffered entries.
    fn len(&self) -> usize;

    /// Whether the buffer holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries in internal-key order (user key asc, seqno desc), copied
    /// out under the lock. The engine streams [`Self::cursor`] instead;
    /// this and [`Self::range_entries`] serve `perf/`'s isolated probes and
    /// the default cursor.
    fn sorted_entries(&self) -> Vec<InternalEntry>;

    /// Entries with user key in `[start, end)` (`None` = unbounded above),
    /// in internal-key order, copied out under the lock.
    fn range_entries(&self, start: &[u8], end: Option<&[u8]>) -> Vec<InternalEntry>;

    /// An owning cursor over the entries with user key in `[start, end)`
    /// (`None` = unbounded above), in internal-key order: what scans, the
    /// flush and recovery's re-log stream. It yields every entry present
    /// when it opened; an entry inserted while it is open may or may not
    /// appear, but the output stays strictly sorted. The default copies
    /// [`Self::range_entries`] up front; [`SkipListMemTable`] walks its
    /// list one locked step at a time instead.
    fn cursor(self: Arc<Self>, start: &[u8], end: Option<&[u8]>) -> MemCursor {
        Box::new(self.range_entries(start, end).into_iter())
    }

    /// The implementation's display name.
    fn kind(&self) -> MemTableKind;
}

/// Constructs a memtable of the requested kind.
pub fn make_memtable(kind: MemTableKind) -> Box<dyn MemTable> {
    match kind {
        MemTableKind::Vector => Box::new(VectorMemTable::new()),
        MemTableKind::SkipList => Box::new(SkipListMemTable::new()),
        MemTableKind::HashSkipList => Box::new(HashSkipListMemTable::new(16)),
        MemTableKind::HashLinkList => Box::new(HashLinkListMemTable::new(64)),
        MemTableKind::BTree => Box::new(BTreeMemTable::new()),
    }
}

/// Shared helper: filter + sort a flat entry list into internal-key order.
fn sort_entries(mut entries: Vec<InternalEntry>) -> Vec<InternalEntry> {
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries
}

/// Shared helper: does `key` fall in `[start, end)`?
fn in_range(key: &[u8], start: &[u8], end: Option<&[u8]>) -> bool {
    key >= start && end.is_none_or(|e| key < e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_types::EntryKind;

    fn e(key: &[u8], val: &[u8], seqno: SeqNo) -> InternalEntry {
        InternalEntry::put(key, val.to_vec(), seqno, seqno)
    }

    /// Contract test every implementation must pass.
    fn memtable_contract(mt: Arc<dyn MemTable>) {
        assert!(mt.is_empty());
        mt.insert(e(b"b", b"1", 1));
        mt.insert(e(b"a", b"2", 2));
        mt.insert(e(b"c", b"3", 3));
        mt.insert(e(b"a", b"4", 4)); // newer version of "a"
        mt.insert(InternalEntry::delete(b"b", 5, 5));

        assert_eq!(mt.len(), 5);
        assert!(!mt.is_empty());
        assert!(mt.approximate_size() > 0);

        // newest visible version wins
        let got = mt.get(b"a", SeqNo::MAX).unwrap();
        assert_eq!(&got.value[..], b"4");
        // snapshot sees the old version
        let got = mt.get(b"a", 3).unwrap();
        assert_eq!(&got.value[..], b"2");
        // below every version: nothing
        assert!(mt.get(b"a", 1).is_none());
        // tombstone is returned, not hidden
        let got = mt.get(b"b", SeqNo::MAX).unwrap();
        assert_eq!(got.kind(), EntryKind::Delete);
        // missing key
        assert!(mt.get(b"zz", SeqNo::MAX).is_none());

        // sorted iteration: user key asc, seqno desc within key
        let sorted = mt.sorted_entries();
        let keys: Vec<(&[u8], SeqNo)> = sorted
            .iter()
            .map(|en| (en.user_key().as_bytes(), en.seqno()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (&b"a"[..], 4),
                (&b"a"[..], 2),
                (&b"b"[..], 5),
                (&b"b"[..], 1),
                (&b"c"[..], 3)
            ]
        );

        // range [a, c) excludes c
        let r = mt.range_entries(b"a", Some(b"c"));
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|en| en.user_key().as_bytes() < &b"c"[..]));
        // unbounded range = everything from b
        let r = mt.range_entries(b"b", None);
        assert_eq!(r.len(), 3);

        // the cursor yields exactly what the copying range read does
        let bounds: [(&[u8], Option<&[u8]>); 6] = [
            (b"", None),
            (b"a", Some(b"c")),
            (b"b", None),
            (b"a", Some(b"a")),
            (b"bb", Some(b"zz")),
            (b"zz", None),
        ];
        for (start, end) in bounds {
            let streamed: Vec<_> = Arc::clone(&mt).cursor(start, end).collect();
            assert_eq!(
                streamed,
                mt.range_entries(start, end),
                "{}: cursor({start:?}, {end:?})",
                mt.kind().name()
            );
        }
    }

    #[test]
    fn all_kinds_satisfy_contract() {
        for kind in MemTableKind::ALL {
            let mt: Arc<dyn MemTable> = Arc::from(make_memtable(kind));
            assert_eq!(mt.kind(), kind);
            memtable_contract(mt);
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = MemTableKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), MemTableKind::ALL.len());
    }

    #[test]
    fn concurrent_writers_and_readers() {
        for kind in MemTableKind::ALL {
            let mt: Arc<dyn MemTable> = Arc::from(make_memtable(kind));
            let mut handles = Vec::new();
            for t in 0..2u64 {
                let mt = Arc::clone(&mt);
                handles.push(std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let seq = t * 1000 + i + 1;
                        let key = format!("key{:03}", i % 50);
                        mt.insert(e(key.as_bytes(), b"v", seq));
                        mt.get(key.as_bytes(), SeqNo::MAX);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(mt.len(), 400, "{}", kind.name());
        }
    }
}
