//! Property tests: a table must faithfully reproduce any sorted entry set.

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_sstable::{collect_all, Table, TableBuilder, TableBuilderOptions, TableReadOpts};
use lsm_storage::{Backend, BlockCache, CacheConfig, MemBackend};
use lsm_types::{InternalEntry, InternalKey, SeqNo};
use proptest::prelude::*;

fn arb_entries() -> impl Strategy<Value = Vec<InternalEntry>> {
    // Up to five versions per user key (distinct seqnos), so that one key's
    // versions can fill a small block and straddle block and index-partition
    // boundaries; sorted by internal key (user key asc, seqno desc).
    prop::collection::btree_map(
        prop::collection::vec(any::<u8>(), 1..12),
        prop::collection::btree_map(1u64..1000, prop::collection::vec(any::<u8>(), 0..40), 1..6),
        1..300,
    )
    .prop_map(|m: BTreeMap<Vec<u8>, BTreeMap<u64, Vec<u8>>>| {
        m.into_iter()
            .flat_map(|(k, versions)| {
                versions
                    .into_iter()
                    .rev()
                    .map(move |(seqno, v)| InternalEntry::put(k.clone(), v, seqno, seqno))
            })
            .collect()
    })
}

/// Writes one table and opens it both ways a cache allows: index/filter
/// partitions fetched through the cache on demand ([`Table::open`]) and
/// resident, pinned in it ([`Table::open_pinned`]).
fn build(
    entries: &[InternalEntry],
    block_size: usize,
    index_partition_blocks: usize,
) -> [Arc<Table>; 2] {
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let mut b = TableBuilder::new(TableBuilderOptions {
        block_size,
        index_partition_blocks,
        ..TableBuilderOptions::default()
    });
    for e in entries {
        b.add(e).unwrap();
    }
    let (file, _) = b.finish(backend.as_ref()).unwrap();
    let cache = Arc::new(BlockCache::with_config(CacheConfig {
        capacity_bytes: 1 << 22,
        ..CacheConfig::default()
    }));
    [
        Table::open(backend.clone(), file, Some(cache.clone())).unwrap(),
        Table::open_pinned(backend, file, Some(cache), true).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_retrievable(
        entries in arb_entries(),
        block_size in 256usize..2048,
        index_partition_blocks in 1usize..5,
    ) {
        for t in build(&entries, block_size, index_partition_blocks) {
            for (i, e) in entries.iter().enumerate() {
                let key = e.user_key().as_bytes();
                let got = t.get(key, e.seqno()).unwrap();
                prop_assert_eq!(got.as_ref(), Some(e), "lost {:?}", e.key);
                if i == 0 || entries[i - 1].user_key() != e.user_key() {
                    let newest = t.get(key, SeqNo::MAX).unwrap();
                    prop_assert_eq!(newest.as_ref(), Some(e), "lost newest {:?}", e.key);
                }
                // just below its seqno the next older version shows, if any
                if e.seqno() > 1 {
                    let older = entries.get(i + 1).filter(|n| n.user_key() == e.user_key());
                    let below = t.get(key, e.seqno() - 1).unwrap();
                    prop_assert_eq!(below.as_ref(), older, "below {:?}", e.key);
                }
            }
        }
    }

    #[test]
    fn full_scan_reproduces_input(entries in arb_entries(), block_size in 256usize..2048) {
        let [t, _] = build(&entries, block_size, 64);
        let scanned = collect_all(t.scan()).unwrap();
        prop_assert_eq!(scanned, entries);
    }

    #[test]
    fn scan_from_matches_suffix(
        entries in arb_entries(),
        pivot in any::<prop::sample::Index>(),
        index_partition_blocks in 1usize..5,
    ) {
        let key = entries[pivot.index(entries.len())].user_key();
        let first = entries.iter().position(|e| e.user_key() == key).unwrap();
        for t in build(&entries, 512, index_partition_blocks) {
            let probe = InternalKey::lookup(key.as_bytes(), SeqNo::MAX);
            let scanned = collect_all(t.iter(Some(probe), TableReadOpts::default())).unwrap();
            prop_assert_eq!(&scanned[..], &entries[first..]);
        }
    }

    #[test]
    fn meta_stats_are_exact(entries in arb_entries()) {
        let [t, _] = build(&entries, 1024, 64);
        let m = t.meta();
        prop_assert_eq!(m.entry_count, entries.len() as u64);
        prop_assert_eq!(&m.key_range.min, entries.first().unwrap().user_key());
        prop_assert_eq!(&m.key_range.max, entries.last().unwrap().user_key());
        let min_seq = entries.iter().map(|e| e.seqno()).min().unwrap();
        let max_seq = entries.iter().map(|e| e.seqno()).max().unwrap();
        prop_assert_eq!(m.min_seqno, min_seq);
        prop_assert_eq!(m.max_seqno, max_seq);
    }

    #[test]
    fn absent_keys_return_none(entries in arb_entries(), probe in prop::collection::vec(any::<u8>(), 1..12)) {
        let [t, _] = build(&entries, 512, 64);
        let exists = entries.iter().any(|e| e.user_key().as_bytes() == probe.as_slice());
        if !exists {
            prop_assert!(t.get(&probe, SeqNo::MAX).unwrap().is_none());
        }
    }
}
