//! Isolated probes: each layer's public functions called directly on
//! inputs shaped like the workloads' (16 B keys, 100 B values, a 1 MiB
//! skiplist memtable, a 2 MiB table, 4 KiB blocks, the loaded tree's
//! description). A probe reports the median of [`REPEATS`] repeats.
//!
//! A probe prices a layer alone, with nothing contending; the counters and
//! self times of the workload runs say how much of that price an op pays.

use std::sync::Arc;

use lsm_core::{CacheConfig, Db, Options};
use lsm_filters::{build_point_filter, PointFilterKind};
use lsm_memtable::{make_memtable, MemTable, MemTableKind};
use lsm_sstable::{
    BlockBuilder, BlockIter, EntryIter, MergeIter, Table, TableBuilder, TableBuilderOptions,
    VecEntryIter,
};
use lsm_storage::wal::WalWriter;
use lsm_storage::{Backend, BlockCache, BlockKey, Bytes, FsBackend, MemBackend};
use lsm_types::encoding::Decoder;
use lsm_types::{checksum::crc32c, InternalEntry, InternalKey, SeqNo};

use crate::files;
use crate::gen::{load_order, write_key, write_value, KEY_LEN, SCAN_KEYS, VALUE_LEN};
use crate::stats::{median, Metrics};
use crate::trace::now_ns;
use crate::workload::{Config, HarnessResult};

const REPEATS: usize = 11;

/// Entries in a 1 MiB memtable of 116 B entries.
const MEMTABLE_ENTRIES: u64 = 8_000;
/// Entries in a 2 MiB table.
const TABLE_ENTRIES: u64 = 17_000;
/// Keys under one filter partition: 64 data blocks of 34 entries.
const PARTITION_KEYS: u64 = 64 * 34;

/// Median over [`REPEATS`] calls of `f`, which times its own inner loop
/// and returns a per-item cost.
fn probe(mut f: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&mut values)
}

/// Times `f` and returns nanoseconds per item for `items` items.
fn ns_per(items: u64, f: impl FnOnce()) -> f64 {
    let start = now_ns();
    f();
    (now_ns() - start) as f64 / items as f64
}

fn key_of(n: u64) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    write_key(&mut key, n);
    key
}

/// The present-key entry of id `id` at seqno `id + 1`.
fn entry_of(id: u64) -> InternalEntry {
    let mut value = vec![0u8; VALUE_LEN];
    write_value(&mut value, 2 * id);
    InternalEntry::put(&key_of(2 * id), value, id + 1, id + 1)
}

fn mb_per_s(nanos_per_byte: f64) -> f64 {
    1e9 / nanos_per_byte / (1 << 20) as f64
}

/// Runs every probe and records it under its layer's name.
pub fn run(m: &mut Metrics, cfg: &Config, db: &Db) -> HarnessResult<()> {
    types(m);
    memtable(m, cfg.seed);
    filters(m, cfg.seed);
    sstable(m, cfg.seed)?;
    cache(m, cfg.seed);
    device(m, cfg)?;
    let tree = db.version().describe();
    let compaction = Options::default().compaction;
    m.put(
        "compaction.plan_us",
        probe(|| {
            ns_per(100, || {
                for _ in 0..100 {
                    std::hint::black_box(lsm_compaction::plan(&tree, &compaction, 0, &[], false));
                }
            }) / 1e3
        }),
        "us",
    );
    Ok(())
}

fn types(m: &mut Metrics) {
    let page = vec![0xA5u8; lsm_types::PAGE_SIZE];
    m.put(
        "types.crc32c_mb_s",
        probe(|| {
            let per_byte = ns_per(1000 * page.len() as u64, || {
                for _ in 0..1000 {
                    std::hint::black_box(crc32c(std::hint::black_box(&page)));
                }
            });
            mb_per_s(per_byte)
        }),
        "MiB/s",
    );
    let entries: Vec<InternalEntry> = (0..1000).map(entry_of).collect();
    let mut buf = Vec::with_capacity(200 * entries.len());
    m.put(
        "types.entry_encode_ns",
        probe(|| {
            buf.clear();
            ns_per(entries.len() as u64, || {
                for e in &entries {
                    e.encode_into(&mut buf);
                }
            })
        }),
        "ns",
    );
    m.put(
        "types.entry_decode_ns",
        probe(|| {
            ns_per(entries.len() as u64, || {
                let mut dec = Decoder::new(&buf);
                while !dec.is_empty() {
                    std::hint::black_box(InternalEntry::decode_from(&mut dec).is_ok());
                }
            })
        }),
        "ns",
    );
}

fn memtable(m: &mut Metrics, seed: u64) {
    let order = load_order(MEMTABLE_ENTRIES, seed);
    let entries: Vec<InternalEntry> = order.iter().map(|&id| entry_of(id)).collect();
    let mut full: Option<Box<dyn MemTable>> = None;
    m.put(
        "memtable.insert_ns",
        probe(|| {
            let table = make_memtable(MemTableKind::SkipList);
            let batch = entries.clone();
            let cost = ns_per(MEMTABLE_ENTRIES, || {
                for e in batch {
                    table.insert(e);
                }
            });
            full = Some(table);
            cost
        }),
        "ns",
    );
    let table = full.expect("the insert probe ran");
    m.put(
        "memtable.sorted_entries_ms",
        probe(|| ns_per(1, || drop(std::hint::black_box(table.sorted_entries()))) / 1e6),
        "ms",
    );
    for (name, odd) in [("memtable.get_hit_ns", 0), ("memtable.get_miss_ns", 1)] {
        m.put(
            name,
            probe(|| {
                ns_per(MEMTABLE_ENTRIES, || {
                    for &id in &order {
                        std::hint::black_box(table.get(&key_of(2 * id + odd), SeqNo::MAX));
                    }
                })
            }),
            "ns",
        );
    }
    m.put(
        "memtable.range50_ns",
        probe(|| {
            ns_per(200, || {
                for &id in order.iter().take(200) {
                    let end = key_of(2 * (id + SCAN_KEYS as u64));
                    std::hint::black_box(table.range_entries(&key_of(2 * id), Some(&end)));
                }
            })
        }),
        "ns",
    );
}

fn filters(m: &mut Metrics, seed: u64) {
    let bits = Options::default().filter_bits_per_key;
    let keys: Vec<[u8; KEY_LEN]> = (0..PARTITION_KEYS).map(|id| key_of(2 * id)).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
    m.put(
        "filters.bloom_build_ns_per_key",
        probe(|| {
            ns_per(PARTITION_KEYS, || {
                std::hint::black_box(build_point_filter(PointFilterKind::Bloom, &refs, bits));
            })
        }),
        "ns",
    );
    let filter = build_point_filter(PointFilterKind::Bloom, &refs, bits)
        .expect("a Bloom filter kind builds a filter");
    let order = load_order(PARTITION_KEYS, seed);
    m.put(
        "filters.bloom_probe_ns",
        probe(|| {
            ns_per(PARTITION_KEYS, || {
                for &id in &order {
                    std::hint::black_box(filter.may_contain(&keys[id as usize]));
                }
            })
        }),
        "ns",
    );
    let absent = 20_000u64;
    let positives = (0..absent)
        .filter(|&id| filter.may_contain(&key_of(2 * id + 1)))
        .count();
    m.put(
        "filters.bloom_fpr",
        positives as f64 / absent as f64,
        "ratio",
    );
}

fn sstable(m: &mut Metrics, seed: u64) -> HarnessResult<()> {
    let entries: Vec<InternalEntry> = (0..TABLE_ENTRIES).map(entry_of).collect();
    let data_bytes: u64 = entries.iter().map(|e| e.encoded_len() as u64).sum();

    // One data block's worth of entries, encoded and sought.
    let block_entries = &entries[..34];
    let block_bytes: u64 = block_entries.iter().map(|e| e.encoded_len() as u64).sum();
    let mut block = Vec::new();
    m.put(
        "sstable.block_encode_mb_s",
        probe(|| {
            let per_byte = ns_per(100 * block_bytes, || {
                for _ in 0..100 {
                    let mut b = BlockBuilder::new();
                    for e in block_entries {
                        b.add(e);
                    }
                    block = b.finish();
                }
            });
            mb_per_s(per_byte)
        }),
        "MiB/s",
    );
    let block = Bytes::from(block);
    let probes: Vec<InternalKey> = (0..34)
        .map(|id| InternalKey::lookup(&key_of(2 * id), SeqNo::MAX))
        .collect();
    type Open = fn(Bytes) -> lsm_types::Result<BlockIter>;
    for (name, open) in [
        ("sstable.block_seek_ns", BlockIter::new_trusted as Open),
        ("sstable.block_verify_seek_ns", BlockIter::new as Open),
    ] {
        let mut failed = false;
        m.put(
            name,
            probe(|| {
                ns_per(20 * probes.len() as u64, || {
                    for _ in 0..20 {
                        for p in &probes {
                            let found = open(block.clone()).and_then(|mut it| {
                                it.seek(p)?;
                                it.next().transpose()
                            });
                            failed |= !matches!(found, Ok(Some(_)));
                        }
                    }
                })
            }),
            "ns",
        );
        if failed {
            return Err(format!("{name}: a seek in a fresh block found nothing").into());
        }
    }

    // A 2 MiB table on an in-memory device, read through a warm cache so
    // that what is priced is the table reader and not the device.
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let mut file = 0;
    m.put(
        "sstable.build_mb_s",
        probe(|| {
            let per_byte = ns_per(data_bytes, || {
                let mut builder = TableBuilder::new(TableBuilderOptions::default());
                for e in &entries {
                    builder.add(e).expect("entries are added in key order");
                }
                file = builder
                    .finish(backend.as_ref())
                    .expect("an in-memory device accepts a table")
                    .0;
            });
            mb_per_s(per_byte)
        }),
        "MiB/s",
    );
    let cache = Arc::new(BlockCache::with_config(CacheConfig {
        capacity_bytes: 16 << 20,
        ..CacheConfig::default()
    }));
    let resident = Table::open_pinned(Arc::clone(&backend), file, Some(Arc::clone(&cache)), true)?;
    let cached_aux = Table::open(Arc::clone(&backend), file, Some(Arc::clone(&cache)))?;
    resident.warm_cache()?;
    let order = load_order(TABLE_ENTRIES, seed);
    let mut failed = false;
    for (name, table, odd) in [
        ("sstable.get_resident_ns", &resident, 0),
        ("sstable.get_cached_aux_ns", &cached_aux, 0),
        ("sstable.get_filter_reject_ns", &resident, 1),
    ] {
        m.put(
            name,
            probe(|| {
                ns_per(4000, || {
                    for &id in order.iter().take(4000) {
                        failed |= table.get(&key_of(2 * id + odd), SeqNo::MAX).is_err();
                    }
                })
            }),
            "ns",
        );
    }
    if failed {
        return Err("sstable get probes: a get on an in-memory table failed".into());
    }
    m.put(
        "sstable.scan_entries_per_s",
        probe(|| {
            let per_entry = ns_per(TABLE_ENTRIES, || {
                let mut it = resident.scan();
                while let Ok(Some(e)) = it.next_entry() {
                    std::hint::black_box(e);
                }
            });
            1e9 / per_entry
        }),
        "1/s",
    );
    for (name, ways) in [
        ("sstable.merge4_entries_per_s", 4usize),
        ("sstable.merge8_entries_per_s", 8usize),
    ] {
        m.put(
            name,
            probe(|| {
                let sources: Vec<Box<dyn EntryIter>> = (0..ways)
                    .map(|w| {
                        let part: Vec<InternalEntry> =
                            entries.iter().skip(w).step_by(ways).cloned().collect();
                        Box::new(VecEntryIter::new(part)) as Box<dyn EntryIter>
                    })
                    .collect();
                let per_entry = ns_per(TABLE_ENTRIES, || {
                    let mut merged = MergeIter::new(sources);
                    while let Ok(Some(e)) = merged.next_entry() {
                        std::hint::black_box(e);
                    }
                });
                1e9 / per_entry
            }),
            "1/s",
        );
    }
    Ok(())
}

fn cache(m: &mut Metrics, seed: u64) {
    const BLOCKS: u64 = 4096;
    let block = Bytes::from(vec![7u8; lsm_types::PAGE_SIZE]);
    let warm = BlockCache::with_config(CacheConfig {
        capacity_bytes: 64 << 20,
        ..CacheConfig::default()
    });
    let key = |i: u64| BlockKey {
        file: 1 + i / 512,
        offset: (i % 512) * lsm_types::PAGE_SIZE as u64,
    };
    for i in 0..BLOCKS {
        warm.insert(key(i), block.clone());
    }
    let order = load_order(BLOCKS, seed);
    let hit_loop = |order: &[u64]| {
        ns_per(4 * BLOCKS, || {
            for _ in 0..4 {
                for &i in order {
                    std::hint::black_box(warm.get(&key(i)));
                }
            }
        })
    };
    m.put("storage.cache_hit_ns", probe(|| hit_loop(&order)), "ns");
    let other = load_order(BLOCKS, seed + 1);
    m.put(
        "storage.cache_hit_ns_2t",
        probe(|| {
            std::thread::scope(|s| {
                let a = s.spawn(|| hit_loop(&order));
                let b = s.spawn(|| hit_loop(&other));
                let join = |h: std::thread::ScopedJoinHandle<'_, f64>| {
                    h.join().expect("a probe thread panicked: harness bug")
                };
                (join(a) + join(b)) / 2.0
            })
        }),
        "ns",
    );
    // A cache a quarter the size of what is pushed through it: every
    // insert past the first thousand evicts.
    let small = BlockCache::with_config(CacheConfig {
        capacity_bytes: 4 << 20,
        ..CacheConfig::default()
    });
    let mut next = 0u64;
    m.put(
        "storage.cache_insert_evict_ns",
        probe(|| {
            ns_per(BLOCKS, || {
                for _ in 0..BLOCKS {
                    small.insert(key(next), block.clone());
                    next += 1;
                }
            })
        }),
        "ns",
    );
}

/// The real-file device in a temp dir of its own: WAL appends, the fsync
/// the workloads' flush policy leaves out, and 4 KiB reads that the OS
/// page cache serves.
fn device(m: &mut Metrics, cfg: &Config) -> HarnessResult<()> {
    let dir = cfg
        .out_dir
        .join(format!("tmp-probes-{}", std::process::id()));
    files::remove_dir_all(&dir);
    let fs = FsBackend::open(&dir)?;
    let result = device_probes(m, &fs, cfg.seed);
    drop(fs);
    files::remove_dir_all(&dir);
    result
}

fn device_probes(m: &mut Metrics, fs: &FsBackend, seed: u64) -> HarnessResult<()> {
    let record = vec![0x5Au8; KEY_LEN + VALUE_LEN + 12];
    let group: Vec<Vec<u8>> = vec![record.clone(); 16];
    let wal = WalWriter::create(fs)?;
    let mut error = None;
    m.put(
        "storage.wal_append_ns",
        probe(|| {
            ns_per(2000, || {
                for _ in 0..2000 {
                    error = wal.append(&record).err().or(error.take());
                }
            })
        }),
        "ns",
    );
    m.put(
        "storage.wal_append16_ns",
        probe(|| {
            ns_per(500, || {
                for _ in 0..500 {
                    error = wal.append_records(&group).err().or(error.take());
                }
            })
        }),
        "ns",
    );
    m.put(
        "storage.wal_sync_us",
        probe(|| {
            ns_per(10, || {
                for _ in 0..10 {
                    error = wal.append(&record).err().or(error.take());
                    error = wal.sync().err().or(error.take());
                }
            }) / 1e3
        }),
        "us",
    );
    let pages = 2048u64;
    let blob = fs.write_blob(&vec![3u8; pages as usize * lsm_types::PAGE_SIZE])?;
    let read_loop = |order: &[u64]| {
        let mut failed = false;
        let cost = ns_per(pages, || {
            for &p in order {
                let got = fs.read(blob, p * lsm_types::PAGE_SIZE as u64, lsm_types::PAGE_SIZE);
                failed |= got.is_err();
            }
        });
        (cost, failed)
    };
    let order = load_order(pages, seed);
    let other = load_order(pages, seed + 1);
    let mut failed = false;
    m.put(
        "storage.fs_read4k_ns",
        probe(|| {
            let (cost, f) = read_loop(&order);
            failed |= f;
            cost
        }),
        "ns",
    );
    m.put(
        "storage.fs_read4k_ns_2t",
        probe(|| {
            std::thread::scope(|s| {
                let a = s.spawn(|| read_loop(&order));
                let b = s.spawn(|| read_loop(&other));
                let join = |h: std::thread::ScopedJoinHandle<'_, (f64, bool)>| {
                    h.join().expect("a probe thread panicked: harness bug")
                };
                let ((ca, fa), (cb, fb)) = (join(a), join(b));
                failed |= fa | fb;
                (ca + cb) / 2.0
            })
        }),
        "ns",
    );
    if let Some(e) = error {
        return Err(format!("device probes: WAL call failed: {e}").into());
    }
    if failed {
        return Err("device probes: a 4 KiB read failed".into());
    }
    Ok(())
}
