//! Integration tests for a [`Db`] with several shards: routing, per-shard
//! durability isolation, merged and clipped scans, snapshot cuts,
//! cross-shard batch atomicity across reopen, and builder validation.

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use lsm_core::{
    CacheConfig, Db, DbBuilder, Options, Partitioning, ReadView, WriteBatch, WriteOptions,
};
use lsm_storage::{Backend, FaultBackend, MemBackend};

fn walled() -> Options {
    Options {
        write_buffer_bytes: 64 << 10,
        table_target_bytes: 64 << 10,
        wal: true,
        wal_sync: false,
        block_cache_bytes: 0,
        ..Options::default()
    }
}

fn range_3() -> Partitioning {
    Partitioning::Range {
        split_points: vec![b"h".to_vec(), b"t".to_vec()],
    }
}

#[test]
fn hash_sharding_routes_and_reads_back() {
    let db = Db::builder()
        .shards(4)
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    assert_eq!(db.num_shards(), 4);
    for i in 0..100u32 {
        let k = format!("key-{i:03}");
        db.put(k.as_bytes(), k.as_bytes()).unwrap();
    }
    for i in 0..100u32 {
        let k = format!("key-{i:03}");
        assert_eq!(db.get(k.as_bytes()).unwrap().as_deref(), Some(k.as_bytes()));
    }
    // Every shard should own some of 100 hashed keys.
    for s in 0..4 {
        assert!(
            db.shard_metrics(s).db.puts > 0,
            "hash partitioning left shard {s} empty"
        );
    }
    // Aggregated counters see all 100 puts.
    assert_eq!(db.metrics().db.puts, 100);
}

#[test]
fn merged_scan_is_globally_ordered() {
    let db = Db::builder()
        .shards(3)
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for i in (0..60u32).rev() {
        let k = format!("k{i:02}");
        db.put(k.as_bytes(), b"v").unwrap();
    }
    let keys: Vec<Vec<u8>> = db
        .scan(b"", None)
        .unwrap()
        .map(|r| r.unwrap().0.as_bytes().to_vec())
        .collect();
    assert_eq!(keys.len(), 60);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan out of order");
    // Bounded scan stays bounded across the merge.
    let bounded: Vec<_> = db
        .scan(b"k10", Some(b"k20"))
        .unwrap()
        .map(|r| r.unwrap().0.as_bytes().to_vec())
        .collect();
    assert_eq!(bounded.len(), 10);
    assert_eq!(bounded.first().map(|k| k.as_slice()), Some(&b"k10"[..]));
}

#[test]
fn range_partitioning_places_keys_on_owning_shards() {
    let db = Db::builder()
        .shards(3)
        .partitioning(range_3())
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    // The owning shard (and only it) takes each key; the split key
    // belongs to the right side.
    let owners: [(&[u8], &[u8], usize); 4] = [
        (b"apple", b"1", 0),
        (b"h", b"h", 1),
        (b"melon", b"2", 1),
        (b"zebra", b"3", 2),
    ];
    for (key, value, owner) in owners {
        let before = shard_puts(&db);
        db.put(key, value).unwrap();
        let mut expected = before;
        expected[owner] += 1;
        assert_eq!(
            shard_puts(&db),
            expected,
            "{key:?} must land on shard {owner}"
        );
        assert_eq!(db.get(key).unwrap().as_deref(), Some(value));
    }
}

fn shard_puts(db: &Db) -> Vec<u64> {
    (0..db.num_shards())
        .map(|s| db.shard_metrics(s).db.puts)
        .collect()
}

/// A range scan under range partitioning opens iterators only on the
/// shards its `[start, end)` intersects: the others count no scan.
#[test]
fn range_scan_touches_only_intersecting_shards() {
    let db = Db::builder()
        .shards(3)
        .partitioning(range_3())
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for key in [&b"a"[..], b"b", b"m", b"z"] {
        db.put(key, b"v").unwrap();
    }
    let before: Vec<u64> = (0..3).map(|s| db.shard_metrics(s).db.scans).collect();
    assert_eq!(db.scan(b"a", Some(b"c")).unwrap().count(), 2);
    assert_eq!(db.shard_metrics(0).db.scans, before[0] + 1);
    for (s, &scans) in before.iter().enumerate().skip(1) {
        assert_eq!(
            db.shard_metrics(s).db.scans,
            scans,
            "shard {s} does not intersect [a, c) and must not be scanned"
        );
    }
    // A range across a split point still merges in order.
    let keys: Vec<_> = db
        .scan(b"b", Some(b"zz"))
        .unwrap()
        .map(|r| r.unwrap().0.as_bytes().to_vec())
        .collect();
    assert_eq!(keys, [b"b".to_vec(), b"m".to_vec(), b"z".to_vec()]);
}

/// One key per shard of `db`, found by watching which shard's put
/// counter a probe write moves.
fn one_key_per_shard(db: &Db) -> Vec<Vec<u8>> {
    let mut keys = vec![None; db.num_shards()];
    for i in 0.. {
        let key = format!("cut-{i}").into_bytes();
        let before = shard_puts(db);
        db.put(&key, b"probe").unwrap();
        let owner = (0..db.num_shards())
            .find(|&s| shard_puts(db)[s] > before[s])
            .unwrap();
        keys[owner].get_or_insert(key);
        if keys.iter().all(Option::is_some) {
            return keys.into_iter().flatten().collect();
        }
    }
    unreachable!()
}

/// A snapshot is a consistent cut across shards: while one thread commits
/// batches that write `k_s = j` on every shard `s`, every snapshot's point
/// reads and its merged scan see one and the same `j` for all keys.
#[test]
fn snapshots_cut_multi_shard_batches_whole() {
    const BATCHES: u32 = 300;
    let db = Arc::new(Db::builder().shards(3).options(walled()).open().unwrap());
    let keys = Arc::new(one_key_per_shard(&db));
    let write_all = |db: &Db, j: u32| {
        let mut batch = WriteBatch::new();
        for key in keys.iter() {
            batch.put(key, format!("{j:04}").as_bytes());
        }
        db.write(batch).unwrap();
    };
    write_all(&db, 0);
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (db, keys, done) = (Arc::clone(&db), Arc::clone(&keys), Arc::clone(&done));
        thread::spawn(move || {
            let mut cuts = 0u32;
            let mut last = 0u32;
            while !done.load(Ordering::Acquire) || cuts == 0 {
                let snap = db.snapshot();
                let read = |key: &[u8]| snap.get(key).unwrap().expect("written before the cut");
                let first = read(&keys[0]);
                for key in &keys[1..] {
                    assert_eq!(read(key), first, "point reads of one snapshot disagree");
                }
                let scanned: Vec<_> = snap
                    .scan(b"cut-", Some(b"cut."))
                    .unwrap()
                    .map(|r| r.unwrap())
                    .filter(|(k, _)| keys.iter().any(|key| key[..] == *k.as_bytes()))
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(scanned.len(), keys.len());
                assert!(
                    scanned.iter().all(|v| *v == first),
                    "the merged scan of one snapshot disagrees with its gets"
                );
                let j: u32 = std::str::from_utf8(&first).unwrap().parse().unwrap();
                assert!(j >= last, "snapshots went back in time: {j} < {last}");
                last = j;
                cuts += 1;
            }
            cuts
        })
    };
    for j in 1..=BATCHES {
        write_all(&db, j);
    }
    done.store(true, Ordering::Release);
    let cuts = reader.join().unwrap();
    assert!(cuts > 0);
    let snap = db.snapshot();
    for key in keys.iter() {
        assert_eq!(
            snap.get(key).unwrap().as_deref(),
            Some(format!("{BATCHES:04}").as_bytes())
        );
    }
}

#[test]
fn range_delete_range_touches_only_intersecting_shards() {
    let db = Db::builder()
        .shards(3)
        .partitioning(range_3())
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    db.put(b"a", b"1").unwrap();
    db.put(b"m", b"2").unwrap();
    db.put(b"z", b"3").unwrap();
    let before = db.shard_metrics(2).db.deletes;
    // [b, n) intersects shards 0 and 1 only.
    db.delete_range(b"b", b"n").unwrap();
    assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"m").unwrap(), None);
    assert_eq!(db.get(b"z").unwrap().as_deref(), Some(&b"3"[..]));
    assert_eq!(
        db.shard_metrics(2).db.deletes,
        before,
        "shard 2 does not intersect [b, n) and must see no tombstone"
    );
}

#[test]
fn hash_delete_range_broadcasts_and_deletes() {
    let db = Db::builder()
        .shards(4)
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for i in 0..40u32 {
        let k = format!("dr{i:02}");
        db.put(k.as_bytes(), b"v").unwrap();
    }
    db.delete_range(b"dr10", b"dr30").unwrap();
    let live = db.scan(b"dr", None).unwrap().count();
    assert_eq!(live, 20);
}

/// Satellite: per-write durability options route to the owning shard
/// alone — `no_wal` traffic on shard 0 neither appends nor syncs there,
/// while an explicit-sync write on shard 1 syncs only shard 1.
#[test]
fn no_wal_on_one_shard_does_not_sync_another() {
    let db = Db::builder()
        .shards(2)
        .partitioning(Partitioning::Range {
            split_points: vec![b"m".to_vec()],
        })
        .options(walled())
        .open()
        .unwrap();
    // Shard 0 gets WAL-less writes.
    let no_wal = WriteOptions {
        sync: None,
        no_wal: true,
    };
    for i in 0..20u32 {
        let k = format!("a{i:02}");
        db.put_opt(k.as_bytes(), b"v", &no_wal).unwrap();
    }
    // Shard 1 gets explicitly synced writes.
    let synced = WriteOptions {
        sync: Some(true),
        no_wal: false,
    };
    for i in 0..20u32 {
        let k = format!("z{i:02}");
        db.put_opt(k.as_bytes(), b"v", &synced).unwrap();
    }
    let s0 = db.shard_metrics(0).db;
    let s1 = db.shard_metrics(1).db;
    assert_eq!(s0.puts, 20);
    assert_eq!(s1.puts, 20);
    assert_eq!(
        s0.wal_appends, 0,
        "no_wal writes must not append on shard 0"
    );
    assert_eq!(s0.wal_syncs, 0, "shard 1's syncs must not leak to shard 0");
    assert!(s1.wal_appends > 0);
    assert!(s1.wal_syncs > 0, "explicit sync must reach shard 1's WAL");
}

#[test]
fn multi_shard_batch_is_atomic_across_reopen() {
    let backends: Vec<Arc<dyn Backend>> = (0..3)
        .map(|_| Arc::new(MemBackend::new()) as Arc<dyn Backend>)
        .collect();
    let open = |backends: Vec<Arc<dyn Backend>>| {
        Db::builder()
            .shards(3)
            .partitioning(range_3())
            .options(walled())
            .backends(backends)
            .persist_manifest(true)
            .recover(true)
            .open()
    };
    let db = open(backends.clone()).unwrap();
    db.put(b"before", b"1").unwrap();
    let mut batch = WriteBatch::new();
    batch.put(b"alpha", b"A"); // shard 0
    batch.put(b"mid", b"M"); // shard 1
    batch.put(b"zulu", b"Z"); // shard 2
    db.write(batch).unwrap();
    assert_eq!(db.get(b"mid").unwrap().as_deref(), Some(&b"M"[..]));
    drop(db);

    let db = open(backends).unwrap();
    assert_eq!(
        db.recovery_summary().unwrap().records_discarded,
        0,
        "committed epoch must be kept"
    );
    assert_eq!(db.get(b"before").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(&b"A"[..]));
    assert_eq!(db.get(b"mid").unwrap().as_deref(), Some(&b"M"[..]));
    assert_eq!(db.get(b"zulu").unwrap().as_deref(), Some(&b"Z"[..]));
    // Survivors were re-logged untagged; a second reopen changes nothing.
    let seq = ReadView::seqno(&db);
    assert!(seq > 0);
}

/// A multi-shard batch whose COMMIT record never lands is discarded whole
/// on reopen, and the involved shards are poisoned against further writes
/// (which could otherwise flush the orphaned entries into SSTs).
#[test]
fn uncommitted_epoch_is_discarded_on_reopen() {
    let faults: Vec<Arc<FaultBackend>> = (0..3)
        .map(|_| Arc::new(FaultBackend::new(Arc::new(MemBackend::new()))))
        .collect();
    let backends: Vec<Arc<dyn Backend>> = faults
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn Backend>)
        .collect();
    let open = |backends: Vec<Arc<dyn Backend>>| {
        Db::builder()
            .shards(3)
            .partitioning(range_3())
            .options(walled())
            .backends(backends)
            .persist_manifest(true)
            .recover(true)
            .open()
    };
    let db = open(backends.clone()).unwrap();
    db.put(b"keepme", b"1").unwrap(); // shard 1, plain write

    // The coordinator (shard 0's backend) now refuses writes: sub-commits
    // on shards 1 and 2 succeed, the COMMIT record fails.
    faults[0].fail_writes_permanently(true);
    let mut batch = WriteBatch::new();
    batch.put(b"mango", b"M"); // shard 1
    batch.put(b"zebra", b"Z"); // shard 2
    let err = db.write(batch);
    assert!(err.is_err(), "COMMIT-record failure must fail the batch");
    // Applied-but-uncommitted entries are live until crash...
    assert_eq!(db.get(b"mango").unwrap().as_deref(), Some(&b"M"[..]));
    // ...and the involved shards refuse further writes (poisoned), so the
    // orphaned entries can never reach an SST.
    assert!(db.put(b"moon", b"x").is_err(), "shard 1 must be poisoned");
    drop(db);

    faults[0].fail_writes_permanently(false);
    let db = open(backends).unwrap();
    assert_eq!(
        db.recovery_summary().unwrap().records_discarded,
        2,
        "both sub-batches of the uncommitted epoch must be discarded"
    );
    assert_eq!(db.get(b"keepme").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"mango").unwrap(), None, "all-or-none: none");
    assert_eq!(db.get(b"zebra").unwrap(), None, "all-or-none: none");
}

#[test]
fn builder_validation_rejects_bad_configs() {
    assert!(Db::builder().shards(0).open().is_err());
    // Wrong split count.
    assert!(Db::builder()
        .shards(3)
        .partitioning(Partitioning::Range {
            split_points: vec![b"h".to_vec()],
        })
        .open()
        .is_err());
    // Non-ascending splits.
    assert!(Db::builder()
        .shards(3)
        .partitioning(Partitioning::Range {
            split_points: vec![b"t".to_vec(), b"h".to_vec()],
        })
        .open()
        .is_err());
    // Backend count mismatch.
    assert!(Db::builder()
        .shards(2)
        .backends(vec![Arc::new(MemBackend::new()) as Arc<dyn Backend>])
        .open()
        .is_err());
}

#[test]
fn reopen_rejects_changed_shard_config() {
    let backends: Vec<Arc<dyn Backend>> = (0..2)
        .map(|_| Arc::new(MemBackend::new()) as Arc<dyn Backend>)
        .collect();
    let db = Db::builder()
        .shards(2)
        .options(walled())
        .backends(backends.clone())
        .persist_manifest(true)
        .recover(true)
        .open()
        .unwrap();
    db.put(b"k", b"v").unwrap();
    drop(db);
    // Same backends, different partitioning: refused.
    let err = Db::builder()
        .shards(2)
        .partitioning(Partitioning::Range {
            split_points: vec![b"m".to_vec()],
        })
        .options(walled())
        .backends(backends)
        .persist_manifest(true)
        .recover(true)
        .open();
    assert!(
        err.is_err(),
        "partitioning change on reopen must be refused"
    );
}

#[test]
fn sharded_builder_default_is_one_shard() {
    let db = DbBuilder::default()
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    assert_eq!(db.num_shards(), 1);
    db.put(b"k", b"v").unwrap();
    // One shard: every batch takes the single-shard fast path.
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1").put(b"b", b"2");
    db.write(batch).unwrap();
    assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
}

/// One block cache serves every shard, while each shard's backend hands
/// out file ids on its own: a block cached for one shard must never
/// answer a read on another.
#[test]
fn shards_share_one_cache_without_mixing_blocks() {
    let db = Db::builder()
        .shards(2)
        .options(Options {
            write_buffer_bytes: 16 << 10,
            table_target_bytes: 16 << 10,
            ..Options::default()
        })
        .cache_config(CacheConfig {
            capacity_bytes: 1 << 20,
            ..CacheConfig::default()
        })
        .open()
        .unwrap();
    let kv = |i: u32| (format!("key-{i:05}"), format!("value-{i:05}"));
    for i in 0..2_000 {
        let (k, v) = kv(i);
        db.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
    db.flush().unwrap();
    for _pass in 0..2 {
        for i in 0..2_000 {
            let (k, v) = kv(i);
            assert_eq!(db.get(k.as_bytes()).unwrap().as_deref(), Some(v.as_bytes()));
        }
    }
    assert!(
        db.metrics().cache.unwrap().hits > 0,
        "reads never hit the cache"
    );
}
