//! End-to-end engine tests: every external operation across every data
//! layout, through flushes and compactions.

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_core::{DataLayout, Db, Granularity, MemTableKind, Options, PickPolicy, Trigger};
use lsm_storage::{Backend, MemBackend};

fn small_opts() -> Options {
    let mut o = Options::small_for_benchmarks();
    o.write_buffer_bytes = 8 << 10; // 8 KiB: flush often
    o.table_target_bytes = 8 << 10;
    o.compaction.level1_bytes = 32 << 10;
    o.compaction.size_ratio = 3;
    o
}

fn layouts() -> Vec<DataLayout> {
    vec![
        DataLayout::Leveling,
        DataLayout::Tiering { runs_per_level: 3 },
        DataLayout::LazyLeveling { runs_per_level: 3 },
        DataLayout::Hybrid { l0_runs: 3 },
        DataLayout::Custom {
            runs_per_level: vec![4, 3, 2, 1],
        },
    ]
}

#[test]
fn put_get_delete_roundtrip() {
    let db = Db::builder().options(Options::default()).open().unwrap();
    assert_eq!(db.get(b"missing").unwrap(), None);
    db.put(b"k1", b"v1").unwrap();
    db.put(b"k2", b"v2").unwrap();
    assert_eq!(db.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
    db.put(b"k1", b"v1b").unwrap();
    assert_eq!(db.get(b"k1").unwrap().as_deref(), Some(&b"v1b"[..]));
    db.delete(b"k1").unwrap();
    assert_eq!(db.get(b"k1").unwrap(), None);
    assert_eq!(db.get(b"k2").unwrap().as_deref(), Some(&b"v2"[..]));
}

#[test]
fn bulk_load_and_read_across_all_layouts() {
    for layout in layouts() {
        let mut opts = small_opts();
        opts.compaction.layout = layout.clone();
        let db = Db::builder().options(opts).open().unwrap();
        let n = 3000u32;
        for i in 0..n {
            db.put(
                format!("key{i:06}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        db.maintain().unwrap();
        // structure sanity: multiple levels exist
        let v = db.version();
        assert!(
            v.levels.len() > 1 || !v.levels[0].is_empty(),
            "{}: no structure",
            layout.name()
        );
        // every key readable
        for i in (0..n).step_by(97) {
            let got = db.get(format!("key{i:06}").as_bytes()).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(format!("value-{i}").as_bytes()),
                "{}: key{i:06}",
                layout.name()
            );
        }
        assert_eq!(db.get(b"key999999x").unwrap(), None);
        // full scan sees everything exactly once, in order
        let scanned: Vec<_> = db
            .scan(b"", None)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(scanned.len(), n as usize, "{}", layout.name());
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

#[test]
fn updates_resolve_to_newest_after_compaction() {
    let mut opts = small_opts();
    opts.compaction.layout = DataLayout::Leveling;
    let db = Db::builder().options(opts).open().unwrap();
    for round in 0..5u32 {
        for i in 0..500u32 {
            db.put(
                format!("key{i:04}").as_bytes(),
                format!("r{round}-{i}").as_bytes(),
            )
            .unwrap();
        }
    }
    db.maintain().unwrap();
    for i in (0..500).step_by(41) {
        let got = db.get(format!("key{i:04}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(format!("r4-{i}").as_bytes()));
    }
    let scanned: Vec<_> = db
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), 500, "old versions must not surface");
}

/// A key whose newest version opens an index partition other than the
/// first must be found by `get` exactly as `scan` finds it (its filter
/// entry lives in that partition, one past where `(key, MAX)` routes).
#[test]
fn get_agrees_with_scan_across_index_partitions() {
    let mut opts = Options::small_for_benchmarks();
    // 64-block partitions of 256-byte blocks under 256 KiB tables: every
    // full table spans over a dozen partitions.
    opts.block_size = 256;
    opts.write_buffer_bytes = 256 << 10;
    opts.table_target_bytes = 256 << 10;
    let db = Db::builder().options(opts).open().unwrap();
    let key = |i: u32| format!("key{i:06}").into_bytes();
    let n = 12_000u32;
    for i in 0..n {
        db.put(&key(i), format!("v0-{i}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    for i in (0..n).step_by(3) {
        db.put(&key(i), format!("v1-{i}").as_bytes()).unwrap();
    }
    for i in (0..n).step_by(7) {
        db.delete(&key(i)).unwrap();
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    assert!(
        db.version().all_tables().any(|t| t.aux_block_count() > 2),
        "tables must span several index partitions"
    );

    let scanned: BTreeMap<Vec<u8>, Vec<u8>> = db
        .scan(b"", None)
        .unwrap()
        .map(|pair| pair.map(|(k, v)| (k.as_bytes().to_vec(), v.to_vec())))
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), (n - n.div_ceil(7)) as usize);
    for i in 0..n {
        let got = db.get(&key(i)).unwrap();
        let seen = scanned.get(&key(i)).map(Vec::as_slice);
        assert_eq!(got.as_deref(), seen, "get != scan at key{i:06}");
        let round = if i % 3 == 0 { 1 } else { 0 };
        let want = (i % 7 != 0).then(|| format!("v{round}-{i}").into_bytes());
        assert_eq!(seen, want.as_deref(), "scan wrong at key{i:06}");
    }
}

#[test]
fn deletes_survive_compaction_until_bottom() {
    let mut opts = small_opts();
    let db = Db::builder().options(opts.clone()).open().unwrap();
    for i in 0..1000u32 {
        db.put(format!("key{i:05}").as_bytes(), &[b'x'; 64])
            .unwrap();
    }
    db.maintain().unwrap();
    for i in 0..1000u32 {
        if i % 3 == 0 {
            db.delete(format!("key{i:05}").as_bytes()).unwrap();
        }
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    for i in 0..1000u32 {
        let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
        if i % 3 == 0 {
            assert_eq!(got, None, "key{i:05} should be deleted");
        } else {
            assert!(got.is_some(), "key{i:05} should exist");
        }
    }
    // after enough churn, tombstones eventually get purged at the bottom
    opts.compaction.extra_triggers = vec![Trigger::TombstoneDensity(0.01)];
    let db2 = Db::builder().options(opts).open().unwrap();
    for i in 0..500u32 {
        db2.put(format!("key{i:05}").as_bytes(), &[b'x'; 64])
            .unwrap();
    }
    db2.flush().unwrap();
    for i in 0..500u32 {
        db2.delete(format!("key{i:05}").as_bytes()).unwrap();
    }
    db2.flush().unwrap();
    db2.maintain().unwrap();
    assert!(
        db2.metrics().db.tombstones_purged > 0,
        "bottom-level compaction should purge tombstones: {:?}",
        db2.metrics().db
    );
}

#[test]
fn scan_ranges_and_bounds() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    for i in 0..300u32 {
        db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    db.maintain().unwrap();
    let got: Vec<_> = db
        .scan(b"k0100", Some(b"k0110"))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(got.len(), 10);
    assert_eq!(got[0].0.as_bytes(), b"k0100");
    assert_eq!(got[9].0.as_bytes(), b"k0109");

    let empty: Vec<_> = db
        .scan(b"zzz", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert!(empty.is_empty());
}

#[test]
fn open_scan_keeps_its_snapshot_across_puts_freeze_and_flush() {
    for kind in MemTableKind::ALL {
        let opts = Options {
            memtable_kind: kind,
            ..Options::default()
        };
        let db = Db::builder().options(opts).open().unwrap();
        let key = |i: u32| format!("k{i:04}").into_bytes();
        for i in (0..1_000).step_by(2) {
            db.put(&key(i), b"before").unwrap();
        }
        let want: Vec<_> = (0..1_000).step_by(2).map(key).collect();

        let mut scan = db.scan(b"", None).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(scan.next().unwrap().unwrap());
        }
        // Newer versions of every key, and new keys between and around
        // the scan's position, all land in the memtable it is reading.
        for i in 0..1_000 {
            db.put(&key(i), b"after").unwrap();
        }
        db.flush().unwrap();
        got.extend(scan.map(Result::unwrap));

        let keys: Vec<_> = got.iter().map(|(k, _)| k.as_bytes().to_vec()).collect();
        assert_eq!(keys, want, "{}", kind.name());
        assert!(
            got.iter().all(|(_, v)| v.as_ref() == b"before"),
            "{}",
            kind.name()
        );
        assert_eq!(db.get(&key(1)).unwrap().as_deref(), Some(&b"after"[..]));
    }
}

#[test]
fn snapshots_pin_history_across_compaction() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    for i in 0..200u32 {
        db.put(format!("k{i:04}").as_bytes(), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..200u32 {
        db.put(format!("k{i:04}").as_bytes(), b"new").unwrap();
    }
    for i in (0..200u32).step_by(2) {
        db.delete(format!("k{i:04}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.maintain().unwrap();

    // snapshot still sees the old world
    assert_eq!(snap.get(b"k0000").unwrap().as_deref(), Some(&b"old"[..]));
    assert_eq!(snap.get(b"k0001").unwrap().as_deref(), Some(&b"old"[..]));
    let snap_scan: Vec<_> = snap
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(snap_scan.len(), 200);

    // head sees the new world
    assert_eq!(db.get(b"k0000").unwrap(), None);
    assert_eq!(db.get(b"k0001").unwrap().as_deref(), Some(&b"new"[..]));
    drop(snap);
}

#[test]
fn range_delete_masks_and_compacts_away() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    for i in 0..300u32 {
        db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    db.delete_range(b"k0100", b"k0200").unwrap();

    assert_eq!(db.get(b"k0099").unwrap().as_deref(), Some(&b"v"[..]));
    assert_eq!(db.get(b"k0100").unwrap(), None);
    assert_eq!(db.get(b"k0150").unwrap(), None);
    assert_eq!(db.get(b"k0199").unwrap(), None);
    assert_eq!(db.get(b"k0200").unwrap().as_deref(), Some(&b"v"[..]));

    let scanned: Vec<_> = db
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), 200);

    // push everything to the bottom; deleted keys must stay deleted
    db.flush().unwrap();
    db.maintain().unwrap();
    assert_eq!(db.get(b"k0150").unwrap(), None);
    let scanned: Vec<_> = db
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), 200);
}

#[test]
fn single_delete_removes_once_written_key() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    db.put(b"once", b"v").unwrap();
    db.flush().unwrap();
    db.single_delete(b"once").unwrap();
    assert_eq!(db.get(b"once").unwrap(), None);
    db.flush().unwrap();
    db.maintain().unwrap();
    assert_eq!(db.get(b"once").unwrap(), None);
}

#[test]
fn write_batch_like_interleaving_with_memtable_kinds() {
    for kind in MemTableKind::ALL {
        let mut opts = small_opts();
        opts.memtable_kind = kind;
        let db = Db::builder().options(opts).open().unwrap();
        for i in 0..800u32 {
            db.put(
                format!("k{:04}", i % 100).as_bytes(),
                format!("{i}").as_bytes(),
            )
            .unwrap();
            if i % 7 == 0 {
                db.delete(format!("k{:04}", (i + 3) % 100).as_bytes())
                    .unwrap();
            }
        }
        db.maintain().unwrap();
        // final state must be readable without panics and consistent
        let scanned: Vec<_> = db
            .scan(b"", None)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(scanned.len() <= 100, "{}", kind.name());
    }
}

#[test]
fn stats_track_write_amplification() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    for i in 0..4000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 50])
            .unwrap();
    }
    db.maintain().unwrap();
    let s = db.metrics().db;
    assert!(s.flushes > 0);
    assert!(s.compactions > 0);
    assert!(
        s.write_amplification() > 1.0,
        "WA must exceed 1: {}",
        s.write_amplification()
    );
}

#[test]
fn manifest_recovery_preserves_data() {
    let backend = Arc::new(MemBackend::new());
    let mut opts = small_opts();
    opts.wal = true;
    let manifest = {
        let db = Db::builder()
            .backend(backend.clone())
            .options(opts.clone())
            .open()
            .unwrap();
        for i in 0..1000u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.maintain().unwrap();
        // a buffered, unflushed tail lives only in WAL
        for i in 1000..1100u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.manifest_bytes()
    };
    let db2 = Db::builder()
        .backend(backend as Arc<dyn lsm_storage::Backend>)
        .options(opts)
        .manifest(&manifest)
        .open()
        .unwrap();
    for i in (0..1100u32).step_by(53) {
        let got = db2.get(format!("key{i:05}").as_bytes()).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(format!("v{i}").as_bytes()),
            "key{i:05}"
        );
    }
    let scanned: Vec<_> = db2
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), 1100);
}

#[test]
fn open_dir_recovers_from_filesystem() {
    let dir = std::env::temp_dir().join(format!("lsmlab-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = small_opts();
    opts.wal = true;
    {
        let db = Db::builder()
            .dir(&dir)
            .options(opts.clone())
            .open()
            .unwrap();
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), b"persisted")
                .unwrap();
        }
        db.maintain().unwrap();
        for i in 500..550u32 {
            db.put(format!("key{i:05}").as_bytes(), b"in-wal-only")
                .unwrap();
        }
    }
    {
        let db = Db::builder().dir(&dir).options(opts).open().unwrap();
        assert_eq!(
            db.get(b"key00000").unwrap().as_deref(),
            Some(&b"persisted"[..])
        );
        assert_eq!(
            db.get(b"key00520").unwrap().as_deref(),
            Some(&b"in-wal-only"[..])
        );
        let scanned: Vec<_> = db
            .scan(b"", None)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(scanned.len(), 550);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_threads_reach_same_state() {
    let mut opts = small_opts();
    opts.background_threads = 2;
    let db = Db::builder().options(opts).open().unwrap();
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 40])
            .unwrap();
    }
    db.wait_idle().unwrap();
    for i in (0..3000).step_by(131) {
        assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
    let s = db.metrics().db;
    assert!(s.flushes > 0);
}

#[test]
fn concurrent_writers_and_readers_background() {
    let mut opts = small_opts();
    opts.background_threads = 2;
    let db = Arc::new(Db::builder().options(opts).open().unwrap());
    let mut handles = Vec::new();
    for t in 0..3u32 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..800u32 {
                let key = format!("t{t}-key{i:05}");
                db.put(key.as_bytes(), b"v").unwrap();
                if i % 10 == 0 {
                    db.get(key.as_bytes()).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    db.wait_idle().unwrap();
    let scanned: Vec<_> = db
        .scan(b"", None)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(scanned.len(), 2400);
}

#[test]
fn monkey_filters_reduce_memory_at_bottom() {
    let mut opts = small_opts();
    opts.monkey_filters = true;
    opts.filter_bits_per_key = 8.0;
    let db = Db::builder().options(opts).open().unwrap();
    for i in 0..5000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 30])
            .unwrap();
    }
    db.maintain().unwrap();
    let v = db.version();
    assert!(v.levels.len() >= 2, "need a multi-level tree");
    // All reads still work with skewed filter allocation.
    for i in (0..5000).step_by(211) {
        assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn whole_level_granularity_works() {
    let mut opts = small_opts();
    opts.compaction.granularity = Granularity::Level;
    let db = Db::builder().options(opts).open().unwrap();
    for i in 0..2000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 40])
            .unwrap();
    }
    db.maintain().unwrap();
    for i in (0..2000).step_by(97) {
        assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn all_pick_policies_converge() {
    for pick in PickPolicy::ALL {
        let mut opts = small_opts();
        opts.compaction.pick = pick;
        if pick == PickPolicy::ExpiredTombstones {
            opts.compaction.extra_triggers = vec![Trigger::TombstoneAge(10_000)];
        }
        let db = Db::builder().options(opts).open().unwrap();
        for i in 0..2000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[b'v'; 40])
                .unwrap();
            if i % 11 == 0 {
                db.delete(format!("key{:06}", i / 2).as_bytes()).unwrap();
            }
        }
        db.maintain().unwrap();
        // spot check correctness
        let got = db.get(b"key001999").unwrap();
        assert!(got.is_some(), "{}", pick.name());
    }
}

#[test]
fn lethe_ttl_trigger_bounds_tombstone_age() {
    let mut opts = small_opts();
    opts.compaction.extra_triggers = vec![Trigger::TombstoneAge(2000)];
    opts.compaction.pick = PickPolicy::ExpiredTombstones;
    let db = Db::builder().options(opts).open().unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
            .unwrap();
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    for i in 0..100u32 {
        db.delete(format!("key{i:05}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.maintain().unwrap();
    // Age the tombstones past the deadline with unrelated writes.
    for i in 0..3000u32 {
        db.put(format!("other{i:06}").as_bytes(), &[b'w'; 64])
            .unwrap();
    }
    db.maintain().unwrap();
    assert!(
        db.metrics().db.tombstones_purged > 0,
        "TTL trigger should have purged tombstones: {:?}",
        db.metrics().db
    );
    for i in 0..100u32 {
        assert_eq!(db.get(format!("key{i:05}").as_bytes()).unwrap(), None);
    }
}

#[test]
fn space_amp_stays_bounded_for_leveling() {
    let mut opts = small_opts();
    opts.compaction.layout = DataLayout::Leveling;
    let db = Db::builder().options(opts).open().unwrap();
    for round in 0..4u32 {
        for i in 0..1000u32 {
            db.put(
                format!("key{i:05}").as_bytes(),
                format!("round{round}-padpadpad").as_bytes(),
            )
            .unwrap();
        }
        db.maintain().unwrap();
    }
    let sa = db.space_amplification();
    assert!(sa < 3.0, "leveling space amp should be small, got {sa}");
}

#[test]
fn empty_and_edge_keys() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    db.put(b"", b"empty-key").unwrap();
    db.put(b"\x00", b"nul").unwrap();
    db.put(&[0xff; 32], b"high").unwrap();
    db.put(b"k", b"").unwrap(); // empty value
    db.flush().unwrap();
    db.maintain().unwrap();
    assert_eq!(db.get(b"").unwrap().as_deref(), Some(&b"empty-key"[..]));
    assert_eq!(db.get(b"\x00").unwrap().as_deref(), Some(&b"nul"[..]));
    assert_eq!(db.get(&[0xff; 32]).unwrap().as_deref(), Some(&b"high"[..]));
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b""[..]));
}

#[test]
fn delete_range_rejects_inverted() {
    let db = Db::builder().options(small_opts()).open().unwrap();
    assert!(db.delete_range(b"z", b"a").is_err());
    assert!(db.delete_range(b"a", b"a").is_err());
}

#[test]
fn obsolete_files_are_reclaimed() {
    let mut opts = small_opts();
    opts.wal = false;
    let backend = Arc::new(MemBackend::new());
    let db = Db::builder()
        .backend(backend.clone())
        .options(opts)
        .open()
        .unwrap();
    for i in 0..4000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 50])
            .unwrap();
    }
    db.maintain().unwrap();
    let live_tables = db.version().all_tables().count();
    // files on the backend should equal live tables (all inputs deleted)
    assert_eq!(
        backend.file_count(),
        live_tables,
        "compaction inputs must be deleted once unreferenced"
    );
}

/// `(user key, value)` of every entry the one flushed table holds, in table
/// order (versions of a key newest first).
fn flushed_entries(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let version = db.version();
    let tables: Vec<_> = version.all_tables().collect();
    assert_eq!(tables.len(), 1, "one flush, one table");
    lsm_sstable::collect_all(tables[0].scan())
        .unwrap()
        .into_iter()
        .map(|e| (e.user_key().as_bytes().to_vec(), e.value.to_vec()))
        .collect()
}

#[test]
fn flush_writes_only_the_newest_version_without_snapshots() {
    let db = Db::builder().options(Options::default()).open().unwrap();
    for v in ["v1", "v2", "v3"] {
        db.put(b"hot", v.as_bytes()).unwrap();
    }
    db.put(b"cold", b"c1").unwrap();
    // A tombstone is kept (a flush is never bottommost: older versions may
    // sit in the tree below) but the put it covers is not.
    db.put(b"gone", b"g1").unwrap();
    db.delete(b"gone").unwrap();
    db.flush().unwrap();

    assert_eq!(
        flushed_entries(&db),
        vec![
            (b"cold".to_vec(), b"c1".to_vec()),
            (b"gone".to_vec(), Vec::new()),
            (b"hot".to_vec(), b"v3".to_vec()),
        ],
        "versions nothing can read must not reach the table"
    );
    assert_eq!(db.get(b"hot").unwrap().as_deref(), Some(&b"v3"[..]));
    assert_eq!(db.get(b"gone").unwrap(), None);
    assert_eq!(db.metrics().db.gc_dropped_entries, 3);
}

#[test]
fn flush_keeps_the_version_an_open_snapshot_reads() {
    let db = Db::builder().options(Options::default()).open().unwrap();
    db.put(b"hot", b"v1").unwrap();
    let snapshot = db.snapshot();
    db.put(b"hot", b"v2").unwrap();
    db.put(b"hot", b"v3").unwrap();
    db.flush().unwrap();

    // v3 is the live version and v1 the snapshot's; v2 sits between the
    // snapshot and v3 where no reader can land.
    assert_eq!(
        flushed_entries(&db),
        vec![
            (b"hot".to_vec(), b"v3".to_vec()),
            (b"hot".to_vec(), b"v1".to_vec()),
        ]
    );
    assert_eq!(snapshot.get(b"hot").unwrap().as_deref(), Some(&b"v1"[..]));
    assert_eq!(db.get(b"hot").unwrap().as_deref(), Some(&b"v3"[..]));
}
