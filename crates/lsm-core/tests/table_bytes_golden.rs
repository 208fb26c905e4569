//! The bytes flush and compaction write are pinned: a seeded flush and a
//! seeded three-run compaction must produce table files whose length and
//! whole-file CRC-32C equal the recorded values. A change to either
//! constant is an on-disk format change. The values are table format v2's
//! (shared-prefix data blocks with restart points); v1, which stored every
//! key whole, wrote 1 282 697 bytes for the flush and 265 839 + 265 754 +
//! 265 784 + 122 626 for the compaction.

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use lsm_core::{DataLayout, Db, Options};
use lsm_storage::{Backend, MemBackend};
use lsm_types::checksum::crc32c;

/// xorshift64*: the test's own generator, so the inputs never move.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn value(&mut self) -> Vec<u8> {
        let len = 40 + self.below(160) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn key(id: u64) -> Vec<u8> {
    format!("user{id:010}").into_bytes()
}

fn opts() -> Options {
    Options {
        wal: false,
        background_threads: 0,
        write_buffer_bytes: 64 << 20, // only explicit flushes
        block_cache_bytes: 0,
        ..Options::default()
    }
}

/// `(level, file length, CRC-32C of the whole file)` of every live table,
/// in level and run order.
fn table_files(db: &Db, backend: &MemBackend) -> Vec<(usize, u64, u32)> {
    let version = db.version();
    let mut out = Vec::new();
    for (level, runs) in version.levels.iter().enumerate() {
        for table in runs.iter().flat_map(|r| r.tables.iter()) {
            let len = backend.len(table.file_id()).unwrap();
            let bytes = backend.read(table.file_id(), 0, len as usize).unwrap();
            out.push((level, len, crc32c(&bytes)));
        }
    }
    out
}

#[test]
fn seeded_flush_writes_the_recorded_bytes() {
    let backend = Arc::new(MemBackend::new());
    let db = Db::builder()
        .backend(backend.clone())
        .options(opts())
        .open()
        .unwrap();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // One version per key: distinct ids, arrival order scrambled.
    let n = 9000u64;
    for i in 0..n {
        let id = (i * 7919) % n; // 7919 is coprime to 9000
        db.put(&key(id), &rng.value()).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(
        table_files(&db, &backend),
        vec![(0, 1_187_776, 1_458_652_361)],
        "the flushed table's bytes changed"
    );
}

#[test]
fn seeded_three_run_compaction_writes_the_recorded_bytes() {
    let backend = Arc::new(MemBackend::new());
    let mut o = opts();
    o.compaction.layout = DataLayout::Tiering { runs_per_level: 3 };
    o.table_target_bytes = 256 << 10;
    let db = Db::builder()
        .backend(backend.clone())
        .options(o)
        .open()
        .unwrap();
    let mut rng = Rng(0x0123_4567_89ab_cdef);
    let n = 9000u64;

    // Run 1: every third id, each written once.
    for id in (0..n).step_by(3) {
        db.put(&key(id), &rng.value()).unwrap();
    }
    db.flush().unwrap();
    // The snapshot keeps run 1's versions readable under what follows.
    let snapshot = db.snapshot();

    // Run 2: new versions of a quarter of run 1's keys, fresh keys, point
    // deletes, and a range delete over run 1 keys — at most one entry per
    // user key, so the memtable holds nothing a flush could drop.
    for id in 0..n {
        match (id % 3, id % 4) {
            (0, 0) => db.put(&key(id), &rng.value()).unwrap(),
            (0, 1) if !(600..700).contains(&id) => db.delete(&key(id)).unwrap(),
            (1, _) => db.put(&key(id), &rng.value()).unwrap(),
            _ => {}
        }
    }
    db.delete_range(&key(600), &key(700)).unwrap();
    db.flush().unwrap();
    assert_eq!(db.version().run_count(), 2, "compaction ran too early");

    // Run 3: third versions, single-deletes of keys written exactly once
    // (in run 2), deletes of keys that never existed, a second range.
    for id in 0..n {
        match (id % 3, id % 8) {
            (0, 0) => db.put(&key(id), &rng.value()).unwrap(),
            (1, 3) if !(2000..2050).contains(&id) => db.single_delete(&key(id)).unwrap(),
            (2, 5) => db.delete(&key(id)).unwrap(),
            _ => {}
        }
    }
    db.delete_range(&key(2000), &key(2050)).unwrap();
    // The third flush fills the tier; the compaction runs inline.
    db.flush().unwrap();
    let version = db.version();
    assert_eq!(version.run_count(), 1, "the three runs were not merged");
    assert!(version.levels[0].is_empty());

    assert_eq!(
        table_files(&db, &backend),
        vec![
            (1, 266_000, 3_915_061_648),
            (1, 265_935, 1_382_712_323),
            (1, 266_130, 2_492_059_159),
            (1, 46_821, 3_339_477_107),
        ],
        "the compaction's output bytes changed"
    );
    // The snapshot still reads run 1's version of a key deleted in run 2.
    assert!(snapshot.get(&key(9)).unwrap().is_some());
    assert!(db.get(&key(9)).unwrap().is_none());
}
