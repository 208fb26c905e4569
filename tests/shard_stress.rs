//! Randomized multithreaded stress for the sharded router.
//!
//! Writers, a cross-shard batch writer, readers, and a merged-scan thread
//! hammer a `Db` with several shards, all running background maintenance, while
//! debug builds assert the `lsm-sync` lock hierarchy on every acquisition —
//! including the epoch-coordinator mutex that the cross-shard batches take
//! *outside* every per-shard engine lock. Any acquisition that violates
//! `lock_order.json` panics the test rather than deadlocking in the field.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use lsm_lab::core::{CompactionConfig, Db, Observability, Options, Partitioning, WriteBatch};
use lsm_lab::obs::ObsHandle;

const SHARDS: usize = 3;
const WRITERS: usize = 4;
const KEYS_PER_WRITER: u64 = 400;
const BATCHES: u64 = 200;

/// Deterministic per-thread PRNG (xorshift64*) so failures replay.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Small buffers so the run cycles memtables on every shard, with the WAL
/// on so cross-shard batches take the epoch-commit path rather than the
/// wal-off per-shard fallback.
fn shard_stress_options() -> Options {
    Options {
        write_buffer_bytes: 16 << 10,
        table_target_bytes: 16 << 10,
        block_cache_bytes: 64 << 10,
        background_threads: 2,
        wal: true,
        wal_sync: false,
        compaction: CompactionConfig {
            size_ratio: 3,
            level1_bytes: 64 << 10,
            ..CompactionConfig::default()
        },
        ..Options::default()
    }
}

fn key(writer: usize, i: u64) -> Vec<u8> {
    format!("w{writer:02}k{i:06}").into_bytes()
}

fn value(writer: usize, i: u64, rev: u64) -> Vec<u8> {
    format!("v{writer:02}-{i:06}-{rev:04}-{}", "x".repeat(96)).into_bytes()
}

fn batch_key(j: u64, part: usize) -> Vec<u8> {
    format!("bt{j:05}-{part}").into_bytes()
}

fn batch_value(j: u64, part: usize) -> Vec<u8> {
    format!("bv{j:05}-{part}-{}", "y".repeat(64)).into_bytes()
}

#[test]
fn sharded_stress_exercises_epoch_and_engine_locks_without_deadlock() {
    let obs = ObsHandle::recording();
    let db = Arc::new(
        Db::builder()
            .shards(SHARDS)
            .partitioning(Partitioning::Hash)
            .options(shard_stress_options())
            .obs(Observability::Shared(obs.clone()))
            .open()
            .expect("open sharded"),
    );
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: disjoint key ranges that hash-scatter across the shards;
    // every 11th key ends deleted via a singleton range tombstone, which
    // under hash partitioning broadcasts to every shard.
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        writers.push(thread::spawn(move || {
            let mut rng = Rng::new(0x9e37_79b9 ^ (w as u64) << 32);
            for i in 0..KEYS_PER_WRITER {
                let k = key(w, i);
                db.put(&k, &value(w, i, 0)).expect("put");
                if rng.next().is_multiple_of(3) {
                    db.put(&k, &value(w, i, 1)).expect("overwrite");
                }
                if i.is_multiple_of(11) {
                    let mut end = k.clone();
                    end.push(0x7f);
                    db.delete_range(&k, &end).expect("delete_range");
                }
            }
        }));
    }

    // Batch writer: cross-shard WriteBatches racing the single-key writers,
    // so the epoch coordinator lock interleaves with every shard's commit
    // pipeline under contention.
    let batcher = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            for j in 0..BATCHES {
                let mut wb = WriteBatch::new();
                for part in 0..SHARDS {
                    wb.put(&batch_key(j, part), &batch_value(j, part));
                }
                db.write(wb).expect("cross-shard batch");
            }
        })
    };

    // Readers: random point gets routed across all shards while writes race.
    let mut readers = Vec::new();
    for r in 0..2 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut rng = Rng::new(0xc0ff_ee00 + r);
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let w = (rng.next() % WRITERS as u64) as usize;
                let i = rng.next() % KEYS_PER_WRITER;
                if db.get(&key(w, i)).expect("get").is_some() {
                    seen += 1;
                }
            }
            seen
        }));
    }

    // Scanner: bounded merged scans spanning every shard.
    let scanner = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut rng = Rng::new(0x5ca1_ab1e);
            while !stop.load(Ordering::Relaxed) {
                let w = (rng.next() % WRITERS as u64) as usize;
                let start = key(w, 0);
                let end = key(w, KEYS_PER_WRITER);
                let _ = db.scan(&start, Some(&end)).expect("merged scan").count();
            }
        })
    };

    for h in writers {
        h.join().expect("writer thread");
    }
    batcher.join().expect("batch writer thread");
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("reader thread");
    }
    scanner.join().expect("scanner thread");
    db.wait_idle().expect("wait_idle");

    // Every acknowledged single-key write is readable at its final revision
    // (or deleted, for the range-tombstoned keys) through the router.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let got = db.get(&key(w, i)).expect("verify get");
            if i.is_multiple_of(11) {
                assert_eq!(got, None, "writer {w} key {i} should be deleted");
            } else {
                let got = got.unwrap_or_else(|| panic!("writer {w} key {i} lost"));
                assert_eq!(&got[..12], &value(w, i, 0)[..12], "writer {w} key {i}");
            }
        }
    }
    // Every acknowledged cross-shard batch is fully present on all shards.
    for j in 0..BATCHES {
        for part in 0..SHARDS {
            let got = db
                .get(&batch_key(j, part))
                .expect("verify batch get")
                .unwrap_or_else(|| panic!("batch {j} part {part} lost"));
            assert_eq!(got, batch_value(j, part), "batch {j} part {part}");
        }
    }

    // The load actually spread: every shard ingested writes and the
    // aggregate counters add up across shards.
    for s in 0..SHARDS {
        let m = db.shard_metrics(s).db;
        assert!(m.puts > 0, "shard {s} never received a put");
        assert!(m.wal_appends > 0, "shard {s} never appended to its WAL");
    }
    let agg = db.metrics();
    assert!(
        agg.db.puts >= (WRITERS as u64) * KEYS_PER_WRITER + BATCHES * SHARDS as u64,
        "aggregate puts undercount: {}",
        agg.db.puts
    );
    assert!(agg.db.flushes > 0, "the run must cycle memtables");

    // The shared-observability run produced a well-formed trace.
    assert!(
        agg.latency.get(lsm_lab::core::HistKind::Put).count() > 0,
        "put histogram must record under stress"
    );
    let trace = obs.chrome_trace();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"flush\""), "flush spans must be traced");
}
