//! E14 — Keyspace sharding: multi-core scale-out across shard engines.
//!
//! Claims under test: (a) a single engine's commit pipeline serializes on
//! one WAL device — with a realistic fsync cost, adding writers stops
//! helping once the device saturates; (b) sharding the keyspace across N
//! engines, each with its own WAL and commit queue, multiplies the sync
//! lanes, so aggregate ingest scales with shard count until cores or
//! writers run out; (c) atomic cross-shard batches pay for their crash
//! atomicity — one synced sub-commit per involved shard plus a coordinator
//! epoch record — which is the measured cost of the all-or-none promise.
//!
//! The backend charges a bandwidth-bound fsync cost per shard — a fixed
//! command latency plus time per dirty KiB. The latency part is what group
//! commit amortizes; the bandwidth part is irreducible on one WAL and is
//! exactly what independent per-shard WALs overlap, so the sweep measures
//! the regime sharding exists for.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use lsm_bench::{arg_u64, bench_options, f2, print_table, SyncCostBackend};
use lsm_core::{DataLayout, Db, EventKind, HistKind, Options, Partitioning, WriteBatch};
use lsm_storage::Backend;
use lsm_workload::{format_key, format_value};

fn e14_options() -> Options {
    let mut opts = bench_options(DataLayout::Hybrid { l0_runs: 4 }, 4);
    opts.background_threads = 2;
    opts.wal = true;
    opts.wal_sync = true;
    // Emit a slow-op receipt for any sampled put over 1ms: under the
    // synthetic fsync cost, puts that absorb a sync (or a stall) cross
    // this easily, so the column tracks foreground pain per shard count.
    opts.slow_op_threshold = std::time::Duration::from_millis(1);
    opts
}

/// Opens a hash-partitioned store over `shards` sync-cost backends. Every
/// shard records into the store's one observability handle; syncs/op stay
/// attributable per shard through `shard_metrics`.
fn open_sharded(shards: usize, base_us: u64, us_per_kib: u64) -> Db {
    let backends: Vec<Arc<dyn Backend>> = (0..shards)
        .map(|_| Arc::new(SyncCostBackend::with_bandwidth(base_us, us_per_kib)) as Arc<dyn Backend>)
        .collect();
    Db::builder()
        .shards(shards)
        .partitioning(Partitioning::Hash)
        .backends(backends)
        .options(e14_options())
        .open()
        .expect("open sharded")
}

fn main() {
    let n = arg_u64("--n", 12_000);
    let sync_us = arg_u64("--sync-us", 20);
    let sync_us_per_kib = arg_u64("--sync-us-per-kib", 100);
    let value_len = arg_u64("--value-len", 1024) as usize;
    let mut rows = Vec::new();
    // ingest kops/s per (shards, writers) cell, for the speedup summary.
    let mut ingest = std::collections::BTreeMap::new();

    for shards in [1usize, 2, 4] {
        for writers in [1u64, 2, 4, 8] {
            let db = Arc::new(open_sharded(shards, sync_us, sync_us_per_kib));
            let per = n / writers;
            let start = Instant::now();
            let mut handles = Vec::new();
            for w in 0..writers {
                let db = Arc::clone(&db);
                handles.push(thread::spawn(move || {
                    for i in 0..per {
                        let id = w * per + i;
                        db.put(&format_key(id), &format_value(id, value_len))
                            .unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let ingest_secs = start.elapsed().as_secs_f64();
            db.wait_idle().unwrap();

            let ops = (writers * per) as f64;
            let kops = ops / ingest_secs / 1000.0;
            ingest.insert((shards, writers), kops);
            let snap = db.metrics();
            let agg = snap.db;

            // Per-shard attribution: syncs per put routed to that shard.
            // The put tail and the slow-op receipts come from the store's
            // one observability handle, which every shard records into.
            let mut syncs_op_max = 0.0f64;
            for s in 0..shards {
                let m = db.shard_metrics(s);
                if m.db.puts > 0 {
                    syncs_op_max = syncs_op_max.max(m.db.wal_syncs as f64 / m.db.puts as f64);
                }
            }
            let put_p99 = snap.latency.get(HistKind::Put).p99();
            let slow_ops = db
                .obs()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::SlowOp)
                .count();
            rows.push(vec![
                shards.to_string(),
                writers.to_string(),
                f2(kops),
                f2(agg.wal_syncs as f64 / ops),
                f2(syncs_op_max),
                f2(put_p99 as f64 / 1000.0),
                slow_ops.to_string(),
                // Tree-shape read amplification after ingest: sorted runs a
                // point lookup would probe, traffic-weighted across shards
                // (a lookup routes to exactly one shard, so shards never
                // add). Sharding splits data, not structure — the per-shard
                // tree stays the same depth band, and this column proves
                // the write-path win is not bought with a deeper read path.
                f2(snap.read_amp_estimate),
            ]);
        }
    }

    print_table(
        &format!(
            "E14: keyspace sharding, N={n} x {value_len}B inserts, \
             fsync {sync_us}us + {sync_us_per_kib}us/KiB"
        ),
        &[
            "shards",
            "writers",
            "ingest kops/s",
            "syncs/op",
            "max shard syncs/op",
            "put p99 us",
            "slow ops",
            "read-amp",
        ],
        &rows,
    );

    let mut rows = Vec::new();
    for writers in [1u64, 2, 4, 8] {
        let base = ingest[&(1, writers)];
        rows.push(vec![
            writers.to_string(),
            f2(ingest[&(1, writers)] / base),
            f2(ingest[&(2, writers)] / base),
            f2(ingest[&(4, writers)] / base),
        ]);
    }
    print_table(
        "E14 speedup vs 1 shard (same writer count)",
        &["writers", "1 shard", "2 shards", "4 shards"],
        &rows,
    );
    println!(
        "\nExpected shape: with one shard, group commit amortizes the fsync's \
         command latency but not its bandwidth term — every dirty byte \
         still crosses the single WAL's device serially, so ingest \
         plateaus regardless of writer count. With N shards the writers' \
         keys hash across N independent WALs whose syncs proceed in \
         parallel, and aggregate ingest at high writer counts scales with \
         shard count (>=2x at 4 shards / 8 writers is the acceptance \
         bar). Per-shard syncs/op stays in the same band — sharding \
         multiplies sync lanes, it does not remove syncs."
    );

    // Part 2: the price of cross-shard atomicity. Each batch spans several
    // shards, so the epoch protocol hardens one synced sub-commit per
    // involved shard plus the coordinator's epoch record — versus the
    // single-shard fast path a 1-shard store takes for the same batch.
    let bn = arg_u64("--batches", 1_000);
    let batch_keys = 4u64;
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let db = open_sharded(shards, sync_us, sync_us_per_kib);
        let start = Instant::now();
        for j in 0..bn {
            let mut wb = WriteBatch::new();
            for k in 0..batch_keys {
                let id = j * batch_keys + k;
                wb.put(&format_key(id), &format_value(id, value_len));
            }
            db.write(wb).unwrap();
        }
        let secs = start.elapsed().as_secs_f64();
        db.wait_idle().unwrap();
        let agg = db.metrics().db;
        rows.push(vec![
            shards.to_string(),
            f2(bn as f64 / secs / 1000.0),
            f2(agg.wal_syncs as f64 / bn as f64),
            f2(agg.wal_appends as f64 / bn as f64),
        ]);
    }
    print_table(
        &format!("E14b: cross-shard atomic batches, {bn} batches of {batch_keys} keys"),
        &["shards", "batches kops/s", "syncs/batch", "appends/batch"],
        &rows,
    );
    println!(
        "\nExpected shape: at 1 shard every batch takes the single-engine \
         fast path (group commit, <=1 sync per batch). At N shards a batch \
         usually spans several shards, and the epoch commit protocol syncs \
         each involved shard's sub-commit before the coordinator records \
         the epoch — syncs/batch rises toward the involved-shard count. \
         That is the measured price of crash-atomic cross-shard writes; \
         workloads that do not need it stay on single-shard writes or opt \
         out per write with no_wal."
    );
}
