//! Crash-recovery harness: drive the engine to a crash at every storage
//! write, power-cut the backend, reopen, and verify the acknowledged state.
//!
//! The harness encodes the durability contract the engine promises when
//! `wal_sync` is on:
//!
//! * every operation that returned `Ok` is readable after a power cut;
//! * the single operation in flight at the crash is **atomic** — after
//!   recovery its key shows either the old or the new value, never a
//!   mixture and never corruption;
//! * reopen itself never fails, whatever write the crash interrupted
//!   (WAL append, table blob, manifest install, obsolete-file cleanup,
//!   value-log roll, GC relocation, ...).
//!
//! [`crash_sweep`] walks crash points over the plain [`Db`];
//! [`kv_crash_sweep`] does the same over the WiscKey-separated store,
//! including garbage-collection crash points; [`sharded_crash_sweep`]
//! power-cuts a three-shard [`Db`] mid-epoch — one shard's backend dies while a
//! cross-shard `WriteBatch` is partially sub-committed — and asserts the
//! epoch protocol's all-or-none promise after reopen. All sweeps are
//! deterministic: one seed fixes the fault schedule *and* the workload, so
//! a failure report (layout, seed, crash op) reproduces exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_compaction::{CompactionConfig, DataLayout};
use lsm_core::{Db, Observability, Options, Partitioning, WriteBatch};
use lsm_obs::ObsHandle;
use lsm_storage::{Backend, FaultBackend, MemBackend};
use lsm_types::Value;
use lsm_wisckey::KvSeparatedDb;

/// One step of the deterministic workload.
#[derive(Clone, Debug)]
pub enum WorkloadOp {
    /// Insert or overwrite a key.
    Put(Vec<u8>, Vec<u8>),
    /// Delete a key.
    Delete(Vec<u8>),
    /// Drain pending flush/compaction work.
    Maintain,
    /// Garbage-collect the oldest value-log segment (WiscKey sweep only;
    /// ignored by the plain sweep).
    Gc,
}

impl WorkloadOp {
    /// The key this operation logically touches, when it touches one.
    fn touched_key(&self) -> Option<&[u8]> {
        match self {
            WorkloadOp::Put(k, _) | WorkloadOp::Delete(k) => Some(k),
            WorkloadOp::Maintain | WorkloadOp::Gc => None,
        }
    }
}

/// What a (possibly interrupted) workload run acknowledged.
pub struct RunOutcome {
    /// Key-value state built from `Ok` operations only.
    pub model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The operation that errored (the crash victim), when one did.
    pub in_flight: Option<WorkloadOp>,
}

/// Aggregate result of one sweep, for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepReport {
    /// Storage write ops in the fault-free reference run.
    pub write_ops_total: u64,
    /// Crash points actually driven (sampled by stride).
    pub crash_points_tested: usize,
    /// Crashes that interrupted the open itself.
    pub crashes_during_open: usize,
    /// Recoveries that had to truncate a torn WAL tail.
    pub recoveries_with_torn_wal: usize,
}

/// The engine configuration the sweeps run: tiny buffers so a short
/// workload exercises flush, compaction, and obsolete-file cleanup, with
/// the synced WAL that makes `Ok` mean durable.
pub fn harness_options(layout: DataLayout) -> Options {
    Options {
        write_buffer_bytes: 2 << 10,
        table_target_bytes: 2 << 10,
        max_immutable_memtables: 2,
        compaction: CompactionConfig {
            layout,
            level1_bytes: 8 << 10,
            ..CompactionConfig::default()
        },
        block_cache_bytes: 0,
        wal: true,
        wal_sync: true,
        background_threads: 0,
        ..Options::default()
    }
}

/// The deterministic mixed workload: ~150 puts/deletes over a 48-key
/// space (so overwrites create garbage), maintenance mixed in.
pub fn standard_workload() -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    for i in 0..150u32 {
        let slot = i % 48;
        let key = format!("key{slot:03}").into_bytes();
        if i % 11 == 7 {
            ops.push(WorkloadOp::Delete(key));
        } else {
            let len = 60 + (i as usize % 5) * 20;
            ops.push(WorkloadOp::Put(key, vec![b'a' + (i % 23) as u8; len]));
        }
        if i % 23 == 19 {
            ops.push(WorkloadOp::Maintain);
        }
    }
    ops.push(WorkloadOp::Maintain);
    ops
}

/// The WiscKey workload: large (logged) and small (inline) values, with
/// GC passes that relocate live records and delete dead segments.
pub fn kv_workload() -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    for i in 0..110u32 {
        let slot = i % 36;
        let key = format!("key{slot:03}").into_bytes();
        if i % 13 == 9 {
            ops.push(WorkloadOp::Delete(key));
        } else if i % 4 == 3 {
            ops.push(WorkloadOp::Put(key, vec![b'0' + (i % 10) as u8; 8]));
        } else {
            ops.push(WorkloadOp::Put(key, vec![b'A' + (i % 26) as u8; 180]));
        }
        if i % 25 == 21 {
            ops.push(WorkloadOp::Maintain);
        }
        if i % 40 == 33 {
            ops.push(WorkloadOp::Gc);
        }
    }
    ops.push(WorkloadOp::Maintain);
    ops
}

/// Opens a durable `Db` on `backend`: manifest persisted, WAL recovered,
/// orphans cleaned — the configuration the sweeps verify.
pub fn open_durable_db(backend: Arc<dyn Backend>, opts: &Options) -> lsm_types::Result<Db> {
    Db::builder()
        .backend(backend)
        .options(opts.clone())
        .persist_manifest(true)
        .recover(true)
        .clean_orphans(true)
        .open()
}

/// [`open_durable_db`] over one backend per shard, sharing the sweep-wide
/// observability handle, so one event trace spans every crash point and
/// reopen in a sweep.
fn open_swept_db(
    backends: Vec<Arc<dyn Backend>>,
    partitioning: &Partitioning,
    opts: &Options,
    obs: &ObsHandle,
) -> lsm_types::Result<Db> {
    Db::builder()
        .shards(backends.len())
        .backends(backends)
        .partitioning(partitioning.clone())
        .options(opts.clone())
        .persist_manifest(true)
        .recover(true)
        .clean_orphans(true)
        .obs(Observability::Shared(obs.clone()))
        .open()
}

/// Runs `f`; if it panics (a sweep verification failed), dumps the sweep's
/// event trace as Chrome `trace_event` JSON to a temp file — the
/// flush/compaction/recovery/fault timeline around the failing crash point,
/// viewable in `chrome://tracing` — then re-raises the panic.
fn dump_trace_on_panic<T>(obs: &ObsHandle, label: &str, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            let path = std::env::temp_dir().join(format!(
                "lsm_crash_trace_{label}_{}.json",
                std::process::id()
            ));
            // Failure diagnostics to the host temp dir, not engine I/O:
            // the trace must outlive the panicking process and the faulted
            // in-memory backends.
            // lsm-lint: allow(fs-boundary)
            match std::fs::write(&path, obs.chrome_trace()) {
                Ok(()) => eprintln!(
                    "crash sweep failed; Chrome trace written to {} \
                     (open in chrome://tracing)",
                    path.display()
                ),
                Err(e) => eprintln!("crash sweep failed; trace dump also failed: {e}"),
            }
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `ops` until the first error; the model records only acknowledged
/// operations, and the erroring operation is reported as in-flight.
fn run_db_workload(db: &Db, ops: &[WorkloadOp]) -> RunOutcome {
    let mut model = BTreeMap::new();
    for op in ops {
        let res = match op {
            WorkloadOp::Put(k, v) => db.put(k, v),
            WorkloadOp::Delete(k) => db.delete(k),
            WorkloadOp::Maintain => db.maintain(),
            WorkloadOp::Gc => Ok(()),
        };
        if res.is_err() {
            return RunOutcome {
                model,
                in_flight: Some(op.clone()),
            };
        }
        match op {
            WorkloadOp::Put(k, v) => {
                model.insert(k.clone(), v.clone());
            }
            WorkloadOp::Delete(k) => {
                model.remove(k);
            }
            _ => {}
        }
    }
    RunOutcome {
        model,
        in_flight: None,
    }
}

fn run_kv_workload(kv: &KvSeparatedDb, ops: &[WorkloadOp]) -> RunOutcome {
    let mut model = BTreeMap::new();
    for op in ops {
        let res = match op {
            WorkloadOp::Put(k, v) => kv.put(k, v),
            WorkloadOp::Delete(k) => kv.delete(k),
            WorkloadOp::Maintain => kv.maintain(),
            WorkloadOp::Gc => kv.gc_oldest_segment().map(|_| ()),
        };
        if res.is_err() {
            return RunOutcome {
                model,
                in_flight: Some(op.clone()),
            };
        }
        match op {
            WorkloadOp::Put(k, v) => {
                model.insert(k.clone(), v.clone());
            }
            WorkloadOp::Delete(k) => {
                model.remove(k);
            }
            _ => {}
        }
    }
    RunOutcome {
        model,
        in_flight: None,
    }
}

/// Checks one recovered key against the model, honoring in-flight
/// atomicity: the crash victim's key may show old or new state, every
/// other key must match exactly.
fn check_key(
    key: &[u8],
    got: Option<&[u8]>,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    in_flight: Option<&WorkloadOp>,
    ctx: &str,
) {
    let expected = model.get(key).map(|v| v.as_slice());
    if in_flight.and_then(|op| op.touched_key()) == Some(key) {
        // Old value, or the in-flight operation's effect.
        let new_state = match in_flight {
            Some(WorkloadOp::Put(_, v)) => Some(v.as_slice()),
            Some(WorkloadOp::Delete(_)) => None,
            _ => expected,
        };
        assert!(
            got == expected || got == new_state,
            "{ctx}: key {} must show pre- or post-crash state, got {:?} \
             (old {:?}, new {:?})",
            String::from_utf8_lossy(key),
            got.map(|v| v.len()),
            expected.map(|v| v.len()),
            new_state.map(|v| v.len()),
        );
    } else {
        assert!(
            got == expected,
            "{ctx}: key {} diverged after recovery: got {:?}, want {:?}",
            String::from_utf8_lossy(key),
            got.map(|v| v.len()),
            expected.map(|v| v.len()),
        );
    }
}

/// Verifies a recovered store against the acked model via point reads and
/// one full scan (`scanned` is the recovered store's full contents).
fn verify_recovered(
    lookup: impl Fn(&[u8]) -> Option<Value>,
    scanned: &BTreeMap<Vec<u8>, Vec<u8>>,
    outcome: &RunOutcome,
    ctx: &str,
) {
    let in_flight = outcome.in_flight.as_ref();
    let victim = in_flight.and_then(|op| op.touched_key());
    for key in outcome.model.keys() {
        let got = lookup(key);
        check_key(key, got.as_deref(), &outcome.model, in_flight, ctx);
    }
    // The in-flight key might be brand new (not in the model): it may
    // surface after recovery, but only with the in-flight value.
    if let Some(key) = victim {
        let got = lookup(key);
        check_key(key, got.as_deref(), &outcome.model, in_flight, ctx);
    }
    // The scan must agree: no extra keys, no missing keys.
    for (key, value) in scanned {
        check_key(key, Some(value), &outcome.model, in_flight, ctx);
    }
    for key in outcome.model.keys() {
        if Some(key.as_slice()) != victim {
            assert!(
                scanned.contains_key(key),
                "{ctx}: key {} missing from recovered scan",
                String::from_utf8_lossy(key),
            );
        }
    }
}

fn scan_all_db(db: &Db, ctx: &str) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut out = BTreeMap::new();
    let iter = db
        .scan(b"", None)
        .unwrap_or_else(|e| panic!("{ctx}: recovered scan failed: {e}"));
    for item in iter {
        let (k, v) = item.unwrap_or_else(|e| panic!("{ctx}: recovered scan item failed: {e}"));
        out.insert(k.0.to_vec(), v.to_vec());
    }
    out
}

/// Sweeps crash points over the plain engine for one data layout.
///
/// Phase 1 runs the workload fault-free to count storage writes and prove
/// a clean power cut is lossless. Phase 2 samples up to `max_points`
/// crash points across that range; each point gets a fresh store, a crash
/// mid-write, a power cut, a reopen, and a full verification.
pub fn crash_sweep(layout: DataLayout, label: &str, seed: u64, max_points: usize) -> SweepReport {
    let obs = ObsHandle::recording();
    dump_trace_on_panic(&obs, label, || {
        crash_sweep_obs(layout, label, seed, max_points, &obs)
    })
}

fn crash_sweep_obs(
    layout: DataLayout,
    label: &str,
    seed: u64,
    max_points: usize,
    obs: &ObsHandle,
) -> SweepReport {
    let opts = harness_options(layout);
    let ops = standard_workload();
    let mut report = SweepReport::default();

    // Phase 1: fault-free reference run, then a clean power cut.
    let fb = Arc::new(FaultBackend::with_seed(Arc::new(MemBackend::new()), seed));
    fb.set_obs(obs.clone());
    let ctx = format!("[{label} seed={seed} fault-free]");
    let db = open_swept_db(
        as_dyn(std::slice::from_ref(&fb)),
        &Partitioning::Hash,
        &opts,
        obs,
    )
    .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
    let outcome = run_db_workload(&db, &ops);
    assert!(
        outcome.in_flight.is_none(),
        "{ctx}: fault-free run must not error"
    );
    report.write_ops_total = fb.write_ops();
    drop(db);
    fb.power_cut()
        .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
    let db = open_swept_db(vec![fb.inner()], &Partitioning::Hash, &opts, obs)
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let scanned = scan_all_db(&db, &ctx);
    verify_recovered(
        |k| {
            db.get(k)
                .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"))
        },
        &scanned,
        &outcome,
        &ctx,
    );
    drop(db);

    // Phase 2: crash at sampled write ops.
    assert!(report.write_ops_total > 0, "{ctx}: workload wrote nothing");
    let stride = (report.write_ops_total as usize / max_points.max(1)).max(1) as u64;
    let mut crash_op = 1;
    while crash_op <= report.write_ops_total {
        let ctx = format!("[{label} seed={seed} crash-at-op={crash_op}]");
        let fb = Arc::new(FaultBackend::with_seed(Arc::new(MemBackend::new()), seed));
        fb.set_obs(obs.clone());
        fb.crash_at_write_op(crash_op);

        let outcome = match open_swept_db(
            as_dyn(std::slice::from_ref(&fb)),
            &Partitioning::Hash,
            &opts,
            obs,
        ) {
            Err(_) => {
                // The crash interrupted open itself: nothing was acked.
                assert!(fb.crashed(), "{ctx}: open error without crash");
                report.crashes_during_open += 1;
                RunOutcome {
                    model: BTreeMap::new(),
                    in_flight: None,
                }
            }
            Ok(db) => {
                let outcome = run_db_workload(&db, &ops);
                if outcome.in_flight.is_some() {
                    assert!(fb.crashed(), "{ctx}: workload error without crash");
                }
                drop(db);
                outcome
            }
        };

        fb.power_cut()
            .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
        let db = open_swept_db(vec![fb.inner()], &Partitioning::Hash, &opts, obs)
            .unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
        if db.recovery_summary().is_some_and(|s| s.torn_segments > 0) {
            report.recoveries_with_torn_wal += 1;
        }
        let scanned = scan_all_db(&db, &ctx);
        verify_recovered(
            |k| {
                db.get(k)
                    .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"))
            },
            &scanned,
            &outcome,
            &ctx,
        );

        report.crash_points_tested += 1;
        crash_op += stride;
    }
    report
}

const KV_VALUE_THRESHOLD: usize = 32;
const KV_SEGMENT_TARGET: u64 = 2 << 10;

fn open_durable_kv(
    backend: Arc<dyn Backend>,
    opts: &Options,
    obs: &ObsHandle,
) -> lsm_types::Result<KvSeparatedDb> {
    KvSeparatedDb::open_durable_obs(
        backend,
        opts.clone(),
        KV_VALUE_THRESHOLD,
        KV_SEGMENT_TARGET,
        Observability::Shared(obs.clone()),
    )
}

fn scan_all_kv(kv: &KvSeparatedDb, ctx: &str) -> BTreeMap<Vec<u8>, Vec<u8>> {
    kv.scan(b"", None)
        .unwrap_or_else(|e| panic!("{ctx}: recovered scan failed: {e}"))
        .into_iter()
        .map(|(k, v)| (k.0.to_vec(), v.to_vec()))
        .collect()
}

/// Sweeps crash points over the WiscKey-separated store, driving value-log
/// appends, segment rolls, GC relocation, and segment deletion to a crash.
pub fn kv_crash_sweep(
    layout: DataLayout,
    label: &str,
    seed: u64,
    max_points: usize,
) -> SweepReport {
    let obs = ObsHandle::recording();
    dump_trace_on_panic(&obs, label, || {
        kv_crash_sweep_obs(layout, label, seed, max_points, &obs)
    })
}

fn kv_crash_sweep_obs(
    layout: DataLayout,
    label: &str,
    seed: u64,
    max_points: usize,
    obs: &ObsHandle,
) -> SweepReport {
    let opts = harness_options(layout);
    let ops = kv_workload();
    let mut report = SweepReport::default();

    let fb = Arc::new(FaultBackend::with_seed(Arc::new(MemBackend::new()), seed));
    fb.set_obs(obs.clone());
    let ctx = format!("[kv {label} seed={seed} fault-free]");
    let kv = open_durable_kv(fb.clone(), &opts, obs)
        .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
    let outcome = run_kv_workload(&kv, &ops);
    assert!(
        outcome.in_flight.is_none(),
        "{ctx}: fault-free run must not error"
    );
    report.write_ops_total = fb.write_ops();
    drop(kv);
    fb.power_cut()
        .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
    let kv = open_durable_kv(fb.inner(), &opts, obs)
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let scanned = scan_all_kv(&kv, &ctx);
    verify_recovered(
        |k| {
            kv.get(k)
                .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"))
        },
        &scanned,
        &outcome,
        &ctx,
    );
    drop(kv);

    assert!(report.write_ops_total > 0, "{ctx}: workload wrote nothing");
    let stride = (report.write_ops_total as usize / max_points.max(1)).max(1) as u64;
    let mut crash_op = 1;
    while crash_op <= report.write_ops_total {
        let ctx = format!("[kv {label} seed={seed} crash-at-op={crash_op}]");
        let fb = Arc::new(FaultBackend::with_seed(Arc::new(MemBackend::new()), seed));
        fb.set_obs(obs.clone());
        fb.crash_at_write_op(crash_op);

        let outcome = match open_durable_kv(fb.clone(), &opts, obs) {
            Err(_) => {
                assert!(fb.crashed(), "{ctx}: open error without crash");
                report.crashes_during_open += 1;
                RunOutcome {
                    model: BTreeMap::new(),
                    in_flight: None,
                }
            }
            Ok(kv) => {
                let outcome = run_kv_workload(&kv, &ops);
                if outcome.in_flight.is_some() {
                    assert!(fb.crashed(), "{ctx}: workload error without crash");
                }
                drop(kv);
                outcome
            }
        };

        fb.power_cut()
            .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
        let kv = open_durable_kv(fb.inner(), &opts, obs)
            .unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
        if kv
            .db()
            .recovery_summary()
            .is_some_and(|s| s.torn_segments > 0)
        {
            report.recoveries_with_torn_wal += 1;
        }
        let scanned = scan_all_kv(&kv, &ctx);
        verify_recovered(
            |k| {
                kv.get(k)
                    .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"))
            },
            &scanned,
            &outcome,
            &ctx,
        );

        report.crash_points_tested += 1;
        crash_op += stride;
    }
    report
}

// ---------------------------------------------------------------------------
// Sharded sweep: power cuts mid-epoch across a Db with three shards.
// ---------------------------------------------------------------------------

/// Shards in the sharded sweep. Three is the smallest count where an epoch
/// can crash *between* sub-commits with another still pending.
const SHARD_COUNT: usize = 3;

/// One step of the deterministic sharded workload.
#[derive(Clone, Debug)]
pub enum ShardedOp {
    /// Insert or overwrite one key (routed to its owning shard).
    Put(Vec<u8>, Vec<u8>),
    /// Delete one key.
    Delete(Vec<u8>),
    /// An atomic multi-key batch whose keys span several shards.
    Batch(Vec<(Vec<u8>, Vec<u8>)>),
    /// Drain pending flush/compaction work on every shard.
    Maintain,
}

/// What a (possibly interrupted) sharded workload run acknowledged.
pub struct ShardedRunOutcome {
    /// Key-value state built from `Ok` operations only.
    pub model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The operation that errored (the crash victim), when one did.
    pub in_flight: Option<ShardedOp>,
}

fn pad_value(tag: &str, len: usize) -> Vec<u8> {
    let mut v = tag.as_bytes().to_vec();
    while v.len() < len {
        v.push(b'.');
    }
    v
}

/// The deterministic sharded workload: single-key traffic over three key
/// regions (`a…`, `n…`, `x…` — distinct shards under the canonical
/// `["h", "t"]` range split and scattered under hash), with cross-shard
/// `WriteBatch`es mixed in. Every value embeds its op index, so pre- and
/// post-crash states are never byte-identical and the all-or-none check
/// cannot alias an old value for a new one.
pub fn sharded_workload() -> Vec<ShardedOp> {
    let regions = [b'a', b'n', b'x'];
    let mut ops = Vec::new();
    for i in 0..120u32 {
        let slot = i % 14;
        if i % 13 == 5 {
            let region = regions[(i % 3) as usize] as char;
            ops.push(ShardedOp::Delete(format!("{region}{slot:02}").into_bytes()));
        } else if i % 5 == 3 {
            // One key per region: under range partitioning the batch is
            // guaranteed to span all three shards, so a crash inside its
            // epoch lands between sub-commits.
            let len = 40 + (i as usize % 4) * 24;
            let kvs = regions
                .iter()
                .map(|&r| {
                    let key = format!("{}{slot:02}", r as char).into_bytes();
                    (key, pad_value(&format!("b{i:03}-{}", r as char), len))
                })
                .collect();
            ops.push(ShardedOp::Batch(kvs));
        } else {
            let region = regions[(i % 3) as usize] as char;
            let len = 56 + (i as usize % 5) * 20;
            ops.push(ShardedOp::Put(
                format!("{region}{slot:02}").into_bytes(),
                pad_value(&format!("s{i:03}"), len),
            ));
        }
        if i % 29 == 17 {
            ops.push(ShardedOp::Maintain);
        }
    }
    ops.push(ShardedOp::Maintain);
    ops
}

/// The canonical range split for [`SHARD_COUNT`] shards, matching the
/// workload's three key regions.
pub fn sharded_range_partitioning() -> Partitioning {
    Partitioning::Range {
        split_points: vec![b"h".to_vec(), b"t".to_vec()],
    }
}

fn sharded_backends(seed: u64, obs: &ObsHandle) -> Vec<Arc<FaultBackend>> {
    (0..SHARD_COUNT)
        .map(|i| {
            let fb = Arc::new(FaultBackend::with_seed(
                Arc::new(MemBackend::new()),
                seed.wrapping_add(i as u64),
            ));
            fb.set_obs(obs.clone());
            fb
        })
        .collect()
}

fn as_dyn(fbs: &[Arc<FaultBackend>]) -> Vec<Arc<dyn Backend>> {
    fbs.iter()
        .map(|fb| Arc::clone(fb) as Arc<dyn Backend>)
        .collect()
}

fn inners(fbs: &[Arc<FaultBackend>]) -> Vec<Arc<dyn Backend>> {
    fbs.iter().map(|fb| fb.inner()).collect()
}

/// Runs `ops` until the first error; the model records only acknowledged
/// operations, and the erroring operation is reported as in-flight.
fn run_sharded_workload(db: &Db, ops: &[ShardedOp]) -> ShardedRunOutcome {
    let mut model = BTreeMap::new();
    for op in ops {
        let res = match op {
            ShardedOp::Put(k, v) => db.put(k, v),
            ShardedOp::Delete(k) => db.delete(k),
            ShardedOp::Batch(kvs) => {
                let mut wb = WriteBatch::new();
                for (k, v) in kvs {
                    wb.put(k, v);
                }
                db.write(wb)
            }
            ShardedOp::Maintain => db.maintain(),
        };
        if res.is_err() {
            return ShardedRunOutcome {
                model,
                in_flight: Some(op.clone()),
            };
        }
        match op {
            ShardedOp::Put(k, v) => {
                model.insert(k.clone(), v.clone());
            }
            ShardedOp::Delete(k) => {
                model.remove(k);
            }
            ShardedOp::Batch(kvs) => {
                for (k, v) in kvs {
                    model.insert(k.clone(), v.clone());
                }
            }
            ShardedOp::Maintain => {}
        }
    }
    ShardedRunOutcome {
        model,
        in_flight: None,
    }
}

/// Verifies a recovered sharded store: every acknowledged key reads back
/// exactly; an in-flight single-key op may show old or new state; an
/// in-flight cross-shard batch must be **all-or-none** — after recovery
/// either every key carries the batch value or none does, even though its
/// sub-commits hardened in different shards' WALs before the cut.
fn verify_recovered_sharded(db: &Db, outcome: &ShardedRunOutcome, ctx: &str) {
    let get = |k: &[u8]| {
        db.get(k)
            .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"))
    };
    // Resolve the in-flight op into one expected final map.
    let mut expected = outcome.model.clone();
    match &outcome.in_flight {
        None | Some(ShardedOp::Maintain) => {}
        Some(ShardedOp::Put(k, v)) => {
            let got = get(k);
            if got.as_deref() == Some(v.as_slice()) {
                expected.insert(k.clone(), v.clone());
            } else {
                assert_eq!(
                    got.as_deref(),
                    expected.get(k).map(|v| v.as_slice()),
                    "{ctx}: in-flight put on {} shows neither old nor new state",
                    String::from_utf8_lossy(k),
                );
            }
        }
        Some(ShardedOp::Delete(k)) => match get(k) {
            None => {
                expected.remove(k);
            }
            Some(got) => assert_eq!(
                Some(&got[..]),
                expected.get(k).map(|v| v.as_slice()),
                "{ctx}: in-flight delete on {} shows neither old nor new state",
                String::from_utf8_lossy(k),
            ),
        },
        Some(ShardedOp::Batch(kvs)) => {
            let mut applied = 0usize;
            for (k, v) in kvs {
                let got = get(k);
                if got.as_deref() == Some(v.as_slice()) {
                    applied += 1;
                } else {
                    assert_eq!(
                        got.as_deref(),
                        expected.get(k).map(|v| v.as_slice()),
                        "{ctx}: batch key {} shows neither old nor new state",
                        String::from_utf8_lossy(k),
                    );
                }
            }
            assert!(
                applied == 0 || applied == kvs.len(),
                "{ctx}: cross-shard batch recovered torn: {applied}/{} keys applied",
                kvs.len(),
            );
            if applied == kvs.len() {
                for (k, v) in kvs {
                    expected.insert(k.clone(), v.clone());
                }
            }
        }
    }
    // Every expected key point-reads back...
    for (k, v) in &expected {
        assert_eq!(
            get(k).as_deref(),
            Some(v.as_slice()),
            "{ctx}: key {} diverged after recovery",
            String::from_utf8_lossy(k),
        );
    }
    // ...and the merged cross-shard scan agrees exactly.
    let mut scanned = BTreeMap::new();
    let iter = db
        .scan(b"", None)
        .unwrap_or_else(|e| panic!("{ctx}: recovered scan failed: {e}"));
    for item in iter {
        let (k, v) = item.unwrap_or_else(|e| panic!("{ctx}: recovered scan item failed: {e}"));
        scanned.insert(k.0.to_vec(), v.to_vec());
    }
    for k in scanned.keys() {
        assert!(
            expected.contains_key(k),
            "{ctx}: unexpected key {} in recovered scan",
            String::from_utf8_lossy(k),
        );
    }
    for (k, v) in &expected {
        assert_eq!(
            scanned.get(k),
            Some(v),
            "{ctx}: key {} missing or wrong in recovered scan",
            String::from_utf8_lossy(k),
        );
    }
}

/// Sweeps crash points over a three-shard [`Db`] under the given
/// partitioning.
///
/// Phase 1 runs the workload fault-free to count each shard's storage
/// writes and prove a clean power cut of every shard is lossless. Phase 2
/// then sweeps each shard as the crash victim in turn: crashing shard 0
/// interrupts coordinator writes (the epoch-log COMMIT record among them),
/// while crashing shards 1 and 2 kills mid-epoch sub-commits after earlier
/// shards already hardened theirs. Every point power-cuts **all** shards,
/// reopens, and verifies acknowledged state plus cross-shard batch
/// all-or-none.
pub fn sharded_crash_sweep(
    partitioning: Partitioning,
    label: &str,
    seed: u64,
    max_points: usize,
) -> SweepReport {
    let obs = ObsHandle::recording();
    dump_trace_on_panic(&obs, label, || {
        sharded_crash_sweep_obs(partitioning, label, seed, max_points, &obs)
    })
}

fn sharded_crash_sweep_obs(
    partitioning: Partitioning,
    label: &str,
    seed: u64,
    max_points: usize,
    obs: &ObsHandle,
) -> SweepReport {
    let opts = harness_options(DataLayout::Leveling);
    let ops = sharded_workload();
    let mut report = SweepReport::default();

    // Phase 1: fault-free reference run, then a clean power cut everywhere.
    let fbs = sharded_backends(seed, obs);
    let ctx = format!("[sharded {label} seed={seed} fault-free]");
    let db = open_swept_db(as_dyn(&fbs), &partitioning, &opts, obs)
        .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
    let outcome = run_sharded_workload(&db, &ops);
    assert!(
        outcome.in_flight.is_none(),
        "{ctx}: fault-free run must not error"
    );
    let per_shard_ops: Vec<u64> = fbs.iter().map(|fb| fb.write_ops()).collect();
    report.write_ops_total = per_shard_ops.iter().sum();
    drop(db);
    for fb in &fbs {
        fb.power_cut()
            .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
    }
    let db = open_swept_db(inners(&fbs), &partitioning, &opts, obs)
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    verify_recovered_sharded(&db, &outcome, &ctx);
    drop(db);

    // Phase 2: sweep each shard as the crash victim over its own write-op
    // range. The workload and fault schedules are deterministic, so each
    // point replays phase 1 exactly until the victim dies.
    assert!(report.write_ops_total > 0, "{ctx}: workload wrote nothing");
    let per_shard_points = (max_points / SHARD_COUNT).max(1);
    for (victim, &total) in per_shard_ops.iter().enumerate() {
        assert!(total > 0, "{ctx}: shard {victim} never wrote");
        let stride = (total as usize / per_shard_points).max(1) as u64;
        let mut crash_op = 1;
        while crash_op <= total {
            let ctx = format!(
                "[sharded {label} seed={seed} victim-shard={victim} crash-at-op={crash_op}]"
            );
            let fbs = sharded_backends(seed, obs);
            fbs[victim].crash_at_write_op(crash_op);

            let outcome = match open_swept_db(as_dyn(&fbs), &partitioning, &opts, obs) {
                Err(_) => {
                    // The crash interrupted open itself: nothing was acked.
                    assert!(fbs[victim].crashed(), "{ctx}: open error without crash");
                    report.crashes_during_open += 1;
                    ShardedRunOutcome {
                        model: BTreeMap::new(),
                        in_flight: None,
                    }
                }
                Ok(db) => {
                    let outcome = run_sharded_workload(&db, &ops);
                    if outcome.in_flight.is_some() {
                        assert!(fbs[victim].crashed(), "{ctx}: workload error without crash");
                    }
                    drop(db);
                    outcome
                }
            };

            for fb in &fbs {
                fb.power_cut()
                    .unwrap_or_else(|e| panic!("{ctx}: power cut failed: {e}"));
            }
            let db = open_swept_db(inners(&fbs), &partitioning, &opts, obs)
                .unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
            if db.recovery_summary().is_some_and(|r| r.torn_segments > 0) {
                report.recoveries_with_torn_wal += 1;
            }
            verify_recovered_sharded(&db, &outcome, &ctx);
            drop(db);

            report.crash_points_tested += 1;
            crash_op += stride;
        }
    }
    report
}
