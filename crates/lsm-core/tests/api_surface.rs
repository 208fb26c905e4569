//! Public-API golden test: pins the exported `Db` / `DbBuilder` /
//! `WriteBatch` / `WriteOptions` / `Partitioning` surface so future
//! breakage is deliberate. The `Engine` extracted from `Db` is
//! crate-private by design and must never appear here.
//!
//! Every binding below is a compile-time assertion — a function-pointer
//! type ascription fails to compile the moment a signature drifts, a
//! method disappears, or a field changes type. Renames and removals must
//! therefore update this file in the same change, which is the point.

// The ascriptions must spell each signature out verbatim; a `type` alias
// would defeat the pinning.
#![allow(clippy::type_complexity)]

use std::path::PathBuf;
use std::sync::Arc;

use lsm_core::{
    CacheConfig, Db, DbBuilder, DbScanIter, MetricsSnapshot, Observability, Options, Partitioning,
    ReadOptions, ReadView, RecoverySummary, Result, SeqNo, Snapshot, Value, Version, WriteBatch,
    WriteOptions,
};
use lsm_storage::{Backend, FileId};

#[test]
fn db_construction_surface_is_stable() {
    // The one construction path: the builder.
    let _: fn() -> DbBuilder = Db::builder;
    let _: fn(DbBuilder, Arc<dyn Backend>) -> DbBuilder = DbBuilder::backend;
    let _: fn(DbBuilder, PathBuf) -> DbBuilder = DbBuilder::dir;
    let _: fn(DbBuilder, Options) -> DbBuilder = DbBuilder::options;
    let _: fn(DbBuilder, &[u8]) -> DbBuilder = DbBuilder::manifest;
    let _: fn(DbBuilder, bool) -> DbBuilder = DbBuilder::persist_manifest;
    let _: fn(DbBuilder, bool) -> DbBuilder = DbBuilder::recover;
    let _: fn(DbBuilder, bool) -> DbBuilder = DbBuilder::clean_orphans;
    let _: fn(DbBuilder, Observability) -> DbBuilder = DbBuilder::obs;
    let _: fn(DbBuilder, CacheConfig) -> DbBuilder = DbBuilder::cache_config;
    let _: fn(DbBuilder, usize) -> DbBuilder = DbBuilder::shards;
    let _: fn(DbBuilder, Partitioning) -> DbBuilder = DbBuilder::partitioning;
    let _: fn(DbBuilder, Vec<Arc<dyn Backend>>) -> DbBuilder = DbBuilder::backends;
    let _: fn(DbBuilder) -> Result<Db> = DbBuilder::open;

    // `Partitioning` is matched exhaustively: a new variant (or a changed
    // payload) must update this file.
    fn _partitioning_is_exhaustive(p: &Partitioning) {
        match p {
            Partitioning::Hash => {}
            Partitioning::Range { split_points: _ } => {}
        }
    }
}

#[test]
fn db_write_surface_is_stable() {
    let _: fn(&Db, &[u8], &[u8]) -> Result<()> = Db::put;
    let _: fn(&Db, &[u8], &[u8], &WriteOptions) -> Result<()> = Db::put_opt;
    let _: fn(&Db, &[u8]) -> Result<()> = Db::delete;
    let _: fn(&Db, &[u8], &WriteOptions) -> Result<()> = Db::delete_opt;
    let _: fn(&Db, &[u8]) -> Result<()> = Db::single_delete;
    let _: fn(&Db, &[u8], &[u8]) -> Result<()> = Db::delete_range;
    let _: fn(&Db, WriteBatch) -> Result<()> = Db::write;
    let _: fn(&Db, WriteBatch, &WriteOptions) -> Result<()> = Db::write_opt;
}

#[test]
fn db_read_and_maintenance_surface_is_stable() {
    let _: fn(&Db, &[u8]) -> Result<Option<Value>> = Db::get;
    let _: fn(&Db, &[u8], &ReadOptions) -> Result<Option<Value>> = Db::get_opt;
    let _: fn(&Db, &[u8], Option<&[u8]>) -> Result<DbScanIter> = Db::scan;
    let _: fn(&Db, &[u8], Option<&[u8]>, &ReadOptions) -> Result<DbScanIter> = Db::scan_opt;
    let _: fn(&Db) -> Snapshot = Db::snapshot;
    let _: fn(&Db) -> Result<()> = Db::maintain;
    let _: fn(&Db) -> Result<()> = Db::wait_idle;
    let _: fn(&Db) -> Result<()> = Db::flush;
    // `Db::metrics` is the single stats surface. The deprecated
    // `stats()` / `io_stats()` / `cache_stats()` trio completed its
    // README deprecation schedule and was removed; resurrecting any of
    // them must re-pin it here.
    let _: fn(&Db) -> MetricsSnapshot = Db::metrics;
    let _: fn(&Db, usize) -> MetricsSnapshot = Db::shard_metrics;
    let _: fn(&Db) -> usize = Db::num_shards;
    let _: fn(&Db) -> Option<RecoverySummary> = Db::recovery_summary;
    let _: fn(&Db, &[FileId]) -> Result<usize> = Db::clean_orphans;
    let _: fn(&Db) -> Arc<Version> = Db::version;
    let _: fn(&Db) -> Vec<u8> = Db::manifest_bytes;
    let _: fn(&Db) -> f64 = Db::space_amplification;
    let _: fn(&Db) -> &Options = Db::options;

    let _: fn(&Snapshot) -> SeqNo = Snapshot::seqno;
    let _: fn(&Snapshot, &[u8]) -> Result<Option<Value>> = Snapshot::get;
    let _: fn(&Snapshot, &[u8], &ReadOptions) -> Result<Option<Value>> = Snapshot::get_opt;
    let _: fn(&Snapshot, &[u8], Option<&[u8]>) -> Result<DbScanIter> = Snapshot::scan;
    let _: fn(&Snapshot, &[u8], Option<&[u8]>, &ReadOptions) -> Result<DbScanIter> =
        Snapshot::scan_opt;
}

#[test]
fn db_is_a_thin_one_shard_wrapper() {
    // The engine refactor's contract: `Db` carries exactly a shared handle
    // to its engines plus the worker-thread registry — nothing else. State
    // belongs in the crate-private `Engine` (per shard) or beside the
    // engines (shared with snapshots and the exporter), so this size pin
    // fails the moment a field lands in the wrapper instead.
    assert_eq!(
        std::mem::size_of::<Db>(),
        std::mem::size_of::<Arc<()>>()
            + std::mem::size_of::<lsm_sync::OrderedMutex<Vec<std::thread::JoinHandle<()>>>>(),
        "Db must stay a thin wrapper: Arc<engines> + worker registry"
    );
}

#[test]
fn write_batch_surface_is_stable() {
    let _: fn() -> WriteBatch = WriteBatch::new;
    let _: for<'a> fn(&'a mut WriteBatch, &[u8], &[u8]) -> &'a mut WriteBatch = WriteBatch::put;
    let _: for<'a> fn(&'a mut WriteBatch, &[u8]) -> &'a mut WriteBatch = WriteBatch::delete;
    let _: for<'a> fn(&'a mut WriteBatch, &[u8]) -> &'a mut WriteBatch = WriteBatch::single_delete;
    let _: for<'a> fn(&'a mut WriteBatch, &[u8], &[u8]) -> &'a mut WriteBatch =
        WriteBatch::delete_range;
    let _: fn(&WriteBatch) -> usize = WriteBatch::len;
    let _: fn(&WriteBatch) -> bool = WriteBatch::is_empty;
}

#[test]
fn write_options_surface_is_stable() {
    // Public fields, exhaustively: a struct literal fails to compile if a
    // field is added, removed, or retyped.
    let w = WriteOptions {
        sync: Some(true),
        no_wal: false,
    };
    assert_eq!(
        w,
        WriteOptions {
            sync: Some(true),
            no_wal: false
        }
    );
    assert_eq!(
        WriteOptions::default(),
        WriteOptions {
            sync: None,
            no_wal: false
        }
    );
}

#[test]
fn read_options_surface_is_stable() {
    // Public fields, exhaustively: a struct literal fails to compile if a
    // field is added, removed, or retyped.
    let r = ReadOptions {
        fill_cache: false,
        pin_index_filter: true,
        verify_checksums: true,
        snapshot: Some(7),
    };
    assert_eq!(
        r,
        ReadOptions {
            fill_cache: false,
            pin_index_filter: true,
            verify_checksums: true,
            snapshot: Some(7),
        }
    );
    assert_eq!(
        ReadOptions::default(),
        ReadOptions {
            fill_cache: true,
            pin_index_filter: false,
            verify_checksums: false,
            snapshot: None,
        }
    );
}

#[test]
fn cache_config_surface_is_stable() {
    let c = CacheConfig {
        capacity_bytes: 1 << 20,
        shard_bits: 2,
        pin_index_filter: false,
    };
    assert_eq!(c.capacity_bytes, 1 << 20);
    // The default policy is load-bearing: the legacy `block_cache_bytes`
    // knob inherits it, so changing these defaults changes every caller
    // that never saw `CacheConfig`.
    let d = CacheConfig::default();
    assert_eq!(d.shard_bits, 4);
    assert!(d.pin_index_filter);
}

#[test]
fn read_view_unifies_db_and_snapshot() {
    // Both views satisfy the trait, and a helper written once against
    // `ReadView` runs on either.
    fn count_prefix<V: ReadView>(view: &V, start: &[u8]) -> Result<usize> {
        Ok(view.scan(start, None)?.count())
    }

    let db = Db::builder()
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    db.put(b"a", b"1").unwrap();
    db.put(b"b", b"2").unwrap();
    let snap = db.snapshot();
    db.put(b"c", b"3").unwrap();

    let _: fn(&Db, &[u8]) -> Result<Option<Value>> = <Db as ReadView>::get;
    let _: fn(&Snapshot, &[u8]) -> Result<Option<Value>> = <Snapshot as ReadView>::get;
    let _: fn(&Db) -> SeqNo = <Db as ReadView>::seqno;

    assert_eq!(count_prefix(&db, b"a").unwrap(), 3);
    assert_eq!(count_prefix(&snap, b"a").unwrap(), 2);
    assert!(ReadView::seqno(&snap) < ReadView::seqno(&db));

    // `get`/`scan` are provided methods: a view implements exactly the
    // `_opt` forms plus `seqno` (a fourth required method fails here).
    struct Narrowed<'a>(&'a Db);
    impl ReadView for Narrowed<'_> {
        fn get_opt(&self, key: &[u8], opts: &ReadOptions) -> Result<Option<Value>> {
            self.0.get_opt(key, opts)
        }
        fn scan_opt(&self, s: &[u8], e: Option<&[u8]>, opts: &ReadOptions) -> Result<DbScanIter> {
            self.0.scan_opt(s, e, opts)
        }
        fn seqno(&self) -> SeqNo {
            ReadView::seqno(self.0)
        }
    }
    assert_eq!(Narrowed(&db).get(b"c").unwrap().as_deref(), Some(&b"3"[..]));
    assert_eq!(count_prefix(&Narrowed(&db), b"b").unwrap(), 2);
}
