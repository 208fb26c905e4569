//! One write path: every mutating call, on `Db` and through `ShardedDb`,
//! is one commit that obeys the same counter rule, the same validation
//! rule and the same durability rule — plus `bulk_load`, which shares the
//! table writer instead of the commit.

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use lsm_core::{Db, Options, Partitioning, Result, ShardedDb, WriteBatch, WriteOptions};
use lsm_obs::EventKind;
use lsm_storage::{Backend, FaultBackend, MemBackend};

fn opts() -> Options {
    Options {
        wal: true,
        wal_sync: true,
        background_threads: 0,
        ..Options::small_for_benchmarks()
    }
}

/// Either database kind behind the calls the forms make. The sharded one
/// splits at `zz`, so every key the forms use lives on shard 0 and a call
/// is one commit there (`update` has no router form: it goes to the owning
/// shard's handle).
enum Target {
    Single(Db),
    Sharded(ShardedDb),
}

fn open(backends: [Arc<dyn Backend>; 2], sharded: bool, recover: bool) -> Target {
    if sharded {
        let db = ShardedDb::builder()
            .shards(2)
            .partitioning(Partitioning::Range {
                split_points: vec![b"zz".to_vec()],
            })
            .backends(backends.to_vec())
            .options(opts())
            .persist_manifest(true)
            .recover(recover)
            .open()
            .unwrap();
        Target::Sharded(db)
    } else {
        let [backend, _] = backends;
        let db = Db::builder()
            .backend(backend)
            .options(opts())
            .persist_manifest(true)
            .recover(recover)
            .open()
            .unwrap();
        Target::Single(db)
    }
}

impl Target {
    fn put_opt(&self, k: &[u8], v: &[u8], w: &WriteOptions) -> Result<()> {
        match self {
            Target::Single(db) => db.put_opt(k, v, w),
            Target::Sharded(db) => db.put_opt(k, v, w),
        }
    }
    fn put(&self, k: &[u8], v: &[u8]) -> Result<()> {
        match self {
            Target::Single(db) => db.put(k, v),
            Target::Sharded(db) => db.put(k, v),
        }
    }
    fn delete(&self, k: &[u8]) -> Result<()> {
        match self {
            Target::Single(db) => db.delete(k),
            Target::Sharded(db) => db.delete(k),
        }
    }
    fn single_delete(&self, k: &[u8]) -> Result<()> {
        match self {
            Target::Single(db) => db.single_delete(k),
            Target::Sharded(db) => db.single_delete(k),
        }
    }
    fn delete_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        match self {
            Target::Single(db) => db.delete_range(start, end),
            Target::Sharded(db) => db.delete_range(start, end),
        }
    }
    fn write(&self, batch: WriteBatch) -> Result<()> {
        match self {
            Target::Single(db) => db.write(batch),
            Target::Sharded(db) => db.write(batch),
        }
    }
    fn update(&self, k: &[u8], f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>) -> Result<()> {
        match self {
            Target::Single(db) => db.update(k, f),
            Target::Sharded(db) => db.shard(db.shard_of(k)).update(k, f),
        }
    }
    fn get(&self, k: &[u8]) -> Option<Vec<u8>> {
        match self {
            Target::Single(db) => db.get(k),
            Target::Sharded(db) => db.get(k),
        }
        .unwrap()
        .map(|v| v.to_vec())
    }
    /// `(puts, deletes, user_bytes, wal_appends, group_commits)`.
    fn counters(&self) -> [u64; 5] {
        let m = match self {
            Target::Single(db) => db.metrics().db,
            Target::Sharded(db) => db.metrics().db,
        };
        [
            m.puts,
            m.deletes,
            m.user_bytes,
            m.wal_appends,
            m.group_commits,
        ]
    }
}

/// One way to mutate the database, with what it must count and leave
/// behind. Every form runs after `put(old, 1)`.
struct Form {
    name: &'static str,
    run: fn(&Target) -> Result<()>,
    puts: u64,
    deletes: u64,
    user_bytes: u64,
    /// Commits the call makes (0 for an `update` that changes nothing).
    commits: u64,
    /// Whether the WAL sees it (and so whether a power cut keeps it).
    logged: bool,
    /// Keys to check afterwards, with the value each must have.
    after: &'static [(&'static [u8], Option<&'static [u8]>)],
}

const NO_WAL: WriteOptions = WriteOptions {
    sync: None,
    no_wal: true,
};

fn forms() -> Vec<Form> {
    vec![
        Form {
            name: "put",
            run: |t| t.put(b"new", b"22"),
            puts: 1,
            deletes: 0,
            user_bytes: 5,
            commits: 1,
            logged: true,
            after: &[(b"new", Some(b"22")), (b"old", Some(b"1"))],
        },
        Form {
            name: "put_opt{no_wal}",
            run: |t| t.put_opt(b"new", b"22", &NO_WAL),
            puts: 1,
            deletes: 0,
            user_bytes: 5,
            commits: 1,
            logged: false,
            after: &[(b"new", Some(b"22"))],
        },
        Form {
            name: "delete",
            run: |t| t.delete(b"old"),
            puts: 0,
            deletes: 1,
            user_bytes: 3,
            commits: 1,
            logged: true,
            after: &[(b"old", None)],
        },
        Form {
            name: "single_delete",
            run: |t| t.single_delete(b"old"),
            puts: 0,
            deletes: 1,
            user_bytes: 3,
            commits: 1,
            logged: true,
            after: &[(b"old", None)],
        },
        Form {
            name: "delete_range",
            run: |t| t.delete_range(b"a", b"z"),
            puts: 0,
            deletes: 1,
            user_bytes: 2,
            commits: 1,
            logged: true,
            after: &[(b"old", None)],
        },
        Form {
            name: "write[1]",
            run: |t| {
                let mut b = WriteBatch::new();
                b.put(b"new", b"22");
                t.write(b)
            },
            puts: 1,
            deletes: 0,
            user_bytes: 5,
            commits: 1,
            logged: true,
            after: &[(b"new", Some(b"22"))],
        },
        Form {
            name: "write[4]",
            run: |t| {
                let mut b = WriteBatch::new();
                b.put(b"new", b"22")
                    .delete(b"old")
                    .single_delete(b"gone")
                    .delete_range(b"x", b"y");
                t.write(b)
            },
            puts: 1,
            deletes: 3,
            user_bytes: 5 + 3 + 4 + 2,
            commits: 1,
            logged: true,
            after: &[(b"new", Some(b"22")), (b"old", None)],
        },
        Form {
            name: "update insert",
            run: |t| t.update(b"new", |cur| cur.is_none().then(|| b"22".to_vec())),
            puts: 1,
            deletes: 0,
            user_bytes: 5,
            commits: 1,
            logged: true,
            after: &[(b"new", Some(b"22"))],
        },
        Form {
            name: "update overwrite",
            run: |t| t.update(b"old", |cur| cur.map(|v| [v, b"+"].concat())),
            puts: 1,
            deletes: 0,
            user_bytes: 5,
            commits: 1,
            logged: true,
            after: &[(b"old", Some(b"1+"))],
        },
        Form {
            name: "update delete",
            run: |t| t.update(b"old", |_| None),
            puts: 0,
            deletes: 1,
            user_bytes: 3,
            commits: 1,
            logged: true,
            after: &[(b"old", None)],
        },
        Form {
            name: "update nothing",
            run: |t| t.update(b"new", |_| None),
            puts: 0,
            deletes: 0,
            user_bytes: 0,
            commits: 0,
            logged: true,
            after: &[(b"new", None), (b"old", Some(b"1"))],
        },
    ]
}

fn mem_backends() -> [Arc<dyn Backend>; 2] {
    [Arc::new(MemBackend::new()), Arc::new(MemBackend::new())]
}

#[test]
fn every_form_counts_by_one_rule() {
    for sharded in [false, true] {
        for form in forms() {
            let label = format!("{} (sharded: {sharded})", form.name);
            let target = open(mem_backends(), sharded, false);
            target.put(b"old", b"1").unwrap();
            let before = target.counters();
            (form.run)(&target).unwrap();
            let after = target.counters();
            let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            let appends = if form.logged { form.commits } else { 0 };
            assert_eq!(
                delta,
                [
                    form.puts,
                    form.deletes,
                    form.user_bytes,
                    appends,
                    form.commits
                ],
                "{label}: puts, deletes, user_bytes, wal_appends, group_commits"
            );
            for (key, value) in form.after {
                assert_eq!(target.get(key).as_deref(), *value, "{label}");
            }
        }
    }
}

#[test]
fn an_inverted_range_is_turned_away_at_every_door() {
    let inverted = |t: &Target| {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v").delete_range(b"b", b"a");
        let mut empty = WriteBatch::new();
        empty.delete_range(b"b", b"b");
        [t.delete_range(b"b", b"a"), t.write(batch), t.write(empty)]
    };
    for sharded in [false, true] {
        let target = open(mem_backends(), sharded, false);
        let before = target.counters();
        for result in inverted(&target) {
            let err = result.expect_err("start >= end must be rejected");
            assert!(
                matches!(err, lsm_core::Error::InvalidArgument(_)),
                "sharded {sharded}: {err}"
            );
        }
        assert_eq!(target.counters(), before, "nothing counted or committed");
        assert_eq!(target.get(b"k"), None, "nothing applied");
    }
}

#[test]
fn every_acknowledged_form_survives_a_power_cut() {
    for sharded in [false, true] {
        for form in forms() {
            let label = format!("{} (sharded: {sharded})", form.name);
            let faults = [(); 2].map(|()| Arc::new(FaultBackend::new(Arc::new(MemBackend::new()))));
            let live = faults.clone().map(|f| f as Arc<dyn Backend>);
            {
                let target = open(live, sharded, false);
                target.put(b"old", b"1").unwrap();
                (form.run)(&target).unwrap();
            }
            for f in &faults {
                f.power_cut().unwrap();
            }
            let reopened = open(faults.map(|f| f.inner()), sharded, true);
            for (key, value) in form.after {
                let expected = if form.logged {
                    *value
                } else {
                    None // never logged: lost with the memtable
                };
                assert_eq!(reopened.get(key).as_deref(), expected, "{label}");
            }
        }
    }
}

fn pairs(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| (format!("key{i:06}").into_bytes(), vec![b'v'; 100]))
        .collect()
}

#[test]
fn bulk_load_goes_through_the_one_table_writer() {
    let backend = Arc::new(MemBackend::new());
    let mut o = opts();
    o.table_target_bytes = 16 << 10;
    let db = Db::builder()
        .backend(backend.clone() as Arc<dyn Backend>)
        .options(o)
        .open()
        .unwrap();
    let before = db.metrics().db;
    db.bulk_load(pairs(2000)).unwrap();
    let delta = db.metrics().db.delta(&before);

    let tables: Vec<_> = db.version().all_tables().cloned().collect();
    assert!(tables.len() > 1, "split at the table target");
    let file_bytes: u64 = tables
        .iter()
        .map(|t| backend.len(t.file_id()).unwrap())
        .sum();
    assert_eq!(delta.flush_bytes, file_bytes, "counted as file bytes");
    assert_eq!(delta.puts, 2000);
    assert_eq!(delta.user_bytes, 2000 * 109);
    let written = db
        .obs()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::FileWriteEnd)
        .count();
    assert_eq!(written, tables.len(), "a FileWrite span per table");
    assert_eq!(db.scan(b"", None).unwrap().count(), 2000);
}

#[test]
fn a_rejected_bulk_load_leaves_no_table_behind() {
    let backend = Arc::new(MemBackend::new());
    let mut o = opts();
    o.table_target_bytes = 16 << 10;
    let db = Db::builder()
        .backend(backend.clone() as Arc<dyn Backend>)
        .options(o)
        .open()
        .unwrap();
    let files_before = backend.list_files();
    // Far enough in for whole tables to have been written already.
    let mut unsorted = pairs(2000);
    unsorted.swap(1500, 1501);
    let err = db.bulk_load(unsorted).expect_err("unsorted input");
    assert!(matches!(err, lsm_core::Error::InvalidArgument(_)), "{err}");
    assert_eq!(backend.list_files(), files_before, "no table left behind");
    assert_eq!(db.version().all_tables().count(), 0);
    assert_eq!(db.metrics().db.puts, 0);
    assert_eq!(db.get(b"key000000").unwrap(), None);
}
