//! Engine statistics: the quantities the experiments report.

use std::sync::atomic::AtomicU64;

lsm_obs::counter_table! {
    /// Internal atomic counters (one per engine, bumped `Relaxed` in place).
    pub(crate) struct DbStats {
        /// `put` operations accepted.
        pub(crate) puts: AtomicU64,
        /// `get` operations served.
        pub(crate) gets: AtomicU64,
        /// Delete operations (point, single, range) accepted.
        pub(crate) deletes: AtomicU64,
        /// Range scans started.
        pub(crate) scans: AtomicU64,
        /// User payload bytes accepted by writes (the denominator of write
        /// amplification).
        pub(crate) user_bytes: AtomicU64,
        /// Memtable flushes completed.
        pub(crate) flushes: AtomicU64,
        /// Bytes written by flushes.
        pub(crate) flush_bytes: AtomicU64,
        /// Compactions completed.
        pub(crate) compactions: AtomicU64,
        /// Bytes read by compactions.
        pub(crate) compact_bytes_read: AtomicU64,
        /// Bytes written by compactions.
        pub(crate) compact_bytes_written: AtomicU64,
        /// Times a writer stalled on the immutable-memtable queue.
        pub(crate) stall_count: AtomicU64,
        /// Total nanoseconds writers spent stalled.
        pub(crate) stall_nanos: AtomicU64,
        /// Blocking condvar waits performed by `wait_idle` (one per wait,
        /// not per poll: the stress harness asserts this stays proportional
        /// to maintenance events).
        pub(crate) idle_waits: AtomicU64,
        /// Entries garbage-collected during flushes and compactions
        /// (superseded versions, annihilated tombstones).
        pub(crate) gc_dropped_entries: AtomicU64,
        /// Tombstones physically removed at the last level.
        pub(crate) tombstones_purged: AtomicU64,
        /// WAL appends issued (one per commit group, not one per write: the
        /// ratio to `puts + deletes` measures group batching).
        pub(crate) wal_appends: AtomicU64,
        /// WAL fsyncs issued (at most one per commit group).
        pub(crate) wal_syncs: AtomicU64,
        /// Commit groups flushed by a group-commit leader (each covers at
        /// least one write request).
        pub(crate) group_commits: AtomicU64,
    }

    /// A point-in-time copy of the engine counters.
    #[derive(serde::Serialize)]
    snapshot StatsSnapshot;
}

impl StatsSnapshot {
    /// Write amplification: physical bytes written (flush + compaction)
    /// per user byte ingested.
    pub fn write_amplification(&self) -> f64 {
        if self.user_bytes == 0 {
            0.0
        } else {
            (self.flush_bytes + self.compact_bytes_written) as f64 / self.user_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;

    #[test]
    fn write_amp_math() {
        let s = StatsSnapshot {
            user_bytes: 100,
            flush_bytes: 100,
            compact_bytes_written: 300,
            ..Default::default()
        };
        assert!((s.write_amplification() - 4.0).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().write_amplification(), 0.0);
    }

    #[test]
    fn snapshot_and_delta() {
        let stats = DbStats::default();
        stats.puts.fetch_add(5, Ordering::Relaxed);
        let a = stats.snapshot();
        stats.puts.fetch_add(3, Ordering::Relaxed);
        stats.flushes.fetch_add(1, Ordering::Relaxed);
        let b = stats.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.puts, 3);
        assert_eq!(d.flushes, 1);
    }

    #[test]
    fn every_cell_reaches_its_field_in_declaration_order() {
        let c = DbStats::default();
        let cells = [
            ("puts", &c.puts),
            ("gets", &c.gets),
            ("deletes", &c.deletes),
            ("scans", &c.scans),
            ("user_bytes", &c.user_bytes),
            ("flushes", &c.flushes),
            ("flush_bytes", &c.flush_bytes),
            ("compactions", &c.compactions),
            ("compact_bytes_read", &c.compact_bytes_read),
            ("compact_bytes_written", &c.compact_bytes_written),
            ("stall_count", &c.stall_count),
            ("stall_nanos", &c.stall_nanos),
            ("idle_waits", &c.idle_waits),
            ("gc_dropped_entries", &c.gc_dropped_entries),
            ("tombstones_purged", &c.tombstones_purged),
            ("wal_appends", &c.wal_appends),
            ("wal_syncs", &c.wal_syncs),
            ("group_commits", &c.group_commits),
        ];
        let mut expected = Vec::new();
        for ((name, cell), v) in cells.into_iter().zip(1..) {
            cell.fetch_add(v, Ordering::Relaxed);
            expected.push((name, v));
        }
        let snap = c.snapshot();
        assert_eq!(snap.fields().to_vec(), expected);
        assert_eq!(snap.delta(&StatsSnapshot::default()), snap);
        let mut twice = snap;
        twice.merge(&snap);
        let doubled: Vec<_> = expected.iter().map(|&(n, v)| (n, 2 * v)).collect();
        assert_eq!(twice.fields().to_vec(), doubled);
    }
}
