//! Engine statistics: the quantities the experiments report.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters (shared via `Arc` inside the engine).
#[derive(Default, Debug)]
pub struct DbStats {
    pub(crate) puts: AtomicU64,
    pub(crate) gets: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) scans: AtomicU64,
    /// Bytes of user payload accepted by `put`/`delete` (the denominator of
    /// write amplification).
    pub(crate) user_bytes: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) flush_bytes: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) compact_bytes_read: AtomicU64,
    pub(crate) compact_bytes_written: AtomicU64,
    pub(crate) stall_count: AtomicU64,
    pub(crate) stall_nanos: AtomicU64,
    /// Times `wait_idle` parked on the maintenance-progress condvar (each
    /// increment is one blocking wait, not one poll — the stress harness
    /// asserts this stays proportional to actual maintenance events).
    pub(crate) idle_waits: AtomicU64,
    /// Entries dropped as garbage by a flush or a compaction (superseded
    /// versions, annihilated tombstones).
    pub(crate) gc_dropped_entries: AtomicU64,
    /// Tombstones physically purged at the last level.
    pub(crate) tombstones_purged: AtomicU64,
    /// WAL appends issued by the write path (one per commit group, not one
    /// per write — the ratio to `puts + deletes` measures group batching).
    pub(crate) wal_appends: AtomicU64,
    /// WAL fsyncs issued by the write path (at most one per commit group).
    pub(crate) wal_syncs: AtomicU64,
    /// Commit groups flushed by a leader (each covers >= 1 write request).
    pub(crate) group_commits: AtomicU64,
}

/// A point-in-time copy of [`DbStats`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, serde::Serialize)]
pub struct StatsSnapshot {
    /// `put` operations accepted.
    pub puts: u64,
    /// `get` operations served.
    pub gets: u64,
    /// Delete operations (point, single, range) accepted.
    pub deletes: u64,
    /// Range scans started.
    pub scans: u64,
    /// User payload bytes written.
    pub user_bytes: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Bytes written by flushes.
    pub flush_bytes: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Bytes read by compactions.
    pub compact_bytes_read: u64,
    /// Bytes written by compactions.
    pub compact_bytes_written: u64,
    /// Times a writer stalled on the immutable-memtable queue.
    pub stall_count: u64,
    /// Total nanoseconds writers spent stalled.
    pub stall_nanos: u64,
    /// Blocking condvar waits performed by `wait_idle`.
    pub idle_waits: u64,
    /// Entries garbage-collected during flushes and compactions.
    pub gc_dropped_entries: u64,
    /// Tombstones physically removed at the last level.
    pub tombstones_purged: u64,
    /// WAL appends issued (one per commit group).
    pub wal_appends: u64,
    /// WAL fsyncs issued (at most one per commit group).
    pub wal_syncs: u64,
    /// Commit groups flushed by a group-commit leader.
    pub group_commits: u64,
}

impl DbStats {
    /// Copies all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            user_bytes: self.user_bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flush_bytes: self.flush_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compact_bytes_read: self.compact_bytes_read.load(Ordering::Relaxed),
            compact_bytes_written: self.compact_bytes_written.load(Ordering::Relaxed),
            stall_count: self.stall_count.load(Ordering::Relaxed),
            stall_nanos: self.stall_nanos.load(Ordering::Relaxed),
            idle_waits: self.idle_waits.load(Ordering::Relaxed),
            gc_dropped_entries: self.gc_dropped_entries.load(Ordering::Relaxed),
            tombstones_purged: self.tombstones_purged.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
        }
    }
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

    /// Counter increments between `earlier` and `self`.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            deletes: self.deletes - earlier.deletes,
            scans: self.scans - earlier.scans,
            user_bytes: self.user_bytes - earlier.user_bytes,
            flushes: self.flushes - earlier.flushes,
            flush_bytes: self.flush_bytes - earlier.flush_bytes,
            compactions: self.compactions - earlier.compactions,
            compact_bytes_read: self.compact_bytes_read - earlier.compact_bytes_read,
            compact_bytes_written: self.compact_bytes_written - earlier.compact_bytes_written,
            stall_count: self.stall_count - earlier.stall_count,
            stall_nanos: self.stall_nanos - earlier.stall_nanos,
            idle_waits: self.idle_waits - earlier.idle_waits,
            gc_dropped_entries: self.gc_dropped_entries - earlier.gc_dropped_entries,
            tombstones_purged: self.tombstones_purged - earlier.tombstones_purged,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            group_commits: self.group_commits - earlier.group_commits,
        }
    }

    /// Accumulates `other` into `self` (aggregating per-shard engines into
    /// one router-wide view; every field is a sum-friendly counter).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.deletes += other.deletes;
        self.scans += other.scans;
        self.user_bytes += other.user_bytes;
        self.flushes += other.flushes;
        self.flush_bytes += other.flush_bytes;
        self.compactions += other.compactions;
        self.compact_bytes_read += other.compact_bytes_read;
        self.compact_bytes_written += other.compact_bytes_written;
        self.stall_count += other.stall_count;
        self.stall_nanos += other.stall_nanos;
        self.idle_waits += other.idle_waits;
        self.gc_dropped_entries += other.gc_dropped_entries;
        self.tombstones_purged += other.tombstones_purged;
        self.wal_appends += other.wal_appends;
        self.wal_syncs += other.wal_syncs;
        self.group_commits += other.group_commits;
    }
}

#[cfg(test)]
mod tests {
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
}
