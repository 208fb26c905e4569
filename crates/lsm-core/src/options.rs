//! Engine configuration: one point in the LSM design space.

use lsm_compaction::CompactionConfig;
use lsm_filters::PointFilterKind;
use lsm_memtable::MemTableKind;
use lsm_sstable::TableBuilderOptions;
use lsm_types::{Error, Result};

/// All tuning knobs of the engine. See the crate docs for the mapping from
/// tutorial sections to fields.
#[derive(Clone, Debug)]
pub struct Options {
    /// Write-buffer data structure.
    pub memtable_kind: MemTableKind,
    /// Freeze the active memtable once it holds this many bytes.
    pub write_buffer_bytes: usize,
    /// How many frozen memtables may queue before writers stall
    /// (RocksDB `max_write_buffer_number - 1`).
    pub max_immutable_memtables: usize,
    /// The compaction design point: size ratio, layout, granularity,
    /// picking policy, extra triggers.
    pub compaction: CompactionConfig,
    /// Data-block size in bytes (one I/O page by default).
    pub block_size: usize,
    /// Point-filter implementation embedded in each table.
    pub filter_kind: PointFilterKind,
    /// Overall filter budget in bits per key.
    pub filter_bits_per_key: f64,
    /// Allocate the filter budget across levels Monkey-style (deep levels
    /// get fewer bits) instead of uniformly.
    pub monkey_filters: bool,
    /// Block-cache capacity in bytes (0 disables caching). A convenience
    /// knob: [`crate::DbBuilder::cache_config`] supersedes it with the full
    /// [`lsm_storage::CacheConfig`] surface (shard bits, pinning policy,
    /// cross-shard sharing); when a cache config or shared cache is given to
    /// the builder, this field is ignored.
    pub block_cache_bytes: usize,
    /// Re-load the output blocks of every compaction into the cache
    /// (the Leaper mitigation for compaction-induced cache misses).
    pub warm_cache_after_compaction: bool,
    /// Write-ahead logging for crash durability.
    pub wal: bool,
    /// Sync the WAL after every write batch, so an acknowledged write is
    /// durable (survives a power cut). Disabling trades the fsync per
    /// batch for a window of acknowledged-but-volatile writes.
    pub wal_sync: bool,
    /// Group commit: how many queued operations one commit-group leader
    /// may drain into a single WAL append (and at most one sync). Larger
    /// groups amortize the sync further at the cost of leader latency.
    pub max_group_ops: usize,
    /// Group commit: byte ceiling (encoded entry bytes) for one commit
    /// group. The leader stops draining once the group would exceed it.
    pub max_group_bytes: usize,
    /// How many times background maintenance retries a transient storage
    /// error (with doubling backoff) before treating it as fatal.
    pub transient_retries: u32,
    /// Background maintenance threads for the whole [`crate::Db`]: one
    /// pool serves every shard, so a 4-shard `Db` with 2 threads runs 2
    /// workers, not 8. 0 runs flush/compaction inline on the writing
    /// thread (deterministic mode).
    pub background_threads: usize,
    /// Maximum size of one output table during flush/compaction; larger
    /// outputs split at user-key boundaries (partial-compaction substrate).
    pub table_target_bytes: u64,
    /// A sampled foreground op slower than this emits a
    /// [`lsm_obs::EventKind::SlowOp`] receipt into the event ring with its
    /// read-path breakdown. Only the 1-in-16 sampled ops are checked, so
    /// the threshold costs nothing on the rest.
    pub slow_op_threshold: std::time::Duration,
    /// How often a [`crate::MetricsExporter`] attached to this database
    /// snapshots and writes metrics. Must be non-zero.
    pub metrics_export_interval: std::time::Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_kind: MemTableKind::SkipList,
            write_buffer_bytes: 1 << 20, // 1 MiB
            max_immutable_memtables: 2,
            compaction: CompactionConfig::default(),
            block_size: lsm_types::PAGE_SIZE,
            filter_kind: PointFilterKind::Bloom,
            filter_bits_per_key: 10.0,
            monkey_filters: false,
            block_cache_bytes: 8 << 20, // 8 MiB
            warm_cache_after_compaction: false,
            wal: true,
            wal_sync: true,
            max_group_ops: 128,
            max_group_bytes: 1 << 20, // 1 MiB
            transient_retries: 4,
            background_threads: 0,
            table_target_bytes: 2 << 20, // 2 MiB
            slow_op_threshold: std::time::Duration::from_millis(100),
            metrics_export_interval: std::time::Duration::from_secs(10),
        }
    }
}

impl Options {
    /// Validates option consistency before opening a database.
    pub fn validate(&self) -> Result<()> {
        if self.write_buffer_bytes == 0 {
            return Err(Error::InvalidArgument(
                "write_buffer_bytes must be > 0".into(),
            ));
        }
        if self.block_size < 128 {
            return Err(Error::InvalidArgument("block_size must be >= 128".into()));
        }
        if self.table_target_bytes == 0 {
            return Err(Error::InvalidArgument(
                "table_target_bytes must be > 0".into(),
            ));
        }
        if self.max_group_ops == 0 {
            return Err(Error::InvalidArgument("max_group_ops must be > 0".into()));
        }
        if self.max_group_bytes == 0 {
            return Err(Error::InvalidArgument("max_group_bytes must be > 0".into()));
        }
        if self.compaction.size_ratio < 2 {
            return Err(Error::InvalidArgument("size_ratio must be >= 2".into()));
        }
        if self.filter_bits_per_key < 0.0 {
            return Err(Error::InvalidArgument(
                "filter_bits_per_key must be >= 0".into(),
            ));
        }
        if self.metrics_export_interval.is_zero() {
            return Err(Error::InvalidArgument(
                "metrics_export_interval must be > 0".into(),
            ));
        }
        Ok(())
    }

    /// Table-builder options for a table destined for `level`, given the
    /// per-level filter allocation (`bits_per_level[level]`, when Monkey is
    /// active).
    pub(crate) fn table_options(&self, bits_per_key: f64) -> TableBuilderOptions {
        let filter_kind = if bits_per_key <= 0.0 {
            PointFilterKind::None
        } else {
            self.filter_kind
        };
        TableBuilderOptions {
            block_size: self.block_size,
            filter_kind,
            bits_per_key,
            ..TableBuilderOptions::default()
        }
    }

    /// Convenience: a deterministic, experiment-friendly configuration
    /// (small buffers, no WAL, synchronous maintenance).
    pub fn small_for_benchmarks() -> Self {
        Options {
            write_buffer_bytes: 64 << 10,
            table_target_bytes: 64 << 10,
            compaction: CompactionConfig {
                level1_bytes: 256 << 10,
                ..CompactionConfig::default()
            },
            wal: false,
            block_cache_bytes: 0,
            ..Options::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        Options::default().validate().unwrap();
        Options::small_for_benchmarks().validate().unwrap();
    }

    #[test]
    fn invalid_options_rejected() {
        let o = Options {
            write_buffer_bytes: 0,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let mut o = Options::default();
        o.compaction.size_ratio = 1;
        assert!(o.validate().is_err());

        let o = Options {
            block_size: 10,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let o = Options {
            filter_bits_per_key: -1.0,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let o = Options {
            max_group_ops: 0,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let o = Options {
            max_group_bytes: 0,
            ..Options::default()
        };
        assert!(o.validate().is_err());

        let o = Options {
            metrics_export_interval: std::time::Duration::ZERO,
            ..Options::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn zero_bits_disables_filter() {
        let o = Options::default();
        assert_eq!(o.table_options(0.0).filter_kind, PointFilterKind::None);
        assert_eq!(o.table_options(8.0).filter_kind, PointFilterKind::Bloom);
    }
}
