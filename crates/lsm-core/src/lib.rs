//! The `lsm-lab` storage engine: a tunable log-structured merge key-value
//! store.
//!
//! [`Db`] wires together every substrate in the workspace — memtables,
//! the sorted-run format, filters, the block cache, the WAL, and the
//! compaction planner — behind the classic key-value API (`put` / `get` /
//! `delete` / `scan`) plus the delete flavors the tutorial discusses
//! (`single_delete`, `delete_range`).
//!
//! Every design decision the tutorial names is a field of [`Options`]:
//!
//! | Tutorial knob (§) | `Options` field |
//! |---|---|
//! | Memtable implementation (§2.2.1) | `memtable_kind` |
//! | Buffer size / count (§2.2.1) | `write_buffer_bytes`, `max_immutable_memtables` |
//! | Data layout: leveling/tiering/lazy/hybrid (§2.2.2) | `compaction.layout` |
//! | Size ratio T (§2.3.1) | `compaction.size_ratio` |
//! | Compaction granularity (§2.2.3) | `compaction.granularity` |
//! | File-picking policy (§2.2.3) | `compaction.pick` |
//! | Delete persistence (Lethe, §2.3.3) | `compaction.extra_triggers` |
//! | Bloom memory + Monkey allocation (§2.1.3) | `filter_bits_per_key`, `monkey_filters` |
//! | Block cache (+ Leaper warming) (§2.1.3) | `block_cache_bytes`, `warm_cache_after_compaction` |
//! | Background parallelism (§2.2.5) | `background_threads` |
//!
//! Keyspace partitioning, the other parallelism knob of §2.2.5, is a
//! property of the same [`Db`]: [`DbBuilder::shards`] runs N engines, each
//! with its own WAL, commit queue and maintenance threads, routed by a
//! [`Partitioning`] (see the `sharded` module for cross-shard batches and
//! snapshots).
//!
//! The engine runs in two maintenance modes: **synchronous** (flush and
//! compaction run inline on the writing thread — deterministic, the mode
//! experiments use) and **background** (worker threads drain the maintenance
//! queue — the mode the parallelism experiment measures).

mod compact;
mod db;
mod engine;
mod exporter;
mod manifest;
mod metrics;
mod options;
mod scan;
mod sharded;
mod stats;
mod version;

pub use db::{
    Db, DbBuilder, DbScanIter, ReadOptions, ReadView, RecoverySummary, Snapshot, WriteBatch,
    WriteOptions,
};
pub use exporter::{MetricsExporter, MetricsSource};
pub use metrics::MetricsSnapshot;
pub use options::Options;
pub use sharded::Partitioning;
pub use stats::{DbStats, StatsSnapshot};
pub use version::{Run, Version};

// Re-export the types that appear in the public API so downstream users
// need only this crate.
pub use lsm_compaction::{CompactionConfig, DataLayout, Granularity, PickPolicy, Trigger};
pub use lsm_filters::PointFilterKind;
pub use lsm_memtable::MemTableKind;
pub use lsm_obs::{
    Event, EventKind, HistKind, HistSnapshot, HotKey, LatencySnapshot, LevelGauge, ObsHandle,
    Observability, PromText, ReadProbe, WorkloadSnapshot,
};
pub use lsm_storage::{BlockCache, CacheConfig, CacheStats};
pub use lsm_types::{Error, Result, SeqNo, Value};
