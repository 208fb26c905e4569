//! The immutable sorted-run file format (SSTable) for `lsm-lab`.
//!
//! Every flush and every compaction produces files in this format
//! (tutorial §2.1.1-C: immutable, compact, written once):
//!
//! ```text
//! +--------------+--------------+-----+-------------+--------------+--------+
//! | data block 0 | data block 1 | ... | index block | filter block | footer |
//! +--------------+--------------+-----+-------------+--------------+--------+
//! ```
//!
//! * **Data blocks** (~4 KiB) hold encoded [`lsm_types::InternalEntry`]s in
//!   internal-key order, each block CRC-protected.
//! * The **index block** holds one *fence pointer* per data block — the
//!   block's first internal key plus its offset/length — kept in memory by
//!   readers so a point lookup touches exactly one data block
//!   (tutorial §2.1.3).
//! * The **filter block** holds a serialized point filter
//!   (Bloom / blocked Bloom / cuckoo, per [`lsm_filters::PointFilterKind`]).
//! * The **footer** carries table statistics (entry / tombstone counts, key
//!   range, seqno and timestamp ranges) that compaction policies consume.
//!
//! [`TableBuilder`] writes tables; [`Table`] reads them through the block
//! cache; [`MergeIter`] performs the k-way ordered merge that compaction,
//! scans, and recovery are built from.

mod block;
mod builder;
mod iter;
mod meta;
mod reader;

pub use block::{BlockBuilder, BlockIter};
pub use builder::{TableBuilder, TableBuilderOptions};
pub use iter::{collect_all, EntryIter, MergeIter, VecEntryIter};
pub use meta::TableMeta;
pub use reader::{ReadCtx, Table, TableIter, TableReadOpts};

/// Target uncompressed size of one data block: one I/O page.
pub const BLOCK_SIZE: usize = lsm_types::PAGE_SIZE;
