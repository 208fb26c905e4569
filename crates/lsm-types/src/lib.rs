//! Common types shared by every crate in `lsm-lab`.
//!
//! The vocabulary of an LSM-tree lives here:
//!
//! * [`UserKey`] / [`Value`] — application-visible keys and values.
//! * [`InternalKey`] — a user key qualified by a [`SeqNo`] and an
//!   [`EntryKind`], ordered so that the newest version of a key sorts first.
//! * [`InternalEntry`] — an internal key plus value and logical timestamp;
//!   the unit stored in memtables and sorted runs.
//! * [`KeyRange`] — an inclusive key interval with overlap arithmetic, used
//!   by compaction planning and fence pointers.
//! * [`encoding`] — varint and fixed-width little-endian codecs.
//! * [`checksum`] — CRC-32C for block integrity.
//! * [`Error`] / [`Result`] — the error type used across the workspace.

pub mod checksum;
pub mod encoding;
mod entry;
mod error;
mod key;
mod range;

pub use entry::{EntryKind, InternalEntry};
pub use error::{Error, Result};
pub use key::{InternalKey, SeqNo, UserKey, Value, SEQNO_MAX};
pub use range::KeyRange;

/// The page size, in bytes, that the storage substrate charges I/O in.
///
/// All logical I/O accounting in `lsm-lab` is denominated in 4 KiB pages,
/// matching the convention of the LSM literature (and the block size used by
/// the sorted-run format).
pub const PAGE_SIZE: usize = 4096;
