//! Shared, atomic logical-I/O counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsm_types::PAGE_SIZE;

lsm_obs::counter_table! {
    /// The cells behind an [`IoStats`] handle.
    struct Counters {
        /// Number of read operations.
        read_ops: AtomicU64,
        /// Pages touched by reads (a read spanning a page boundary counts
        /// each page it touches).
        read_pages: AtomicU64,
        /// Bytes read.
        read_bytes: AtomicU64,
        /// Number of write operations.
        write_ops: AtomicU64,
        /// Pages written (rounded up per operation).
        write_pages: AtomicU64,
        /// Bytes written.
        write_bytes: AtomicU64,
        /// Files created.
        files_created: AtomicU64,
        /// Files deleted.
        files_deleted: AtomicU64,
    }

    /// A point-in-time copy of the I/O counters.
    #[derive(serde::Serialize)]
    snapshot IoSnapshot;
}

/// A cheaply-cloneable handle to a set of I/O counters.
///
/// Both backends charge every read and write here, denominated in bytes and
/// in 4 KiB pages (the unit the LSM literature reports). Experiments snapshot
/// the counters before and after a phase and report the
/// [`difference`](IoSnapshot::delta).
#[derive(Clone, Default, Debug)]
pub struct IoStats {
    inner: Arc<Counters>,
}

impl IoStats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one read of `len` bytes starting at `offset`.
    #[inline]
    pub fn charge_read(&self, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + len as u64 - 1) / PAGE_SIZE as u64;
        self.inner.read_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .read_pages
            .fetch_add(last - first + 1, Ordering::Relaxed);
        self.inner
            .read_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Charges one write of `len` bytes.
    #[inline]
    pub fn charge_write(&self, len: usize) {
        self.inner.write_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .write_pages
            .fetch_add(len.div_ceil(PAGE_SIZE) as u64, Ordering::Relaxed);
        self.inner
            .write_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Records a file creation.
    #[inline]
    pub fn charge_file_created(&self) {
        self.inner.files_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a file deletion.
    #[inline]
    pub fn charge_file_deleted(&self) {
        self.inner.files_deleted.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_page_charging_spans_boundaries() {
        let s = IoStats::new();
        s.charge_read(0, 1); // 1 page
        s.charge_read(4095, 2); // crosses into page 1 -> 2 pages
        s.charge_read(4096, 4096); // exactly page 1 -> 1 page
        s.charge_read(100, 0); // zero-length: free
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 3);
        assert_eq!(snap.read_pages, 4);
        assert_eq!(snap.read_bytes, 1 + 2 + 4096);
    }

    #[test]
    fn write_page_charging_rounds_up() {
        let s = IoStats::new();
        s.charge_write(1);
        s.charge_write(4096);
        s.charge_write(4097);
        let snap = s.snapshot();
        assert_eq!(snap.write_ops, 3);
        assert_eq!(snap.write_pages, 1 + 1 + 2);
        assert_eq!(snap.write_bytes, 1 + 4096 + 4097);
    }

    #[test]
    fn delta_subtracts() {
        let s = IoStats::new();
        s.charge_write(4096);
        let before = s.snapshot();
        s.charge_write(4096);
        s.charge_read(0, 10);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.write_pages, 1);
        assert_eq!(d.read_ops, 1);
    }

    #[test]
    fn clones_share_counters() {
        let s = IoStats::new();
        let s2 = s.clone();
        s2.charge_file_created();
        assert_eq!(s.snapshot().files_created, 1);
    }

    #[test]
    fn every_cell_reaches_its_field_in_declaration_order() {
        let c = Counters::default();
        let cells = [
            ("read_ops", &c.read_ops),
            ("read_pages", &c.read_pages),
            ("read_bytes", &c.read_bytes),
            ("write_ops", &c.write_ops),
            ("write_pages", &c.write_pages),
            ("write_bytes", &c.write_bytes),
            ("files_created", &c.files_created),
            ("files_deleted", &c.files_deleted),
        ];
        let mut expected = Vec::new();
        for ((name, cell), v) in cells.into_iter().zip(1..) {
            cell.fetch_add(v, Ordering::Relaxed);
            expected.push((name, v));
        }
        let snap = c.snapshot();
        assert_eq!(snap.fields().to_vec(), expected);
        assert_eq!(snap.delta(&IoSnapshot::default()), snap);
        let mut twice = snap;
        twice.merge(&snap);
        let doubled: Vec<_> = expected.iter().map(|&(n, v)| (n, 2 * v)).collect();
        assert_eq!(twice.fields().to_vec(), doubled);
    }
}
