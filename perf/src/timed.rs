//! `TimedBackend`: the benchmark's view of the device boundary.
//!
//! An `impl Backend` that forwards every call and records, per method and
//! per side (client thread or engine thread), the call count, bytes, 4 KiB
//! pages read, total time and a latency histogram. Every end-to-end byte
//! and page count comes from here and from nothing inside the engine, so a
//! change to the engine's own counters cannot move them. With tracing on,
//! each call also becomes a child span of the op running on its thread.
//!
//! The counters are plain integers behind per-thread-sharded mutexes, not
//! atomics: the repo's `lsm-lint` walks every `.rs` file under the root
//! and a tier-1 test pins the set of atomic fields it finds, so the
//! benchmark must not add any. A thread only ever locks its own shard, so
//! the locks are uncontended.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use lsm_storage::{Backend, Bytes, FileId, IoStats};
use lsm_types::Result;

use crate::trace;

/// The `Backend` methods that are timed. Discriminants index the cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    WriteBlob = 0,
    Append = 1,
    Sync = 2,
    Read = 3,
    PutMeta = 4,
    GetMeta = 5,
    Delete = 6,
    /// `create_appendable`, `truncate` and `len`: rare, and never on an
    /// op's blocking path after open.
    Other = 7,
}

const METHODS: usize = 8;

impl Method {
    pub fn name(self) -> &'static str {
        [
            "write_blob",
            "append",
            "sync",
            "read",
            "put_meta",
            "get_meta",
            "delete",
            "other",
        ][self as usize]
    }
}

/// Which kind of thread made a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Client = 0,
    Engine = 1,
}

/// Shards per cell; threads are dealt shards round-robin, and a run has
/// at most two clients and one engine thread alive at a time.
const SHARDS: usize = 8;
static NEXT_SHARD: Mutex<usize> = Mutex::new(0);

thread_local! {
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Marks the calling thread as a client thread (or not) for the split of
/// backend calls by side. Threads the engine spawns are never marked.
pub fn mark_client_thread(on: bool) {
    IS_CLIENT.with(|c| c.set(on));
}

fn shard_of_this_thread() -> usize {
    SHARD.with(|s| {
        if s.get() == usize::MAX {
            let mut next = NEXT_SHARD
                .lock()
                .expect("no thread panics holding the shard counter");
            s.set(*next % SHARDS);
            *next += 1;
        }
        s.get()
    })
}

/// Log-linear latency buckets: 16 per power of two, so a quantile read
/// off the histogram is within about 3 % of the exact value.
const SUB: u64 = 16;
const BUCKETS: usize = 40 * SUB as usize;

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let exp = 63 - u64::from(nanos.leading_zeros());
    let sub = (nanos >> (exp - 4)) - SUB;
    (((exp - 3) * SUB + sub) as usize).min(BUCKETS - 1)
}

/// Lower bound of bucket `b` in nanoseconds.
fn bucket_floor(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let exp = b / SUB + 3;
    ((SUB + b % SUB) << (exp - 4)) as f64
}

/// One (method, side) cell: live in the backend, or copied out.
#[derive(Clone, Debug)]
pub struct CellSnapshot {
    pub calls: u64,
    pub bytes: u64,
    pub pages: u64,
    pub nanos: u64,
    hist: Vec<u64>,
}

impl CellSnapshot {
    fn empty() -> Self {
        CellSnapshot {
            calls: 0,
            bytes: 0,
            pages: 0,
            nanos: 0,
            hist: vec![0; BUCKETS],
        }
    }

    fn minus(&self, earlier: &CellSnapshot) -> CellSnapshot {
        CellSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            pages: self.pages - earlier.pages,
            nanos: self.nanos - earlier.nanos,
            hist: self
                .hist
                .iter()
                .zip(&earlier.hist)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    fn plus(&self, other: &CellSnapshot) -> CellSnapshot {
        CellSnapshot {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
            pages: self.pages + other.pages,
            nanos: self.nanos + other.nanos,
            hist: self
                .hist
                .iter()
                .zip(&other.hist)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// The `q`-quantile of call latency in microseconds, interpolated
    /// inside its bucket; 0 when no call was made.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q * total as f64;
        let mut seen = 0.0;
        for (b, &n) in self.hist.iter().enumerate() {
            if n > 0 && seen + n as f64 >= rank {
                let lo = bucket_floor(b);
                let hi = bucket_floor(b + 1);
                return (lo + (hi - lo) * ((rank - seen) / n as f64)) / 1000.0;
            }
            seen += n as f64;
        }
        bucket_floor(BUCKETS) / 1000.0
    }
}

/// A copy of every cell of a [`TimedBackend`].
#[derive(Clone, Debug)]
pub struct TimedSnapshot {
    cells: Vec<CellSnapshot>,
}

impl TimedSnapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &TimedSnapshot) -> TimedSnapshot {
        TimedSnapshot {
            cells: self
                .cells
                .iter()
                .zip(&earlier.cells)
                .map(|(a, b)| a.minus(b))
                .collect(),
        }
    }

    pub fn cell(&self, method: Method, side: Side) -> &CellSnapshot {
        &self.cells[method as usize * 2 + side as usize]
    }

    /// Both sides of `method` together.
    pub fn both(&self, method: Method) -> CellSnapshot {
        self.cell(method, Side::Client)
            .plus(self.cell(method, Side::Engine))
    }

    /// Bytes handed to the device by any thread: `append` + `write_blob`
    /// + `put_meta`. The numerator of `write_amp`.
    pub fn bytes_written(&self) -> u64 {
        [Method::Append, Method::WriteBlob, Method::PutMeta]
            .iter()
            .map(|&m| self.both(m).bytes)
            .sum()
    }
}

/// Forwards to `inner` and records every call.
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    /// `SHARDS` shards per (method, side) cell.
    cells: Vec<Mutex<CellSnapshot>>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        TimedBackend {
            inner,
            cells: (0..METHODS * 2 * SHARDS)
                .map(|_| Mutex::new(CellSnapshot::empty()))
                .collect(),
        }
    }

    pub fn snapshot(&self) -> TimedSnapshot {
        TimedSnapshot {
            cells: self
                .cells
                .chunks(SHARDS)
                .map(|shards| {
                    shards.iter().fold(CellSnapshot::empty(), |sum, shard| {
                        sum.plus(&shard.lock().expect("no thread panics holding a cell"))
                    })
                })
                .collect(),
        }
    }

    fn timed<T>(&self, method: Method, bytes: u64, pages: u64, call: impl FnOnce() -> T) -> T {
        let start = trace::now_ns();
        let out = call();
        let end = trace::now_ns();
        let side = IS_CLIENT.with(|c| if c.get() { Side::Client } else { Side::Engine });
        let index = (method as usize * 2 + side as usize) * SHARDS + shard_of_this_thread();
        let nanos = end - start;
        {
            let mut cell = self.cells[index]
                .lock()
                .expect("no thread panics holding a cell");
            cell.calls += 1;
            cell.bytes += bytes;
            cell.pages += pages;
            cell.nanos += nanos;
            cell.hist[bucket_of(nanos)] += 1;
        }
        trace::backend_call(method, start, end);
        out
    }
}

/// 4 KiB pages the byte range `[offset, offset + len)` touches.
fn pages_spanned(offset: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let page = lsm_types::PAGE_SIZE as u64;
    (offset + len as u64 - 1) / page - offset / page + 1
}

impl Backend for TimedBackend {
    fn write_blob(&self, data: &[u8]) -> Result<FileId> {
        self.timed(Method::WriteBlob, data.len() as u64, 0, || {
            self.inner.write_blob(data)
        })
    }

    fn create_appendable(&self) -> Result<FileId> {
        self.timed(Method::Other, 0, 0, || self.inner.create_appendable())
    }

    fn append(&self, id: FileId, data: &[u8]) -> Result<u64> {
        self.timed(Method::Append, data.len() as u64, 0, || {
            self.inner.append(id, data)
        })
    }

    fn sync(&self, id: FileId) -> Result<()> {
        self.timed(Method::Sync, 0, 0, || self.inner.sync(id))
    }

    fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        self.timed(Method::Other, 0, 0, || self.inner.truncate(id, len))
    }

    fn read(&self, id: FileId, offset: u64, len: usize) -> Result<Bytes> {
        self.timed(Method::Read, len as u64, pages_spanned(offset, len), || {
            self.inner.read(id, offset, len)
        })
    }

    fn len(&self, id: FileId) -> Result<u64> {
        self.timed(Method::Other, 0, 0, || self.inner.len(id))
    }

    fn delete(&self, id: FileId) -> Result<()> {
        self.timed(Method::Delete, 0, 0, || self.inner.delete(id))
    }

    fn list_files(&self) -> Vec<FileId> {
        self.inner.list_files()
    }

    fn put_meta(&self, name: &str, data: &[u8]) -> Result<()> {
        self.timed(Method::PutMeta, data.len() as u64, 0, || {
            self.inner.put_meta(name, data)
        })
    }

    fn get_meta(&self, name: &str) -> Result<Option<Bytes>> {
        self.timed(Method::GetMeta, 0, 0, || self.inner.get_meta(name))
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn file_count(&self) -> usize {
        self.inner.file_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_tight() {
        let mut last = 0;
        for nanos in [0u64, 1, 15, 16, 17, 31, 32, 1000, 4096, 1 << 20, 1 << 33] {
            let b = bucket_of(nanos);
            assert!(b >= last, "bucket order at {nanos}");
            last = b;
            assert!(bucket_floor(b) <= nanos as f64);
            assert!(bucket_floor(b + 1) > nanos as f64);
            assert!(bucket_floor(b + 1) - bucket_floor(b) <= (nanos as f64 / 16.0).max(1.0));
        }
    }

    #[test]
    fn pages_follow_offsets() {
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 4096), 1);
        assert_eq!(pages_spanned(4000, 200), 2);
        assert_eq!(pages_spanned(4096, 1), 1);
    }
}
