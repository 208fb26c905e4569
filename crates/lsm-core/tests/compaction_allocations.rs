//! Compaction allocates per block, not per entry: the table → table
//! pipeline shares each input block with the entries decoded from it and
//! encodes them straight into the output file image. Pinned with a count,
//! not a clock: merging N entries may cost at most `C0 + C1 · blocks`
//! heap allocations (it cost more than `4 · N` while every decoded entry
//! was copied out of its block and into the builder's key lists).

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lsm_core::{DataLayout, Db, Options};
use lsm_storage::MemBackend;

thread_local! {
    /// Allocations made by this thread (the engine runs maintenance inline
    /// on the calling thread here, so this is the compaction's count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fixed cost of the job around the merge: the plan, the version edit,
/// opening the outputs, spans and events.
const C0: u64 = 1_000;
/// Per data block read or written: the read buffer and its share count,
/// or the output fence key and that fence decoded again when the output
/// table is opened.
const C1: u64 = 4;

#[test]
fn compaction_allocates_per_block_not_per_entry() {
    const N: u64 = 20_000;
    let backend = Arc::new(MemBackend::new());
    let mut opts = Options {
        wal: false,
        background_threads: 0,
        write_buffer_bytes: 64 << 20, // only explicit flushes
        block_cache_bytes: 0,
        ..Options::default()
    };
    opts.compaction.layout = DataLayout::Tiering { runs_per_level: 3 };
    let db = Db::builder().backend(backend).options(opts).open().unwrap();

    // Two runs of N/2 entries with interleaved keys, so the merge
    // alternates between its sources entry by entry.
    for run in 0..2 {
        for i in 0..N / 2 {
            let key = format!("user{:010}", 2 * i + run);
            db.put(key.as_bytes(), &[b'v'; 100]).unwrap();
        }
        db.flush().unwrap();
    }
    let input_blocks: u64 = db
        .version()
        .all_tables()
        .map(|t| t.meta().data_blocks)
        .sum();
    assert_eq!(db.version().run_count(), 2);

    // A third, one-entry run fills the tier: this flush compacts all three.
    db.put(b"user9999999999", b"last").unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    db.flush().unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    let version = db.version();
    assert_eq!(version.run_count(), 1, "the three runs were not merged");
    assert_eq!(version.total_entries(), N + 1);
    let output_blocks: u64 = version.all_tables().map(|t| t.meta().data_blocks).sum();
    let blocks = input_blocks + output_blocks;
    assert!(
        allocations <= C0 + C1 * blocks,
        "compacting {N} entries over {blocks} blocks took {allocations} allocations \
         (allowed {C0} + {C1} per block; {} would be 4 per entry)",
        4 * N
    );
}
