//! The harness's own file access, in one place: `/proc` counters, its
//! temp dirs and its trace files. Everything the engine reads or writes
//! goes through `Backend`. The repo's `lsm-lint` walks `perf/` too and its
//! L1 rule keeps `std::fs` behind `lsm-storage`, so each call here carries
//! a marker saying it is not engine I/O.

use std::io;
use std::path::Path;

pub fn read_to_string(path: impl AsRef<Path>) -> io::Result<String> {
    std::fs::read_to_string(path) // lsm-lint: allow(fs-boundary)
}

pub fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    std::fs::write(path, contents) // lsm-lint: allow(fs-boundary)
}

pub fn create_dir_all(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::create_dir_all(path) // lsm-lint: allow(fs-boundary)
}

/// Removes a temp dir; one that is already gone is not an error.
pub fn remove_dir_all(path: impl AsRef<Path>) {
    let _ = std::fs::remove_dir_all(path); // lsm-lint: allow(fs-boundary)
}
