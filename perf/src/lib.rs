//! The repo's benchmark: four workloads through `Db` on a real-file
//! backend, end-to-end metrics from the harness's own clocks and device
//! boundary, per-layer metrics from counters, a traced phase and isolated
//! probes. See `perf/README.md` for the glossary and how to run it.

pub mod files;
pub mod gen;
pub mod probes;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;
