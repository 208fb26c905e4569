//! Background metrics export: a thread that periodically snapshots a
//! metrics source and appends one [`MetricsSnapshot`] delta per interval
//! as a JSONL line.
//!
//! The exporter is deliberately dumb plumbing: *what* is exported is
//! decided by [`MetricsSnapshot::to_json`] (pinned by the metrics golden
//! test), *where* it goes is any `Write` sink, and the only state the
//! thread owns is the previous snapshot. Each line is therefore a
//! self-contained phase measurement — counters since the previous line —
//! so a scrape pipeline can compute rates without keeping history.
//!
//! Shutdown is explicit and ordered: [`MetricsExporter::stop`] (or drop)
//! wakes the thread, which emits one final delta — covering the tail of
//! the last interval — flushes the sink, and exits before `stop` returns.
//! The stop flag lives in an [`OrderedMutex`] at rank
//! [`ranks::DB_METRICS_EXPORT`] (below every engine rank), so the lint
//! and loom infrastructure see the exporter as a first-class member of
//! the lock order rather than an unranked `std` mutex on the side.

use std::io::Write;
use std::time::Duration;

use lsm_sync::{ranks, Condvar, OrderedMutex};

use crate::metrics::MetricsSnapshot;

/// Anything the exporter can poll for a metrics snapshot. Implemented by
/// the closure [`crate::Db::metrics_exporter`] builds over its engines,
/// and by plain `Fn() -> MetricsSnapshot` closures for tests and custom
/// aggregations.
pub trait MetricsSource: Send + 'static {
    /// A point-in-time snapshot of every counter surface.
    fn metrics(&self) -> MetricsSnapshot;
}

impl<F> MetricsSource for F
where
    F: Fn() -> MetricsSnapshot + Send + 'static,
{
    fn metrics(&self) -> MetricsSnapshot {
        self()
    }
}

/// Coordination state shared between the exporter thread and its handle.
struct ExporterShared {
    /// `true` once a shutdown was requested. Rank
    /// [`ranks::DB_METRICS_EXPORT`]: the thread polls the source *after*
    /// releasing this lock, so engine locks are never taken under it.
    stop_mx: OrderedMutex<bool>,
    stop_cv: Condvar,
}

/// Handle to a running exporter thread; see the module docs for the
/// lifecycle. Dropping the handle stops the thread (joining it), so an
/// exporter cannot outlive the database handle that spawned it.
pub struct MetricsExporter {
    shared: std::sync::Arc<ExporterShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// Spawns an exporter thread polling `source` every `interval` and
    /// appending one JSONL delta line per poll to `sink`. The baseline is
    /// taken here, synchronously — the first emitted line covers activity
    /// from this call onward, not from database open.
    pub fn spawn<S, W>(source: S, interval: Duration, mut sink: W) -> MetricsExporter
    where
        S: MetricsSource,
        W: Write + Send + 'static,
    {
        let shared = std::sync::Arc::new(ExporterShared {
            stop_mx: OrderedMutex::new(ranks::DB_METRICS_EXPORT, false),
            stop_cv: Condvar::new(),
        });
        let mut prev = source.metrics();
        let thread_shared = std::sync::Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("lsm-metrics-export".into())
            .spawn(move || loop {
                let stopping = {
                    let mut stop = thread_shared.stop_mx.lock();
                    if !*stop {
                        thread_shared.stop_cv.wait_for(&mut stop, interval);
                    }
                    *stop
                };
                // Poll and write outside the lock: the source takes engine
                // locks and the sink may block on I/O.
                let now = source.metrics();
                let line = now.delta(&prev).to_json();
                prev = now;
                // A failing sink must not take the database down; the next
                // interval retries with a fresh delta against `prev`.
                let _ = writeln!(sink, "{line}");
                let _ = sink.flush();
                if stopping {
                    break;
                }
            });
        MetricsExporter {
            shared,
            // Spawn failure (thread limit) degrades to a no-op exporter
            // rather than panicking a database open.
            thread: thread.ok(),
        }
    }

    /// Requests shutdown and joins the thread. The final delta line —
    /// covering activity since the last interval tick — is written and
    /// flushed before this returns.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            *self.shared.stop_mx.lock() = true;
            self.shared.stop_cv.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}
