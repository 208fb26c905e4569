//! Full-stack observability tests: causal span nesting through real
//! flushes and compactions, the background metrics exporter's JSONL
//! round-trip, and the Prometheus surfaces of [`Db`] and [`ShardedDb`].

// Test code: panicking on unexpected results is the assertion style.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lsm_core::{Db, Event, EventKind, Options, ReadProbe, ReadView, ShardedDb};
use lsm_obs::slow_op;

fn churn_opts() -> Options {
    let mut o = Options::small_for_benchmarks();
    o.write_buffer_bytes = 4 << 10; // 4 KiB: flush constantly
    o.table_target_bytes = 4 << 10;
    o.compaction.level1_bytes = 8 << 10;
    o.compaction.size_ratio = 2;
    o
}

/// Fills the tree until at least one compaction has run.
fn churn(db: &Db) {
    let value = vec![0xabu8; 256];
    for i in 0..400u32 {
        db.put(format!("key-{i:05}").as_bytes(), &value).unwrap();
    }
    db.maintain().unwrap();
    assert!(db.metrics().db.compactions > 0, "workload never compacted");
}

/// The acceptance criterion for causal tracing: a real compaction's span
/// must enclose the per-file read and write spans it caused, and the
/// Chrome trace must render that nesting as balanced B/E duration events.
#[test]
fn compaction_spans_enclose_file_io_spans() {
    let db = Db::builder().options(churn_opts()).open().unwrap();
    churn(&db);
    let events: Vec<Event> = db.obs().events();

    let compactions: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::CompactionStart)
        .collect();
    assert!(!compactions.is_empty(), "no compaction spans recorded");
    for c in &compactions {
        assert_ne!(c.span, 0, "compaction start must open a span");
    }

    // Every compaction must have both file-read and file-write children
    // attributed to its span.
    let child_of =
        |kind: EventKind, parent: u64| events.iter().any(|e| e.kind == kind && e.parent == parent);
    let attributed = compactions.iter().any(|c| {
        child_of(EventKind::FileReadStart, c.span) && child_of(EventKind::FileWriteStart, c.span)
    });
    assert!(
        attributed,
        "no compaction span encloses file read + write child spans"
    );

    // Flushes open spans too, and their table write is a child.
    let flush = events
        .iter()
        .find(|e| e.kind == EventKind::FlushStart)
        .expect("no flush span recorded");
    assert_ne!(flush.span, 0);

    // The Chrome render keeps B/E balanced per thread lane (a leaked span
    // would corrupt every later duration in the lane).
    let trace = db.obs().chrome_trace();
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced B/E events in chrome trace");
    assert!(trace.contains("\"name\":\"compaction\""));
}

/// Snapshot reads go through the same sampled wrapper as `Db` reads: with
/// a zero slow-op threshold, 64 gets and 64 scans through either view
/// leave four receipts each (1-in-16 sampling), every receipt carries a
/// read-path breakdown, and the workload op mix counts all of them.
#[test]
fn snapshot_reads_are_instrumented_like_db_reads() {
    let mut opts = churn_opts();
    opts.slow_op_threshold = Duration::ZERO;
    let db = Db::builder().options(opts).open().unwrap();
    churn(&db);
    let snap = db.snapshot();

    let receipts = |code: u64| -> Vec<ReadProbe> {
        let of_code = |e: &&Event| e.kind == EventKind::SlowOp && ReadProbe::unpack_op(e.b) == code;
        let events = db.obs().events();
        events
            .iter()
            .filter(of_code)
            .map(|e| ReadProbe::unpack(e.b))
            .collect()
    };
    fn read_64<V: ReadView>(view: &V) {
        for i in 0..64u32 {
            let key = format!("key-{i:05}");
            assert!(view.get(key.as_bytes()).unwrap().is_some());
        }
        for i in 0..64u32 {
            let key = format!("key-{i:05}");
            assert!(view.scan(key.as_bytes(), None).unwrap().next().is_some());
        }
    }

    read_64(&db);
    let (db_gets, db_scans) = (receipts(slow_op::GET), receipts(slow_op::SCAN));
    let db_mix = db.obs().workload();
    assert_eq!((db_gets.len(), db_scans.len()), (4, 4));
    assert_eq!((db_mix.gets, db_mix.scans), (64, 64));

    read_64(&snap);
    let (gets, scans) = (receipts(slow_op::GET), receipts(slow_op::SCAN));
    let mix = db.obs().workload();
    assert_eq!((gets.len(), scans.len()), (8, 8), "snapshot reads sampled");
    assert_eq!((mix.gets, mix.scans), (128, 128), "snapshot reads counted");
    for probe in gets.iter().chain(&scans) {
        assert!(probe.memtables_probed > 0, "empty probe: {probe:?}");
    }
    assert!(scans.iter().all(|p| p.levels_touched > 0));
}

/// A `Write` sink the test can read back after the exporter thread wrote
/// through its own clone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Extracts `"field":N` from one JSONL line's *first* occurrence — for
/// top-level `db` counters that's the engine surface.
fn field_u64(line: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let at = line.find(&pat).unwrap() + pat.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Deltas across exporter lines must sum to the true totals: no op is
/// double-counted by overlapping intervals or lost at shutdown.
#[test]
fn metrics_exporter_deltas_sum_to_totals() {
    let mut opts = Options::small_for_benchmarks();
    opts.metrics_export_interval = Duration::from_millis(20);
    let db = Db::builder().options(opts).open().unwrap();
    let sink = SharedBuf::default();
    let exporter = db.metrics_exporter(sink.clone());
    for i in 0..300u32 {
        db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    for i in 0..40u32 {
        db.get(format!("k{i:04}").as_bytes()).unwrap();
    }
    exporter.stop(); // final delta flushed before return
    let text = sink.contents();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "exporter wrote no lines");
    for line in &lines {
        assert!(line.starts_with("{\"db\":"), "malformed line: {line}");
        assert!(line.ends_with('}'), "truncated line: {line}");
    }
    let puts: u64 = lines.iter().map(|l| field_u64(l, "puts")).sum();
    let gets: u64 = lines.iter().map(|l| field_u64(l, "gets")).sum();
    assert_eq!(puts, 300);
    assert_eq!(gets, 40);
}

/// The sharded exporter emits the merged surface: per-shard counters sum,
/// but the intensive read-amp column must not.
#[test]
fn sharded_exporter_and_read_amp_merge() {
    let db = ShardedDb::builder()
        .shards(2)
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for i in 0..200u32 {
        db.put(format!("key-{i:04}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    for i in 0..50u32 {
        db.get(format!("key-{i:04}").as_bytes()).unwrap();
    }

    // Both shards flushed to the same shape, so the merged estimate must
    // equal the per-shard estimate — a sum would double it.
    let s0 = db.shard_metrics(0).read_amp_estimate;
    let s1 = db.shard_metrics(1).read_amp_estimate;
    let agg = db.metrics().read_amp_estimate;
    assert!(s0 > 0.0 && s1 > 0.0, "shards never flushed");
    assert!(
        agg <= s0.max(s1) + 1e-9,
        "aggregate read-amp {agg} exceeds max shard ({s0}, {s1}): merged as a sum?"
    );
    assert!(agg >= s0.min(s1) - 1e-9, "aggregate below both shards");

    let sink = SharedBuf::default();
    let exporter = db.metrics_exporter(sink.clone());
    for i in 0..100u32 {
        db.put(format!("extra-{i:04}").as_bytes(), b"v").unwrap();
    }
    exporter.stop();
    let text = sink.contents();
    let puts: u64 = text.lines().map(|l| field_u64(l, "puts")).sum();
    assert_eq!(puts, 100, "sharded exporter lost or duplicated deltas");
}

/// `ShardedDb::metrics_text` must carry the aggregate unlabelled and every
/// shard's samples with a `shard=` label.
#[test]
fn sharded_prometheus_text_labels_shards() {
    let db = ShardedDb::builder()
        .shards(2)
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for i in 0..100u32 {
        db.put(format!("key-{i:04}").as_bytes(), b"v").unwrap();
    }
    let text = db.metrics_text();
    assert!(text.contains("lsm_db_ops_total{op=\"put\"} 100"));
    assert!(text.contains("lsm_db_ops_total{shard=\"0\",op=\"put\"}"));
    assert!(text.contains("lsm_db_ops_total{shard=\"1\",op=\"put\"}"));
    assert!(text.contains("lsm_read_amp_estimate{shard=\"1\"}"));
    // Families are declared exactly once even with three render passes.
    assert_eq!(text.matches("# TYPE lsm_db_ops_total counter").count(), 1);
    // The obs-side series ride along (shards share one handle by default).
    assert!(text.contains("lsm_workload_ops_total"));
    assert!(text.contains("lsm_events_dropped_total"));
}

/// `Db::metrics_text` renders the single-keyspace surface with both the
/// snapshot families and the obs-side aux families, without duplicating
/// the latency summary.
#[test]
fn db_prometheus_text_has_all_families_once() {
    let db = Db::builder()
        .options(Options::small_for_benchmarks())
        .open()
        .unwrap();
    for i in 0..64u32 {
        db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    db.get(b"k001").unwrap();
    let text = db.metrics_text();
    assert!(text.contains("lsm_db_ops_total{op=\"put\"} 64"));
    assert!(text.contains("lsm_read_amp_estimate "));
    assert!(text.contains("lsm_write_amplification "));
    assert!(text.contains("lsm_workload_ops_total"));
    assert!(text.contains("lsm_events_dropped_total 0"));
    assert_eq!(
        text.matches("# TYPE lsm_latency_nanos summary").count(),
        1,
        "latency family rendered twice"
    );
}
