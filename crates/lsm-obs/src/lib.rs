//! # lsm-obs
//!
//! The observability substrate for lsm-lab: dependency-free, lock-free,
//! and cheap enough for the hottest paths.
//!
//! Three primitives:
//!
//! * [`Histogram`] — HDR-style log-bucketed latency histograms (fixed
//!   64×16 atomic layout, `p50/p90/p99/p999/max` queries, bucket-wise
//!   [`HistSnapshot::delta`]/[`HistSnapshot::merge`]).
//! * [`EventRing`] — a bounded lock-free ring of structured engine events
//!   ([`EventKind`]) with monotonic timestamps, drainable as JSONL and
//!   exportable as Chrome `trace_event` JSON.
//! * [`LevelGauge`] — instantaneous per-level tree-shape readings.
//!
//! Plus [`counter_table!`], which declares a set of monotonic counters
//! once and derives its atomic cells, snapshot, `delta`, `merge` and
//! ordered `(name, value)` list from that declaration.
//!
//! The engine threads one [`ObsHandle`] (a cheap `Arc` clone) through
//! every layer; [`Observability`] selects whether it records. All state is
//! atomics — an `ObsHandle` never participates in the engine's lock
//! hierarchy, so instrumentation can sit anywhere without widening a
//! lock's scope or violating rank order.

pub mod clock;
mod counters;
mod event;
mod gauge;
mod hist;
mod probe;
pub mod prom;
mod workload;

pub use event::{
    current_tid, fault, fault_name, recovery_phase, recovery_phase_name, slow_op, slow_op_name,
    stall_reason, stall_reason_name, to_chrome_trace, to_chrome_trace_with_dropped, to_jsonl,
    to_jsonl_with_dropped, Event, EventKind, EventRing,
};
pub use gauge::{estimated_read_amp, merge_level_gauges, LevelGauge};
pub use hist::{HistSnapshot, Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use probe::ReadProbe;
pub use prom::PromText;
pub use workload::{key_hash, HotKey, OpKind, WorkloadSampler, WorkloadSnapshot, HOT_KEY_SLOTS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The latency surfaces the engine records, one histogram each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// `Db::get` end-to-end latency.
    Get = 0,
    /// `Db::put` (and batch-write) end-to-end latency.
    Put = 1,
    /// `Db::delete`/`single_delete`/`delete_range` latency.
    Delete = 2,
    /// `Db::scan` iterator-construction latency.
    Scan = 3,
    /// Backend read-side calls (`read`, `len`, `get_meta`, `list_files`).
    BackendRead = 4,
    /// Backend write-side calls (`append`, `write_blob`, `put_meta`, ...).
    BackendAppend = 5,
    /// Backend `sync` calls.
    BackendSync = 6,
    /// Memtable flush duration.
    Flush = 7,
    /// Compaction execution duration.
    Compaction = 8,
    /// Compaction planning duration.
    CompactionPlan = 9,
    /// Value-log append duration.
    VlogAppend = 10,
    /// Value-log garbage-collection pass duration.
    VlogGc = 11,
    /// Operations per group commit (a count histogram, not a latency:
    /// quantiles read as group-size p50/p99).
    GroupSize = 12,
    /// Time a write spent queued in the commit pipeline, from enqueue to
    /// acknowledgement (leader hand-off + WAL wait).
    GroupWait = 13,
    /// Leader-side group flush duration: one WAL append, at most one sync,
    /// and every memtable apply for the whole group.
    GroupCommit = 14,
    /// Time writers spent stalled with no deeper bottleneck than the
    /// flush pipeline itself (see [`stall_reason::MEMTABLE_FULL`]).
    StallMemtableFull = 15,
    /// Time writers spent stalled behind a fat level 0
    /// (see [`stall_reason::L0_FILES`]).
    StallL0Files = 16,
    /// Time writers spent stalled behind pending compaction debt
    /// (see [`stall_reason::COMPACTION_DEBT`]).
    StallCompactionDebt = 17,
}

/// Number of [`HistKind`] surfaces.
pub const NUM_HISTS: usize = 18;

impl HistKind {
    /// Every kind, in index order.
    pub const ALL: [HistKind; NUM_HISTS] = [
        HistKind::Get,
        HistKind::Put,
        HistKind::Delete,
        HistKind::Scan,
        HistKind::BackendRead,
        HistKind::BackendAppend,
        HistKind::BackendSync,
        HistKind::Flush,
        HistKind::Compaction,
        HistKind::CompactionPlan,
        HistKind::VlogAppend,
        HistKind::VlogGc,
        HistKind::GroupSize,
        HistKind::GroupWait,
        HistKind::GroupCommit,
        HistKind::StallMemtableFull,
        HistKind::StallL0Files,
        HistKind::StallCompactionDebt,
    ];

    /// Stable snake_case name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::Get => "get",
            HistKind::Put => "put",
            HistKind::Delete => "delete",
            HistKind::Scan => "scan",
            HistKind::BackendRead => "backend_read",
            HistKind::BackendAppend => "backend_append",
            HistKind::BackendSync => "backend_sync",
            HistKind::Flush => "flush",
            HistKind::Compaction => "compaction",
            HistKind::CompactionPlan => "compaction_plan",
            HistKind::VlogAppend => "vlog_append",
            HistKind::VlogGc => "vlog_gc",
            HistKind::GroupSize => "group_size",
            HistKind::GroupWait => "group_wait",
            HistKind::GroupCommit => "group_commit",
            HistKind::StallMemtableFull => "stall_memtable_full",
            HistKind::StallL0Files => "stall_l0_files",
            HistKind::StallCompactionDebt => "stall_compaction_debt",
        }
    }

    /// The stalled-time histogram for a [`stall_reason`] code.
    pub fn for_stall_reason(code: u64) -> HistKind {
        match code {
            stall_reason::L0_FILES => HistKind::StallL0Files,
            stall_reason::COMPACTION_DEBT => HistKind::StallCompactionDebt,
            _ => HistKind::StallMemtableFull,
        }
    }

    /// Whether [`ObsHandle::timer`] samples this surface 1-in-[`FG_SAMPLE`]
    /// instead of timing every call. The four foreground operations are
    /// sub-microsecond on the fastest memtables, where two clock reads per
    /// op would dominate the op itself; everything else (I/O, flush,
    /// compaction, GC) runs at microsecond-to-millisecond scale and is
    /// timed exhaustively.
    pub fn sampled(self) -> bool {
        matches!(
            self,
            HistKind::Get | HistKind::Put | HistKind::Delete | HistKind::Scan
        )
    }
}

/// Sampling period for the foreground-operation histograms: one in this
/// many get/put/delete/scan calls is timed, recorded with this weight so
/// bucket counts still estimate true operation counts (see
/// [`Histogram::record_weighted`]). The commit pipeline's per-commit
/// bookkeeping (group size/wait/commit) samples at the same rate via
/// [`ObsHandle::fg_sample_weight`] — an uncontended commit is the same
/// sub-microsecond scale as the put it carries. Chosen so the recording
/// tax on a ~400 ns vector-memtable put stays a few percent even where
/// reading the clock costs tens of nanoseconds (virtualized TSC).
pub const FG_SAMPLE: u64 = 16;

thread_local! {
    /// Per-thread rotation for foreground sampling: deterministic within a
    /// thread, no shared cache line.
    static FG_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Open spans on this thread, innermost last. `emit` reads the top to
    /// attach instants to their enclosing span; begin/end push and pop.
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Process-wide span id allocator (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// An open span's id, returned by [`ObsHandle::span_begin`] and consumed
/// by [`ObsHandle::span_end`]. Id 0 means "not recording" (disabled
/// handle) and makes the end call a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id (0 = none).
    pub fn raw(self) -> u64 {
        self.0
    }
}

fn fg_sample_due() -> bool {
    FG_TICK.with(|c| {
        let t = c.get().wrapping_add(1);
        c.set(t);
        t % FG_SAMPLE == 0
    })
}

/// Whether (and how) a `Db` records observability data.
#[derive(Clone, Debug, Default)]
pub enum Observability {
    /// Record histograms and events into a fresh handle (the default).
    #[default]
    On,
    /// Record nothing; every instrumentation call is a branch on a bool.
    Off,
    /// Record into a caller-provided handle (lets tests and harnesses
    /// share one trace across the engine and a `FaultBackend`).
    Shared(ObsHandle),
}

impl Observability {
    /// Resolves the configuration to a concrete handle.
    pub fn into_handle(self) -> ObsHandle {
        match self {
            Observability::On => ObsHandle::recording(),
            Observability::Off => ObsHandle::disabled(),
            Observability::Shared(h) => h,
        }
    }
}

/// Default event-ring capacity for [`Observability::On`].
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

struct Inner {
    enabled: bool,
    hists: [Histogram; NUM_HISTS],
    ring: EventRing,
    workload: WorkloadSampler,
}

/// The shared recording handle: clone freely (one `Arc` bump), record
/// from any thread. All operations are no-ops when built disabled.
#[derive(Clone)]
pub struct ObsHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("enabled", &self.inner.enabled)
            .field("events", &self.inner.ring.pushed())
            .finish()
    }
}

impl ObsHandle {
    /// A recording handle with the default event capacity. Warms the
    /// process clock so the first timed operation doesn't pay calibration.
    pub fn recording() -> ObsHandle {
        ObsHandle::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recording handle retaining the most recent `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> ObsHandle {
        clock::warm_up();
        ObsHandle {
            inner: Arc::new(Inner {
                enabled: true,
                hists: std::array::from_fn(|_| Histogram::new()),
                ring: EventRing::with_capacity(capacity),
                workload: WorkloadSampler::new(),
            }),
        }
    }

    /// A handle that records nothing.
    pub fn disabled() -> ObsHandle {
        ObsHandle {
            inner: Arc::new(Inner {
                enabled: false,
                hists: std::array::from_fn(|_| Histogram::new()),
                ring: EventRing::with_capacity(8),
                workload: WorkloadSampler::new(),
            }),
        }
    }

    /// Whether this handle records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Nanoseconds since the process clock origin (0 when disabled, so
    /// disabled handles never touch the clock).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        if self.inner.enabled {
            clock::now_nanos()
        } else {
            0
        }
    }

    /// Records a latency sample (nanoseconds) into `kind`'s histogram.
    #[inline]
    pub fn record(&self, kind: HistKind, nanos: u64) {
        if self.inner.enabled {
            self.inner.hists[kind as usize].record(nanos);
        }
    }

    /// One 1-in-[`FG_SAMPLE`] decision for a whole piece of per-commit
    /// bookkeeping: `Some(weight)` when this call should record (pass the
    /// weight to [`ObsHandle::record_weighted`]), `None` otherwise — and
    /// always `None` when disabled. Letting the caller branch once means
    /// unsampled commits skip not just the histogram writes but the
    /// timestamp reads that would feed them.
    #[inline]
    pub fn fg_sample_weight(&self) -> Option<u64> {
        if self.inner.enabled && fg_sample_due() {
            Some(FG_SAMPLE)
        } else {
            None
        }
    }

    /// Records one observed sample standing in for `weight` calls (pairs
    /// with [`ObsHandle::fg_sample_weight`]); quantiles are unchanged and
    /// `count` still estimates the true call count.
    #[inline]
    pub fn record_weighted(&self, kind: HistKind, value: u64, weight: u64) {
        if self.inner.enabled {
            self.inner.hists[kind as usize].record_weighted(value, weight);
        }
    }

    /// Starts an RAII timer that records into `kind` on drop. When the
    /// handle is disabled this is two branches and no clock read; on
    /// [sampled](HistKind::sampled) foreground surfaces only 1 in
    /// [`FG_SAMPLE`] calls reads the clock, recorded with matching weight.
    #[inline]
    pub fn timer(&self, kind: HistKind) -> OpTimer<'_> {
        let active = self.inner.enabled && (!kind.sampled() || fg_sample_due());
        OpTimer {
            obs: if active { Some(self) } else { None },
            kind,
            start: if active { clock::now_nanos() } else { 0 },
        }
    }

    /// Emits a structured instant event with the current timestamp and
    /// thread id, linked to the thread's enclosing span (if any).
    #[inline]
    pub fn emit(&self, kind: EventKind, level: Option<u32>, a: u64, b: u64) {
        if self.inner.enabled {
            let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
            self.inner.ring.push_span_at(
                clock::now_nanos(),
                current_tid(),
                kind,
                level,
                a,
                b,
                0,
                parent,
            );
        }
    }

    /// Opens a causal span: emits the `*Start` record carrying a fresh
    /// span id plus the enclosing span as parent, and pushes the id onto
    /// the thread's span stack so nested begins (and [`ObsHandle::emit`]
    /// instants) link to it. Spans must be closed by the same thread via
    /// [`ObsHandle::span_end`], innermost first — the begin/end pairs
    /// then render as properly nested Chrome duration events.
    pub fn span_begin(&self, kind: EventKind, level: Option<u32>, a: u64, b: u64) -> SpanId {
        if !self.inner.enabled {
            return SpanId(0);
        }
        self.span_begin_at(clock::now_nanos(), kind, level, a, b)
    }

    /// [`ObsHandle::span_begin`] with a caller-supplied timestamp, for
    /// hot paths that already read the clock for an adjacent measurement
    /// — the sampled group-commit leader opens its span with the same
    /// reading that starts its latency sample, so the span costs no
    /// extra clock read.
    pub fn span_begin_at(
        &self,
        t_nanos: u64,
        kind: EventKind,
        level: Option<u32>,
        a: u64,
        b: u64,
    ) -> SpanId {
        if !self.inner.enabled {
            return SpanId(0);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        });
        self.inner
            .ring
            .push_span_at(t_nanos, current_tid(), kind, level, a, b, id, parent);
        SpanId(id)
    }

    /// Closes a span opened by [`ObsHandle::span_begin`]: pops it (and —
    /// defensively — anything opened above it that leaked) off the
    /// thread's stack and emits the `*End` record with the same span id.
    pub fn span_end(&self, span: SpanId, kind: EventKind, level: Option<u32>, a: u64, b: u64) {
        if !self.inner.enabled || span.0 == 0 {
            return;
        }
        self.span_end_at(clock::now_nanos(), span, kind, level, a, b);
    }

    /// [`ObsHandle::span_end`] with a caller-supplied timestamp — the
    /// closing half of [`ObsHandle::span_begin_at`], for callers whose
    /// adjacent latency sample already read the clock.
    pub fn span_end_at(
        &self,
        t_nanos: u64,
        span: SpanId,
        kind: EventKind,
        level: Option<u32>,
        a: u64,
        b: u64,
    ) {
        if !self.inner.enabled || span.0 == 0 {
            return;
        }
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&x| x == span.0) {
                stack.truncate(pos);
            }
            stack.last().copied().unwrap_or(0)
        });
        self.inner
            .ring
            .push_span_at(t_nanos, current_tid(), kind, level, a, b, span.0, parent);
    }

    /// Emits a slow-op receipt: the sampled foreground op took
    /// `dur_nanos` and spent its read path as `probe` says (`op` is a
    /// [`slow_op`] code).
    pub fn emit_slow_op(&self, op: u64, dur_nanos: u64, probe: &ReadProbe) {
        self.emit(EventKind::SlowOp, None, dur_nanos, probe.pack(op));
    }

    /// Records one sampled foreground op into the workload sampler
    /// (pairs with [`ObsHandle::fg_sample_weight`]; `key_hash` of 0
    /// skips the hot-key sketch).
    #[inline]
    pub fn workload_record(&self, op: OpKind, key_hash: u64, weight: u64) {
        if self.inner.enabled {
            self.inner.workload.record(op, key_hash, weight);
        }
    }

    /// A point-in-time reading of the op mix and heavy hitters.
    pub fn workload(&self) -> WorkloadSnapshot {
        self.inner.workload.snapshot()
    }

    /// Snapshot of one latency surface.
    pub fn histogram(&self, kind: HistKind) -> HistSnapshot {
        self.inner.hists[kind as usize].snapshot()
    }

    /// Snapshot of every latency surface (for `MetricsSnapshot`).
    pub fn latency(&self) -> LatencySnapshot {
        LatencySnapshot {
            hists: std::array::from_fn(|i| self.inner.hists[i].snapshot()),
        }
    }

    /// The resident events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.ring.events()
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped_events(&self) -> u64 {
        self.inner.ring.dropped()
    }

    /// The resident events as JSONL, led by a
    /// `{"meta":"dropped_events",...}` record when the ring wrapped.
    pub fn events_jsonl(&self) -> String {
        to_jsonl_with_dropped(&self.events(), self.dropped_events())
    }

    /// The resident events as a Chrome `trace_event` JSON document, led
    /// by a `dropped_events` metadata instant when the ring wrapped.
    pub fn chrome_trace(&self) -> String {
        to_chrome_trace_with_dropped(&self.events(), self.dropped_events())
    }

    /// Renders this handle's state — latency summaries, the workload
    /// mix, hot keys, and the dropped-event count — as Prometheus text
    /// exposition.
    pub fn prometheus_text(&self) -> String {
        let mut prom = PromText::new();
        self.prometheus_render(&mut prom, &[]);
        prom.finish()
    }

    /// [`ObsHandle::prometheus_text`] into an existing builder, with
    /// `labels` (e.g. `shard="2"`) prepended to every sample.
    pub fn prometheus_render(&self, prom: &mut PromText, labels: &[(&str, &str)]) {
        prom::render_latency(prom, &self.latency(), labels);
        self.prometheus_render_aux(prom, labels);
    }

    /// The non-latency families only (dropped events, workload mix, hot
    /// keys) — for callers that already rendered latency from a
    /// [`LatencySnapshot`] of their own and must not emit duplicate rows.
    pub fn prometheus_render_aux(&self, prom: &mut PromText, labels: &[(&str, &str)]) {
        prom.family(
            "lsm_events_dropped_total",
            "counter",
            "Trace events overwritten because the event ring wrapped.",
        );
        prom.sample(
            "lsm_events_dropped_total",
            labels,
            self.dropped_events() as f64,
        );
        let w = self.workload();
        prom.family(
            "lsm_workload_ops_total",
            "counter",
            "Estimated foreground op mix (sampled 1-in-16, weight-corrected).",
        );
        for (op, v) in [
            ("get", w.gets),
            ("put", w.puts),
            ("delete", w.deletes),
            ("scan", w.scans),
        ] {
            let mut l: Vec<(&str, &str)> = labels.to_vec();
            l.push(("op", op));
            prom.sample("lsm_workload_ops_total", &l, v as f64);
        }
        prom.family(
            "lsm_workload_hot_key",
            "gauge",
            "SpaceSaving heavy-hitter estimates, keyed by FNV-1a key hash.",
        );
        for (rank, hk) in w.hot_keys.iter().enumerate() {
            let rank_s = rank.to_string();
            let hash_s = format!("{:016x}", hk.hash);
            let mut l: Vec<(&str, &str)> = labels.to_vec();
            l.push(("rank", &rank_s));
            l.push(("hash", &hash_s));
            prom.sample("lsm_workload_hot_key", &l, hk.count as f64);
        }
    }
}

/// RAII latency timer from [`ObsHandle::timer`]: records elapsed
/// nanoseconds into its histogram when dropped.
pub struct OpTimer<'a> {
    obs: Option<&'a ObsHandle>,
    kind: HistKind,
    start: u64,
}

impl Drop for OpTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(obs) = self.obs {
            let elapsed = clock::now_nanos().saturating_sub(self.start);
            let weight = if self.kind.sampled() { FG_SAMPLE } else { 1 };
            obs.inner.hists[self.kind as usize].record_weighted(elapsed, weight);
        }
    }
}

/// Snapshots of all latency surfaces, carried by `MetricsSnapshot`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencySnapshot {
    hists: [HistSnapshot; NUM_HISTS],
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot {
            hists: std::array::from_fn(|_| HistSnapshot::default()),
        }
    }
}

impl LatencySnapshot {
    /// The snapshot for one surface.
    pub fn get(&self, kind: HistKind) -> &HistSnapshot {
        &self.hists[kind as usize]
    }

    /// Bucket-wise difference `self - earlier` across every surface.
    pub fn delta(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            hists: std::array::from_fn(|i| self.hists[i].delta(&earlier.hists[i])),
        }
    }

    /// Bucket-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencySnapshot) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = ObsHandle::disabled();
        obs.record(HistKind::Get, 100);
        {
            let _t = obs.timer(HistKind::Put);
        }
        obs.emit(EventKind::FlushStart, Some(0), 1, 2);
        assert!(!obs.enabled());
        assert_eq!(obs.histogram(HistKind::Get).count(), 0);
        assert_eq!(obs.histogram(HistKind::Put).count(), 0);
        assert!(obs.events().is_empty());
        assert_eq!(obs.now_nanos(), 0);
    }

    #[test]
    fn timer_records_on_drop() {
        let obs = ObsHandle::recording();
        // Flush is timed exhaustively: one timer, one sample.
        {
            let _t = obs.timer(HistKind::Flush);
            std::hint::black_box(42);
        }
        assert_eq!(obs.histogram(HistKind::Flush).count(), 1);
        assert_eq!(obs.histogram(HistKind::Compaction).count(), 0);
    }

    #[test]
    fn sampled_timer_weights_counts_to_estimate_totals() {
        let obs = ObsHandle::recording();
        // Get is a sampled foreground surface: over a whole number of
        // sampling periods, the weighted count equals the call count.
        let calls = 10 * FG_SAMPLE;
        for _ in 0..calls {
            let _t = obs.timer(HistKind::Get);
            std::hint::black_box(42);
        }
        // This thread's rotation phase is unknown (other tests tick it),
        // so the estimate may be off by up to one period's weight.
        let count = obs.histogram(HistKind::Get).count();
        assert!(
            count.abs_diff(calls) <= FG_SAMPLE,
            "weighted count {count} should estimate {calls} calls"
        );
    }

    #[test]
    fn shared_handles_accumulate_into_one_surface() {
        let obs = ObsHandle::recording();
        let clone = obs.clone();
        obs.record(HistKind::Flush, 500);
        clone.record(HistKind::Flush, 700);
        clone.emit(EventKind::FlushEnd, Some(0), 700, 0);
        assert_eq!(obs.histogram(HistKind::Flush).count(), 2);
        assert_eq!(obs.events().len(), 1);
    }

    #[test]
    fn latency_snapshot_delta_is_per_surface() {
        let obs = ObsHandle::recording();
        obs.record(HistKind::Get, 100);
        let a = obs.latency();
        obs.record(HistKind::Get, 200);
        obs.record(HistKind::Put, 300);
        let d = obs.latency().delta(&a);
        assert_eq!(d.get(HistKind::Get).count(), 1);
        assert_eq!(d.get(HistKind::Put).count(), 1);
        assert_eq!(d.get(HistKind::Scan).count(), 0);
    }

    #[test]
    fn observability_resolution() {
        assert!(Observability::On.into_handle().enabled());
        assert!(!Observability::Off.into_handle().enabled());
        let h = ObsHandle::recording();
        h.record(HistKind::Get, 1);
        let shared = Observability::Shared(h.clone()).into_handle();
        assert_eq!(shared.histogram(HistKind::Get).count(), 1);
    }

    #[test]
    fn spans_nest_and_instants_attach_to_the_open_span() {
        let obs = ObsHandle::recording();
        let outer = obs.span_begin(EventKind::CompactionStart, Some(0), 0, 1);
        let inner = obs.span_begin(EventKind::FileReadStart, None, 42, 4096);
        obs.emit(EventKind::FaultInjected, None, fault::READ_TRANSIENT, 3);
        obs.span_end(inner, EventKind::FileReadEnd, None, 42, 4096);
        obs.span_end(outer, EventKind::CompactionEnd, Some(0), 100, 1);
        obs.emit(EventKind::RecoveryPhase, None, recovery_phase::MANIFEST, 0);

        let events = obs.events();
        assert_eq!(events.len(), 6);
        let (o, i) = (outer.raw(), inner.raw());
        assert!(o != 0 && i != 0 && o != i);
        assert_eq!((events[0].span, events[0].parent), (o, 0));
        assert_eq!((events[1].span, events[1].parent), (i, o));
        assert_eq!((events[2].span, events[2].parent), (0, i), "instant links");
        assert_eq!((events[3].span, events[3].parent), (i, o));
        assert_eq!((events[4].span, events[4].parent), (o, 0));
        assert_eq!(
            (events[5].span, events[5].parent),
            (0, 0),
            "stack empty again"
        );
    }

    #[test]
    fn disabled_handle_spans_are_no_ops() {
        let obs = ObsHandle::disabled();
        let s = obs.span_begin(EventKind::FlushStart, Some(0), 1, 2);
        assert_eq!(s.raw(), 0);
        obs.span_end(s, EventKind::FlushEnd, Some(0), 1, 2);
        obs.workload_record(OpKind::Get, key_hash(b"k"), 16);
        assert!(obs.events().is_empty());
        assert_eq!(obs.workload().total(), 0);
    }

    #[test]
    fn prometheus_text_carries_latency_workload_and_drops() {
        let obs = ObsHandle::recording();
        obs.record(HistKind::Flush, 1_000_000);
        obs.workload_record(OpKind::Put, key_hash(b"hot"), 16);
        let text = obs.prometheus_text();
        assert!(text.contains("# TYPE lsm_latency_nanos summary"));
        assert!(text.contains("lsm_latency_nanos_count{surface=\"flush\"} 1"));
        assert!(text.contains("lsm_workload_ops_total{op=\"put\"} 16"));
        assert!(text.contains("lsm_events_dropped_total 0"));
        assert!(text.contains("lsm_workload_hot_key{rank=\"0\",hash="));
    }

    #[test]
    fn hist_kind_names_are_unique() {
        let mut names: Vec<_> = HistKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_HISTS);
    }
}
