//! The benchmark's clock and its span recorder.
//!
//! Spans are recorded from the benchmark's own files only: a root span
//! around each client op, a child span for every `TimedBackend` call made
//! on that thread while the op runs, and the engine's flush / compaction /
//! stall spans folded in from its event ring when the run ends. Nothing
//! is written until then: spans sit in per-thread buffers, preallocated on
//! the client threads.
//!
//! Whether a thread records is a thread-local flag, not a shared atomic
//! (see `timed.rs` for why the benchmark holds no atomics). The threads
//! the harness runs switch it themselves; the threads the engine spawns
//! cannot be told, so they always record — their backend calls are a few
//! hundred a second — and the harvest keeps what falls in the traced phase.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use lsm_core::{Event, EventKind};

use crate::timed::Method;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: one clock read.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers. Client ops first, then backend calls, then the
/// engine's own background work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Get,
    Write,
    Scan,
    Backend(Method),
    Engine(&'static str),
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Get => "get",
            SpanKind::Write => "write",
            SpanKind::Scan => "scan",
            SpanKind::Backend(m) => m.name(),
            SpanKind::Engine(name) => name,
        }
    }
}

/// The id of client `client`'s `index`-th op. It carries the op's class
/// (`kind` is `Get`, `Write` or `Scan`) so that a child span's `parent`
/// alone says what kind of op caused it.
pub fn op_id(kind: SpanKind, client: usize, index: u64) -> u64 {
    let class = match kind {
        SpanKind::Get => 1,
        SpanKind::Write => 2,
        _ => 3,
    };
    (class << 56) | ((client as u64 + 1) << 40) | index
}

/// Index into [`self_times`]' result of the op class an [`op_id`] carries.
fn op_class(id: u64) -> Option<usize> {
    ((id >> 56) as usize).checked_sub(1).filter(|&c| c < 3)
}

/// One recorded interval. `id` is shared by everything one op caused:
/// a root span carries it as `id`, its children as `parent`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
    pub tid: u32,
}

static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    tid: u32,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    static RECORDING: Cell<bool> = const { Cell::new(true) };
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// Turns span recording on or off for the calling thread, making room for
/// `room` more spans when turning it on. Every thread the harness runs
/// calls this; a thread that never does (one the engine spawned) records.
pub fn record_on_this_thread(on: bool, room: usize) {
    RECORDING.with(|r| r.set(on));
    if on {
        with_local(|local| {
            local
                .buf
                .lock()
                .expect("no thread panics holding its span buffer")
                .reserve(room)
        });
    }
}

fn recording() -> bool {
    RECORDING.with(|r| r.get())
}

fn with_local<T>(f: impl FnOnce(&Local) -> T) -> T {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        f(slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            let mut buffers = BUFFERS
                .lock()
                .expect("no thread panics holding the buffer list");
            buffers.push(Arc::clone(&buf));
            Local {
                buf,
                tid: buffers.len() as u32,
            }
        }))
    })
}

fn push(kind: SpanKind, id: u64, parent: u64, start: u64, end: u64) {
    with_local(|local| {
        // Uncontended: only this thread locks its buffer until the
        // phase is over.
        local
            .buf
            .lock()
            .expect("no thread panics holding its span buffer")
            .push(Span {
                kind,
                id,
                parent,
                start,
                end,
                tid: local.tid,
            });
    });
}

/// Marks the start of a client op: backend calls on this thread become
/// children of `id` until [`end_op`].
pub fn begin_op(id: u64) {
    if recording() {
        PARENT.with(|p| p.set(id));
    }
}

/// Records the root span of the op begun with [`begin_op`].
pub fn end_op(kind: SpanKind, id: u64, start: u64, end: u64) {
    if recording() {
        PARENT.with(|p| p.set(0));
        push(kind, id, 0, start, end);
    }
}

/// Called by `TimedBackend` after every call.
pub fn backend_call(method: Method, start: u64, end: u64) {
    if recording() {
        push(
            SpanKind::Backend(method),
            0,
            PARENT.with(|p| p.get()),
            start,
            end,
        );
    }
}

/// Removes every span recorded so far and returns those that began at or
/// after `from` (the start of the traced phase), in no particular order.
pub fn take_since(from: u64) -> Vec<Span> {
    let buffers: Vec<Arc<Mutex<Vec<Span>>>> = BUFFERS
        .lock()
        .expect("no thread panics holding the buffer list")
        .clone();
    let mut all = Vec::new();
    for buf in buffers {
        let mut spans = buf
            .lock()
            .expect("no thread panics holding its span buffer");
        all.extend(spans.drain(..).filter(|s| s.start >= from));
    }
    all
}

/// Maps the engine's clock onto the benchmark's. The engine timestamps
/// its events with a calibrated TSC whose rate differs slightly from
/// `Instant`'s, so both clocks are read together at the start and the end
/// of the traced phase and engine times are interpolated between.
#[derive(Clone, Copy, Debug)]
pub struct ClockMap {
    pub engine: (u64, u64),
    pub ours: (u64, u64),
}

impl ClockMap {
    fn to_ours(self, t: u64) -> u64 {
        let (e0, e1) = self.engine;
        let (o0, o1) = self.ours;
        let rate = (o1 - o0) as f64 / (e1 - e0).max(1) as f64;
        (o0 as f64 + (t as f64 - e0 as f64) * rate).max(0.0) as u64
    }
}

/// Pairs the engine's `*Start` / `*End` events that fall inside the
/// traced phase into spans on lanes of their own (`1000 + engine tid`).
pub fn engine_spans(events: &[Event], map: ClockMap) -> Vec<Span> {
    let name_of = |kind: EventKind| -> Option<(&'static str, bool)> {
        Some(match kind {
            EventKind::FlushStart => ("flush", true),
            EventKind::FlushEnd => ("flush", false),
            EventKind::CompactionStart => ("compaction", true),
            EventKind::CompactionEnd => ("compaction", false),
            EventKind::StallBegin => ("stall", true),
            EventKind::StallEnd => ("stall", false),
            EventKind::WalRotateStart => ("wal_rotate", true),
            EventKind::WalRotateEnd => ("wal_rotate", false),
            EventKind::FileReadStart => ("file_read", true),
            EventKind::FileReadEnd => ("file_read", false),
            EventKind::FileWriteStart => ("file_write", true),
            EventKind::FileWriteEnd => ("file_write", false),
            EventKind::GroupCommitStart => ("group_commit", true),
            EventKind::GroupCommitEnd => ("group_commit", false),
            _ => return None,
        })
    };
    let mut open: std::collections::BTreeMap<u64, &Event> = std::collections::BTreeMap::new();
    let mut spans = Vec::new();
    for ev in events {
        if ev.span == 0 || ev.t_nanos < map.engine.0 {
            continue;
        }
        let Some((name, is_start)) = name_of(ev.kind) else {
            continue;
        };
        if is_start {
            open.insert(ev.span, ev);
        } else if let Some(start) = open.remove(&ev.span) {
            spans.push(Span {
                kind: SpanKind::Engine(name),
                id: ev.span,
                parent: ev.parent,
                start: map.to_ours(start.t_nanos),
                end: map.to_ours(ev.t_nanos),
                tid: 1000 + ev.tid as u32,
            });
        }
    }
    spans
}

/// At most this many spans are written to a trace file; the per-layer
/// numbers are computed from all of them.
pub const MAX_WRITTEN_SPANS: usize = 200_000;

/// Renders spans as Chrome `trace_event` JSON (complete events, µs).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len().min(MAX_WRITTEN_SPANS) * 128 + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.kind.name(),
            s.tid,
            s.start as f64 / 1000.0,
            (s.end - s.start) as f64 / 1000.0,
            s.id,
            s.parent
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Self time of client ops, summed per kind over a traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Root spans seen.
    pub ops: u64,
    /// Sum of root durations, ns.
    pub total_ns: u64,
    /// Sum of their backend children's durations, ns.
    pub child_ns: u64,
    /// Of which `read` calls, ns.
    pub read_ns: u64,
}

impl SelfTime {
    /// Mean self time per op in µs: the span minus what its children cover.
    pub fn self_us(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.total_ns.saturating_sub(self.child_ns) as f64 / self.ops as f64 / 1000.0
    }
}

/// Self time for gets, writes and scans, in that order. Backend calls on
/// one thread never overlap, so a root's children cover exactly the sum of
/// their durations.
pub fn self_times(spans: &[Span]) -> [SelfTime; 3] {
    let mut out = [SelfTime::default(); 3];
    for s in spans {
        let nanos = s.end - s.start;
        match s.kind {
            SpanKind::Get | SpanKind::Write | SpanKind::Scan => {
                if let Some(i) = op_class(s.id) {
                    out[i].ops += 1;
                    out[i].total_ns += nanos;
                }
            }
            SpanKind::Backend(method) => {
                if let Some(i) = op_class(s.parent) {
                    out[i].child_ns += nanos;
                    if method == Method::Read {
                        out[i].read_ns += nanos;
                    }
                }
            }
            SpanKind::Engine(_) => {}
        }
    }
    out
}
