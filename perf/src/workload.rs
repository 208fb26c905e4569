//! Set-up, the timed phase and the checks around them.
//!
//! Every workload starts from the same loaded tree: `keys` ids inserted in
//! a seeded random order with inline maintenance (so the tree is the same
//! on every run of a seed), flushed and compacted to rest, then reopened
//! with the workload's cache size and background threads and read once
//! from end to end. The clients are a closed loop: each waits for its
//! reply before it sends the next op.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use lsm_core::{
    CacheConfig, Db, HistKind, MetricsSnapshot, ObsHandle, Observability, Options, Value,
};
use lsm_storage::{Backend, FsBackend};
use lsm_types::UserKey;

use crate::files;
use crate::gen::{
    load_order, parse_key, value_matches, write_key, write_value, Op, OpGen, OpKind, Spec, KEY_LEN,
    SCAN_KEYS, UPDATE_VALUE_LEN, VALUE_LEN,
};
use crate::stats::{median, peak_rss_mb, process_cpu_seconds, quantile, Metrics};
use crate::timed::{mark_client_thread, Method, Side, TimedBackend, TimedSnapshot};
use crate::trace::{self, now_ns, ClockMap, SpanKind};

/// Harness failures (never a wrong answer from the engine: those are
/// counted, not raised).
pub type HarnessResult<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Ids loaded by default: about 25 MB on disk, five sorted runs.
pub const DEFAULT_KEYS: u64 = 200_000;
/// Set-ups per untraced run; `setup_s` is their median.
pub const DEFAULT_SETUPS: usize = 3;

/// One invocation of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Ids loaded; even, so that parity writers stay in range.
    pub keys: u64,
    /// Where temp dirs and trace files go (inside the checkout).
    pub out_dir: PathBuf,
    /// Stop each client after this many ops instead of at the deadline:
    /// makes counters a pure function of the seed (tests).
    pub ops_per_client: Option<u64>,
    /// Overrides the workload's client count (tests).
    pub clients: Option<usize>,
    pub setups: usize,
    /// Run the isolated layer probes in a traced run.
    pub probes: bool,
}

impl Config {
    pub fn new(spec: &'static Spec, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            spec,
            seed,
            seconds,
            trace,
            keys: DEFAULT_KEYS,
            out_dir: PathBuf::from("perf/out"),
            ops_per_client: None,
            clients: None,
            setups: DEFAULT_SETUPS,
            probes: true,
        }
    }

    fn clients(&self) -> usize {
        self.clients.unwrap_or(self.spec.clients)
    }

    fn cache_bytes(&self) -> usize {
        let data = self.keys as f64 * (KEY_LEN + VALUE_LEN) as f64;
        (data * self.spec.cache_share) as usize
    }
}

/// What the benchmark reports for one invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Metrics,
    /// Sorted-run count and per-level entry counts after set-up.
    pub tree_shape: String,
}

/// What an id's present key must read as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Expect {
    Deleted = 0,
    /// Live with the load's value.
    Loaded = 1,
    /// Live with the value a timed-phase put wrote.
    Updated = 2,
}

impl Expect {
    fn from_u8(v: u8) -> Expect {
        match v {
            0 => Expect::Deleted,
            1 => Expect::Loaded,
            _ => Expect::Updated,
        }
    }

    fn value_len(self) -> usize {
        if self == Expect::Updated {
            UPDATE_VALUE_LEN
        } else {
            VALUE_LEN
        }
    }
}

/// Counts of checked results. A wrong answer is counted here and the first
/// few are remembered for stderr; nothing panics on one.
#[derive(Default, Debug)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Gets whose reply contradicts what the client knows about the key
    /// (missing, stale or resurrected) while a scan of exactly that key
    /// agrees with the client. The engine at the benchmark's first commit
    /// does this: `Table::get` misses the first key of every index
    /// partition after a table's first, so the get falls through to an
    /// older run or to nothing. Counted under its own name, not in
    /// `failed`, so that the baseline has no failing op and a real loss
    /// (the scan is wrong too) stands out; expected to reach 0 when the
    /// reader is fixed.
    pub get_scan_disagree: u64,
    disagreements: Vec<String>,
    offenders: Vec<String>,
}

const MAX_OFFENDERS: usize = 10;

impl Check {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.offenders.len() < MAX_OFFENDERS {
            self.offenders.push(what());
        }
    }

    fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.get_scan_disagree += other.get_scan_disagree;
        for (mine, theirs) in [
            (&mut self.offenders, other.offenders),
            (&mut self.disagreements, other.disagreements),
        ] {
            let room = MAX_OFFENDERS.saturating_sub(mine.len());
            mine.extend(theirs.into_iter().take(room));
        }
    }

    /// Prints the remembered offenders to stderr.
    pub fn report(&self, workload: &str) {
        for o in &self.offenders {
            eprintln!("perf: {workload}: failed: {o}");
        }
        for o in &self.disagreements {
            eprintln!("perf: {workload}: get and scan disagree: {o}");
        }
    }

    /// A get's reply contradicts `expect`: a failure, unless a scan of the
    /// same key sides with `expect`.
    fn contradicted(&mut self, db: &Db, id: u64, expect: Expect, what: impl FnOnce() -> String) {
        if scan_agrees(db, id, expect) {
            self.get_scan_disagree += 1;
            if self.disagreements.len() < MAX_OFFENDERS {
                self.disagreements.push(what());
            }
        } else {
            self.fail(what);
        }
    }

    /// Checks the reply to a get of id `id`'s present key.
    fn present_get(
        &mut self,
        db: &Db,
        id: u64,
        expect: Option<Expect>,
        reply: lsm_core::Result<Option<Value>>,
    ) {
        self.attempted += 1;
        match (reply, expect) {
            (Err(e), _) => self.fail(|| format!("get id {id}: error {e}")),
            (Ok(None), Some(Expect::Deleted) | None) => {}
            // An id another client may have deleted or rewritten: only a
            // value that no one ever wrote is wrong.
            (Ok(Some(v)), None) => {
                if !value_matches(&v, 2 * id, VALUE_LEN)
                    && !value_matches(&v, 2 * id, UPDATE_VALUE_LEN)
                {
                    self.fail(|| format!("get id {id}: wrong value ({} bytes)", v.len()));
                }
            }
            (Ok(Some(_)), Some(Expect::Deleted)) => {
                self.contradicted(db, id, Expect::Deleted, || {
                    format!("get id {id}: deleted key returned a value")
                });
            }
            (Ok(Some(v)), Some(live)) => {
                if !value_matches(&v, 2 * id, live.value_len()) {
                    self.contradicted(db, id, live, || {
                        format!("get id {id}: wrong or stale value ({} bytes)", v.len())
                    });
                }
            }
            (Ok(None), Some(live)) => {
                self.contradicted(db, id, live, || format!("get id {id}: live key is missing"));
            }
        }
    }

    /// Checks the reply to a get of id `id`'s absent key.
    fn absent_get(&mut self, id: u64, reply: lsm_core::Result<Option<Value>>) {
        self.attempted += 1;
        match reply {
            Ok(None) => {}
            Ok(Some(_)) => self.fail(|| format!("get absent id {id}: returned a value")),
            Err(e) => self.fail(|| format!("get absent id {id}: error {e}")),
        }
    }

    /// Checks a scan that started at id `from`'s present key: strictly
    /// ascending, in range, present keys only, every value right, and the
    /// ids this client owns exactly as its state says.
    fn scan(
        &mut self,
        from: u64,
        rows: &[(UserKey, Value)],
        error: Option<lsm_core::Error>,
        state: &[u8],
        parity: Option<u64>,
    ) {
        self.attempted += 1;
        if let Some(e) = error {
            return self.fail(|| format!("scan from id {from}: error {e}"));
        }
        let owns = |id: u64| parity.is_none_or(|p| id % 2 == p);
        let step = if parity.is_some() { 2 } else { 1 };
        // The next owned id the scan has yet to account for.
        let mut cursor = if owns(from) { from } else { from + 1 };
        let mut last: Option<u64> = None;
        for (key, value) in rows {
            let Some(n) = parse_key(key.as_bytes()) else {
                return self.fail(|| format!("scan from id {from}: foreign key {key:?}"));
            };
            let id = n / 2;
            let in_order = last.map_or(id >= from, |l| id > l);
            if n % 2 != 0 || !in_order || id as usize >= state.len() {
                return self.fail(|| format!("scan from id {from}: key {n} out of place"));
            }
            last = Some(id);
            if !owns(id) {
                if !value_matches(value, n, VALUE_LEN) && !value_matches(value, n, UPDATE_VALUE_LEN)
                {
                    return self.fail(|| format!("scan from id {from}: wrong value at id {id}"));
                }
                continue;
            }
            while cursor < id {
                if state[cursor as usize] != Expect::Deleted as u8 {
                    return self.fail(|| format!("scan from id {from}: skipped id {cursor}"));
                }
                cursor += step;
            }
            cursor = id + step;
            let expect = Expect::from_u8(state[id as usize]);
            if expect == Expect::Deleted {
                return self.fail(|| format!("scan from id {from}: deleted id {id}"));
            }
            if !value_matches(value, n, expect.value_len()) {
                return self.fail(|| format!("scan from id {from}: wrong value at id {id}"));
            }
        }
    }
}

/// Whether a scan over exactly id `id`'s present key agrees with `expect`.
fn scan_agrees(db: &Db, id: u64, expect: Expect) -> bool {
    let mut key = [0u8; KEY_LEN];
    let mut end = [0u8; KEY_LEN];
    write_key(&mut key, 2 * id);
    write_key(&mut end, 2 * id + 1);
    let Ok(mut it) = db.scan(&key, Some(&end)) else {
        return false;
    };
    match (it.next(), expect) {
        (None, Expect::Deleted) => true,
        (Some(Ok((k, v))), live) if live != Expect::Deleted => {
            k.as_bytes() == key && value_matches(&v, 2 * id, live.value_len())
        }
        _ => false,
    }
}

/// An open database on a timed real-file backend in its own temp dir.
struct Env {
    dir: PathBuf,
    backend: Arc<TimedBackend>,
    obs: ObsHandle,
    db: Option<Db>,
}

impl Env {
    fn db(&self) -> &Db {
        self.db
            .as_ref()
            .expect("the db is open between set-up and teardown")
    }

    /// Drops the db (joining its background threads) and opens it again
    /// from what is on disk.
    fn reopen(&mut self, cfg: &Config) -> HarnessResult<()> {
        self.db = None;
        self.db = Some(open_db(
            &self.backend,
            &self.obs,
            cfg.cache_bytes(),
            cfg.spec.background_threads,
            true,
        )?);
        Ok(())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.db = None;
        files::remove_dir_all(&self.dir);
    }
}

/// The stated flush policy: WAL appended per commit group and not
/// fsynced; blobs and the manifest are `sync_data`'d by `FsBackend`.
fn open_db(
    backend: &Arc<TimedBackend>,
    obs: &ObsHandle,
    cache_bytes: usize,
    background_threads: usize,
    recover: bool,
) -> lsm_core::Result<Db> {
    Db::builder()
        .backend(Arc::clone(backend) as Arc<dyn Backend>)
        .options(Options {
            wal: true,
            wal_sync: false,
            background_threads,
            ..Options::default()
        })
        .cache_config(CacheConfig {
            capacity_bytes: cache_bytes,
            ..CacheConfig::default()
        })
        .obs(Observability::Shared(obs.clone()))
        .persist_manifest(true)
        .recover(recover)
        .open()
}

/// Loads the tree, reopens it the way the workload runs it and reads every
/// id once (which checks the load and warms the cache). Returns the
/// environment and how long all of that took.
fn set_up(cfg: &Config, check: &mut Check) -> HarnessResult<(Env, f64)> {
    let start = now_ns();
    let dir = cfg
        .out_dir
        .join(format!("tmp-{}-{}", cfg.spec.name, std::process::id()));
    files::remove_dir_all(&dir);
    let backend = Arc::new(TimedBackend::new(Arc::new(FsBackend::open(&dir)?)));
    // 64 Ki events hold a phase's flushes, compactions and stalls many
    // times over; the issue's 1 Mi would add 56 MB to `peak_rss_mb`.
    let obs = ObsHandle::with_event_capacity(1 << 16);
    let mut env = Env {
        dir,
        db: Some(open_db(&backend, &obs, cfg.cache_bytes(), 0, false)?),
        backend,
        obs,
    };
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    for id in load_order(cfg.keys, cfg.seed) {
        write_key(&mut key, 2 * id);
        write_value(&mut value, 2 * id);
        env.db().put(&key, &value)?;
    }
    env.db().flush()?;
    env.db().maintain()?;
    env.reopen(cfg)?;
    verify_all(
        env.db(),
        &vec![Expect::Loaded as u8; cfg.keys as usize],
        check,
    );
    Ok((env, (now_ns() - start) as f64 / 1e9))
}

/// Gets every id's present key and checks it against `state`.
fn verify_all(db: &Db, state: &[u8], check: &mut Check) {
    let mut key = [0u8; KEY_LEN];
    for (id, &s) in state.iter().enumerate() {
        write_key(&mut key, 2 * id as u64);
        let reply = db.get(&key);
        check.present_get(db, id as u64, Some(Expect::from_u8(s)), reply);
    }
}

/// Latency classes: which vector an op's time goes to.
const GET: usize = 0;
const WRITE: usize = 1;
const SCAN: usize = 2;

/// One client: its op stream and what it knows about the ids it writes.
/// Both carry over from the untraced to the traced phase.
struct Client {
    index: usize,
    gen: OpGen,
    /// `Expect` per id. With parity writers a client is the only writer
    /// of its own parity and trusts only those entries.
    state: Vec<u8>,
    parity: Option<u64>,
    ops_done: u64,
}

/// What one client measured in one phase.
#[derive(Default)]
struct ClientPhase {
    /// Per-op latency in ns, by class.
    lat: [Vec<u32>; 3],
    gets: u64,
    scan_rows: u64,
    /// Key + value bytes of accepted puts, key bytes of deletes.
    user_bytes: u64,
    check: Check,
    /// Window boundaries: when each window ended and how many samples
    /// each latency class held by then.
    marks: Vec<(u64, [usize; 3])>,
    begun: u64,
    ended: u64,
}

/// Windows a timed phase is cut into. The gated rates and percentiles are
/// medians over the windows, which a hiccup of the shared host in one
/// window cannot move.
const WINDOWS: u64 = 10;

/// When a client stops.
#[derive(Clone, Copy)]
enum Stop {
    After { nanos: u64 },
    Ops(u64),
}

impl Stop {
    /// Spans to make room for on a client thread: one per microsecond is
    /// more than any workload records (virtual memory until used).
    fn span_room(self) -> usize {
        match self {
            Stop::After { nanos } => (nanos / 1000) as usize,
            Stop::Ops(n) => 4 * n as usize,
        }
    }
}

fn run_client(db: &Db, client: &mut Client, stop: Stop) -> ClientPhase {
    let mut out = ClientPhase::default();
    if let Stop::After { nanos } = stop {
        // Virtual memory only: pages are touched as samples arrive.
        let room = (nanos / 1_000) as usize + 1024;
        out.lat[GET].reserve(room);
        out.lat[WRITE].reserve(room);
        out.lat[SCAN].reserve(room / 8);
    }
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; UPDATE_VALUE_LEN];
    let mut rows: Vec<(UserKey, Value)> = Vec::with_capacity(SCAN_KEYS);
    let begun = now_ns();
    out.begun = begun;
    let window = match stop {
        Stop::After { nanos } => (nanos / WINDOWS).max(1),
        Stop::Ops(_) => u64::MAX,
    };
    let mut next_mark = begun.saturating_add(window);
    let mut ops_here = 0u64;
    loop {
        let Op { kind, id } = client.gen.next_op();
        let span_kind = match kind {
            OpKind::Put | OpKind::Delete => SpanKind::Write,
            OpKind::GetPresent | OpKind::GetAbsent => SpanKind::Get,
            OpKind::Scan => SpanKind::Scan,
        };
        let span_id = trace::op_id(span_kind, client.index, client.ops_done);
        let absent = kind == OpKind::GetAbsent;
        write_key(&mut key, 2 * id + u64::from(absent));
        let t0;
        let t1;
        match kind {
            OpKind::Put | OpKind::Delete => {
                let put = kind == OpKind::Put;
                if put {
                    write_value(&mut value, 2 * id);
                }
                t0 = now_ns();
                trace::begin_op(span_id);
                let reply = if put {
                    db.put(&key, &value)
                } else {
                    db.delete(&key)
                };
                t1 = now_ns();
                trace::end_op(span_kind, span_id, t0, t1);
                out.check.attempted += 1;
                match reply {
                    Ok(()) if put => {
                        out.user_bytes += (KEY_LEN + value.len()) as u64;
                        client.state[id as usize] = Expect::Updated as u8;
                    }
                    Ok(()) => {
                        out.user_bytes += KEY_LEN as u64;
                        client.state[id as usize] = Expect::Deleted as u8;
                    }
                    Err(e) => out.check.fail(|| format!("write id {id}: error {e}")),
                }
                out.lat[WRITE].push(clamp_ns(t1 - t0));
            }
            OpKind::GetPresent | OpKind::GetAbsent => {
                t0 = now_ns();
                trace::begin_op(span_id);
                let reply = db.get(&key);
                t1 = now_ns();
                trace::end_op(span_kind, span_id, t0, t1);
                out.gets += 1;
                if absent {
                    out.check.absent_get(id, reply);
                } else {
                    let own = client.parity.is_none_or(|p| id % 2 == p);
                    let expect = own.then(|| Expect::from_u8(client.state[id as usize]));
                    out.check.present_get(db, id, expect, reply);
                }
                out.lat[GET].push(clamp_ns(t1 - t0));
            }
            OpKind::Scan => {
                rows.clear();
                let mut error = None;
                t0 = now_ns();
                trace::begin_op(span_id);
                match db.scan(&key, None) {
                    Ok(it) => {
                        for row in it.take(SCAN_KEYS) {
                            match row {
                                Ok(row) => rows.push(row),
                                Err(e) => {
                                    error = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => error = Some(e),
                }
                t1 = now_ns();
                trace::end_op(span_kind, span_id, t0, t1);
                out.scan_rows += rows.len() as u64;
                out.check
                    .scan(id, &rows, error, &client.state, client.parity);
                out.lat[SCAN].push(clamp_ns(t1 - t0));
            }
        }
        client.ops_done += 1;
        ops_here += 1;
        // An op that outlasts a window closes it (and any it spans) empty.
        while t1 >= next_mark {
            out.marks
                .push((t1, [out.lat[0].len(), out.lat[1].len(), out.lat[2].len()]));
            next_mark = next_mark.saturating_add(window);
        }
        let done = match stop {
            Stop::After { nanos } => t1 - begun >= nanos,
            Stop::Ops(n) => ops_here >= n,
        };
        if done {
            out.ended = t1;
            return out;
        }
    }
}

fn clamp_ns(nanos: u64) -> u32 {
    nanos.min(u64::from(u32::MAX)) as u32
}

/// What one phase measured, all clients together.
struct Phase {
    wall_s: f64,
    cpu_s: f64,
    /// Sorted per-op latencies in ns, by class.
    lat: [Vec<u32>; 3],
    ops: u64,
    gets: u64,
    writes: u64,
    scan_rows: u64,
    user_bytes: u64,
    check: Check,
    io: TimedSnapshot,
    engine: MetricsSnapshot,
    clock: ClockMap,
    windows: Vec<Window>,
    /// `Backend::total_bytes()` sampled every 50 ms over the phase.
    mean_stored_bytes: f64,
}

/// One window of a phase, all clients and op types together.
struct Window {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Median over the windows that saw an op of `f`.
    fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&mut self.windows.iter().map(f).collect::<Vec<f64>>())
    }
}

/// Cuts the clients' samples at their window marks. A phase without marks
/// (one that stops after an op count) is one window.
fn windows_of(outs: &[ClientPhase], phase_end: u64) -> Vec<Window> {
    let count = outs.iter().map(|o| o.marks.len()).min().unwrap_or(0);
    let mut windows = Vec::new();
    for w in 0..count.max(1) {
        let mut rate = 0.0;
        let mut lat: Vec<u32> = Vec::new();
        for o in outs {
            let (from_t, from) = match w.checked_sub(1).map(|prev| o.marks[prev]) {
                Some(mark) => mark,
                None => (o.begun, [0; 3]),
            };
            let (to_t, to) = match o.marks.get(w).filter(|_| count > 0) {
                Some(&mark) => mark,
                None => (phase_end, [o.lat[0].len(), o.lat[1].len(), o.lat[2].len()]),
            };
            let mut ops = 0;
            for class in 0..3 {
                lat.extend_from_slice(&o.lat[class][from[class]..to[class]]);
                ops += to[class] - from[class];
            }
            rate += ops as f64 / ((to_t - from_t).max(1) as f64 / 1e9);
        }
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        windows.push(Window {
            ops_per_s: rate,
            p50_us: quantile(&lat, 0.50) / 1e3,
            p99_us: quantile(&lat, 0.99) / 1e3,
        });
    }
    windows
}

fn run_phase(env: &Env, clients: &mut [Client], stop: Stop, traced: bool) -> Phase {
    let db = env.db();
    let barrier = Barrier::new(clients.len() + 1);
    let io_before = env.backend.snapshot();
    let engine_before = db.metrics();
    let clock_before = (env.obs.now_nanos(), now_ns());
    let cpu_before = process_cpu_seconds();
    let mut start = 0;
    let mut space_samples = Vec::new();
    let outs: Vec<ClientPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    mark_client_thread(true);
                    trace::record_on_this_thread(traced, stop.span_room());
                    barrier.wait();
                    run_client(db, client, stop)
                })
            })
            .collect();
        barrier.wait();
        start = now_ns();
        // This thread is idle while the clients run: it samples the space
        // the files take, which under tiering is a sawtooth that a single
        // reading at the end would catch at a random tooth.
        loop {
            space_samples.push(env.backend.total_bytes() as f64);
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked: harness bug"))
            .collect()
    });
    let end = outs.iter().map(|o| o.ended).max().unwrap_or(start);
    let wall_s = (end - start) as f64 / 1e9;
    let cpu_s = process_cpu_seconds() - cpu_before;
    let clock = ClockMap {
        engine: (clock_before.0, env.obs.now_nanos()),
        ours: (clock_before.1, now_ns()),
    };
    let mut phase = Phase {
        wall_s,
        cpu_s,
        lat: Default::default(),
        ops: 0,
        gets: 0,
        writes: 0,
        scan_rows: 0,
        user_bytes: 0,
        check: Check::default(),
        io: env.backend.snapshot().since(&io_before),
        engine: db.metrics().delta(&engine_before),
        clock,
        windows: windows_of(&outs, end),
        mean_stored_bytes: space_samples.iter().sum::<f64>() / space_samples.len() as f64,
    };
    for mut out in outs {
        phase.gets += out.gets;
        phase.writes += out.lat[WRITE].len() as u64;
        phase.ops += out.lat.iter().map(|l| l.len() as u64).sum::<u64>();
        phase.scan_rows += out.scan_rows;
        phase.user_bytes += out.user_bytes;
        phase.check.absorb(std::mem::take(&mut out.check));
        for (all, mine) in phase.lat.iter_mut().zip(&mut out.lat) {
            all.append(mine);
        }
    }
    for l in &mut phase.lat {
        l.sort_unstable();
    }
    phase
}

/// The ids' expected state after the clients are done: each id as its
/// writer left it.
fn merged_state(clients: &[Client]) -> Vec<u8> {
    let mut state = clients[0].state.clone();
    for c in &clients[1..] {
        if let Some(p) = c.parity {
            for id in (p as usize..state.len()).step_by(2) {
                state[id] = c.state[id];
            }
        }
    }
    state
}

/// Bytes of live keys and values under `state`.
fn live_bytes(state: &[u8]) -> u64 {
    state
        .iter()
        .filter(|&&s| s != Expect::Deleted as u8)
        .map(|&s| (KEY_LEN + Expect::from_u8(s).value_len()) as u64)
        .sum()
}

fn tree_shape(db: &Db) -> String {
    let v = db.version();
    format!("runs={} levels={:?}", v.run_count(), v.entries_per_level())
}

/// Each live table's point-probe counters by file id: probes the filter
/// answered negatively, and probes that went on to a data block.
fn table_counters(db: &Db) -> HashMap<u64, (u64, u64)> {
    db.version()
        .all_tables()
        .map(|t| (t.file_id(), (t.filter_negatives(), t.block_probes())))
        .collect()
}

/// What the tables alive at the end counted since `before`. A table a
/// compaction replaced in between takes its counts with it, so on the
/// writing workloads this is a lower bound.
fn table_counters_since(db: &Db, before: &HashMap<u64, (u64, u64)>) -> (u64, u64) {
    table_counters(db)
        .iter()
        .fold((0, 0), |(negatives, probes), (id, &(n, p))| {
            let (n0, p0) = before.get(id).copied().unwrap_or((0, 0));
            (negatives + (n - n0), probes + (p - p0))
        })
}

/// Runs one invocation: set-up, timed phase(s), drain, reopen and final
/// check, teardown.
pub fn run(cfg: &Config) -> HarnessResult<Outcome> {
    if cfg.keys < 2 || !cfg.keys.is_multiple_of(2) {
        return Err("--keys must be even and at least 2".into());
    }
    files::create_dir_all(&cfg.out_dir)?;
    trace::record_on_this_thread(false, 0);
    let spec = cfg.spec;
    let mut check = Check::default();

    // Set-up, several times over: `setup_s` is the median. The last one
    // is kept and run on.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups.max(1) {
        drop(kept.take());
        let (env, seconds) = set_up(cfg, &mut check)?;
        setup_times.push(seconds);
        kept = Some(env);
    }
    let mut env = kept.expect("at least one set-up ran");
    let tree_shape = tree_shape(env.db());
    let user_bytes_loaded = cfg.keys * (KEY_LEN + VALUE_LEN) as u64;

    let mut clients: Vec<Client> = (0..cfg.clients())
        .map(|index| Client {
            index,
            gen: OpGen::new(spec, cfg.keys, cfg.seed, index),
            state: vec![Expect::Loaded as u8; cfg.keys as usize],
            parity: spec.parity_writers.then_some(index as u64 % 2),
            ops_done: 0,
        })
        .collect();

    // A traced run measures for half the time untraced (the counters and
    // the rate tracing is compared against) and half traced.
    let share = if cfg.trace { 0.5 } else { 1.0 };
    let stop = match cfg.ops_per_client {
        Some(n) => Stop::Ops(((n as f64 * share) as u64).max(1)),
        None => Stop::After {
            nanos: (cfg.seconds * share * 1e9) as u64,
        },
    };
    let tables_before = table_counters(env.db());
    let mut phase = run_phase(&env, &mut clients, stop, false);
    let (filter_negatives, block_probes) = table_counters_since(env.db(), &tables_before);
    check.absorb(std::mem::take(&mut phase.check));

    let mut metrics = Metrics::default();
    let mut traced = None;
    if cfg.trace {
        let mut t = run_phase(&env, &mut clients, stop, true);
        check.absorb(std::mem::take(&mut t.check));
        traced = Some(t);
    }

    let drain_start = now_ns();
    env.db().wait_idle()?;
    let drain_s = (now_ns() - drain_start) as f64 / 1e9;
    let runs_at_end = env.db().version().run_count();
    let read_amp_estimate = env.db().metrics().read_amp_estimate;
    let state = merged_state(&clients);
    let io_total = env.backend.snapshot();
    let user_bytes_total =
        user_bytes_loaded + phase.user_bytes + traced.as_ref().map_or(0, |t| t.user_bytes);
    let write_amp = io_total.bytes_written() as f64 / user_bytes_total as f64;
    let space_amp = phase.mean_stored_bytes / live_bytes(&state) as f64;

    // Reopen from disk and check every id: an acknowledged write must
    // still be there, a deleted key must still be gone.
    let recover_start = now_ns();
    env.reopen(cfg)?;
    let mut key = [0u8; KEY_LEN];
    write_key(&mut key, 0);
    let first = env.db().get(&key);
    let recover_ms = (now_ns() - recover_start) as f64 / 1e6;
    check.present_get(env.db(), 0, Some(Expect::from_u8(state[0])), first);
    verify_all(env.db(), &state, &mut check);

    if !cfg.trace {
        metrics.put("ops_per_s", phase.window_median(|w| w.ops_per_s), "1/s");
        metrics.put("cpu_us_per_op", phase.cpu_s * 1e6 / phase.ops as f64, "us");
        metrics.put("op_p50_us", phase.window_median(|w| w.p50_us), "us");
        metrics.put("op_p99_us", phase.window_median(|w| w.p99_us), "us");
        metrics.put("write_amp", write_amp, "ratio");
        metrics.put("space_amp", space_amp, "ratio");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
        metrics.put("setup_s", median(&mut setup_times), "s");
    } else {
        let traced = traced.as_ref().expect("a traced run has a traced phase");
        client_metrics(&mut metrics, &phase, recover_ms, check.get_scan_disagree);
        let mut spans = trace::take_since(traced.clock.ours.0);
        spans.extend(trace::engine_spans(&env.obs.events(), traced.clock));
        spans.sort_by_key(|s| s.start);
        traced_metrics(&mut metrics, &phase, traced, &spans);
        counter_metrics(
            &mut metrics,
            &phase,
            &Readings {
                writers: clients.len(),
                drain_s,
                runs_at_end,
                read_amp_estimate,
                filter_negatives,
                block_probes,
            },
        );
        if cfg.probes {
            crate::probes::run(&mut metrics, cfg, env.db())?;
        }
        metrics.put(
            "harness.ns_per_op",
            harness_ns_per_op(spec, cfg.keys, cfg.seed),
            "ns",
        );
        metrics.put("harness.timer_ns", timer_ns(), "ns");
        write_trace(&cfg.out_dir, spec.name, &spans)?;
    }

    check.report(spec.name);
    drop(env);
    Ok(Outcome {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        tree_shape,
    })
}

/// What the clients saw, per op type (untraced phase).
fn client_metrics(m: &mut Metrics, phase: &Phase, recover_ms: f64, get_scan_disagree: u64) {
    let us = |class: usize, q: f64| quantile(&phase.lat[class], q) / 1e3;
    m.put("client.get_p50_us", us(GET, 0.50), "us");
    m.put("client.get_p99_us", us(GET, 0.99), "us");
    m.put("client.write_p50_us", us(WRITE, 0.50), "us");
    m.put("client.write_p99_us", us(WRITE, 0.99), "us");
    m.put("client.scan_p50_us", us(SCAN, 0.50), "us");
    m.put("client.scan_p99_us", us(SCAN, 0.99), "us");
    let client_reads = phase.io.cell(Method::Read, Side::Client);
    m.put(
        "client.read_pages_per_get",
        client_reads.pages as f64 / phase.gets as f64,
        "pages",
    );
    m.put("client.recover_ms", recover_ms, "ms");
    m.put(
        "client.get_scan_disagree",
        get_scan_disagree as f64,
        "count",
    );
}

/// Self times from the traced phase, and what tracing cost.
fn traced_metrics(m: &mut Metrics, untraced: &Phase, traced: &Phase, spans: &[trace::Span]) {
    let [get, write, scan] = trace::self_times(spans);
    m.put("core.get_self_us", get.self_us(), "us");
    m.put("core.write_self_us", write.self_us(), "us");
    m.put(
        "core.scan_self_us_per_key",
        scan.total_ns.saturating_sub(scan.child_ns) as f64 / traced.scan_rows as f64 / 1e3,
        "us",
    );
    m.put(
        "storage.read_time_share",
        get.read_ns as f64 / get.total_ns as f64,
        "share",
    );
    m.put(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / untraced.ops_per_s(),
        "share",
    );
    m.put("trace.spans", spans.len() as f64, "count");
}

/// Readings taken around the untraced phase that are not in [`Phase`].
struct Readings {
    writers: usize,
    drain_s: f64,
    runs_at_end: usize,
    read_amp_estimate: f64,
    filter_negatives: u64,
    block_probes: u64,
}

/// Counters and timings of the untraced phase, by layer.
fn counter_metrics(m: &mut Metrics, phase: &Phase, r: &Readings) {
    let db = &phase.engine.db;
    let hist = |kind: HistKind| phase.engine.latency.get(kind);
    let gets = phase.gets as f64;
    let writes = phase.writes as f64;
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;

    // lsm-core: commit groups, stalls, background work.
    m.put(
        "core.group_size_p50",
        hist(HistKind::GroupSize).p50() as f64,
        "count",
    );
    m.put(
        "core.group_wait_p99_us",
        hist(HistKind::GroupWait).p99() as f64 / 1e3,
        "us",
    );
    m.put(
        "core.stall_share",
        db.stall_nanos as f64 / 1e9 / (phase.wall_s * r.writers as f64),
        "share",
    );
    m.put("core.stall_count", db.stall_count as f64, "count");
    let flush_s = hist(HistKind::Flush).sum as f64 / 1e9;
    let compaction_s = hist(HistKind::Compaction).sum as f64 / 1e9;
    m.put("core.flush_mb_s", mb(db.flush_bytes) / flush_s, "MiB/s");
    m.put(
        "core.compaction_mb_s",
        mb(db.compact_bytes_written) / compaction_s,
        "MiB/s",
    );
    m.put(
        "core.bg_busy_share",
        (flush_s + compaction_s) / phase.wall_s,
        "share",
    );
    m.put("core.flushes", db.flushes as f64, "count");
    m.put("core.compactions", db.compactions as f64, "count");
    m.put("core.drain_s", r.drain_s, "s");
    m.put("core.runs_at_end", r.runs_at_end as f64, "count");
    m.put("core.read_amp_estimate", r.read_amp_estimate, "runs");

    // lsm-storage: the device boundary, then the block cache.
    let read = phase.io.cell(Method::Read, Side::Client);
    let append = phase.io.both(Method::Append);
    let blob = phase.io.both(Method::WriteBlob);
    m.put(
        "storage.read_calls_per_get",
        read.calls as f64 / gets,
        "count",
    );
    m.put("storage.read_us_p50", read.quantile_us(0.5), "us");
    m.put(
        "storage.append_calls_per_write",
        append.calls as f64 / writes,
        "count",
    );
    m.put("storage.append_us_p50", append.quantile_us(0.5), "us");
    m.put(
        "storage.wal_bytes_per_user_byte",
        append.bytes as f64 / phase.user_bytes as f64,
        "ratio",
    );
    m.put(
        "storage.write_blob_mb_s",
        mb(blob.bytes) / (blob.nanos as f64 / 1e9),
        "MiB/s",
    );
    m.put(
        "storage.bg_read_mb",
        mb(phase.io.cell(Method::Read, Side::Engine).bytes),
        "MiB",
    );
    m.put(
        "storage.bg_write_mb",
        mb(phase.io.cell(Method::WriteBlob, Side::Engine).bytes),
        "MiB",
    );
    let cache = phase.engine.cache.unwrap_or_default();
    let aux_hits = cache.index_hits + cache.filter_hits;
    let data_hits = cache.hits - aux_hits;
    m.put("storage.cache_hit_ratio", cache.hit_ratio(), "ratio");
    m.put(
        "storage.cache_data_hit_ratio",
        data_hits as f64 / (data_hits + cache.misses) as f64,
        "ratio",
    );
    m.put(
        "storage.cache_aux_hit_share",
        aux_hits as f64 / cache.hits as f64,
        "share",
    );
    m.put(
        "storage.cache_evictions_per_get",
        cache.evictions as f64 / gets,
        "count",
    );

    // lsm-sstable: how point probes were answered.
    m.put(
        "sstable.filter_negatives_per_get",
        r.filter_negatives as f64 / gets,
        "count",
    );
    m.put(
        "sstable.block_probes_per_get",
        r.block_probes as f64 / gets,
        "count",
    );

    // lsm-compaction: planning and what it decided to rewrite.
    m.put(
        "compaction.plan_time_share",
        hist(HistKind::CompactionPlan).sum as f64 / 1e9 / phase.wall_s,
        "share",
    );
    m.put(
        "compaction.bytes_rewritten_per_user_byte",
        db.compact_bytes_written as f64 / phase.user_bytes as f64,
        "ratio",
    );
    m.put(
        "compaction.gc_dropped_per_write",
        db.gc_dropped_entries as f64 / writes,
        "count",
    );
}

/// Cost of the op loop itself, per op: generator, key and value writers,
/// the clock pair and the latency push, against a sink that does nothing.
fn harness_ns_per_op(spec: &Spec, keys: u64, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut gen = OpGen::new(spec, keys, seed, 0);
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    let mut lat: Vec<u32> = Vec::with_capacity(OPS);
    let start = now_ns();
    for i in 0..OPS {
        let Op { kind, id } = gen.next_op();
        write_key(&mut key, 2 * id);
        if kind == OpKind::Put {
            write_value(&mut value, 2 * id);
        }
        let t0 = now_ns();
        trace::begin_op(i as u64);
        std::hint::black_box((&key, &value));
        let t1 = now_ns();
        trace::end_op(SpanKind::Get, i as u64, t0, t1);
        lat.push(clamp_ns(t1 - t0));
    }
    std::hint::black_box(&lat);
    (now_ns() - start) as f64 / OPS as f64
}

/// Cost of one clock pair.
fn timer_ns() -> f64 {
    const PAIRS: u64 = 1_000_000;
    let start = now_ns();
    let mut acc = 0u64;
    for _ in 0..PAIRS {
        let t0 = now_ns();
        let t1 = now_ns();
        acc = acc.wrapping_add(t1 - t0);
    }
    std::hint::black_box(acc);
    (now_ns() - start) as f64 / PAIRS as f64
}

fn write_trace(out_dir: &Path, workload: &str, spans: &[trace::Span]) -> HarnessResult<()> {
    let path = out_dir.join(format!("{workload}.trace.json"));
    files::write(&path, trace::chrome_trace(spans))?;
    Ok(())
}
