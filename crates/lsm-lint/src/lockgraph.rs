//! Workspace lock-graph analysis.
//!
//! A lightweight symbol-aware pass over the tokenized sources that builds a
//! lock-order graph for the whole workspace and enforces three rules:
//!
//! - **L3 `lock-nesting`** — a *raw* (untracked) lock acquired while another
//!   raw lock's guard is still live, across statements. Tracked
//!   [`OrderedMutex`]/[`OrderedRwLock`] locks are exempt: their nesting is
//!   governed by the rank hierarchy (L5) and asserted at runtime.
//! - **L5 `lock-order`** — any edge of the lock graph that contradicts the
//!   declared hierarchy in `lsm-sync::ranks` (held-lock order must be
//!   strictly less than acquired-lock order), any cycle in the graph, and
//!   any tracked lock field whose rank binding cannot be resolved.
//! - **L6 `io-under-lock`** — blocking backend I/O (`Backend` calls, WAL
//!   writer appends/syncs) performed while any lock guard is live, unless
//!   annotated with `// lsm-lint: allow(io-under-lock)`. The storage
//!   substrate itself (`backend.rs`, `fault.rs`) is exempt — it *is* the
//!   I/O layer.
//!
//! ## How the graph is built
//!
//! 1. The rank table is parsed from `crates/lsm-sync/src/ranks.rs`
//!    (`const NAME: LockRank = LockRank::new("lock.name", order)`).
//! 2. Every `Mutex`/`RwLock`/`OrderedMutex`/`OrderedRwLock` struct field in
//!    engine sources becomes a lock node, identified as `<crate>/<field>`.
//! 3. Tracked fields are bound to rank constants via their construction
//!    sites (`field: OrderedMutex::new(ranks::CONST, ..)`); a file with a
//!    single tracked field and a single un-prefixed construction (the
//!    `Vec<OrderedMutex<_>>` shard pattern) binds by elimination.
//! 4. Function bodies are walked with the `ir` module's guard-scope
//!    walker: let-bound guards live until scope exit or `drop(guard)`,
//!    expression temporaries until the end of the statement. Acquiring
//!    lock B while guard A is live records edge A → B.
//! 5. Acquisition sets and does-I/O flags propagate through calls by the
//!    one call rule of the `ir` module: `self`-rooted method calls
//!    (through index groups too, so `self.engines[i].commit_batch(..)`
//!    carries every engine lock a cross-shard commit takes under
//!    `epoch_mx`) and unqualified free calls, when the callee name maps to
//!    exactly one function in the crate. Path-qualified calls, calls on
//!    other receivers and ambiguous names (trait methods, `new`, `insert`,
//!    …) are never followed, which keeps dynamic dispatch from fabricating
//!    edges.
//!
//! The resulting hierarchy is emitted as `lock_order.json` (see
//! [`LockGraph::spec_json`]) and checked in at the workspace root.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ir::{
    fixpoint, matching, receiver_ident, receiver_self_root, walk_scopes, Call, Func, Guard, Ir,
    Scope, SourceFile,
};
use crate::{Diagnostic, Rule, Token};

/// Files allowed to perform I/O while holding their internal locks: the
/// storage substrate serializes file-table access by design.
const L6_EXEMPT_FILES: &[&str] = &[
    "crates/lsm-storage/src/backend.rs",
    "crates/lsm-storage/src/fault.rs",
];

/// Receiver idents whose method calls count as blocking backend I/O.
///
/// Deliberately absent: `obs` (and any other `ObsHandle` binding). The
/// observability layer is atomics-only — `obs.emit(...)`/`obs.timer(...)`
/// never block and sit outside the lock hierarchy — so instrumentation
/// under a lock scope is not I/O-under-lock. Its method names also don't
/// collide with [`IO_METHODS`], so an obs call can never match this rule;
/// the fixture test `obs_calls_under_locks_are_not_io` pins that.
const IO_RECEIVERS: &[&str] = &["backend", "writer", "inner"];

/// Backend methods that are I/O regardless of arity.
const IO_METHODS: &[&str] = &[
    "append",
    "append_records",
    "sync",
    "create_appendable",
    "delete",
    "truncate",
    "put_meta",
    "get_meta",
    "list_files",
];

/// Backend methods that are I/O only when called with arguments (argless
/// `.read()`/`.write()` are lock acquisitions, argless `.len()` is `Vec`).
const IO_METHODS_WITH_ARGS: &[&str] = &["read", "write", "len"];

/// One lock node of the graph.
#[derive(Debug, Clone)]
pub struct LockInfo {
    /// Stable identifier: `<crate>/<field>`.
    pub id: String,
    /// `"mutex"` or `"rwlock"`.
    pub kind: &'static str,
    /// Whether this is a tracked (`Ordered*`) lock.
    pub ordered: bool,
    /// The `lsm_sync::ranks` constant the field is constructed with.
    pub rank_const: Option<String>,
    /// The declared order of that constant.
    pub order: Option<u32>,
    /// File of the field declaration.
    pub file: String,
    /// Line of the field declaration.
    pub line: usize,
}

/// One condvar field and the mutex its wait sites pair it with.
///
/// A `Condvar::wait(&mut guard)` re-acquires the guard's mutex on wakeup,
/// so a wait entered while a higher-ranked lock is held is a lock-order
/// violation even though no `.lock()` call appears in the source. Binding
/// each condvar to the one mutex it is waited with lets the rank checker
/// treat wait sites as acquisition sites.
#[derive(Debug, Clone)]
pub struct CondvarInfo {
    /// Stable identifier: `<crate>/<field>`.
    pub id: String,
    /// Lock id of the mutex every wait site pairs this condvar with.
    pub mutex: Option<String>,
    /// File of the field declaration.
    pub file: String,
    /// Line of the field declaration.
    pub line: usize,
    /// Number of `.wait()`/`.wait_for()` sites observed.
    pub wait_sites: usize,
    /// Number of `.notify_one()`/`.notify_all()` sites observed.
    pub notify_sites: usize,
}

/// One held-while-acquired edge, anchored to the first site it was seen.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock held at the acquisition site.
    pub from: String,
    /// Lock acquired while `from` was held.
    pub to: String,
    /// File of the first site producing this edge.
    pub file: String,
    /// Line of that site.
    pub line: usize,
}

/// The workspace lock graph: nodes, edges, cycles, and the diagnostics the
/// analysis produced (not yet allow-filtered).
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every lock field discovered (tracked and raw).
    pub locks: Vec<LockInfo>,
    /// Every condvar field discovered, with its wait-site mutex binding.
    pub condvars: Vec<CondvarInfo>,
    /// Deduplicated held-while-acquired edges.
    pub edges: Vec<LockEdge>,
    /// Distinct cycles found in the edge graph (each a list of lock ids).
    pub cycles: Vec<Vec<String>>,
    /// L3/L5/L6 findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LockGraph {
    /// Renders the checked-in `lock_order.json` spec: the tracked-lock
    /// hierarchy, the observed edges between tracked locks, and any cycles.
    /// Deterministic (sorted) and line-number-free so it only changes when
    /// the hierarchy itself does.
    pub fn spec_json(&self) -> String {
        let mut locks: Vec<&LockInfo> = self.locks.iter().filter(|l| l.ordered).collect();
        locks.sort_by(|a, b| (a.order, &a.id).cmp(&(b.order, &b.id)));
        let mut out = String::from("{\n  \"version\": 2,\n  \"locks\": [");
        for (i, l) in locks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"kind\": \"{}\", \"rank_const\": \"{}\", \
                 \"order\": {}, \"file\": \"{}\"}}",
                l.id,
                l.kind,
                l.rank_const.as_deref().unwrap_or(""),
                l.order.map(|o| o.to_string()).unwrap_or_default(),
                l.file,
            ));
        }
        out.push_str("\n  ],\n  \"condvars\": [");
        let mut cvs: Vec<&CondvarInfo> = self.condvars.iter().collect();
        cvs.sort_by(|a, b| a.id.cmp(&b.id));
        for (i, cv) in cvs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"mutex\": \"{}\"}}",
                cv.id,
                cv.mutex.as_deref().unwrap_or(""),
            ));
        }
        out.push_str("\n  ],\n  \"edges\": [");
        let ordered_ids: BTreeSet<&str> = locks.iter().map(|l| l.id.as_str()).collect();
        let mut edges: Vec<(&str, &str)> = self
            .edges
            .iter()
            .filter(|e| {
                ordered_ids.contains(e.from.as_str()) && ordered_ids.contains(e.to.as_str())
            })
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        edges.sort();
        edges.dedup();
        for (i, (from, to)) in edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"from\": \"{from}\", \"to\": \"{to}\"}}"));
        }
        out.push_str("\n  ],\n  \"cycles\": [");
        for (i, cycle) in self.cycles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ids: Vec<String> = cycle.iter().map(|id| format!("\"{id}\"")).collect();
            out.push_str(&format!("\n    [{}]", ids.join(", ")));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Runs the lock-graph analysis over `(workspace-relative path, source)`
/// pairs. Files under `tests/`, `benches/`, `examples/`, and `fixtures/`
/// are skipped, as are `#[cfg(test)]` regions inside engine files.
pub fn analyze(files: &[(String, String)]) -> LockGraph {
    from_ir(&Ir::build(files))
}

/// [`analyze`] over an already-built [`Ir`].
pub(crate) fn from_ir(ir: &Ir) -> LockGraph {
    let mut graph = LockGraph::default();

    // Pass 0: the declared rank table.
    let ranks: HashMap<String, (String, u32)> = ir
        .files
        .iter()
        .find(|f| f.path.ends_with("lsm-sync/src/ranks.rs"))
        .map(|f| parse_rank_consts(&f.lines.join("\n")))
        .unwrap_or_default();
    let engine: Vec<&SourceFile> = ir.files.iter().filter(|f| f.engine).collect();

    // Pass 1: lock fields, rank bindings, condvar fields.
    let mut locks: Vec<LockInfo> = Vec::new();
    let mut lock_index: HashMap<(String, String), usize> = HashMap::new();
    for file in &engine {
        discover_lock_fields(file, &mut locks, &mut lock_index);
    }
    let mut condvars: Vec<CondvarInfo> = Vec::new();
    let mut cv_index: HashMap<(String, String), usize> = HashMap::new();
    for file in &engine {
        discover_condvars(file, &mut condvars, &mut cv_index);
    }
    for file in &engine {
        bind_ranks(
            file,
            &ranks,
            &mut locks,
            &lock_index,
            &mut graph.diagnostics,
        );
    }
    for lock in &locks {
        if lock.ordered && lock.rank_const.is_none() {
            graph.diagnostics.push(Diagnostic {
                rule: Rule::LockOrder,
                path: lock.file.clone(),
                line: lock.line,
                message: format!(
                    "tracked lock `{}` has no resolvable rank binding; construct it \
                     with a constant from `lsm-sync::ranks` so the hierarchy covers it",
                    lock.id
                ),
            });
        }
    }

    // Pass 2: accessor functions returning lock references.
    let accessors = discover_accessors(ir, &lock_index);

    // Pass 3: walk every function body.
    let known = Known {
        locks: &locks,
        index: &lock_index,
        cv_index: &cv_index,
        accessors: &accessors,
    };
    let fns: Vec<FnSummary> = ir
        .fns
        .iter()
        .map(|f| walk_fn(ir, f, &known, &mut graph.diagnostics))
        .collect();
    let path_of = |f: usize| &ir.files[ir.fns[f].file].path;

    // Pass 3.5: bind each condvar to the mutex its wait sites pair it with.
    // Two different mutexes for one condvar is itself a protocol bug (the
    // waiters race on distinct queues), reported as L5.
    for (f, summary) in fns.iter().enumerate() {
        for &(cv, mutex, line) in &summary.cv_waits {
            condvars[cv].wait_sites += 1;
            let Some(mx) = mutex else { continue };
            let mx_id = locks[mx].id.clone();
            match &condvars[cv].mutex {
                None => condvars[cv].mutex = Some(mx_id),
                Some(existing) if *existing != mx_id => graph.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrder,
                    path: path_of(f).clone(),
                    line,
                    message: format!(
                        "condvar `{}` is waited on with guards of both `{existing}` and \
                         `{mx_id}`; a condvar must pair with exactly one mutex",
                        condvars[cv].id,
                    ),
                }),
                Some(_) => {}
            }
        }
        for &cv in &summary.cv_notifies {
            condvars[cv].notify_sites += 1;
        }
    }
    for cv in &condvars {
        if cv.wait_sites > 0 && cv.notify_sites == 0 {
            graph.diagnostics.push(Diagnostic {
                rule: Rule::LockOrder,
                path: cv.file.clone(),
                line: cv.line,
                message: format!(
                    "condvar `{}` is waited on but never notified; waiters can only \
                     make progress via timeouts (lost-wakeup hazard)",
                    cv.id,
                ),
            });
        }
    }

    // Pass 4: each function's transitive acquisition set and does-I/O flag.
    let callees: Vec<Vec<usize>> = fns
        .iter()
        .map(|f| f.calls.iter().map(|c| c.callee).collect())
        .collect();
    let mut reach: Vec<(BTreeSet<usize>, bool)> = fns
        .iter()
        .map(|f| (f.direct_acquired.iter().copied().collect(), f.direct_io))
        .collect();
    fixpoint(
        &callees,
        &mut reach,
        |_, (acq, io), (callee_acq, callee_io)| {
            let before = (acq.len(), *io);
            acq.extend(callee_acq.iter().copied());
            *io |= *callee_io;
            before != (acq.len(), *io)
        },
    );

    // Pass 5: edges — direct plus call-propagated — and L6 at call sites.
    let mut edge_first: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut record = |from: usize, to: usize, file: &str, line: usize| {
        edge_first
            .entry((locks[from].id.clone(), locks[to].id.clone()))
            .or_insert_with(|| (file.to_string(), line));
    };
    for (f, summary) in fns.iter().enumerate() {
        let path = path_of(f);
        for &(held, acq, line) in &summary.direct_edges {
            record(held, acq, path, line);
        }
        for call in &summary.calls {
            let (acquired, does_io) = &reach[call.callee];
            for &held in &call.held {
                for &acq in acquired {
                    if held != acq {
                        record(held, acq, path, call.line);
                    }
                }
            }
            if call.guard_live && *does_io && !is_io_exempt(path) {
                graph.diagnostics.push(Diagnostic {
                    rule: Rule::IoUnderLock,
                    path: path.clone(),
                    line: call.line,
                    message: format!(
                        "call to `{}` (which performs blocking backend I/O) while `{}` \
                         is held; drop the guard first, or annotate with \
                         `// lsm-lint: allow(io-under-lock)` and a rationale",
                        ir.fns[call.callee].name,
                        call.held_name.as_deref().unwrap_or("a lock"),
                    ),
                });
            }
        }
    }

    graph.edges = edge_first
        .into_iter()
        .map(|((from, to), (file, line))| LockEdge {
            from,
            to,
            file,
            line,
        })
        .collect();

    // Rank-consistency check: every edge must go strictly up the hierarchy.
    for edge in &graph.edges {
        let from = &locks[lock_index_of(&locks, &edge.from)];
        let to = &locks[lock_index_of(&locks, &edge.to)];
        if let (Some(fo), Some(to_o)) = (from.order, to.order) {
            if fo >= to_o {
                graph.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrder,
                    path: edge.file.clone(),
                    line: edge.line,
                    message: format!(
                        "lock-order violation: `{}` (order {fo}) is held while acquiring \
                         `{}` (order {to_o}); the hierarchy in `lsm-sync::ranks` requires \
                         strictly increasing order",
                        edge.from, edge.to,
                    ),
                });
            }
        }
    }

    // Cycle detection over the deduplicated edge graph.
    graph.cycles = find_cycles(&graph.edges);
    for cycle in &graph.cycles {
        let site = graph
            .edges
            .iter()
            .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to));
        let (file, line) = site
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_else(|| (String::from("<workspace>"), 0));
        graph.diagnostics.push(Diagnostic {
            rule: Rule::LockOrder,
            path: file,
            line,
            message: format!(
                "lock-order cycle: {} — a thread interleaving across these sites can \
                 deadlock; break the cycle by reordering acquisitions",
                cycle.join(" -> "),
            ),
        });
    }

    graph.locks = locks;
    graph.condvars = condvars;
    graph
}

fn lock_index_of(locks: &[LockInfo], id: &str) -> usize {
    locks.iter().position(|l| l.id == id).unwrap_or_default()
}

fn is_io_exempt(path: &str) -> bool {
    L6_EXEMPT_FILES.iter().any(|f| path.ends_with(f))
}

// ---------------------------------------------------------------------------
// Pass 0: rank constants
// ---------------------------------------------------------------------------

/// Parses `pub const NAME: LockRank = LockRank::new("lock.name", order);`
/// declarations from the raw source of `lsm-sync/src/ranks.rs`. Returns
/// const ident → (lock name, order).
fn parse_rank_consts(source: &str) -> HashMap<String, (String, u32)> {
    let mut out = HashMap::new();
    let mut rest = source;
    while let Some(pos) = rest.find("const ") {
        rest = &rest[pos + "const ".len()..];
        let Some(colon) = rest.find(':') else { break };
        let name = rest[..colon].trim().to_string();
        let Some(new_pos) = rest.find("LockRank::new(") else {
            continue;
        };
        let after = &rest[new_pos + "LockRank::new(".len()..];
        let Some(q1) = after.find('"') else { continue };
        let Some(q2) = after[q1 + 1..].find('"') else {
            continue;
        };
        let lock_name = after[q1 + 1..q1 + 1 + q2].to_string();
        let tail = &after[q1 + 2 + q2..];
        let Some(close) = tail.find(')') else {
            continue;
        };
        let digits: String = tail[..close]
            .chars()
            .filter(|c| c.is_ascii_digit())
            .collect();
        let Ok(order) = digits.parse::<u32>() else {
            continue;
        };
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            out.insert(name, (lock_name, order));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 1: lock fields and rank bindings
// ---------------------------------------------------------------------------

fn lock_kind(type_name: &str) -> Option<(&'static str, bool)> {
    match type_name {
        "Mutex" => Some(("mutex", false)),
        "RwLock" => Some(("rwlock", false)),
        "OrderedMutex" => Some(("mutex", true)),
        "OrderedRwLock" => Some(("rwlock", true)),
        _ => None,
    }
}

/// Finds struct fields typed as a lock: `field: [Vec<]LockType<..>`.
/// Construction sites (`LockType::new(..)`) don't match — the type token
/// must be followed by `<` — and reference types (`&LockType<..>`, i.e.
/// accessor signatures) are rejected during the back-scan.
fn discover_lock_fields(
    file: &SourceFile,
    locks: &mut Vec<LockInfo>,
    index: &mut HashMap<(String, String), usize>,
) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test[i] {
            continue;
        }
        let Some((kind, ordered)) = lock_kind(&toks[i].text) else {
            continue;
        };
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("<") {
            continue;
        }
        let Some(field) = field_of_type_token(toks, i) else {
            continue;
        };
        let key = (file.crate_name.clone(), field.clone());
        if index.contains_key(&key) {
            continue;
        }
        index.insert(key, locks.len());
        locks.push(LockInfo {
            id: format!("{}/{}", file.crate_name, field),
            kind,
            ordered,
            rank_const: None,
            order: None,
            file: file.path.clone(),
            line: toks[i].line,
        });
    }
}

/// Back-scans from a lock type token to the declaring field ident. Handles
/// path prefixes (`parking_lot::Mutex`) and one container layer
/// (`Vec<OrderedMutex<..>>`). Returns `None` for non-field contexts
/// (reference types, generic bounds).
fn field_of_type_token(toks: &[Token], type_idx: usize) -> Option<String> {
    let mut j = type_idx.checked_sub(1)?;
    // Path prefix: `parking_lot :: Mutex` — step over `ident ::` pairs.
    while toks[j].text == "::" {
        j = j.checked_sub(2)?;
    }
    // Container layer: `Vec < Mutex`.
    if toks[j].text == "<" {
        let container = toks.get(j.checked_sub(1)?)?;
        if container.text != "Vec" {
            return None;
        }
        j = j.checked_sub(2)?;
        while toks[j].text == "::" {
            j = j.checked_sub(2)?;
        }
    }
    if toks[j].text != ":" {
        return None;
    }
    let field = toks.get(j.checked_sub(1)?)?;
    let ok = field
        .text
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    (ok && !field.text.is_empty()).then(|| field.text.clone())
}

/// Finds struct fields typed `Condvar` in engine sources. Construction
/// sites (`Condvar::new()`) don't match — the type token must not be
/// followed by `::` — and `lsm-sync` itself is excluded: it *implements*
/// the primitive, so its inner `parking_lot::Condvar` field is not a
/// protocol participant.
fn discover_condvars(
    file: &SourceFile,
    condvars: &mut Vec<CondvarInfo>,
    index: &mut HashMap<(String, String), usize>,
) {
    if file.crate_name == "lsm-sync" {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test[i] || toks[i].text != "Condvar" {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("::") {
            continue;
        }
        let Some(field) = field_of_type_token(toks, i) else {
            continue;
        };
        let key = (file.crate_name.clone(), field.clone());
        if index.contains_key(&key) {
            continue;
        }
        index.insert(key, condvars.len());
        condvars.push(CondvarInfo {
            id: format!("{}/{}", file.crate_name, field),
            mutex: None,
            file: file.path.clone(),
            line: toks[i].line,
            wait_sites: 0,
            notify_sites: 0,
        });
    }
}

/// Binds tracked lock fields to rank constants via construction sites:
/// `field : Ordered* :: new ( ranks :: CONST` binds directly; a file whose
/// single tracked field is built without a field prefix (shard vectors)
/// binds to the file's single construction constant by elimination.
fn bind_ranks(
    file: &SourceFile,
    ranks: &HashMap<String, (String, u32)>,
    locks: &mut [LockInfo],
    index: &HashMap<(String, String), usize>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    let mut unprefixed: Vec<(String, usize)> = Vec::new();
    for i in 0..toks.len() {
        if file.test[i] {
            continue;
        }
        if lock_kind(&toks[i].text).is_none_or(|(_, ordered)| !ordered) {
            continue;
        }
        // `Ordered* :: new (`
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("::")
            || toks.get(i + 2).map(|t| t.text.as_str()) != Some("new")
            || toks.get(i + 3).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        // First argument: `ranks :: CONST` or a bare upper-case const.
        let rank_const = match (
            toks.get(i + 4).map(|t| t.text.as_str()),
            toks.get(i + 5).map(|t| t.text.as_str()),
            toks.get(i + 6).map(|t| t.text.as_str()),
        ) {
            (Some("ranks"), Some("::"), Some(c)) => c.to_string(),
            (Some(c), _, _) if c.chars().all(|ch| ch.is_ascii_uppercase() || ch == '_') => {
                c.to_string()
            }
            _ => continue,
        };
        // Field prefix: `field :` immediately before the type token.
        let field = i
            .checked_sub(2)
            .filter(|&j| toks[j + 1].text == ":")
            .map(|j| toks[j].text.clone())
            .filter(|f| {
                f.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            });
        match field {
            Some(f) => apply_binding(
                file,
                &f,
                &rank_const,
                toks[i].line,
                ranks,
                locks,
                index,
                diags,
            ),
            None => unprefixed.push((rank_const, toks[i].line)),
        }
    }
    // Elimination: one unbound tracked field declared in this file, all
    // unprefixed constructions agree on one constant.
    let declared_here: Vec<usize> = locks
        .iter()
        .enumerate()
        .filter(|(_, l)| l.ordered && l.file == file.path && l.rank_const.is_none())
        .map(|(i, _)| i)
        .collect();
    if declared_here.len() == 1 && !unprefixed.is_empty() {
        let consts: BTreeSet<&str> = unprefixed.iter().map(|(c, _)| c.as_str()).collect();
        if consts.len() == 1 {
            let field = locks[declared_here[0]]
                .id
                .split('/')
                .nth(1)
                .unwrap_or_default()
                .to_string();
            let (rank_const, line) = unprefixed[0].clone();
            apply_binding(file, &field, &rank_const, line, ranks, locks, index, diags);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_binding(
    file: &SourceFile,
    field: &str,
    rank_const: &str,
    line: usize,
    ranks: &HashMap<String, (String, u32)>,
    locks: &mut [LockInfo],
    index: &HashMap<(String, String), usize>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(&idx) = index.get(&(file.crate_name.clone(), field.to_string())) else {
        return;
    };
    let Some((_, order)) = ranks.get(rank_const) else {
        diags.push(Diagnostic {
            rule: Rule::LockOrder,
            path: file.path.clone(),
            line,
            message: format!(
                "lock `{}` is constructed with unknown rank constant `{rank_const}`; \
                 declare it in `lsm-sync::ranks` (and its REGISTRY)",
                locks[idx].id,
            ),
        });
        return;
    };
    match &locks[idx].rank_const {
        Some(existing) if existing != rank_const => diags.push(Diagnostic {
            rule: Rule::LockOrder,
            path: file.path.clone(),
            line,
            message: format!(
                "lock `{}` is constructed with conflicting ranks `{existing}` and \
                 `{rank_const}`; a lock field must have exactly one place in the hierarchy",
                locks[idx].id,
            ),
        }),
        Some(_) => {}
        None => {
            locks[idx].rank_const = Some(rank_const.to_string());
            locks[idx].order = Some(*order);
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: accessor functions
// ---------------------------------------------------------------------------

/// Finds functions returning a reference to a lock (`fn shard_for(..) ->
/// &OrderedMutex<..>`) and maps them to the lock field their body indexes,
/// so `self.shard_for(key).lock()` resolves like a field access.
fn discover_accessors(
    ir: &Ir,
    index: &HashMap<(String, String), usize>,
) -> HashMap<(String, String), usize> {
    let mut accessors = HashMap::new();
    for f in &ir.fns {
        let file = &ir.files[f.file];
        let sig = &file.tokens[f.sig.clone()];
        let returns_lock = sig.windows(2).any(|w| w[0].text == "-" && w[1].text == ">")
            && sig.iter().any(|t| lock_kind(&t.text).is_some());
        if !returns_lock {
            continue;
        }
        let field = file.tokens[f.body.clone()]
            .iter()
            .rev()
            .find_map(|t| index.get(&(file.crate_name.clone(), t.text.clone())));
        if let Some(&idx) = field {
            accessors.insert((file.crate_name.clone(), f.name.clone()), idx);
        }
    }
    accessors
}

// ---------------------------------------------------------------------------
// Pass 3: function-body walking
// ---------------------------------------------------------------------------

/// What receivers resolve against while walking bodies.
struct Known<'a> {
    locks: &'a [LockInfo],
    index: &'a HashMap<(String, String), usize>,
    cv_index: &'a HashMap<(String, String), usize>,
    accessors: &'a HashMap<(String, String), usize>,
}

/// A resolved call recorded for propagation.
struct CallSite {
    callee: usize,
    line: usize,
    /// Tracked locks held when the call is made.
    held: Vec<usize>,
    /// Whether *any* guard (tracked, raw, or unresolved) is live.
    guard_live: bool,
    /// Display name of one held lock, for diagnostics.
    held_name: Option<String>,
}

/// Per-function facts feeding the fixpoint.
#[derive(Default)]
struct FnSummary {
    /// Locks this function acquires directly.
    direct_acquired: Vec<usize>,
    /// Whether it performs backend I/O directly.
    direct_io: bool,
    /// (held, acquired, line) edges observed in the body.
    direct_edges: Vec<(usize, usize, usize)>,
    /// Condvar wait sites: (condvar, paired mutex if resolved, line).
    cv_waits: Vec<(usize, Option<usize>, usize)>,
    /// Condvars this function notifies.
    cv_notifies: Vec<usize>,
    calls: Vec<CallSite>,
}

/// What the walker knows of a live guard: its lock, if the receiver
/// resolved, and the line it was acquired at.
type Held = (Option<usize>, usize);

fn display_name(locks: &[LockInfo], idx: usize) -> String {
    let l = &locks[idx];
    match &l.rank_const {
        Some(c) => format!("{} ({c})", l.id),
        None => l.id.clone(),
    }
}

#[allow(clippy::too_many_lines)]
fn walk_fn(ir: &Ir, func: &Func, known: &Known, diags: &mut Vec<Diagnostic>) -> FnSummary {
    let file = &ir.files[func.file];
    let toks = &file.tokens;
    let locks = known.locks;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let field_of = |ident: &str| {
        known
            .index
            .get(&(file.crate_name.clone(), ident.to_string()))
            .copied()
    };
    let cv_of = |ident: &str| {
        known
            .cv_index
            .get(&(file.crate_name.clone(), ident.to_string()))
            .copied()
    };
    let mut summary = FnSummary::default();
    let mut aliases: HashMap<String, usize> = HashMap::new();

    walk_scopes(toks, func.body.clone(), |scope: &mut Scope<Held>, i| {
        let t = text(i);

        // Statement-leading `for PAT in <iterable> {` — alias a simple
        // pattern to the lock field the iterable mentions.
        if scope.stmt_start && t == "for" {
            let pat = text(i + 1);
            if text(i + 2) == "in" && pat != "_" {
                let iterable = (i + 3..func.body.end).take_while(|&j| toks[j].text != "{");
                if let Some(idx) = iterable.filter_map(|j| field_of(&toks[j].text)).last() {
                    aliases.insert(pat.to_string(), idx);
                }
            }
            return i + 1;
        }

        // Closure parameter alias: `self.shards.iter().map(|s| s.lock()..)`.
        if t == "|"
            && text(i + 2) == "|"
            && i.checked_sub(1)
                .is_some_and(|p| matches!(text(p), "(" | ","))
        {
            let param = text(i + 1);
            if param != "_" {
                // Nearest preceding lock-field mention in this statement.
                let found = (func.body.start..i)
                    .rev()
                    .take_while(|&j| !matches!(text(j), ";" | "{" | "}"))
                    .find_map(|j| field_of(text(j)));
                if let Some(idx) = found {
                    aliases.insert(param.to_string(), idx);
                }
            }
            return i + 3;
        }

        if t != "." {
            if let Some(call) = func.call_at(i) {
                record_call(&mut summary, call, &scope.guards, locks);
            }
            return i + 1;
        }

        // Method-shaped token runs: `. name (`.
        let m = text(i + 1);
        let open = text(i + 2) == "(";
        let argless = open && text(i + 3) == ")";
        let recv = i.checked_sub(1).map_or("", text);
        let line = toks[i].line;

        // Lock acquisition: argless `.lock()` / `.read()` / `.write()`.
        if argless && matches!(m, "lock" | "read" | "write") {
            let lock = resolve_receiver(toks, i, &field_of, &aliases, known, &file.crate_name);
            // Edges and L3 against every live guard. An edge is recorded
            // whenever both locks are known (rank and cycle checks act on
            // it); L3 fires only when both sides are raw-or-unresolved —
            // tracked locks are governed by L5.
            let acq_ordered = lock.is_some_and(|b| locks[b].ordered);
            for g in &scope.guards {
                let (held, first_line) = g.data;
                if let (Some(a), Some(b)) = (held, lock) {
                    summary.direct_edges.push((a, b, line));
                }
                let held_ordered = held.is_some_and(|a| locks[a].ordered);
                if !held_ordered && !acq_ordered {
                    push_l3(diags, &file.path, line, first_line, locks, held);
                }
            }
            if let Some(b) = lock {
                if !summary.direct_acquired.contains(&b) {
                    summary.direct_acquired.push(b);
                }
            }
            scope.acquire(toks, i, (lock, line));
            return i + 4;
        }

        // Condvar wait: `cv.wait(&mut g)` / `cv.wait_for(&mut g, ..)`. The
        // wakeup path re-acquires the guard's mutex, so every *other* live
        // lock forms a held-while-acquired edge to it — a wait added under
        // a higher-ranked lock is caught by the same rank check as an
        // explicit `.lock()`.
        if let Some(cv) = cv_of(recv).filter(|_| open && matches!(m, "wait" | "wait_for")) {
            let mut j = i + 3;
            while matches!(text(j), "&" | "mut") {
                j += 1;
            }
            let mutex = scope
                .guards
                .iter()
                .rev()
                .find(|g| g.name.as_deref() == Some(text(j)))
                .and_then(|g| g.data.0);
            if let Some(b) = mutex {
                // Only let-bound guards: a wait is its own statement, so a
                // still-"live" expression temporary here is leakage from an
                // enclosing `if`/`while` condition whose temporaries Rust
                // drops before the block runs.
                for g in scope.guards.iter().filter(|g| !g.temp) {
                    if let Some(a) = g.data.0.filter(|&a| a != b) {
                        summary.direct_edges.push((a, b, line));
                    }
                }
            }
            summary.cv_waits.push((cv, mutex, line));
            return i + 2;
        }

        // Condvar notify: `cv.notify_one()` / `cv.notify_all()`.
        if let Some(cv) = cv_of(recv).filter(|_| open && matches!(m, "notify_one" | "notify_all")) {
            summary.cv_notifies.push(cv);
            return i + 2;
        }

        // Backend I/O.
        let io =
            open && (IO_METHODS.contains(&m) || (IO_METHODS_WITH_ARGS.contains(&m) && !argless));
        if io && IO_RECEIVERS.contains(&recv) {
            summary.direct_io = true;
            if !scope.guards.is_empty() && !is_io_exempt(&file.path) {
                let held = scope
                    .guards
                    .iter()
                    .rev()
                    .find_map(|g| g.data.0)
                    .map(|idx| display_name(locks, idx))
                    .unwrap_or_else(|| "a lock".into());
                // Anchor to the chain root's line when the chain is
                // `self`-rooted, so reformatting cannot strand an
                // allow-comment on the wrong line.
                let line = receiver_self_root(toks, i).map_or(line, |r| toks[r].line);
                diags.push(Diagnostic {
                    rule: Rule::IoUnderLock,
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "blocking backend I/O `.{m}(..)` while `{held}` is held; \
                         drop the guard first, or annotate with \
                         `// lsm-lint: allow(io-under-lock)` and a rationale",
                    ),
                });
            }
            return i + 2;
        }

        // Any other method call is a propagation candidate if the call
        // rule follows it.
        if let Some(call) = func.call_at(i) {
            record_call(&mut summary, call, &scope.guards, locks);
        }
        i + 2
    });
    summary
}

fn push_l3(
    diags: &mut Vec<Diagnostic>,
    path: &str,
    line: usize,
    first_line: usize,
    locks: &[LockInfo],
    first_lock: Option<usize>,
) {
    let first = first_lock
        .map(|i| format!("`{}`", locks[i].id))
        .unwrap_or_else(|| "an untracked lock".into());
    diags.push(Diagnostic {
        rule: Rule::LockNesting,
        path: path.to_string(),
        line,
        message: format!(
            "raw lock acquired while {first} (acquired at line {first_line}) is still \
             held; drop the first guard before the second acquire, or migrate both \
             locks to `lsm-sync` tracked primitives",
        ),
    });
}

/// Records a call whose callee resolved, with the locks held around it.
fn record_call(summary: &mut FnSummary, call: &Call, guards: &[Guard<Held>], locks: &[LockInfo]) {
    let Some(callee) = call.callee else { return };
    summary.calls.push(CallSite {
        callee,
        line: call.line,
        held: guards.iter().filter_map(|g| g.data.0).collect(),
        guard_live: !guards.is_empty(),
        held_name: guards
            .iter()
            .rev()
            .find_map(|g| g.data.0)
            .map(|idx| display_name(locks, idx)),
    });
}

/// Resolves the receiver of a `.lock()`-style acquisition: an accessor
/// call (`self.shard_for(k)`), or a lock field ident or loop/closure alias,
/// directly or indexed (`self.shards[i]`).
fn resolve_receiver(
    toks: &[Token],
    dot: usize,
    field_of: &dyn Fn(&str) -> Option<usize>,
    aliases: &HashMap<String, usize>,
    known: &Known,
    crate_name: &str,
) -> Option<usize> {
    let prev = dot.checked_sub(1)?;
    if toks[prev].text == ")" {
        let callee = &toks[matching(toks, prev)?.checked_sub(1)?].text;
        return known
            .accessors
            .get(&(crate_name.to_string(), callee.clone()))
            .copied();
    }
    let base = &toks[receiver_ident(toks, dot)?].text;
    field_of(base).or_else(|| aliases.get(base).copied())
}

// ---------------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------------

/// Finds distinct cycles in the edge graph via colored DFS. Each cycle is
/// reported once, as the id list along the cycle path.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
        adj.entry(&e.to).or_default();
    }
    let mut color: HashMap<&str, u8> = HashMap::new(); // 0 white, 1 gray, 2 black
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next < succ.len() {
                let child = succ[*next];
                *next += 1;
                match color.get(child).copied().unwrap_or(0) {
                    0 => {
                        color.insert(child, 1);
                        stack.push((child, 0));
                        path.push(child);
                    }
                    1 => {
                        // Back edge: extract the cycle from the path.
                        if let Some(pos) = path.iter().position(|&n| n == child) {
                            let mut cycle: Vec<String> =
                                path[pos..].iter().map(|s| s.to_string()).collect();
                            cycle.push(child.to_string());
                            let mut canon = cycle.clone();
                            canon.sort();
                            canon.dedup();
                            if seen.insert(canon) {
                                cycles.push(cycle);
                            }
                        }
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> LockGraph {
        analyze(&[("crates/lsm-core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn an_indexed_self_call_under_a_lock_yields_the_callee_edge() {
        let src = "struct Db { outer: OrderedMutex<u32>, shards: Vec<Shard> }\n\
                   struct Shard { inner: OrderedMutex<u32> }\n\
                   impl Db {\n\
                       fn commit(&self, i: usize) {\n\
                           let _epoch = self.outer.lock();\n\
                           self.shards[i].apply();\n\
                       }\n\
                   }\n\
                   impl Shard { fn apply(&self) { let _g = self.inner.lock(); } }\n";
        let graph = run(src);
        let edge = graph
            .edges
            .iter()
            .find(|e| e.from == "lsm-core/outer" && e.to == "lsm-core/inner");
        assert_eq!(edge.map(|e| e.line), Some(6), "{:?}", graph.edges);
    }

    #[test]
    fn a_path_qualified_call_is_not_resolved_by_bare_name() {
        let with_call = |call: &str| {
            format!(
                "struct S {{ a: Mutex<u32> }}\n\
                 impl S {{\n\
                     fn get(&self) {{\n\
                         let _g = self.a.lock();\n\
                         let _ = {call}(1);\n\
                     }}\n\
                 }}\n\
                 fn open(backend: &B) {{ backend.append(1); }}\n"
            )
        };
        let l6 = |src: String| {
            run(&src)
                .diagnostics
                .into_iter()
                .filter(|d| d.rule == Rule::IoUnderLock)
                .count()
        };
        assert_eq!(
            l6(with_call("m::open")),
            0,
            "`m::open` is not the local `open`"
        );
        assert_eq!(l6(with_call("open")), 1, "the local `open` does I/O");
    }

    #[test]
    fn a_wal_group_append_under_a_lock_is_io() {
        let src = "struct S { mem: OrderedRwLock<u32> }\n\
                   impl S {\n\
                       fn commit(&self, writer: W) {\n\
                           let _mem = self.mem.read();\n\
                           writer.append_records(&payloads);\n\
                       }\n\
                   }\n";
        let l6: Vec<usize> = run(src)
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::IoUnderLock)
            .map(|d| d.line)
            .collect();
        assert_eq!(l6, [5], "one L6, at the append");
    }
}
