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
//! 4. Function bodies are walked with guard-liveness tracking: let-bound
//!    guards live until scope exit or `drop(guard)`, expression temporaries
//!    until the end of the statement. Acquiring lock B while guard A is
//!    live records edge A → B.
//! 5. Acquisition sets and does-I/O flags propagate through direct
//!    intra-crate calls, but only when the callee name resolves to exactly
//!    one function definition in the crate — ambiguous names (trait
//!    methods, `new`, `insert`, …) are never followed, which keeps dynamic
//!    dispatch from fabricating edges.
//!
//! The resulting hierarchy is emitted as `lock_order.json` (see
//! [`LockGraph::spec_json`]) and checked in at the workspace root.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::{test_regions, tokenize, Diagnostic, Rule, Token};

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

/// Idents that look like calls but are control flow or common macros.
pub(crate) const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "loop", "move", "fn", "let", "else",
    "impl", "where", "unsafe", "break", "continue", "drop", "Some", "None", "Ok", "Err",
];

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
    let mut graph = LockGraph::default();

    // Pass 0: the declared rank table.
    let ranks: HashMap<String, (String, u32)> = files
        .iter()
        .find(|(p, _)| p.ends_with("lsm-sync/src/ranks.rs"))
        .map(|(_, src)| parse_rank_consts(src))
        .unwrap_or_default();

    // Tokenize every engine file once.
    let prepared: Vec<FileTokens> = files
        .iter()
        .filter(|(path, _)| is_engine_file(path))
        .map(|(path, source)| {
            let tokens = tokenize(source);
            let test = test_regions(&tokens);
            FileTokens {
                path: path.clone(),
                crate_name: crate_of(path).to_string(),
                tokens,
                test,
            }
        })
        .collect();

    // Pass 1: lock fields, rank bindings, condvar fields.
    let mut locks: Vec<LockInfo> = Vec::new();
    let mut lock_index: HashMap<(String, String), usize> = HashMap::new();
    for file in &prepared {
        discover_lock_fields(file, &mut locks, &mut lock_index);
    }
    let mut condvars: Vec<CondvarInfo> = Vec::new();
    let mut cv_index: HashMap<(String, String), usize> = HashMap::new();
    for file in &prepared {
        discover_condvars(file, &mut condvars, &mut cv_index);
    }
    for file in &prepared {
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
    let mut accessors: HashMap<(String, String), usize> = HashMap::new();
    for file in &prepared {
        discover_accessors(file, &locks, &lock_index, &mut accessors);
    }

    // Pass 3: walk every function body.
    let mut fns: Vec<FnSummary> = Vec::new();
    for file in &prepared {
        walk_file(
            file,
            &locks,
            &lock_index,
            &cv_index,
            &accessors,
            &mut fns,
            &mut graph.diagnostics,
        );
    }

    // Pass 3.5: bind each condvar to the mutex its wait sites pair it with.
    // Two different mutexes for one condvar is itself a protocol bug (the
    // waiters race on distinct queues), reported as L5.
    for f in &fns {
        for &(cv, mutex, ref file, line) in &f.cv_waits {
            condvars[cv].wait_sites += 1;
            let Some(mx) = mutex else { continue };
            let mx_id = locks[mx].id.clone();
            match &condvars[cv].mutex {
                None => condvars[cv].mutex = Some(mx_id),
                Some(existing) if *existing != mx_id => graph.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrder,
                    path: file.clone(),
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
        for &cv in &f.cv_notifies {
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

    // Pass 4: propagate acquisitions and does-I/O through unambiguous
    // intra-crate calls (fixpoint).
    let mut name_count: HashMap<(String, String), usize> = HashMap::new();
    for f in &fns {
        *name_count
            .entry((f.crate_name.clone(), f.name.clone()))
            .or_insert(0) += 1;
    }
    let unique: HashMap<(String, String), usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| name_count[&(f.crate_name.clone(), f.name.clone())] == 1)
        .map(|(i, f)| ((f.crate_name.clone(), f.name.clone()), i))
        .collect();
    let (acquired, does_io) = propagate(&fns, &unique);

    // Pass 5: edges — direct plus call-propagated — and L6 at call sites.
    let mut edge_first: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut record = |from: usize, to: usize, file: &str, line: usize| {
        edge_first
            .entry((locks[from].id.clone(), locks[to].id.clone()))
            .or_insert_with(|| (file.to_string(), line));
    };
    for f in &fns {
        for &(held, acq, ref file, line) in &f.direct_edges {
            record(held, acq, file, line);
        }
        for call in &f.calls {
            let Some(&callee) = unique.get(&(f.crate_name.clone(), call.name.clone())) else {
                continue;
            };
            for &held in &call.held {
                for &acq in &acquired[callee] {
                    if held != acq {
                        record(held, acq, &call.file, call.line);
                    }
                }
            }
            if call.guard_live && does_io[callee] && !is_io_exempt(&call.file) {
                graph.diagnostics.push(Diagnostic {
                    rule: Rule::IoUnderLock,
                    path: call.file.clone(),
                    line: call.line,
                    message: format!(
                        "call to `{}` (which performs blocking backend I/O) while `{}` \
                         is held; drop the guard first, or annotate with \
                         `// lsm-lint: allow(io-under-lock)` and a rationale",
                        call.name,
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

pub(crate) fn is_engine_file(path: &str) -> bool {
    !path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples" || c == "fixtures")
}

pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("lsm-lab")
}

struct FileTokens {
    path: String,
    crate_name: String,
    tokens: Vec<Token>,
    test: Vec<bool>,
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
    file: &FileTokens,
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
    file: &FileTokens,
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
    file: &FileTokens,
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
    file: &FileTokens,
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
    file: &FileTokens,
    locks: &[LockInfo],
    index: &HashMap<(String, String), usize>,
    accessors: &mut HashMap<(String, String), usize>,
) {
    for_each_fn(&file.tokens, &file.test, |name, sig, body| {
        let returns_lock = file.tokens[sig.clone()]
            .windows(2)
            .any(|w| w[0].text == "-" && w[1].text == ">")
            && file.tokens[sig]
                .iter()
                .any(|t| lock_kind(&t.text).is_some());
        if !returns_lock {
            return;
        }
        let field = file.tokens[body]
            .iter()
            .rev()
            .find_map(|t| index.get(&(file.crate_name.clone(), t.text.clone())));
        if let Some(&idx) = field {
            let _ = &locks[idx];
            accessors.insert((file.crate_name.clone(), name.to_string()), idx);
        }
    });
}

/// Iterates function items: `cb(name, signature token range, body token
/// range)`. Bodiless trait signatures and test-region functions are
/// skipped; nested items are visited as part of the enclosing body.
pub(crate) fn for_each_fn(
    tokens: &[Token],
    test: &[bool],
    mut cb: impl FnMut(&str, std::ops::Range<usize>, std::ops::Range<usize>),
) {
    let mut i = 0usize;
    while i < tokens.len() {
        if test[i] || tokens[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        let name = name_tok.text.clone();
        // Find the body `{` (or `;` for a bodiless signature).
        let mut j = i + 2;
        let mut body_start = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => {
                    body_start = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        // Match the body's closing brace.
        let mut depth = 0i64;
        let mut end = start;
        for (k, t) in tokens.iter().enumerate().skip(start) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        cb(&name, i + 2..start, start..end + 1);
        // Continue *inside* the body so nested fns are also visited.
        i = start + 1;
    }
}

// ---------------------------------------------------------------------------
// Pass 3: function-body walking
// ---------------------------------------------------------------------------

/// A call site recorded for propagation.
struct CallSite {
    name: String,
    file: String,
    line: usize,
    /// Tracked locks held when the call is made.
    held: Vec<usize>,
    /// Whether *any* guard (tracked, raw, or unresolved) is live.
    guard_live: bool,
    /// Display name of one held lock, for diagnostics.
    held_name: Option<String>,
}

/// Per-function facts feeding the fixpoint.
struct FnSummary {
    crate_name: String,
    name: String,
    /// Locks this function acquires directly.
    direct_acquired: Vec<usize>,
    /// Whether it performs backend I/O directly.
    direct_io: bool,
    /// (held, acquired, file, line) edges observed in the body.
    direct_edges: Vec<(usize, usize, String, usize)>,
    /// Condvar wait sites: (condvar, paired mutex if resolved, file, line).
    cv_waits: Vec<(usize, Option<usize>, String, usize)>,
    /// Condvars this function notifies.
    cv_notifies: Vec<usize>,
    calls: Vec<CallSite>,
}

/// A live guard in the walker.
struct Guard {
    /// Known lock index, if the receiver resolved.
    lock: Option<usize>,
    /// Binding name, for `drop(name)` tracking.
    name: Option<String>,
    /// Brace depth of the binding — the guard dies when scope unwinds past.
    depth: i64,
    /// Expression temporary: dies at the next `;` or block close.
    temp: bool,
    line: usize,
}

#[allow(clippy::too_many_arguments)]
fn walk_file(
    file: &FileTokens,
    locks: &[LockInfo],
    index: &HashMap<(String, String), usize>,
    cv_index: &HashMap<(String, String), usize>,
    accessors: &HashMap<(String, String), usize>,
    fns: &mut Vec<FnSummary>,
    diags: &mut Vec<Diagnostic>,
) {
    for_each_fn(&file.tokens, &file.test, |name, _sig, body| {
        let summary = walk_fn(file, name, body, locks, index, cv_index, accessors, diags);
        fns.push(summary);
    });
}

fn display_name(locks: &[LockInfo], idx: usize, ranks_known: bool) -> String {
    let l = &locks[idx];
    if ranks_known {
        if let Some(c) = &l.rank_const {
            return format!("{} ({c})", l.id);
        }
    }
    l.id.clone()
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn walk_fn(
    file: &FileTokens,
    fn_name: &str,
    body: std::ops::Range<usize>,
    locks: &[LockInfo],
    index: &HashMap<(String, String), usize>,
    cv_index: &HashMap<(String, String), usize>,
    accessors: &HashMap<(String, String), usize>,
    diags: &mut Vec<Diagnostic>,
) -> FnSummary {
    let toks = &file.tokens;
    let crate_name = &file.crate_name;
    let mut summary = FnSummary {
        crate_name: crate_name.clone(),
        name: fn_name.to_string(),
        direct_acquired: Vec::new(),
        direct_io: false,
        direct_edges: Vec::new(),
        cv_waits: Vec::new(),
        cv_notifies: Vec::new(),
        calls: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut aliases: HashMap<String, usize> = HashMap::new();
    let mut depth = 0i64;
    let mut stmt_start = true;
    // Pending `let IDENT =` binding for the current statement.
    let mut pending_let: Option<String> = None;

    let field_of = |ident: &str| index.get(&(crate_name.clone(), ident.to_string())).copied();
    let cv_of = |ident: &str| {
        cv_index
            .get(&(crate_name.clone(), ident.to_string()))
            .copied()
    };

    let mut i = body.start;
    while i < body.end {
        let t = toks[i].text.as_str();
        match t {
            "{" => {
                depth += 1;
                stmt_start = true;
                i += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth && !g.temp);
                stmt_start = true;
                pending_let = None;
                i += 1;
                continue;
            }
            ";" => {
                guards.retain(|g| !g.temp);
                stmt_start = true;
                pending_let = None;
                i += 1;
                continue;
            }
            _ => {}
        }

        // `drop(name)` releases a named guard.
        if t == "drop" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            if let Some(victim) = toks.get(i + 2).map(|t| t.text.clone()) {
                guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            }
            i += 1;
            continue;
        }

        // Statement-leading `let [mut] IDENT =`.
        if stmt_start && t == "let" {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                j += 1;
            }
            let ident = toks.get(j).map(|t| t.text.clone());
            if let Some(id) = ident {
                let simple = id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if simple && toks.get(j + 1).map(|t| t.text.as_str()) == Some("=") {
                    pending_let = Some(id);
                    // Alias: `let x = self.accessor(..);` / `let x = &self.field;`
                    // (resolved below if no acquisition claims the binding).
                }
            }
            stmt_start = false;
            i += 1;
            continue;
        }

        // Statement-leading `for PAT in <iterable> {` — alias a simple
        // pattern to the lock field the iterable mentions.
        if stmt_start && t == "for" {
            let pat = toks.get(i + 1).map(|t| t.text.clone());
            if let Some(p) = pat {
                if toks.get(i + 2).map(|t| t.text.as_str()) == Some("in") {
                    let mut j = i + 3;
                    let mut found = None;
                    while j < body.end && toks[j].text != "{" {
                        if let Some(idx) = field_of(&toks[j].text) {
                            found = Some(idx);
                        }
                        j += 1;
                    }
                    if let (Some(idx), true) = (found, p != "_") {
                        aliases.insert(p, idx);
                    }
                }
            }
            stmt_start = false;
            i += 1;
            continue;
        }

        // Closure parameter alias: `self.shards.iter().map(|s| s.lock()..)`.
        if t == "|"
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("|")
            && toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.text == "(" || p.text == ",")
        {
            if let Some(param) = toks.get(i + 1).map(|t| t.text.clone()) {
                if param != "_" {
                    // Nearest preceding lock-field mention in this statement.
                    let mut j = i;
                    while j > body.start {
                        j -= 1;
                        match toks[j].text.as_str() {
                            ";" | "{" | "}" => break,
                            other => {
                                if let Some(idx) = field_of(other) {
                                    aliases.insert(param, idx);
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            i += 3;
            continue;
        }

        // Method-shaped token runs: `. name (`.
        if t == "." {
            let m = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
            let open = toks.get(i + 2).map(|t| t.text.as_str()) == Some("(");
            let argless = open && toks.get(i + 3).map(|t| t.text.as_str()) == Some(")");
            let line = toks[i].line;

            // Lock acquisition: argless `.lock()` / `.read()` / `.write()`.
            if argless && matches!(m, "lock" | "read" | "write") {
                let lock =
                    resolve_receiver(toks, i, &|id| field_of(id), &aliases, accessors, crate_name);
                // Edges and L3 against every live guard. An edge is
                // recorded whenever both locks are known (rank and cycle
                // checks act on it); L3 fires only when both sides are
                // raw-or-unresolved — tracked locks are governed by L5.
                let acq_ordered = lock.is_some_and(|b| locks[b].ordered);
                for g in &guards {
                    if let (Some(a), Some(b)) = (g.lock, lock) {
                        summary.direct_edges.push((a, b, file.path.clone(), line));
                    }
                    let held_ordered = g.lock.is_some_and(|a| locks[a].ordered);
                    if !held_ordered && !acq_ordered {
                        push_l3(diags, file, line, g.line, locks, g.lock);
                    }
                }
                if let Some(b) = lock {
                    if !summary.direct_acquired.contains(&b) {
                        summary.direct_acquired.push(b);
                    }
                }
                // Guard binding: a statement-leading `let` whose acquisition
                // is terminal (next token after `()` is `;`, or a single
                // `.unwrap()`/`.expect(..)` adapter before the `;` — the
                // std-Mutex guard idiom) names the guard; anything else is
                // an expression temporary.
                let terminal = match toks.get(i + 4).map(|t| t.text.as_str()) {
                    Some(";") => true,
                    Some(".") => {
                        matches!(
                            toks.get(i + 5).map(|t| t.text.as_str()),
                            Some("unwrap") | Some("expect")
                        ) && toks.get(i + 6).map(|t| t.text.as_str()) == Some("(")
                            && match_forward(toks, i + 6, "(", ")").is_some_and(|close| {
                                toks.get(close + 1).map(|t| t.text.as_str()) == Some(";")
                            })
                    }
                    _ => false,
                };
                let (name, temp) = match (&pending_let, terminal) {
                    (Some(n), true) if n != "_" => (Some(n.clone()), false),
                    _ => (None, true),
                };
                guards.push(Guard {
                    lock,
                    name,
                    depth,
                    temp,
                    line,
                });
                i += 4;
                stmt_start = false;
                continue;
            }

            // Condvar wait: `cv.wait(&mut g)` / `cv.wait_for(&mut g, ..)`.
            // The wakeup path re-acquires the guard's mutex, so every
            // *other* live lock forms a held-while-acquired edge to it —
            // a wait added under a higher-ranked lock is caught by the
            // same rank check as an explicit `.lock()`.
            if open && matches!(m, "wait" | "wait_for") {
                let recv = toks
                    .get(i.wrapping_sub(1))
                    .map(|t| t.text.as_str())
                    .unwrap_or("");
                if let Some(cv) = cv_of(recv) {
                    let mut j = i + 3;
                    while toks
                        .get(j)
                        .is_some_and(|t| t.text == "&" || t.text == "mut")
                    {
                        j += 1;
                    }
                    let guard_name = toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
                    let mutex = guards
                        .iter()
                        .rev()
                        .find(|g| g.name.as_deref() == Some(guard_name))
                        .and_then(|g| g.lock);
                    if let Some(b) = mutex {
                        // Only let-bound guards: a wait is its own
                        // statement, so a still-"live" expression
                        // temporary here is leakage from an enclosing
                        // `if`/`while` condition whose temporaries Rust
                        // drops before the block runs.
                        for g in &guards {
                            if g.temp {
                                continue;
                            }
                            if let Some(a) = g.lock {
                                if a != b {
                                    summary.direct_edges.push((a, b, file.path.clone(), line));
                                }
                            }
                        }
                    }
                    summary.cv_waits.push((cv, mutex, file.path.clone(), line));
                    i += 2;
                    stmt_start = false;
                    continue;
                }
            }

            // Condvar notify: `cv.notify_one()` / `cv.notify_all()`.
            if open && matches!(m, "notify_one" | "notify_all") {
                let recv = toks
                    .get(i.wrapping_sub(1))
                    .map(|t| t.text.as_str())
                    .unwrap_or("");
                if let Some(cv) = cv_of(recv) {
                    summary.cv_notifies.push(cv);
                    i += 2;
                    stmt_start = false;
                    continue;
                }
            }

            // Backend I/O.
            let io = (IO_METHODS.contains(&m) && open)
                || (IO_METHODS_WITH_ARGS.contains(&m) && open && !argless);
            if io {
                let recv_is_io = toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| IO_RECEIVERS.contains(&p.text.as_str()));
                if recv_is_io {
                    summary.direct_io = true;
                    if !guards.is_empty() && !is_io_exempt(&file.path) {
                        let held = guards
                            .iter()
                            .rev()
                            .find_map(|g| g.lock)
                            .map(|idx| display_name(locks, idx, true))
                            .unwrap_or_else(|| "a lock".into());
                        // Anchor to the chain root's line when the chain is
                        // `self`-rooted, so reformatting cannot strand an
                        // allow-comment on the wrong line.
                        let line = receiver_self_root(toks, i)
                            .map(|r| toks[r].line)
                            .unwrap_or(line);
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
                    i += 2;
                    stmt_start = false;
                    continue;
                }
            }

            // Ordinary method call: candidate for propagation. Only
            // `self`-rooted chains qualify — a bare-name match on an
            // arbitrary receiver (`out.push(..)`, `edit.apply(..)`) is
            // dynamic-dispatch guessing and fabricates call edges to
            // same-named crate functions. Diagnostics anchor to the chain
            // root's line (where the statement starts), so rustfmt's
            // chain-splitting cannot strand an allow-comment.
            if open && !m.is_empty() && m.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
                if let Some(root) = receiver_self_root(toks, i) {
                    record_call(&mut summary, file, m, toks[root].line, &guards, locks);
                }
            }
            i += 2;
            stmt_start = false;
            continue;
        }

        // Free / path calls: `ident (` not preceded by `.` or `fn`.
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && !CALL_KEYWORDS.contains(&t)
            && t.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && toks
                .get(i.wrapping_sub(1))
                .map(|p| p.text.as_str() != "." && p.text.as_str() != "fn")
                .unwrap_or(true)
        {
            record_call(&mut summary, file, t, toks[i].line, &guards, locks);
        }

        stmt_start = false;
        i += 1;
    }
    summary
}

fn push_l3(
    diags: &mut Vec<Diagnostic>,
    file: &FileTokens,
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
        path: file.path.clone(),
        line,
        message: format!(
            "raw lock acquired while {first} (acquired at line {first_line}) is still \
             held; drop the first guard before the second acquire, or migrate both \
             locks to `lsm-sync` tracked primitives",
        ),
    });
}

fn record_call(
    summary: &mut FnSummary,
    file: &FileTokens,
    name: &str,
    line: usize,
    guards: &[Guard],
    locks: &[LockInfo],
) {
    let held: Vec<usize> = guards.iter().filter_map(|g| g.lock).collect();
    let held_name = guards
        .iter()
        .rev()
        .find_map(|g| g.lock)
        .map(|idx| display_name(locks, idx, true));
    summary.calls.push(CallSite {
        name: name.to_string(),
        file: file.path.clone(),
        line,
        held,
        guard_live: !guards.is_empty(),
        held_name,
    });
}

/// Resolves the receiver of a `.lock()`-style acquisition: a lock field
/// ident, a loop/closure alias, an accessor call (`self.shard_for(k)`), or
/// an index expression (`self.shards[i]`).
fn resolve_receiver(
    toks: &[Token],
    dot_idx: usize,
    field_of: &dyn Fn(&str) -> Option<usize>,
    aliases: &HashMap<String, usize>,
    accessors: &HashMap<(String, String), usize>,
    crate_name: &str,
) -> Option<usize> {
    let prev = dot_idx.checked_sub(1)?;
    match toks[prev].text.as_str() {
        ")" => {
            let open = match_back(toks, prev, "(", ")")?;
            let callee = toks.get(open.checked_sub(1)?)?;
            accessors
                .get(&(crate_name.to_string(), callee.text.clone()))
                .copied()
        }
        "]" => {
            let open = match_back(toks, prev, "[", "]")?;
            let base = toks.get(open.checked_sub(1)?)?;
            field_of(&base.text).or_else(|| aliases.get(&base.text).copied())
        }
        ident => field_of(ident).or_else(|| aliases.get(ident).copied()),
    }
}

/// Resolves the receiver chain of the method call at `dot_idx` (a `.`
/// token) to its root token index, if the chain is rooted at `self` —
/// i.e. `self.f(..)` or `self.inner.f(..)`. Chains containing an
/// intermediate call or index (`self.x.lock().f(..)`) yield `None`: the
/// call lands on the guard's deref target, not on `self`.
pub(crate) fn receiver_self_root(toks: &[Token], dot_idx: usize) -> Option<usize> {
    let mut j = dot_idx.checked_sub(1)?;
    loop {
        let t = toks[j].text.as_str();
        if t == "self" {
            return Some(j);
        }
        let is_ident = !t.is_empty() && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !is_ident {
            return None;
        }
        match j.checked_sub(1) {
            Some(p) if toks[p].text == "." => j = p.checked_sub(1)?,
            _ => return None,
        }
    }
}

/// [`receiver_self_root`] that also sees through index groups: a call on
/// `self.engines[i]` is a call on one of `self`'s own elements (how a
/// database handle reaches the engine a key routes to). Used by L7 only.
pub(crate) fn receiver_self_root_indexed(toks: &[Token], dot_idx: usize) -> Option<usize> {
    let mut j = dot_idx.checked_sub(1)?;
    loop {
        while toks[j].text == "]" {
            j = match_back(toks, j, "[", "]")?.checked_sub(1)?;
        }
        let t = toks[j].text.as_str();
        if t == "self" {
            return Some(j);
        }
        let is_ident = !t.is_empty() && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !is_ident {
            return None;
        }
        match j.checked_sub(1) {
            Some(p) if toks[p].text == "." => j = p.checked_sub(1)?,
            _ => return None,
        }
    }
}

/// Finds the index of the `close` token matching the `open` at `open_idx`.
fn match_forward(toks: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds the index of the `open` token matching the `close` at `close_idx`.
fn match_back(toks: &[Token], close_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = close_idx;
    loop {
        let t = toks[j].text.as_str();
        if t == close {
            depth += 1;
        } else if t == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

// ---------------------------------------------------------------------------
// Pass 4: fixpoint propagation
// ---------------------------------------------------------------------------

/// Computes each function's transitive acquisition set and does-I/O flag,
/// following only `self`-rooted or path calls whose name maps to exactly
/// one function in the crate. Monotone union, so the fixpoint terminates.
fn propagate(
    fns: &[FnSummary],
    unique: &HashMap<(String, String), usize>,
) -> (Vec<BTreeSet<usize>>, Vec<bool>) {
    let mut acquired: Vec<BTreeSet<usize>> = fns
        .iter()
        .map(|f| f.direct_acquired.iter().copied().collect())
        .collect();
    let mut does_io: Vec<bool> = fns.iter().map(|f| f.direct_io).collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let Some(&callee) = unique.get(&(f.crate_name.clone(), call.name.clone())) else {
                    continue;
                };
                if callee == i {
                    continue;
                }
                let add: Vec<usize> = acquired[callee]
                    .iter()
                    .filter(|l| !acquired[i].contains(l))
                    .copied()
                    .collect();
                if !add.is_empty() {
                    acquired[i].extend(add);
                    changed = true;
                }
                if does_io[callee] && !does_io[i] {
                    does_io[i] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return (acquired, does_io);
        }
    }
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
