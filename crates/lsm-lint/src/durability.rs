//! L7 `durability-order`: static verification of the durable-before-visible
//! commit protocol.
//!
//! The group-commit pipeline in `lsm-core` promises that nothing a reader or
//! a waiting writer can observe happens before the bytes backing it are in
//! the WAL (and fsynced, on sync paths), and that a fresh WAL segment is
//! named by a persisted manifest before the memtable lock that froze it is
//! released. Both halves of that promise have been broken before — a
//! manifest stale-overwrite TOCTOU and an ack-into-an-unnamed-WAL-segment
//! window — and both were only caught dynamically by the crash sweep. This
//! pass states the protocol as checkable ordering rules over an effect
//! classification of `lsm-core`/`lsm-storage` statements:
//!
//! | effect | source pattern |
//! |---|---|
//! | `wal_append` | `writer.append(..)` / `writer.append_records(..)` |
//! | `wal_sync` | `writer.sync()` |
//! | `wal_segment_create` | `backend.create_appendable()` |
//! | `manifest_build` | a `build_manifest(..)` / `manifest_from(..)` call |
//! | `manifest_persist` | `backend.put_meta(MANIFEST_META, ..)` |
//! | `seqno_publish` | `seqno.store(..)` |
//! | `ack` | `done.store(..)`, `commit_cv.notify_*()` |
//!
//! Effects are collected per function in source order, then flattened
//! through unambiguous intra-crate calls (the same resolution discipline as
//! the lock graph: a callee is followed only when its name maps to exactly
//! one function in the crate). The rules:
//!
//! - **D1** — no `seqno_publish`/`ack` at a point where the group's
//!   `wal_append` has not happened yet (a later append in the same
//!   flattened sequence proves the visibility effect fired too early).
//! - **D2** — on sync paths, no `seqno_publish`/`ack` between a
//!   `wal_append` and its `wal_sync`.
//! - **D3** — a `wal_segment_create` under the `mem` lock must be followed
//!   by a `manifest_persist` while that same `mem` guard is still live:
//!   releasing `mem` first opens a window where writers append into a
//!   segment no manifest names.
//! - **D4** — `manifest_persist` must happen under the `manifest_mx`
//!   ticket, and in a persisting function every `manifest_build` must be
//!   under the same ticket (build-outside/persist-inside is the TOCTOU).
//!
//! Deliberate exceptions (e.g. recovery, which republishes sequence
//! numbers single-threaded before re-logging) are annotated with
//! `// lsm-lint: allow(durability-order)` *plus a rationale* — a bare
//! marker is rejected as L0 `bad-allow`.
//!
//! The verified protocol is emitted as `durability_order.json` (see
//! [`DurabilityReport::spec_json`]), checked in at the workspace root as a
//! sibling of `lock_order.json`.

use std::collections::HashMap;

use crate::lockgraph::{
    crate_of, for_each_fn, is_engine_file, receiver_self_root_indexed, CALL_KEYWORDS,
};
use crate::{test_regions, tokenize, Diagnostic, Rule, Token};

/// Receiver idents whose `.append(..)`/`.sync()` calls are WAL writes.
const WAL_RECEIVERS: &[&str] = &["writer"];

/// Receiver idents whose `.create_appendable()`/`.put_meta(..)` calls hit
/// the storage backend.
const BACKEND_RECEIVERS: &[&str] = &["backend"];

/// The meta key under which the manifest is persisted.
const MANIFEST_KEYS: &[&str] = &["MANIFEST_META"];

/// Atomic fields whose `.store(..)` publishes the visible sequence number.
const SEQNO_FIELDS: &[&str] = &["seqno"];

/// Atomic fields whose `.store(..)` acknowledges a waiting writer.
const ACK_FLAGS: &[&str] = &["done"];

/// Condvars whose notification wakes committed writers (acks). The worker
/// and stall condvars are scheduling signals, not commit acknowledgments.
const ACK_CONDVARS: &[&str] = &["commit_cv"];

/// Calls that build a manifest snapshot from the current version state.
const MANIFEST_BUILDERS: &[&str] = &["build_manifest", "manifest_from"];

/// The durability effect classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EffectKind {
    WalAppend,
    WalSync,
    WalSegmentCreate,
    ManifestBuild,
    ManifestPersist,
    SeqnoPublish,
    Ack,
}

impl EffectKind {
    fn label(self) -> &'static str {
        match self {
            EffectKind::WalAppend => "wal_append",
            EffectKind::WalSync => "wal_sync",
            EffectKind::WalSegmentCreate => "wal_segment_create",
            EffectKind::ManifestBuild => "manifest_build",
            EffectKind::ManifestPersist => "manifest_persist",
            EffectKind::SeqnoPublish => "seqno_publish",
            EffectKind::Ack => "ack",
        }
    }

    /// Whether this effect makes state observable (D1/D2's subject).
    fn is_visibility(self) -> bool {
        matches!(self, EffectKind::SeqnoPublish | EffectKind::Ack)
    }
}

/// One effect site, with the lock context D3/D4 need.
#[derive(Clone, Debug)]
struct Effect {
    kind: EffectKind,
    line: usize,
    /// Per-function id of the innermost live `mem` guard, if any.
    mem_guard: Option<usize>,
    /// Whether the `manifest_mx` ticket is held at the site.
    under_manifest: bool,
}

/// One entry of a function's ordered effect sequence.
enum Item {
    Effect(Effect),
    Call { name: String },
}

/// Per-function effect summary.
struct FnEffects {
    crate_name: String,
    name: String,
    file: String,
    items: Vec<Item>,
}

/// An effect in a flattened (call-inlined) sequence.
#[derive(Clone, Debug)]
struct FlatEffect {
    kind: EffectKind,
    file: String,
    line: usize,
}

/// One function's durability profile, as emitted into the spec: its direct
/// effects in source order, with `call:<fn>` markers where it delegates to
/// another effectful function.
#[derive(Clone, Debug)]
pub struct FnSpec {
    /// Crate the function lives in.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Effect labels / call markers in source order.
    pub effects: Vec<String>,
}

/// The outcome of the durability-order analysis.
#[derive(Debug, Default)]
pub struct DurabilityReport {
    /// Every function with durability effects (direct or via calls).
    pub functions: Vec<FnSpec>,
    /// L7 findings (not yet allow-filtered).
    pub diagnostics: Vec<Diagnostic>,
}

impl DurabilityReport {
    /// Renders the checked-in `durability_order.json` spec: the rules and
    /// every effectful function's effect sequence. Deterministic (sorted)
    /// and line-number-free so it only changes when the protocol does.
    pub fn spec_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
        let rules: &[(&str, &str)] = &[
            ("D1", "no seqno_publish/ack before the group's wal_append"),
            (
                "D2",
                "no seqno_publish/ack between wal_append and its wal_sync on sync paths",
            ),
            (
                "D3",
                "mem stays held from wal_segment_create until a manifest_persist names the segment",
            ),
            (
                "D4",
                "manifest build and put_meta are atomic under manifest_mx",
            ),
        ];
        for (i, (id, check)) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{id}\", \"check\": \"{check}\"}}"
            ));
        }
        out.push_str("\n  ],\n  \"functions\": [");
        let mut fns: Vec<&FnSpec> = self.functions.iter().collect();
        fns.sort_by(|a, b| {
            (&a.crate_name, &a.name, &a.file).cmp(&(&b.crate_name, &b.name, &b.file))
        });
        for (i, f) in fns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let effects: Vec<String> = f.effects.iter().map(|e| format!("\"{e}\"")).collect();
            out.push_str(&format!(
                "\n    {{\"crate\": \"{}\", \"fn\": \"{}\", \"file\": \"{}\", \"effects\": [{}]}}",
                f.crate_name,
                f.name,
                f.file,
                effects.join(", "),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Whether the durability protocol applies to this file: the commit
/// pipeline (`lsm-core`) and the WAL/storage substrate (`lsm-storage`).
fn is_protocol_file(path: &str) -> bool {
    is_engine_file(path) && matches!(crate_of(path), "lsm-core" | "lsm-storage")
}

/// Runs the durability-order analysis over `(workspace-relative path,
/// source)` pairs.
pub fn analyze(files: &[(String, String)]) -> DurabilityReport {
    let mut report = DurabilityReport::default();

    // Pass 1: per-function effect sequences.
    let mut fns: Vec<FnEffects> = Vec::new();
    for (path, source) in files {
        if !is_protocol_file(path) {
            continue;
        }
        let tokens = tokenize(source);
        let test = test_regions(&tokens);
        let crate_name = crate_of(path).to_string();
        for_each_fn(&tokens, &test, |name, _sig, body| {
            fns.push(walk_fn(path, &crate_name, name, &tokens, body));
        });
    }

    // Unambiguous call resolution: a name is followed only when it maps to
    // exactly one function in the crate.
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

    // Transitive effectfulness (monotone fixpoint over unique calls).
    let mut effectful: Vec<bool> = fns
        .iter()
        .map(|f| f.items.iter().any(|i| matches!(i, Item::Effect(_))))
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            if effectful[i] {
                continue;
            }
            let hit = f.items.iter().any(|item| match item {
                Item::Call { name } => unique
                    .get(&(f.crate_name.clone(), name.clone()))
                    .is_some_and(|&c| effectful[c]),
                Item::Effect(_) => false,
            });
            if hit {
                effectful[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: D1/D2 over flattened sequences, D3/D4 over direct effects.
    let mut memo: HashMap<usize, Vec<FlatEffect>> = HashMap::new();
    for i in 0..fns.len() {
        let flat = flatten(i, &fns, &unique, &mut memo, &mut Vec::new());
        check_visibility_rules(&flat, &mut report.diagnostics);
        check_segment_and_manifest_rules(&fns[i], &mut report.diagnostics);
    }

    // Identical violations re-derived through callers collapse to one.
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    report
        .diagnostics
        .dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);

    // The spec: every effectful function's direct sequence.
    for (i, f) in fns.iter().enumerate() {
        if !effectful[i] {
            continue;
        }
        let mut effects = Vec::new();
        for item in &f.items {
            match item {
                Item::Effect(e) => effects.push(e.kind.label().to_string()),
                Item::Call { name } => {
                    let followed = unique
                        .get(&(f.crate_name.clone(), name.clone()))
                        .is_some_and(|&c| effectful[c]);
                    if followed {
                        effects.push(format!("call:{name}"));
                    }
                }
            }
        }
        report.functions.push(FnSpec {
            crate_name: f.crate_name.clone(),
            name: f.name.clone(),
            file: f.file.clone(),
            effects,
        });
    }
    report
}

/// D1/D2 over one function's flattened effect sequence.
fn check_visibility_rules(flat: &[FlatEffect], diags: &mut Vec<Diagnostic>) {
    for (pos, e) in flat.iter().enumerate() {
        if !e.kind.is_visibility() {
            continue;
        }
        let prior_append = flat[..pos]
            .iter()
            .rposition(|x| x.kind == EffectKind::WalAppend);
        let later_append = flat[pos + 1..]
            .iter()
            .find(|x| x.kind == EffectKind::WalAppend);
        match prior_append {
            // D1: the visibility effect fires before the group's append.
            None => {
                if let Some(append) = later_append {
                    diags.push(Diagnostic {
                        rule: Rule::DurabilityOrder,
                        path: e.file.clone(),
                        line: e.line,
                        message: format!(
                            "`{}` happens before the group's `wal_append` ({}:{}); \
                             nothing may become visible before the WAL write (rule D1)",
                            e.kind.label(),
                            append.file,
                            append.line,
                        ),
                    });
                }
            }
            // D2: between the append and the sync that makes it durable.
            Some(a) => {
                let sync_between = flat[a + 1..pos]
                    .iter()
                    .any(|x| x.kind == EffectKind::WalSync);
                let sync_after = flat[pos + 1..]
                    .iter()
                    .find(|x| x.kind == EffectKind::WalSync);
                if !sync_between {
                    if let Some(sync) = sync_after {
                        diags.push(Diagnostic {
                            rule: Rule::DurabilityOrder,
                            path: e.file.clone(),
                            line: e.line,
                            message: format!(
                                "`{}` happens between `wal_append` ({}:{}) and its \
                                 `wal_sync` ({}:{}); on sync paths acknowledgment must \
                                 follow the fsync (rule D2)",
                                e.kind.label(),
                                flat[a].file,
                                flat[a].line,
                                sync.file,
                                sync.line,
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// D3/D4 over one function's direct effects (lock context is per-function).
fn check_segment_and_manifest_rules(f: &FnEffects, diags: &mut Vec<Diagnostic>) {
    let effects: Vec<&Effect> = f
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Effect(e) => Some(e),
            Item::Call { .. } => None,
        })
        .collect();

    // D3: a segment created under `mem` must be named by a manifest persist
    // before that same guard is released.
    for (pos, e) in effects.iter().enumerate() {
        if e.kind != EffectKind::WalSegmentCreate {
            continue;
        }
        let Some(guard) = e.mem_guard else { continue };
        let named = effects[pos + 1..]
            .iter()
            .any(|p| p.kind == EffectKind::ManifestPersist && p.mem_guard == Some(guard));
        if !named {
            diags.push(Diagnostic {
                rule: Rule::DurabilityOrder,
                path: f.file.clone(),
                line: e.line,
                message: "fresh WAL segment created under `mem`, but `mem` is released \
                          before a `manifest_persist` names the segment; writers can \
                          append into a segment recovery will never find (rule D3)"
                    .into(),
            });
        }
    }

    // D4: persists under the ticket; in a persisting function, builds too.
    let persists = effects
        .iter()
        .any(|e| e.kind == EffectKind::ManifestPersist);
    for e in &effects {
        match e.kind {
            EffectKind::ManifestPersist if !e.under_manifest => diags.push(Diagnostic {
                rule: Rule::DurabilityOrder,
                path: f.file.clone(),
                line: e.line,
                message: "manifest `put_meta` outside the `manifest_mx` ticket; \
                          concurrent persists can interleave build and write and a \
                          stale manifest can overwrite a fresh one (rule D4)"
                    .into(),
            }),
            EffectKind::ManifestBuild if persists && !e.under_manifest => diags.push(Diagnostic {
                rule: Rule::DurabilityOrder,
                path: f.file.clone(),
                line: e.line,
                message: "manifest built outside the `manifest_mx` ticket that \
                              persists it; the build/persist pair must be atomic or a \
                              concurrent freeze is silently dropped (rule D4)"
                    .into(),
            }),
            _ => {}
        }
    }
}

/// Inlines unique intra-crate callees into one ordered effect sequence.
/// Recursive back-edges contribute nothing (the protocol functions are not
/// recursive; this is a termination guard, not a semantics claim).
fn flatten(
    idx: usize,
    fns: &[FnEffects],
    unique: &HashMap<(String, String), usize>,
    memo: &mut HashMap<usize, Vec<FlatEffect>>,
    visiting: &mut Vec<usize>,
) -> Vec<FlatEffect> {
    if let Some(done) = memo.get(&idx) {
        return done.clone();
    }
    if visiting.contains(&idx) {
        return Vec::new();
    }
    visiting.push(idx);
    let f = &fns[idx];
    let mut out = Vec::new();
    for item in &f.items {
        match item {
            Item::Effect(e) => out.push(FlatEffect {
                kind: e.kind,
                file: f.file.clone(),
                line: e.line,
            }),
            Item::Call { name } => {
                if let Some(&callee) = unique.get(&(f.crate_name.clone(), name.clone())) {
                    if callee != idx {
                        out.extend(flatten(callee, fns, unique, memo, visiting));
                    }
                }
            }
        }
    }
    visiting.pop();
    memo.insert(idx, out.clone());
    out
}

/// A live `mem`/`manifest_mx` guard in the walker.
struct DGuard {
    /// `true` for `mem`, `false` for `manifest_mx`.
    is_mem: bool,
    /// Per-function guard identity (D3 matches create/persist guards).
    id: usize,
    /// Binding name, for `drop(name)` tracking.
    name: Option<String>,
    /// Brace depth of the binding.
    depth: i64,
    /// Expression temporary: dies at the next `;`.
    temp: bool,
}

/// Walks one function body, collecting its ordered durability effects with
/// `mem`/`manifest_mx` guard context. The scoping machinery mirrors the
/// lock-graph walker: let-bound guards live until scope exit or
/// `drop(guard)`, temporaries until the end of the statement.
#[allow(clippy::too_many_lines)]
fn walk_fn(
    path: &str,
    crate_name: &str,
    fn_name: &str,
    toks: &[Token],
    body: std::ops::Range<usize>,
) -> FnEffects {
    let mut out = FnEffects {
        crate_name: crate_name.to_string(),
        name: fn_name.to_string(),
        file: path.to_string(),
        items: Vec::new(),
    };
    let mut guards: Vec<DGuard> = Vec::new();
    let mut next_guard = 0usize;
    let mut depth = 0i64;
    let mut stmt_start = true;
    let mut pending_let: Option<String> = None;

    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");

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

        if t == "drop" && text(i + 1) == "(" {
            if let Some(victim) = toks.get(i + 2).map(|t| t.text.clone()) {
                guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            }
            i += 1;
            continue;
        }

        if stmt_start && t == "let" {
            let mut j = i + 1;
            if text(j) == "mut" {
                j += 1;
            }
            if let Some(id) = toks.get(j).map(|t| t.text.clone()) {
                let simple = id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if simple && text(j + 1) == "=" {
                    pending_let = Some(id);
                }
            }
            stmt_start = false;
            i += 1;
            continue;
        }

        if t == "." {
            let m = text(i + 1);
            let open = text(i + 2) == "(";
            let argless = open && text(i + 3) == ")";
            let recv = toks
                .get(i.wrapping_sub(1))
                .map(|t| t.text.as_str())
                .unwrap_or("");
            let line = chain_root_line(toks, i);

            // Tracked-lock acquisition: only `mem` and `manifest_mx`
            // matter to the protocol.
            if argless && matches!(m, "lock" | "read" | "write") {
                let is_mem = recv == "mem";
                let is_manifest = recv == "manifest_mx";
                if is_mem || is_manifest {
                    let terminal = match text(i + 4) {
                        ";" => true,
                        "." => {
                            matches!(text(i + 5), "unwrap" | "expect")
                                && text(i + 6) == "("
                                && forward_close(toks, i + 6)
                                    .is_some_and(|close| text(close + 1) == ";")
                        }
                        _ => false,
                    };
                    let name = match (&pending_let, terminal) {
                        (Some(n), true) if n != "_" => Some(n.clone()),
                        _ => None,
                    };
                    guards.push(DGuard {
                        is_mem,
                        id: next_guard,
                        temp: name.is_none(),
                        name,
                        depth,
                    });
                    next_guard += 1;
                }
                i += 4;
                stmt_start = false;
                continue;
            }

            // Effect classification.
            let kind = if open
                && matches!(m, "append" | "append_records")
                && WAL_RECEIVERS.contains(&recv)
            {
                Some(EffectKind::WalAppend)
            } else if argless && m == "sync" && WAL_RECEIVERS.contains(&recv) {
                Some(EffectKind::WalSync)
            } else if open && m == "create_appendable" && BACKEND_RECEIVERS.contains(&recv) {
                Some(EffectKind::WalSegmentCreate)
            } else if open
                && m == "put_meta"
                && BACKEND_RECEIVERS.contains(&recv)
                && MANIFEST_KEYS.contains(&text(i + 3))
            {
                Some(EffectKind::ManifestPersist)
            } else if open && m == "store" && SEQNO_FIELDS.contains(&recv) {
                Some(EffectKind::SeqnoPublish)
            } else if open
                && ((m == "store" && ACK_FLAGS.contains(&recv))
                    || (matches!(m, "notify_all" | "notify_one") && ACK_CONDVARS.contains(&recv)))
            {
                Some(EffectKind::Ack)
            } else if open && MANIFEST_BUILDERS.contains(&m) {
                Some(EffectKind::ManifestBuild)
            } else {
                None
            };
            if let Some(kind) = kind {
                out.items.push(Item::Effect(Effect {
                    kind,
                    line,
                    mem_guard: guards.iter().rev().find(|g| g.is_mem).map(|g| g.id),
                    under_manifest: guards.iter().any(|g| !g.is_mem),
                }));
                i += 2;
                stmt_start = false;
                continue;
            }

            // Ordinary `self`-rooted method call (through index groups
            // too: `self.engines[i].commit_batch(..)`): propagation
            // candidate.
            if open
                && !m.is_empty()
                && m.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && receiver_self_root_indexed(toks, i).is_some()
            {
                out.items.push(Item::Call {
                    name: m.to_string(),
                });
            }
            i += 2;
            stmt_start = false;
            continue;
        }

        // Free calls: `ident (` not preceded by `.`, `fn`, or `::` (a
        // path-qualified call names another type's function — following it
        // by bare name would fabricate effect edges).
        if text(i + 1) == "("
            && !CALL_KEYWORDS.contains(&t)
            && t.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && toks
                .get(i.wrapping_sub(1))
                .map(|p| !matches!(p.text.as_str(), "." | "fn" | "::"))
                .unwrap_or(true)
        {
            if MANIFEST_BUILDERS.contains(&t) {
                out.items.push(Item::Effect(Effect {
                    kind: EffectKind::ManifestBuild,
                    line: toks[i].line,
                    mem_guard: guards.iter().rev().find(|g| g.is_mem).map(|g| g.id),
                    under_manifest: guards.iter().any(|g| !g.is_mem),
                }));
            } else {
                out.items.push(Item::Call {
                    name: t.to_string(),
                });
            }
        }

        stmt_start = false;
        i += 1;
    }
    out
}

/// Line of the outermost token of the receiver chain ending at `dot_idx`,
/// so effects anchor where the statement starts and rustfmt's
/// chain-splitting cannot strand an allow-comment. (Shared with the L8
/// atomics pass, which anchors its sites the same way.)
pub(crate) fn chain_root_line(toks: &[Token], dot_idx: usize) -> usize {
    let fallback = toks[dot_idx].line;
    let mut j = match dot_idx.checked_sub(1) {
        Some(j) => j,
        None => return fallback,
    };
    loop {
        let t = toks[j].text.as_str();
        let is_ident = !t.is_empty() && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !is_ident {
            return fallback;
        }
        match j.checked_sub(1) {
            Some(p) if toks[p].text == "." => match p.checked_sub(1) {
                Some(pp) => j = pp,
                None => return toks[j].line,
            },
            _ => return toks[j].line,
        }
    }
}

/// Index of the `)` matching the `(` at `open_idx`.
pub(crate) fn forward_close(toks: &[Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.text == "(" {
            depth += 1;
        } else if t.text == ")" {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
