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
//! through calls by the one call rule of the `ir` module, the
//! same rule the lock graph and the atomics pass follow: `self`-rooted
//! method calls (index groups included) and unqualified free calls whose
//! name maps to exactly one function in the crate. The rules:
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

use crate::ir::{chain_root_line, fixpoint, walk_scopes, Func, Ir, Scope, SourceFile};
use crate::{Diagnostic, Rule};

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
    /// A resolved call: the callee's index in [`Ir::fns`].
    Call(usize),
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
fn is_protocol_file(file: &SourceFile) -> bool {
    file.engine && matches!(file.crate_name.as_str(), "lsm-core" | "lsm-storage")
}

/// Runs the durability-order analysis over `(workspace-relative path,
/// source)` pairs.
pub fn analyze(files: &[(String, String)]) -> DurabilityReport {
    from_ir(&Ir::build(files))
}

/// [`analyze`] over an already-built [`Ir`].
pub(crate) fn from_ir(ir: &Ir) -> DurabilityReport {
    let mut report = DurabilityReport::default();

    // Pass 1: per-function effect sequences (empty outside the protocol).
    let protocol: Vec<bool> = ir
        .fns
        .iter()
        .map(|f| is_protocol_file(&ir.files[f.file]))
        .collect();
    let items: Vec<Vec<Item>> = ir
        .fns
        .iter()
        .zip(&protocol)
        .map(|(f, &p)| if p { walk_fn(ir, f) } else { Vec::new() })
        .collect();

    // Transitive effectfulness.
    let callees: Vec<Vec<usize>> = items
        .iter()
        .map(|its| {
            its.iter()
                .filter_map(|item| match item {
                    Item::Call(c) => Some(*c),
                    Item::Effect(_) => None,
                })
                .collect()
        })
        .collect();
    let mut effectful: Vec<bool> = items
        .iter()
        .map(|its| its.iter().any(|i| matches!(i, Item::Effect(_))))
        .collect();
    fixpoint(&callees, &mut effectful, |_, caller, &callee| {
        let grew = callee && !*caller;
        *caller |= callee;
        grew
    });

    // Pass 2: D1/D2 over flattened sequences, D3/D4 over direct effects.
    let mut memo: HashMap<usize, Vec<FlatEffect>> = HashMap::new();
    for f in (0..ir.fns.len()).filter(|&f| protocol[f]) {
        let flat = flatten(f, ir, &items, &mut memo, &mut Vec::new());
        check_visibility_rules(&flat, &mut report.diagnostics);
        let path = &ir.files[ir.fns[f].file].path;
        check_segment_and_manifest_rules(path, &items[f], &mut report.diagnostics);
    }

    // Identical violations re-derived through callers collapse to one.
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    report
        .diagnostics
        .dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);

    // The spec: every effectful function's direct sequence.
    for (f, func) in ir.fns.iter().enumerate() {
        if !effectful[f] {
            continue;
        }
        let effects = items[f]
            .iter()
            .filter_map(|item| match item {
                Item::Effect(e) => Some(e.kind.label().to_string()),
                Item::Call(c) => effectful[*c].then(|| format!("call:{}", ir.fns[*c].name)),
            })
            .collect();
        let file = &ir.files[func.file];
        report.functions.push(FnSpec {
            crate_name: file.crate_name.clone(),
            name: func.name.clone(),
            file: file.path.clone(),
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
fn check_segment_and_manifest_rules(path: &str, items: &[Item], diags: &mut Vec<Diagnostic>) {
    let effects: Vec<&Effect> = items
        .iter()
        .filter_map(|i| match i {
            Item::Effect(e) => Some(e),
            Item::Call(_) => None,
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
                path: path.to_string(),
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
                path: path.to_string(),
                line: e.line,
                message: "manifest `put_meta` outside the `manifest_mx` ticket; \
                          concurrent persists can interleave build and write and a \
                          stale manifest can overwrite a fresh one (rule D4)"
                    .into(),
            }),
            EffectKind::ManifestBuild if persists && !e.under_manifest => diags.push(Diagnostic {
                rule: Rule::DurabilityOrder,
                path: path.to_string(),
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

/// Inlines resolved callees into one ordered effect sequence. Recursive
/// back-edges contribute nothing (the protocol functions are not recursive;
/// this is a termination guard, not a semantics claim).
fn flatten(
    f: usize,
    ir: &Ir,
    items: &[Vec<Item>],
    memo: &mut HashMap<usize, Vec<FlatEffect>>,
    visiting: &mut Vec<usize>,
) -> Vec<FlatEffect> {
    if let Some(done) = memo.get(&f) {
        return done.clone();
    }
    if visiting.contains(&f) {
        return Vec::new();
    }
    visiting.push(f);
    let path = &ir.files[ir.fns[f].file].path;
    let mut out = Vec::new();
    for item in &items[f] {
        match item {
            Item::Effect(e) => out.push(FlatEffect {
                kind: e.kind,
                file: path.clone(),
                line: e.line,
            }),
            Item::Call(callee) if *callee != f => {
                out.extend(flatten(*callee, ir, items, memo, visiting));
            }
            Item::Call(_) => {}
        }
    }
    visiting.pop();
    memo.insert(f, out.clone());
    out
}

/// What the walker knows of a live `mem` (`true`) or `manifest_mx`
/// (`false`) guard, and its per-function identity (D3 matches
/// create/persist guards).
type ProtoGuard = (bool, usize);

/// Walks one function body with the IR's guard-scope walker, collecting
/// its ordered durability effects with `mem`/`manifest_mx` guard context.
fn walk_fn(ir: &Ir, func: &Func) -> Vec<Item> {
    let toks = &ir.files[func.file].tokens;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let mut items = Vec::new();
    let mut next_guard = 0usize;
    let effect = |scope: &Scope<ProtoGuard>, kind, line| {
        Item::Effect(Effect {
            kind,
            line,
            mem_guard: scope
                .guards
                .iter()
                .rev()
                .find(|g| g.data.0)
                .map(|g| g.data.1),
            under_manifest: scope.guards.iter().any(|g| !g.data.0),
        })
    };

    walk_scopes(toks, func.body.clone(), |scope, i| {
        if text(i) != "." {
            // Free calls: a manifest builder is an effect; any other call
            // the call rule follows is a propagation candidate.
            if let Some(call) = func.call_at(i) {
                if MANIFEST_BUILDERS.contains(&call.name.as_str()) {
                    items.push(effect(scope, EffectKind::ManifestBuild, toks[i].line));
                } else if let Some(callee) = call.callee {
                    items.push(Item::Call(callee));
                }
            }
            return i + 1;
        }
        let m = text(i + 1);
        let open = text(i + 2) == "(";
        let argless = open && text(i + 3) == ")";
        let recv = i.checked_sub(1).map_or("", text);

        // Lock acquisition: only `mem` and `manifest_mx` matter to the
        // protocol.
        if argless && matches!(m, "lock" | "read" | "write") {
            if matches!(recv, "mem" | "manifest_mx") {
                scope.acquire(toks, i, (recv == "mem", next_guard));
                next_guard += 1;
            }
            return i + 4;
        }

        // Effect classification.
        let kind =
            if open && matches!(m, "append" | "append_records") && WAL_RECEIVERS.contains(&recv) {
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
            items.push(effect(scope, kind, chain_root_line(toks, i)));
        } else if let Some(callee) = func.call_at(i).and_then(|c| c.callee) {
            items.push(Item::Call(callee));
        }
        i + 2
    });
    items
}
