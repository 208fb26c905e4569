//! L8 `atomics-order`: publication-safety analysis of raw atomics.
//!
//! The lock-free layer — memtable size/len counters, the lsm-obs event ring
//! and histograms, seqno publication, shutdown flags, epoch pin counts —
//! uses `std::sync::atomic` directly, below the reach of the lock-graph
//! rules. A misordered publish there does not deadlock or panic; it lets a
//! reader observe an index or pointer before the non-atomic data it guards,
//! which corrupts reads silently and only on weakly-ordered hardware. This
//! pass makes the publication protocol checkable:
//!
//! 1. **Discovery** — every atomic field in the workspace (struct fields,
//!    statics, params: any `name: .. Atomic* ..` annotation), keyed by
//!    `(crate, field)`.
//! 2. **Classification** — every `.load/.store/RMW(..)` call that names a
//!    memory ordering, with its effective (strongest listed) ordering and
//!    the enclosing function.
//! 3. **Role inference** — a field is a *publication* field if any store/RMW
//!    uses `Release`-or-stronger or any load uses `Acquire`-or-stronger
//!    (someone, somewhere, relies on it ordering other memory); a *counter*
//!    if it is only ever RMW'd and never stored (guards nothing); *plain*
//!    otherwise (e.g. seqlock payload words protected by a separate
//!    publication field).
//!
//! The rules:
//!
//! - **A1** — on a publication field, every store/RMW must be
//!   `Release`-or-stronger and every load `Acquire`-or-stronger: one
//!   `Relaxed` site unpairs the whole protocol.
//! - **A2** — `SeqCst` requires an annotated rationale (it is a cost: a
//!   full fence on every site); `allow(atomics-order)` + why.
//! - **A3** — a `Relaxed` load may not gate reads of non-atomic fields
//!   (directly in the guarded block, or via a call that reads non-atomic
//!   state without taking a lock, followed by the one call rule of the
//!   `ir` module that L5–L7 use too).
//! - **A4** — a standalone `fence`/`compiler_fence` must name its pairing
//!   site in a `pairs with ...` comment on its line or the line above.
//!
//! Deliberate exceptions are annotated `// lsm-lint: allow(atomics-order)`
//! *plus a rationale* — a bare marker is rejected as L0 `bad-allow`, same
//! as `allow(durability-order)`.
//!
//! The inferred protocol is emitted as `atomics_order.json` (see
//! [`AtomicsReport::spec_json`]), checked in at the workspace root as a
//! sibling of `lock_order.json` and `durability_order.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::ir::{
    chain_root_line, fixpoint, matching, receiver_ident, Ir, SourceFile, CALL_KEYWORDS,
};
use crate::{Diagnostic, Rule, Token};

/// The `std::sync::atomic` type names that mark a field as atomic.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Memory orderings, weakest to strongest; "effective" ordering of an op
/// with several listed orderings (`compare_exchange`) is the max.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Mo {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Mo {
    fn parse(s: &str) -> Option<Mo> {
        match s {
            "Relaxed" => Some(Mo::Relaxed),
            "Acquire" => Some(Mo::Acquire),
            "Release" => Some(Mo::Release),
            "AcqRel" => Some(Mo::AcqRel),
            "SeqCst" => Some(Mo::SeqCst),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Mo::Relaxed => "Relaxed",
            Mo::Acquire => "Acquire",
            Mo::Release => "Release",
            Mo::AcqRel => "AcqRel",
            Mo::SeqCst => "SeqCst",
        }
    }

    /// Orders preceding writes before the store (store/RMW side).
    fn releases(self) -> bool {
        matches!(self, Mo::Release | Mo::AcqRel | Mo::SeqCst)
    }

    /// Orders subsequent reads after the load (load/RMW side).
    fn acquires(self) -> bool {
        matches!(self, Mo::Acquire | Mo::AcqRel | Mo::SeqCst)
    }
}

/// The shape of an atomic access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    Rmw,
}

/// Maps a method name to the access shape, if it is an atomic op.
fn op_kind(method: &str) -> Option<OpKind> {
    match method {
        "load" => Some(OpKind::Load),
        "store" => Some(OpKind::Store),
        "swap"
        | "fetch_add"
        | "fetch_sub"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_nand"
        | "fetch_min"
        | "fetch_max"
        | "fetch_update"
        | "compare_exchange"
        | "compare_exchange_weak"
        | "compare_and_swap" => Some(OpKind::Rmw),
        _ => None,
    }
}

/// One classified atomic access site.
struct OpSite {
    /// Resolved `(crate, field)` key, when the receiver names a discovered
    /// atomic field.
    field: Option<(String, String)>,
    method: String,
    kind: OpKind,
    /// Strongest ordering listed at the site.
    eff: Mo,
    /// Whether any listed ordering is `SeqCst` (A2 fires on the listing,
    /// not just the max).
    has_seqcst: bool,
    file_idx: usize,
    /// Token index of the `.` before the method, for A3 range matching.
    dot_idx: usize,
    /// Statement-root line (allow-comments anchor here).
    line: usize,
    fn_name: String,
}

/// What discovery learned about one atomic field.
struct FieldInfo {
    kind: String,
    structs: BTreeSet<String>,
}

/// One field's protocol entry, as emitted into the spec.
#[derive(Clone, Debug)]
pub struct FieldSpec {
    /// Crate the field lives in.
    pub crate_name: String,
    /// Field (or static / binding) name.
    pub field: String,
    /// Structs declaring a field of this name, when known.
    pub structs: Vec<String>,
    /// The `Atomic*` type.
    pub kind: String,
    /// `publication`, `counter`, or `plain`.
    pub role: String,
    /// Distinct store orderings observed, weakest first.
    pub stores: Vec<String>,
    /// Distinct load orderings observed.
    pub loads: Vec<String>,
    /// Distinct RMW orderings observed.
    pub rmws: Vec<String>,
    /// Functions storing/RMW-ing with Release-or-stronger.
    pub publishers: Vec<String>,
    /// Functions loading/RMW-ing with Acquire-or-stronger.
    pub consumers: Vec<String>,
}

/// One standalone fence, as emitted into the spec.
#[derive(Clone, Debug)]
pub struct FenceSpec {
    /// Workspace-relative file.
    pub file: String,
    /// Enclosing function ("" at item scope).
    pub fn_name: String,
}

/// The outcome of the atomics-publication analysis.
#[derive(Debug, Default)]
pub struct AtomicsReport {
    /// Every atomic field with at least one classified access.
    pub fields: Vec<FieldSpec>,
    /// Every standalone fence.
    pub fences: Vec<FenceSpec>,
    /// L8 findings (not yet allow-filtered).
    pub diagnostics: Vec<Diagnostic>,
}

impl AtomicsReport {
    /// Renders the checked-in `atomics_order.json` spec: the rules, every
    /// atomic field's role and ordering profile, and the standalone fences.
    /// Deterministic (sorted) and line-number-free so it only changes when
    /// the protocol does.
    pub fn spec_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
        let rules: &[(&str, &str)] = &[
            (
                "A1",
                "publication stores/RMWs are Release-or-stronger and their consume loads Acquire-or-stronger",
            ),
            ("A2", "SeqCst carries an annotated rationale"),
            (
                "A3",
                "a Relaxed load does not gate reads of non-atomic fields",
            ),
            ("A4", "standalone fences name their pairing site"),
        ];
        for (i, (id, check)) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{id}\", \"check\": \"{check}\"}}"
            ));
        }
        out.push_str("\n  ],\n  \"fields\": [");
        let quote_list = |xs: &[String]| {
            xs.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"crate\": \"{}\", \"field\": \"{}\", \"kind\": \"{}\", \"role\": \"{}\", \
                 \"structs\": [{}], \"stores\": [{}], \"loads\": [{}], \"rmws\": [{}], \
                 \"publishers\": [{}], \"consumers\": [{}]}}",
                f.crate_name,
                f.field,
                f.kind,
                f.role,
                quote_list(&f.structs),
                quote_list(&f.stores),
                quote_list(&f.loads),
                quote_list(&f.rmws),
                quote_list(&f.publishers),
                quote_list(&f.consumers),
            ));
        }
        out.push_str("\n  ],\n  \"fences\": [");
        for (i, f) in self.fences.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"fn\": \"{}\"}}",
                f.file, f.fn_name
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Runs the atomics-publication analysis over `(workspace-relative path,
/// source)` pairs.
pub fn analyze(files: &[(String, String)]) -> AtomicsReport {
    from_ir(&Ir::build(files))
}

/// [`analyze`] over an already-built [`Ir`].
pub(crate) fn from_ir(ir: &Ir) -> AtomicsReport {
    let mut report = AtomicsReport::default();
    let engine = || ir.files.iter().enumerate().filter(|(_, f)| f.engine);

    // Pass 1: discover atomic fields.
    let mut fields: BTreeMap<(String, String), FieldInfo> = BTreeMap::new();
    for (_, pf) in engine() {
        discover_fields(pf, &mut fields);
    }

    // Pass 2: classify every access and collect standalone fences.
    let mut ops: Vec<OpSite> = Vec::new();
    // (file_idx, token_idx, fn_name, paired)
    let mut fences: Vec<(usize, usize, String, bool)> = Vec::new();
    for (file_idx, _) in engine() {
        collect_ops(ir, file_idx, &fields, &mut ops, &mut fences);
    }

    // Pass 3: per-field aggregation and role inference.
    let mut aggs: BTreeMap<&(String, String), Agg> = BTreeMap::new();
    for op in &ops {
        let Some(key) = &op.field else { continue };
        let agg = aggs.entry(key).or_default();
        let site = (ir.files[op.file_idx].path.clone(), op.line);
        match op.kind {
            OpKind::Store => {
                agg.stores.insert(op.eff);
                agg.has_store = true;
            }
            OpKind::Load => {
                agg.loads.insert(op.eff);
            }
            OpKind::Rmw => {
                agg.rmws.insert(op.eff);
                agg.has_rmw = true;
            }
        }
        if op.kind != OpKind::Load && op.eff.releases() {
            agg.has_rel_write = true;
            if !op.fn_name.is_empty() {
                agg.publishers.insert(op.fn_name.clone());
            }
            agg.witness_pub.get_or_insert(site.clone());
        }
        if op.kind != OpKind::Store && op.eff.acquires() {
            agg.has_acq_load = true;
            if !op.fn_name.is_empty() {
                agg.consumers.insert(op.fn_name.clone());
            }
            agg.witness_con.get_or_insert(site);
        }
    }

    // A1: a Relaxed site on a publication field unpairs the protocol.
    for op in &ops {
        let Some(key) = &op.field else { continue };
        let agg = &aggs[key];
        if !(agg.has_rel_write || agg.has_acq_load) || op.eff != Mo::Relaxed {
            continue;
        }
        let field = &key.1;
        let message = if op.kind == OpKind::Load {
            let (wf, wl) = agg
                .witness_pub
                .as_ref()
                .or(agg.witness_con.as_ref())
                .expect("publication role implies a witness site");
            format!(
                "Relaxed `{field}.load(..)` on a publication field; the Release \
                 store ({wf}:{wl}) orders data before the publication only if \
                 every consumer loads with `Acquire` (rule A1)"
            )
        } else {
            let (wf, wl) = agg
                .witness_con
                .as_ref()
                .or(agg.witness_pub.as_ref())
                .expect("publication role implies a witness site");
            format!(
                "Relaxed `{field}.{}(..)` on a publication field; the paired \
                 Acquire consumer ({wf}:{wl}) can observe the publication before \
                 the data it guards — use `Release` (rule A1)",
                op.method
            )
        };
        report.diagnostics.push(Diagnostic {
            rule: Rule::AtomicsOrder,
            path: ir.files[op.file_idx].path.clone(),
            line: op.line,
            message,
        });
    }

    // A2: SeqCst is a cost; every use needs an annotated rationale.
    for op in &ops {
        if !op.has_seqcst {
            continue;
        }
        let recv = op
            .field
            .as_ref()
            .map(|(_, f)| f.as_str())
            .unwrap_or("<expr>");
        report.diagnostics.push(Diagnostic {
            rule: Rule::AtomicsOrder,
            path: ir.files[op.file_idx].path.clone(),
            line: op.line,
            message: format!(
                "`SeqCst` on `{recv}.{}(..)`; sequential consistency is a full \
                 fence per site — downgrade to Release/Acquire, or annotate why \
                 the total order is load-bearing with \
                 `// lsm-lint: allow(atomics-order)` + rationale (rule A2)",
                op.method
            ),
        });
    }

    // A4: a standalone fence must say what it pairs with.
    for &(file_idx, tok_idx, ref fn_name, paired) in &fences {
        let pf = &ir.files[file_idx];
        if !paired {
            report.diagnostics.push(Diagnostic {
                rule: Rule::AtomicsOrder,
                path: pf.path.clone(),
                line: pf.tokens[tok_idx].line,
                message: "standalone fence without a named pairing site; a fence \
                          is only meaningful against another fence or atomic op — \
                          add a `pairs with <site>` comment on this line or the \
                          line above (rule A4)"
                    .into(),
            });
        }
        report.fences.push(FenceSpec {
            file: pf.path.clone(),
            fn_name: fn_name.clone(),
        });
    }
    report
        .fences
        .sort_by(|a, b| (&a.file, &a.fn_name).cmp(&(&b.file, &b.fn_name)));

    // A3: a Relaxed load gating non-atomic reads (direct, or through a
    // followed call that reads unlocked state).
    check_relaxed_gates(ir, &fields, &ops, &mut report.diagnostics);

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    report
        .diagnostics
        .dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);

    // The spec: every field with at least one classified access.
    for (key, agg) in &aggs {
        let info = &fields[*key];
        let role = if agg.has_rel_write || agg.has_acq_load {
            "publication"
        } else if !agg.has_store && agg.has_rmw {
            "counter"
        } else {
            "plain"
        };
        let labels = |s: &BTreeSet<Mo>| s.iter().map(|m| m.label().to_string()).collect();
        report.fields.push(FieldSpec {
            crate_name: key.0.clone(),
            field: key.1.clone(),
            structs: info.structs.iter().cloned().collect(),
            kind: info.kind.clone(),
            role: role.to_string(),
            stores: labels(&agg.stores),
            loads: labels(&agg.loads),
            rmws: labels(&agg.rmws),
            publishers: agg.publishers.iter().cloned().collect(),
            consumers: agg.consumers.iter().cloned().collect(),
        });
    }
    report
}

/// Per-field accumulation across all access sites.
#[derive(Default)]
struct Agg {
    has_rel_write: bool,
    has_acq_load: bool,
    has_store: bool,
    has_rmw: bool,
    stores: BTreeSet<Mo>,
    loads: BTreeSet<Mo>,
    rmws: BTreeSet<Mo>,
    publishers: BTreeSet<String>,
    consumers: BTreeSet<String>,
    witness_pub: Option<(String, usize)>,
    witness_con: Option<(String, usize)>,
}

/// Pass 1: records every `name: .. Atomic* ..` annotation — struct fields,
/// statics, params, and struct-literal initializers all reveal the field.
/// Struct attribution comes from a definition-context stack; annotations
/// outside a struct body (statics, params) go unattributed.
fn discover_fields(pf: &SourceFile, fields: &mut BTreeMap<(String, String), FieldInfo>) {
    let toks = &pf.tokens;
    let mut depth = 0i64;
    let mut struct_stack: Vec<(String, i64)> = Vec::new();
    let mut pending: Option<String> = None;
    for i in 0..toks.len() {
        let t = toks[i].text.as_str();
        match t {
            "struct" => {
                if let Some(n) = toks.get(i + 1) {
                    if n.text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                    {
                        pending = Some(n.text.clone());
                    }
                }
            }
            "{" => {
                if let Some(name) = pending.take() {
                    struct_stack.push((name, depth));
                }
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if struct_stack.last().is_some_and(|(_, d)| *d == depth) {
                    struct_stack.pop();
                }
            }
            // Tuple/unit struct: unnamed fields, nothing to key on.
            ";" | "(" => pending = None,
            _ => {}
        }
        if pf.test[i] || t != ":" || i == 0 {
            continue;
        }
        let name = &toks[i - 1].text;
        let is_ident = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !is_ident || CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        let Some(kind) = scan_type_for_atomic(toks, i + 1) else {
            continue;
        };
        let info = fields
            .entry((pf.crate_name.clone(), name.clone()))
            .or_insert_with(|| FieldInfo {
                kind: kind.to_string(),
                structs: BTreeSet::new(),
            });
        if let Some((s, _)) = struct_stack.last() {
            info.structs.insert(s.clone());
        }
    }
}

/// Scans the type region after a `:` for an `Atomic*` name. The region ends
/// at `;`/`)`/`}`/`{`/`=`, or at a `,` outside angle brackets (so
/// `Vec<AtomicU64>` and `HashMap<K, AtomicU64>` are seen through).
fn scan_type_for_atomic(toks: &[Token], start: usize) -> Option<&'static str> {
    let mut angle = 0i64;
    for tok in toks.iter().skip(start).take(24) {
        let t = tok.text.as_str();
        match t {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "," if angle == 0 => return None,
            ";" | ")" | "}" | "{" | "=" => return None,
            _ => {
                if let Some(a) = ATOMIC_TYPES.iter().find(|a| **a == t) {
                    return Some(a);
                }
            }
        }
    }
    None
}

/// Pass 2: walks one file's whole token stream (not just fn bodies — a
/// `static`'s or `thread_local!`'s initializer is engine code too) and
/// records every atomic op and standalone fence outside test regions.
fn collect_ops(
    ir: &Ir,
    file_idx: usize,
    fields: &BTreeMap<(String, String), FieldInfo>,
    ops: &mut Vec<OpSite>,
    fences: &mut Vec<(usize, usize, String, bool)>,
) {
    let pf = &ir.files[file_idx];
    let toks = &pf.tokens;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let fn_name = |k: usize| {
        ir.enclosing_fn(file_idx, k)
            .map(|f| f.name.clone())
            .unwrap_or_default()
    };
    for i in 0..toks.len() {
        if pf.test[i] {
            continue;
        }
        let t = toks[i].text.as_str();

        if matches!(t, "fence" | "compiler_fence")
            && text(i + 1) == "("
            && i.checked_sub(1)
                .map(|p| !matches!(text(p), "fn" | "."))
                .unwrap_or(true)
        {
            let line = toks[i].line;
            let paired = [line, line.saturating_sub(1)]
                .iter()
                .filter_map(|&l| l.checked_sub(1).and_then(|idx| pf.lines.get(idx)))
                .any(|raw| raw.contains("pairs with"));
            fences.push((file_idx, i, fn_name(i), paired));
            continue;
        }

        if t != "." {
            continue;
        }
        let Some(kind) = op_kind(text(i + 1)) else {
            continue;
        };
        if text(i + 2) != "(" {
            continue;
        }
        let Some(close) = matching(toks, i + 2) else {
            continue;
        };
        // Orderings listed at this site, excluding any nested atomic op's
        // argument list (`x.store(y.load(Acquire), Release)` stores with
        // Release, not Acquire).
        let mut orders: Vec<Mo> = Vec::new();
        let mut j = i + 3;
        while j < close {
            if toks[j].text == "." && op_kind(text(j + 1)).is_some() && text(j + 2) == "(" {
                if let Some(c) = matching(toks, j + 2) {
                    j = c + 1;
                    continue;
                }
            }
            if let Some(mo) = Mo::parse(&toks[j].text) {
                orders.push(mo);
            }
            j += 1;
        }
        // `.load`/`.store`/`.swap` on non-atomics never name an ordering;
        // requiring one is the atomic-op filter.
        let Some(&eff) = orders.iter().max() else {
            continue;
        };
        // Discovery only keys identifiers, so a non-identifier receiver
        // never resolves.
        let field = receiver_ident(toks, i).and_then(|r| {
            let key = (pf.crate_name.clone(), toks[r].text.clone());
            fields.contains_key(&key).then_some(key)
        });
        ops.push(OpSite {
            field,
            method: text(i + 1).to_string(),
            kind,
            eff,
            has_seqcst: orders.contains(&Mo::SeqCst),
            file_idx,
            dot_idx: i,
            line: chain_root_line(toks, i),
            fn_name: fn_name(i),
        });
    }
}

/// A3. Per-function facts first: whether the fn takes any lock and whether
/// it reads a non-atomic `self` field. "Reads unlocked non-atomic state"
/// then propagates through the calls the call rule follows, and every
/// `if`/`while` whose condition contains a Relaxed atomic load is checked
/// against its guarded block.
fn check_relaxed_gates(
    ir: &Ir,
    fields: &BTreeMap<(String, String), FieldInfo>,
    ops: &[OpSite],
    diags: &mut Vec<Diagnostic>,
) {
    let has_lock: Vec<bool> = ir
        .fns
        .iter()
        .map(|f| has_lock_acquisition(&ir.files[f.file].tokens, f.body.clone()))
        .collect();
    let callees: Vec<Vec<usize>> = ir
        .fns
        .iter()
        .map(|f| f.calls.iter().filter_map(|c| c.callee).collect())
        .collect();
    let mut unlocked_read: Vec<bool> = ir
        .fns
        .iter()
        .zip(&has_lock)
        .map(|(f, &locked)| {
            !locked && nonatomic_self_read(&ir.files[f.file], fields, f.body.clone()).is_some()
        })
        .collect();
    fixpoint(&callees, &mut unlocked_read, |f, caller, &callee| {
        let grew = callee && !*caller && !has_lock[f];
        *caller |= grew;
        grew
    });

    for func in &ir.fns {
        let pf = &ir.files[func.file];
        let toks = &pf.tokens;
        let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
        let mut k = func.body.start;
        while k < func.body.end {
            if !matches!(text(k), "if" | "while") {
                k += 1;
                continue;
            }
            // Condition: tokens up to the block's `{` at bracket depth 0.
            // Bail on `=>` / `;` (match guards, malformed scans).
            let mut depth = 0i64;
            let mut cond_end = None;
            let mut c = k + 1;
            while c < func.body.end {
                match text(c) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        cond_end = Some(c);
                        break;
                    }
                    ";" => break,
                    "=" if text(c + 1) == ">" => break,
                    _ => {}
                }
                c += 1;
            }
            let Some(open) = cond_end else {
                k += 1;
                continue;
            };
            let gate = ops.iter().find(|op| {
                op.file_idx == func.file
                    && op.kind == OpKind::Load
                    && op.eff == Mo::Relaxed
                    && op.field.is_some()
                    && (k..open).contains(&op.dot_idx)
            });
            let (Some(gate), Some(block_end)) = (gate, matching(toks, open)) else {
                k = open + 1;
                continue;
            };
            let block = open + 1..block_end;
            // A lock acquisition inside the block means the guarded data
            // is ordered by the lock, not the atomic.
            if has_lock_acquisition(toks, block.clone()) {
                k = open + 1;
                continue;
            }
            let field = &gate.field.as_ref().expect("gate is field-resolved").1;
            let offense = nonatomic_self_read(pf, fields, block.clone())
                .map(|(ident, line)| {
                    format!("a read of non-atomic field `self.{ident}` (line {line})")
                })
                .or_else(|| {
                    func.calls
                        .iter()
                        .filter(|c| block.contains(&c.at))
                        .find(|c| c.callee.is_some_and(|callee| unlocked_read[callee]))
                        .map(|c| {
                            format!(
                                "`{}(..)`, which reads non-atomic state without a lock",
                                c.name
                            )
                        })
                });
            if let Some(what) = offense {
                diags.push(Diagnostic {
                    rule: Rule::AtomicsOrder,
                    path: pf.path.clone(),
                    line: gate.line,
                    message: format!(
                        "Relaxed `{field}.load(..)` gates {what}; a Relaxed load \
                         does not order that access against the writer — load with \
                         `Acquire` or move the access under a lock (rule A3)"
                    ),
                });
            }
            k = open + 1;
        }
    }
}

/// Whether the token range contains an argless `.lock()`/`.read()`/
/// `.write()` call (tracked or raw — either orders the data it guards).
fn has_lock_acquisition(toks: &[Token], range: Range<usize>) -> bool {
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    range.clone().any(|k| {
        text(k) == "."
            && matches!(text(k + 1), "lock" | "read" | "write")
            && text(k + 2) == "("
            && text(k + 3) == ")"
    })
}

/// First `self.<field>` access in the range where `<field>` is not an
/// atomic field and not a method call. Returns `(field, 1-based line)`.
fn nonatomic_self_read(
    pf: &SourceFile,
    fields: &BTreeMap<(String, String), FieldInfo>,
    range: Range<usize>,
) -> Option<(String, usize)> {
    let toks = &pf.tokens;
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    for k in range {
        if text(k) != "self" || text(k + 1) != "." {
            continue;
        }
        let ident = text(k + 2);
        let is_ident = ident
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !is_ident || text(k + 3) == "(" {
            continue;
        }
        if fields.contains_key(&(pf.crate_name.clone(), ident.to_string())) {
            continue;
        }
        return Some((ident.to_string(), toks[k].line));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> AtomicsReport {
        analyze(&[("crates/lsm-core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn relaxed_publish_on_publication_field_is_flagged() {
        let src = "struct S { ready: AtomicU64 }\n\
                   impl S {\n\
                       fn publish(&self) { self.ready.store(1, Ordering::Relaxed); }\n\
                       fn consume(&self) -> u64 { self.ready.load(Ordering::Acquire) }\n\
                   }\n";
        let r = run(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, 3);
        assert!(r.diagnostics[0].message.contains("rule A1"));
        assert!(r.diagnostics[0].message.contains("use `Release`"));
    }

    #[test]
    fn relaxed_consume_of_published_field_is_flagged() {
        let src = "struct S { ready: AtomicU64 }\n\
                   impl S {\n\
                       fn publish(&self) { self.ready.store(1, Ordering::Release); }\n\
                       fn consume(&self) -> u64 { self.ready.load(Ordering::Relaxed) }\n\
                   }\n";
        let r = run(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, 4);
        assert!(r.diagnostics[0].message.contains("rule A1"));
    }

    #[test]
    fn all_relaxed_counter_is_clean() {
        let src = "struct S { hits: AtomicU64 }\n\
                   impl S {\n\
                       fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
                       fn read(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
                   }\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.fields.len(), 1);
        assert_eq!(r.fields[0].role, "counter");
    }

    #[test]
    fn proper_release_acquire_pair_is_clean_and_specced() {
        let src = "struct S { seq: AtomicU64 }\n\
                   impl S {\n\
                       fn publish(&self) { self.seq.store(1, Ordering::Release); }\n\
                       fn consume(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
                   }\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.fields.len(), 1);
        let f = &r.fields[0];
        assert_eq!(f.role, "publication");
        assert_eq!(f.publishers, vec!["publish".to_string()]);
        assert_eq!(f.consumers, vec!["consume".to_string()]);
        assert!(r.spec_json().contains("\"role\": \"publication\""));
    }

    #[test]
    fn seqcst_requires_rationale() {
        let src = "struct S { n: AtomicU64 }\n\
                   impl S { fn f(&self) { self.n.store(1, Ordering::SeqCst); } }\n";
        let r = run(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].message.contains("rule A2"));
    }

    #[test]
    fn relaxed_load_gating_nonatomic_read_is_flagged() {
        let src = "struct S { flag: AtomicU64, data: Vec<u8> }\n\
                   impl S {\n\
                       fn read(&self) -> usize {\n\
                           if self.flag.load(Ordering::Relaxed) == 1 {\n\
                               return self.data.len();\n\
                           }\n\
                           0\n\
                       }\n\
                   }\n";
        let r = run(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, 4);
        assert!(r.diagnostics[0].message.contains("rule A3"));
        assert!(r.diagnostics[0].message.contains("self.data"));
    }

    #[test]
    fn relaxed_gate_through_unique_call_is_flagged() {
        let src = "struct S { flag: AtomicU64, data: Vec<u8> }\n\
                   impl S {\n\
                       fn gate(&self) {\n\
                           if self.flag.load(Ordering::Relaxed) == 1 {\n\
                               self.touch();\n\
                           }\n\
                       }\n\
                       fn touch(&self) { let _ = self.data.len(); }\n\
                   }\n";
        let r = run(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].message.contains("touch"));
        assert!(r.diagnostics[0].message.contains("rule A3"));
    }

    #[test]
    fn relaxed_gate_over_locked_block_is_clean() {
        let src = "struct S { flag: AtomicU64, data: Vec<u8>, mx: Mutex<u8> }\n\
                   impl S {\n\
                       fn read(&self) -> usize {\n\
                           if self.flag.load(Ordering::Relaxed) == 1 {\n\
                               let _g = self.mx.lock();\n\
                               return self.data.len();\n\
                           }\n\
                           0\n\
                       }\n\
                   }\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unpaired_fence_is_flagged_and_paired_is_clean() {
        let bad = "fn f() { std::sync::atomic::fence(Ordering::Release); }\n";
        let r = run(bad);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].message.contains("rule A4"));

        let good = "fn f() {\n\
                    // pairs with the Acquire fence in reader::drain\n\
                    std::sync::atomic::fence(Ordering::Release);\n\
                    }\n";
        let r = run(good);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.fences.len(), 1);
    }

    #[test]
    fn seqlock_payload_under_publication_seq_is_clean() {
        // The event-ring shape: Relaxed payload words, published by a
        // Release store of `seq` and consumed by Acquire loads.
        let src = "struct Slot { seq: AtomicU64, w0: AtomicU64 }\n\
                   impl Slot {\n\
                       fn write(&self, v: u64) {\n\
                           self.seq.store(0, Ordering::Release);\n\
                           self.w0.store(v, Ordering::Relaxed);\n\
                           self.seq.store(1, Ordering::Release);\n\
                       }\n\
                       fn read(&self) -> Option<u64> {\n\
                           let s = self.seq.load(Ordering::Acquire);\n\
                           if s == 0 { return None; }\n\
                           let v = self.w0.load(Ordering::Relaxed);\n\
                           if self.seq.load(Ordering::Acquire) != s { return None; }\n\
                           Some(v)\n\
                       }\n\
                   }\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let w0 = r.fields.iter().find(|f| f.field == "w0").unwrap();
        assert_eq!(w0.role, "plain");
    }

    #[test]
    fn indexed_receiver_resolves_to_the_field() {
        let src = "struct H { buckets: Vec<AtomicU64> }\n\
                   impl H { fn bump(&self, i: usize) { self.buckets[i].fetch_add(1, Ordering::Relaxed); } }\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.fields.len(), 1);
        assert_eq!(r.fields[0].field, "buckets");
        assert_eq!(r.fields[0].role, "counter");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   struct S { ready: AtomicU64 }\n\
                   impl S {\n\
                       fn publish(&self) { self.ready.store(1, Ordering::Relaxed); }\n\
                       fn consume(&self) -> u64 { self.ready.load(Ordering::Acquire) }\n\
                   }\n}\n";
        let r = run(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }
}
