//! Architectural static analysis for the lsm-lab workspace.
//!
//! The engine's measurability rests on a few seams staying clean: every byte
//! of I/O must flow through the `lsm-storage` backend (so fault injection and
//! per-primitive accounting see it), hot paths must propagate errors instead
//! of panicking, and the design-space knobs must stay documented. This crate
//! machine-checks those seams:
//!
//! - **L1 `fs-boundary`** — no direct `std::fs` / `File::open` /
//!   `OpenOptions` usage outside `lsm-storage`.
//! - **L2 `no-panic`** — no `unwrap()` / `expect()` / `panic!` in non-test
//!   code of the hot-path crates (`lsm-core`, `lsm-sstable`,
//!   `lsm-compaction`, `lsm-wisckey`).
//! - **L3 `lock-nesting`** — no *raw* (untracked) lock acquired while
//!   another raw lock's guard is live, across statements (guard-liveness
//!   tracked; `lsm-sync` tracked locks are governed by L5 instead).
//! - **L4 `knob-docs`** — every public field of the options/config structs
//!   carries a doc comment naming its design-space knob.
//! - **L5 `lock-order`** — the workspace lock graph (see [`lockgraph`])
//!   must be acyclic and consistent with the rank hierarchy declared in
//!   `lsm-sync::ranks`; every tracked lock must bind to a rank constant.
//! - **L6 `io-under-lock`** — no blocking backend I/O while a lock guard
//!   is live, unless annotated with a rationale.
//! - **L7 `durability-order`** — the durable-before-visible commit protocol
//!   (see [`durability`]): no `seqno_publish`/`ack` before the group's
//!   `wal_append` (and `wal_sync` on sync paths), no release of `mem`
//!   before the `manifest_persist` that names a fresh WAL segment, and
//!   manifest build + `put_meta` atomic under `manifest_mx`.
//! - **L8 `atomics-order`** — the publication protocol of the lock-free
//!   layer (see [`atomics`]): publication stores `Release`-or-stronger and
//!   their consume loads `Acquire`-or-stronger (A1), `SeqCst` only with an
//!   annotated rationale (A2), no `Relaxed` load gating reads of non-atomic
//!   fields (A3), and standalone fences naming their pairing site (A4).
//! - **L0 `bad-allow`** — a malformed suppression: an unknown rule name in
//!   an allow-comment, or `allow(durability-order)` /
//!   `allow(atomics-order)` without a rationale.
//!
//! Diagnostics can be suppressed with `// lsm-lint: allow(<rule>)` on the
//! same line or the line above; `<rule>` is the `L<n>` id or the kebab name.
//! Unknown rule names are rejected (L0), and `allow(durability-order)` /
//! `allow(atomics-order)` additionally require a rationale: a plain `//`
//! comment on the line above the marker, or prose after the closing
//! parenthesis.
//! Since the build container is offline, parsing is done by a small
//! hand-rolled tokenizer rather than `syn`; it understands strings, raw
//! strings, char literals, lifetimes, and nested block comments, and tracks
//! `#[cfg(test)]` / `#[test]` regions by brace depth. Every rule runs on
//! one intermediate representation built once per run (the `ir` module):
//! the tokenized files, one function table, and each function's call sites
//! found and resolved by one call rule.

pub mod atomics;
pub mod durability;
mod ir;
pub mod lockgraph;

pub use atomics::AtomicsReport;
pub use durability::DurabilityReport;
pub use lockgraph::{CondvarInfo, LockEdge, LockGraph, LockInfo};

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use ir::{Ir, SourceFile};

/// The rules enforced by the linter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1: file-system access outside the storage substrate.
    FsBoundary,
    /// L2: panicking call in a hot-path crate.
    NoPanic,
    /// L3: raw lock acquired while another raw guard is live.
    LockNesting,
    /// L4: undocumented public knob field.
    KnobDocs,
    /// L5: lock-order hierarchy violation (bad edge, cycle, or unbound
    /// tracked lock).
    LockOrder,
    /// L6: blocking backend I/O while a lock guard is held.
    IoUnderLock,
    /// L7: durable-before-visible ordering violation in the commit
    /// protocol.
    DurabilityOrder,
    /// L8: atomics-publication violation in the lock-free layer (A1–A4).
    AtomicsOrder,
    /// L0: malformed `lsm-lint: allow(..)` marker (unknown rule, or a
    /// durability/atomics exemption without a rationale). Not itself
    /// allowable.
    BadAllow,
}

impl Rule {
    /// All rules, in L-number order.
    pub const ALL: [Rule; 9] = [
        Rule::BadAllow,
        Rule::FsBoundary,
        Rule::NoPanic,
        Rule::LockNesting,
        Rule::KnobDocs,
        Rule::LockOrder,
        Rule::IoUnderLock,
        Rule::DurabilityOrder,
        Rule::AtomicsOrder,
    ];

    /// The short `L<n>` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::BadAllow => "L0",
            Rule::FsBoundary => "L1",
            Rule::NoPanic => "L2",
            Rule::LockNesting => "L3",
            Rule::KnobDocs => "L4",
            Rule::LockOrder => "L5",
            Rule::IoUnderLock => "L6",
            Rule::DurabilityOrder => "L7",
            Rule::AtomicsOrder => "L8",
        }
    }

    /// The human-readable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::BadAllow => "bad-allow",
            Rule::FsBoundary => "fs-boundary",
            Rule::NoPanic => "no-panic",
            Rule::LockNesting => "lock-nesting",
            Rule::KnobDocs => "knob-docs",
            Rule::LockOrder => "lock-order",
            Rule::IoUnderLock => "io-under-lock",
            Rule::DurabilityOrder => "durability-order",
            Rule::AtomicsOrder => "atomics-order",
        }
    }

    /// Parses an id or name as written in an allow-comment.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.id(), self.name())
    }
}

/// One finding, anchored to a file and 1-based line.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// What was found and why it matters.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// The outcome of linting a tree: what was scanned and what was found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Findings suppressed by `lsm-lint: allow(..)` markers.
    pub suppressed: usize,
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as a machine-readable JSON document. Schema v2:
    /// totals, per-rule finding counts (`by_rule`, non-zero rules only, in
    /// L-number order), then the diagnostics sorted by (path, line, rule)
    /// so CI diffs are stable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 2,\n");
        out.push_str(&format!(
            "  \"files_checked\": {},\n  \"violations\": {},\n  \"suppressed\": {},\n",
            self.files_checked,
            self.diagnostics.len(),
            self.suppressed,
        ));
        out.push_str("  \"by_rule\": {");
        let mut first = true;
        for rule in Rule::ALL {
            let count = self.diagnostics.iter().filter(|d| d.rule == rule).count();
            if count == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": {count}", rule.id()));
        }
        out.push_str("},\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                d.rule.id(),
                d.rule.name(),
                json_escape(&d.path),
                d.line,
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Crates whose `src/` is allowed to touch `std::fs` directly: the storage
/// substrate itself (including the fault-injection wrapper `FaultBackend`
/// in `crates/lsm-storage/src/fault.rs`, which must live behind the same
/// boundary it perturbs), plus offline vendor stand-ins and this linter.
const L1_EXEMPT_CRATES: &[&str] = &["lsm-storage", "lsm-lint"];

/// Crates whose non-test code must not panic (read/compaction hot paths).
const L2_HOT_CRATES: &[&str] = &["lsm-core", "lsm-sstable", "lsm-compaction", "lsm-wisckey"];

/// Files whose public struct fields must each carry a doc comment.
const L4_KNOB_FILES: &[&str] = &[
    "crates/lsm-core/src/options.rs",
    "crates/lsm-compaction/src/config.rs",
];

/// Lints every `.rs` file under `root`, skipping `target/`, `vendor/`,
/// hidden directories, and this crate's own sources and fixtures.
pub fn lint_tree(root: &Path) -> std::io::Result<LintReport> {
    lint_tree_full(root).map(|(report, _)| report)
}

/// Like [`lint_tree`], but also returns the workspace [`LockGraph`] so
/// callers can emit or verify the `lock_order.json` spec.
pub fn lint_tree_full(root: &Path) -> std::io::Result<(LintReport, LockGraph)> {
    lint_tree_all(root).map(|(report, graph, _, _)| (report, graph))
}

/// The full analysis: the lint report, the workspace [`LockGraph`]
/// (`lock_order.json`), the [`DurabilityReport`]
/// (`durability_order.json`), and the [`AtomicsReport`]
/// (`atomics_order.json`).
pub fn lint_tree_all(
    root: &Path,
) -> std::io::Result<(LintReport, LockGraph, DurabilityReport, AtomicsReport)> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for rel in paths {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel.replace('\\', "/"), source));
    }

    let ir = Ir::build(&files);
    let graph = lockgraph::from_ir(&ir);
    let durability = durability::from_ir(&ir);
    let atomics = atomics::from_ir(&ir);

    let mut report = LintReport {
        files_checked: ir.files.len(),
        ..LintReport::default()
    };
    let allows: HashMap<&str, Allows> = ir
        .files
        .iter()
        .map(|f| (f.path.as_str(), collect_allows(&f.path, &f.lines)))
        .collect();
    let found = ir.files.iter().flat_map(file_rules).chain(
        graph
            .diagnostics
            .iter()
            .chain(&durability.diagnostics)
            .chain(&atomics.diagnostics)
            .cloned(),
    );
    for d in found {
        let suppressed = allows
            .get(d.path.as_str())
            .is_some_and(|a| allowed(&a.by_line, d.rule, d.line));
        if suppressed {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }
    report
        .diagnostics
        .extend(allows.into_values().flat_map(|a| a.bad));
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
    Ok((report, graph, durability, atomics))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" {
                continue;
            }
            // The linter's own sources and violation fixtures are not part
            // of the engine; lint them only when pointed at directly.
            if name == "lsm-lint" && dir.file_name().is_some_and(|d| d == "crates") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints one file's source text. `rel_path` is the workspace-relative path
/// (forward slashes); it determines which crate's rules apply. Includes a
/// single-file lock-graph pass (L3); for cross-file lock-order analysis use
/// [`lint_tree`].
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let ir = Ir::build(&[(rel_path.to_string(), source.to_string())]);
    let file = &ir.files[0];
    let allows = collect_allows(rel_path, &file.lines);
    let mut diags = file_rules(file);
    if file.engine {
        // This entry point sees one file, so tracked locks declared
        // elsewhere in the crate are unknown to it: keep raw-lock nesting
        // only, which needs no cross-file resolution.
        diags.extend(
            lockgraph::from_ir(&ir)
                .diagnostics
                .into_iter()
                .filter(|d| matches!(d.rule, Rule::LockNesting)),
        );
    }
    diags.retain(|d| !allowed(&allows.by_line, d.rule, d.line));
    diags.extend(allows.bad);
    diags.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    diags
}

/// The strictly per-file rules (L1/L2/L4), before allow-filtering.
/// Lock-graph rules (L3/L5/L6) come from [`lockgraph`], L7 from
/// [`durability`], L8 from [`atomics`], and L0 from the allow markers.
fn file_rules(file: &SourceFile) -> Vec<Diagnostic> {
    let ctx = FileContext::classify(&file.path);
    let mut diags = Vec::new();
    if ctx.check_l1 || ctx.check_l2 {
        check_token_rules(&file.path, &ctx, &file.tokens, &file.test, &mut diags);
    }
    if ctx.check_l4 {
        check_knob_docs(&file.path, &file.lines, &mut diags);
    }
    diags
}

/// Which per-file rules apply to a given file, derived from its path.
struct FileContext {
    check_l1: bool,
    check_l2: bool,
    check_l4: bool,
}

impl FileContext {
    fn classify(rel_path: &str) -> FileContext {
        let crate_name = ir::crate_of(rel_path);
        // Integration tests, benches, and examples are exercise code, not
        // the engine: the architectural rules target library sources only.
        let engine = ir::is_engine_file(rel_path);
        FileContext {
            check_l1: engine && !L1_EXEMPT_CRATES.contains(&crate_name),
            check_l2: engine && L2_HOT_CRATES.contains(&crate_name),
            check_l4: L4_KNOB_FILES.iter().any(|f| rel_path.ends_with(f)),
        }
    }
}

// ---------------------------------------------------------------------------
// Allow-comments
// ---------------------------------------------------------------------------

/// The parsed suppression markers of one file: line → allowed rules, plus
/// the L0 findings for malformed markers (unknown rule names, missing
/// durability rationales). A malformed entry is *not* honored.
struct Allows {
    by_line: HashMap<usize, Vec<Rule>>,
    bad: Vec<Diagnostic>,
}

/// Scans raw lines for `lsm-lint: allow(<rule>[, <rule>...])` markers.
/// Unknown rule names and `allow(durability-order)` /
/// `allow(atomics-order)` without a rationale are reported as L0
/// `bad-allow` and ignored; L0 itself cannot be suppressed (an allow-list
/// naming `bad-allow` is malformed).
fn collect_allows(rel_path: &str, lines: &[String]) -> Allows {
    let mut allows = Allows {
        by_line: HashMap::new(),
        bad: Vec::new(),
    };
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.find("lsm-lint:") else {
            continue;
        };
        // Doc comments (`///`, `//!`) talk *about* markers — e.g. a module
        // doc quoting the `allow(...)` syntax — and never carry one.
        let before = &line[..pos];
        if let Some(c) = before.find("//") {
            if matches!(before.as_bytes().get(c + 2), Some(b'/') | Some(b'!')) {
                continue;
            }
        }
        let rest = line[pos + "lsm-lint:".len()..].trim_start();
        let Some(list) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        for item in list.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match Rule::parse(item) {
                None => allows.bad.push(Diagnostic {
                    rule: Rule::BadAllow,
                    path: rel_path.into(),
                    line: idx + 1,
                    message: format!(
                        "unknown rule `{item}` in `lsm-lint: allow(...)`; known rules: {}",
                        known_rules(),
                    ),
                }),
                Some(Rule::BadAllow) => allows.bad.push(Diagnostic {
                    rule: Rule::BadAllow,
                    path: rel_path.into(),
                    line: idx + 1,
                    message: "`bad-allow` (L0) cannot be suppressed; fix the malformed \
                              marker it points at instead"
                        .into(),
                }),
                Some(r @ (Rule::DurabilityOrder | Rule::AtomicsOrder))
                    if !has_rationale(lines, idx, rest) =>
                {
                    allows.bad.push(Diagnostic {
                        rule: Rule::BadAllow,
                        path: rel_path.into(),
                        line: idx + 1,
                        message: format!(
                            "`allow({})` requires a rationale: explain why the \
                             ordering is safe in a `//` comment on the line above \
                             the marker, or after the closing parenthesis",
                            r.name()
                        ),
                    });
                }
                Some(rule) => allows.by_line.entry(idx + 1).or_default().push(rule),
            }
        }
    }
    allows
}

/// The rule names an allow-comment may use, for the L0 message.
fn known_rules() -> String {
    Rule::ALL
        .into_iter()
        .filter(|r| *r != Rule::BadAllow)
        .map(Rule::name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Whether the rationale-requiring marker (`allow(durability-order)` /
/// `allow(atomics-order)`) on `lines[idx]` carries one: prose after the
/// marker's closing parenthesis, or a plain `//` comment (not itself a
/// marker) on the line above.
fn has_rationale(lines: &[String], idx: usize, rest_after_colon: &str) -> bool {
    if let Some(close) = rest_after_colon.find(')') {
        let trailing = rest_after_colon[close + 1..]
            .trim_start_matches(['-', ':', ';', ',', '.', '—', ' '].as_slice());
        if trailing.chars().any(|c| c.is_alphabetic()) {
            return true;
        }
    }
    let Some(prev) = idx.checked_sub(1).and_then(|i| lines.get(i)) else {
        return false;
    };
    let prev = prev.trim_start();
    prev.starts_with("//")
        && !prev.contains("lsm-lint:")
        && prev
            .trim_start_matches('/')
            .chars()
            .any(|c| c.is_alphabetic())
}

/// An allow on line `n` suppresses findings on line `n` and line `n + 1`,
/// so the marker can sit at the end of the offending line or just above it.
fn allowed(allows: &HashMap<usize, Vec<Rule>>, rule: Rule, line: usize) -> bool {
    [line, line.saturating_sub(1)]
        .iter()
        .any(|l| allows.get(l).is_some_and(|rs| rs.contains(&rule)))
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// A lexical token: an identifier/number word, or a punctuation string
/// (`::` is fused; all other punctuation is a single character).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub(crate) text: String,
    pub(crate) line: usize,
}

/// Tokenizes Rust source, discarding comments, string/char literal
/// *contents* (literals become an empty placeholder so argument positions
/// survive), and whitespace. Line numbers are 1-based.
pub(crate) fn tokenize(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
                tokens.push(Token {
                    text: "\"\"".into(),
                    line,
                });
            }
            'r' | 'b' if starts_raw_or_byte_literal(&chars, i) => {
                i = skip_raw_or_byte_literal(&chars, i, &mut line);
                tokens.push(Token {
                    text: "\"\"".into(),
                    line,
                });
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                let is_lifetime =
                    (next.is_alphabetic() || next == '_') && chars.get(i + 2) != Some(&'\'');
                if is_lifetime {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    i += 1; // opening quote
                    if chars.get(i) == Some(&'\\') {
                        i += 2;
                        // Multi-char escapes (\x41, \u{...}) run to the quote.
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                    } else if i < chars.len() {
                        i += 1;
                    }
                    i += 1; // closing quote
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                tokens.push(Token {
                    text: "::".into(),
                    line,
                });
                i += 2;
            }
            c => {
                tokens.push(Token {
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

fn starts_raw_or_byte_literal(chars: &[char], i: usize) -> bool {
    // r"...", r#"..."#, b"...", br"...", b'...'
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    matches!(chars.get(j), Some('"')) || (chars[i] == 'b' && chars.get(i + 1) == Some(&'\''))
}

fn skip_raw_or_byte_literal(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) == Some(&'\'') {
        // Byte char literal b'x' / b'\n'.
        i += 1;
        if chars.get(i) == Some(&'\\') {
            i += 2;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
        } else {
            i += 1;
        }
        return i + 1;
    }
    if !raw {
        return skip_string(chars, i, line);
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a normal `"..."` string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            // An escaped newline is a string continuation: still a line.
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------------------
// Test-region tracking
// ---------------------------------------------------------------------------

/// Marks which tokens live inside test code: a `#[cfg(test)]` or `#[test]`
/// (or any `*test*`-attributed) item, tracked by brace depth. Returns one
/// bool per token.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth = 0i64;
    // Depths at which a test region opened; tokens are test code while any
    // region is on the stack.
    let mut region_stack: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i].text;
        if t == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            // Scan the attribute for a `test` identifier.
            let mut j = i + 2;
            let mut bracket = 1i64;
            let mut has_test = false;
            while j < tokens.len() && bracket > 0 {
                match tokens[j].text.as_str() {
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "test" => has_test = true,
                    _ => {}
                }
                if !region_stack.is_empty() {
                    in_test[j] = true;
                }
                j += 1;
            }
            if has_test {
                pending_attr = true;
            }
            i = j;
            continue;
        }
        match t.as_str() {
            "{" => {
                if pending_attr {
                    region_stack.push(depth);
                    pending_attr = false;
                }
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if region_stack.last().is_some_and(|&d| d >= depth) {
                    in_test[i] = true;
                    region_stack.pop();
                    i += 1;
                    continue;
                }
            }
            ";" => {
                // `#[cfg(test)] use ...;` — attribute covered a single
                // brace-less item.
                if pending_attr && region_stack.is_empty() {
                    in_test[i] = true;
                }
                pending_attr = false;
            }
            _ => {}
        }
        if !region_stack.is_empty() || pending_attr {
            in_test[i] = true;
        }
        i += 1;
    }
    in_test
}

// ---------------------------------------------------------------------------
// Token rules: L1, L2
// ---------------------------------------------------------------------------

fn check_token_rules(
    rel_path: &str,
    ctx: &FileContext,
    tokens: &[Token],
    test_lines: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");

    for i in 0..tokens.len() {
        if test_lines[i] {
            continue;
        }
        let line = tokens[i].line;
        let t = tokens[i].text.as_str();

        if ctx.check_l1 {
            if t == "std" && text(i + 1) == "::" && text(i + 2) == "fs" {
                diags.push(Diagnostic {
                    rule: Rule::FsBoundary,
                    path: rel_path.into(),
                    line,
                    message: "direct `std::fs` access; route I/O through the \
                              `lsm-storage` Backend so accounting and fault \
                              injection see it"
                        .into(),
                });
            } else if t == "File"
                && text(i + 1) == "::"
                && matches!(text(i + 2), "open" | "create" | "create_new" | "options")
            {
                diags.push(Diagnostic {
                    rule: Rule::FsBoundary,
                    path: rel_path.into(),
                    line,
                    message: format!(
                        "direct `File::{}`; route I/O through the `lsm-storage` Backend",
                        text(i + 2)
                    ),
                });
            } else if t == "OpenOptions" {
                diags.push(Diagnostic {
                    rule: Rule::FsBoundary,
                    path: rel_path.into(),
                    line,
                    message: "direct `OpenOptions` usage; route I/O through the \
                              `lsm-storage` Backend"
                        .into(),
                });
            }
        }

        if ctx.check_l2 {
            if t == "." && matches!(text(i + 1), "unwrap" | "expect") && text(i + 2) == "(" {
                diags.push(Diagnostic {
                    rule: Rule::NoPanic,
                    path: rel_path.into(),
                    line,
                    message: format!(
                        "`.{}()` in a hot-path crate; propagate the error \
                         (or annotate with `// lsm-lint: allow(L2)` and a proof)",
                        text(i + 1)
                    ),
                });
            } else if matches!(t, "panic" | "unimplemented" | "todo") && text(i + 1) == "!" {
                diags.push(Diagnostic {
                    rule: Rule::NoPanic,
                    path: rel_path.into(),
                    line,
                    message: format!("`{t}!` in a hot-path crate; return an error instead"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L4: knob documentation
// ---------------------------------------------------------------------------

/// Checks that every `pub` field of every `pub struct` in a knob file is
/// preceded by a `///` doc comment. Works on raw lines so comments survive.
fn check_knob_docs(rel_path: &str, lines: &[String], diags: &mut Vec<Diagnostic>) {
    let mut in_struct = false;
    let mut brace_depth = 0i64;
    for (idx, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if !in_struct {
            if line.starts_with("pub struct ") && raw.contains('{') {
                in_struct = true;
                brace_depth = brace_balance(raw);
            }
            continue;
        }
        brace_depth += brace_balance(raw);
        if brace_depth <= 0 {
            in_struct = false;
            continue;
        }
        // A field line at depth 1: `pub name: Type,` (skip methods/impl —
        // structs have no bodies, so depth 1 lines are fields/attrs/comments).
        if brace_depth == 1
            && line.starts_with("pub ")
            && line.contains(':')
            && !line.contains("fn ")
        {
            let mut j = idx;
            let mut documented = false;
            while j > 0 {
                j -= 1;
                let prev = lines[j].trim();
                if prev.starts_with("///") {
                    documented = true;
                    break;
                }
                if prev.starts_with("#[") || prev.is_empty() {
                    continue;
                }
                break;
            }
            if !documented {
                let field = line
                    .trim_start_matches("pub ")
                    .split(':')
                    .next()
                    .unwrap_or("?")
                    .trim();
                diags.push(Diagnostic {
                    rule: Rule::KnobDocs,
                    path: rel_path.into(),
                    line: idx + 1,
                    message: format!(
                        "public knob field `{field}` has no doc comment; \
                         document which design-space knob it controls"
                    ),
                });
            }
        }
    }
}

/// Net `{`/`}` balance of a line, ignoring braces inside strings or
/// comments (good enough for struct definitions).
fn brace_balance(line: &str) -> i64 {
    let code = line.split("//").next().unwrap_or(line);
    let mut bal = 0i64;
    let mut in_str = false;
    let mut prev = ' ';
    for c in code.chars() {
        match c {
            '"' if prev != '\\' => in_str = !in_str,
            '{' if !in_str => bal += 1,
            '}' if !in_str => bal -= 1,
            _ => {}
        }
        prev = c;
    }
    bal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src)
    }

    #[test]
    fn l1_flags_std_fs_outside_storage() {
        let diags = lint(
            "crates/lsm-core/src/db.rs",
            "fn f() { let _ = std::fs::read(\"x\"); }",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::FsBoundary);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn l1_exempts_storage_and_test_code() {
        assert!(lint(
            "crates/lsm-storage/src/backend.rs",
            "fn f() { std::fs::read(\"x\").ok(); }",
        )
        .is_empty());
        assert!(lint(
            "crates/lsm-core/src/db.rs",
            "#[cfg(test)]\nmod tests {\n fn f() { std::fs::read(\"x\").ok(); }\n}\n",
        )
        .is_empty());
        assert!(lint(
            "crates/lsm-core/tests/engine.rs",
            "fn f() { std::fs::read(\"x\").ok(); }",
        )
        .is_empty());
        // The fault-injection backend is part of the storage substrate and
        // inherits the L1 exemption — no per-file escape hatch needed.
        assert!(lint(
            "crates/lsm-storage/src/fault.rs",
            "fn f() { std::fs::remove_file(\"x\").ok(); }",
        )
        .is_empty());
    }

    #[test]
    fn l2_flags_unwrap_in_hot_crates_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(lint("crates/lsm-core/src/version.rs", src).len(), 1);
        assert_eq!(lint("crates/lsm-sstable/src/block.rs", src).len(), 1);
        assert!(lint("crates/lsm-workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l2_ignores_identifiers_containing_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(lint("crates/lsm-core/src/version.rs", src).is_empty());
    }

    #[test]
    fn l2_flags_panic_macro() {
        let src = "fn f() { panic!(\"boom\"); }";
        let diags = lint("crates/lsm-compaction/src/planner.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NoPanic);
    }

    #[test]
    fn l3_flags_two_acquisitions_in_one_statement() {
        let src = "fn f() { let x = self.a.lock().merge(other.b.lock()); }";
        let diags = lint("crates/lsm-memtable/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LockNesting);
    }

    #[test]
    fn l3_permits_sequential_statements() {
        let src = "fn f() { let a = self.a.lock(); drop(a); let b = self.b.lock(); }";
        assert!(lint("crates/lsm-memtable/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l3_ignores_read_write_with_args() {
        let src = "fn f() { let x = backend.read(id, 0, 10).and(backend.write(id, buf)); }";
        assert!(lint("crates/lsm-core/src/scan.rs", src).is_empty());
    }

    #[test]
    fn l4_requires_field_docs_in_knob_files() {
        let src = "/// Options.\npub struct Options {\n    /// Documented.\n    pub a: u32,\n    pub b: u32,\n}\n";
        let diags = lint("crates/lsm-core/src/options.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::KnobDocs);
        assert_eq!(diags[0].line, 5);
        // Same content in a non-knob file: no L4.
        assert!(lint("crates/lsm-core/src/other.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lsm-lint: allow(L2)";
        assert!(lint("crates/lsm-core/src/version.rs", same).is_empty());
        let above = "// lsm-lint: allow(no-panic)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint("crates/lsm-core/src/version.rs", above).is_empty());
        let wrong_rule = "// lsm-lint: allow(L1)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(lint("crates/lsm-core/src/version.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = "fn f() { let _ = \"std::fs::read .unwrap() panic!\"; }\n// std::fs in a comment\n/* x.unwrap() */\n";
        assert!(lint("crates/lsm-core/src/db.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_tokenize() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let _ = r#\"std::fs \"quoted\" \"#; x }";
        assert!(lint("crates/lsm-core/src/db.rs", src).is_empty());
    }

    #[test]
    fn string_continuations_keep_line_numbers() {
        // Line 1 continues its string onto line 2 with `\`-newline; line 4
        // does the same inside a byte string.
        let src = "f(\"a\\\n   b\");\ng(r\"x\ny\", b\"c\\\nd\");\nh();\n";
        let toks = tokenize(src);
        let line_of = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(line_of("g"), Some(3));
        assert_eq!(line_of("h"), Some(6));
    }

    #[test]
    fn json_report_shape() {
        let report = LintReport {
            files_checked: 2,
            suppressed: 0,
            diagnostics: lint(
                "crates/lsm-core/src/db.rs",
                "fn f() { std::fs::read(\"x\").ok(); }",
            ),
        };
        let json = report.to_json();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"files_checked\": 2"));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"suppressed\": 0"));
        assert!(json.contains("\"by_rule\": {\"L1\": 1}"));
        assert!(json.contains("\"rule\": \"L1\""));
        assert!(json.contains("\"line\": 1"));
    }

    #[test]
    fn unknown_rule_in_allow_is_rejected() {
        let src = "// lsm-lint: allow(no-such-rule)\nfn f() {}\n";
        let diags = lint("crates/lsm-core/src/db.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAllow);
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("no-such-rule"));
        assert!(diags[0].message.contains("durability-order"));
    }

    #[test]
    fn bad_allow_cannot_be_suppressed() {
        let src = "// lsm-lint: allow(L0)\n// lsm-lint: allow(typo)\nfn f() {}\n";
        let diags = lint("crates/lsm-core/src/db.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == Rule::BadAllow));
    }

    #[test]
    fn durability_allow_requires_rationale() {
        // Bare marker: rejected, and the allow is not honored.
        let bare = "// lsm-lint: allow(durability-order)\nfn f() {}\n";
        let diags = lint("crates/lsm-core/src/db.rs", bare);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAllow);
        assert!(diags[0].message.contains("rationale"));

        // A comment line above the marker is a rationale.
        let above = "// recovery is single-threaded; the WAL is re-logged below\n\
             // lsm-lint: allow(durability-order)\nfn f() {}\n";
        assert!(lint("crates/lsm-core/src/db.rs", above).is_empty());

        // Prose after the closing parenthesis is a rationale.
        let inline = "// lsm-lint: allow(durability-order) — replay path, no readers\nfn f() {}\n";
        assert!(lint("crates/lsm-core/src/db.rs", inline).is_empty());
    }

    #[test]
    fn atomics_allow_requires_rationale() {
        // Bare marker: rejected, and the allow is not honored.
        let bare = "// lsm-lint: allow(atomics-order)\nfn f() {}\n";
        let diags = lint("crates/lsm-core/src/db.rs", bare);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAllow);
        assert!(diags[0].message.contains("atomics-order"));
        assert!(diags[0].message.contains("rationale"));

        // A comment line above the marker is a rationale.
        let above = "// counter guards nothing; Relaxed is the protocol\n\
             // lsm-lint: allow(atomics-order)\nfn f() {}\n";
        assert!(lint("crates/lsm-core/src/db.rs", above).is_empty());

        // Prose after the closing parenthesis is a rationale.
        let inline = "// lsm-lint: allow(atomics-order) — init happens before spawn\nfn f() {}\n";
        assert!(lint("crates/lsm-core/src/db.rs", inline).is_empty());
    }
}
