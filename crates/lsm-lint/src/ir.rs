//! The one intermediate representation every rule runs on.
//!
//! [`Ir::build`] tokenizes each file once and derives what L1–L8 share:
//!
//! - the files, each with its tokens, test-region mask and source lines;
//! - one function table (crate, name, file, signature and body ranges) over
//!   engine files;
//! - each function's call sites, found by the one call rule below and
//!   resolved by one unique-name resolver;
//! - one monotone fixpoint over resolved calls ([`fixpoint`]);
//! - one guard-scope walker ([`walk_scopes`]) and one bracket matcher
//!   ([`matching`]).
//!
//! ## The call rule
//!
//! A call is followed when it is a method call whose receiver chain is
//! rooted at `self` — through field accesses and index groups, so
//! `self.f(..)`, `self.x.f(..)` and `self.engines[i].f(..)` all qualify —
//! or an unqualified free call `f(..)`. A path-qualified call (`m::f(..)`,
//! `Type::f(..)`) is never followed, and neither is a method call on any
//! other receiver: without receiver types, a bare name reached through a
//! foreign receiver or path is a guess, and a wrong guess fabricates edges.
//! A followed call resolves only when its name maps to exactly one function
//! in the crate, so ambiguous names (trait methods, `new`, `insert`, …)
//! stay unresolved.

use std::collections::HashMap;
use std::ops::Range;

use crate::{test_regions, tokenize, Token};

/// Idents that look like calls but are control flow or common macros.
pub(crate) const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "loop", "move", "fn", "let", "else",
    "impl", "where", "unsafe", "break", "continue", "drop", "Some", "None", "Ok", "Err",
];

/// Whether a path is engine code: integration tests, benches, examples and
/// fixtures are exercise code, and the architectural rules skip them.
pub(crate) fn is_engine_file(path: &str) -> bool {
    !path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples" || c == "fixtures")
}

/// The crate a workspace-relative path belongs to (`lsm-lab` for the root
/// package).
pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("lsm-lab")
}

/// One source file, tokenized once.
pub(crate) struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub(crate) path: String,
    /// The crate the file belongs to.
    pub(crate) crate_name: String,
    /// Whether the file is engine code (see [`is_engine_file`]).
    pub(crate) engine: bool,
    /// Raw source lines, for rules that read comments.
    pub(crate) lines: Vec<String>,
    pub(crate) tokens: Vec<Token>,
    /// Per token: whether it lies in test code.
    pub(crate) test: Vec<bool>,
    /// This file's functions, as a range of [`Ir::fns`].
    pub(crate) fns: Range<usize>,
}

/// One non-test function item of an engine file.
pub(crate) struct Func {
    /// Index into [`Ir::files`].
    pub(crate) file: usize,
    pub(crate) name: String,
    /// Tokens between the name and the body's `{`.
    pub(crate) sig: Range<usize>,
    /// Tokens of the body, braces included.
    pub(crate) body: Range<usize>,
    /// Call sites in the body (nested items included), in token order.
    pub(crate) calls: Vec<Call>,
}

impl Func {
    /// The call site starting at token `at`, if there is one.
    pub(crate) fn call_at(&self, at: usize) -> Option<&Call> {
        self.calls
            .binary_search_by_key(&at, |c| c.at)
            .ok()
            .map(|k| &self.calls[k])
    }
}

/// One call site the call rule follows.
pub(crate) struct Call {
    /// The `.` of a method call, or the name of a free call.
    pub(crate) at: usize,
    pub(crate) name: String,
    /// Line of the chain's `self` (or of a free call's name): where the
    /// statement starts, so rustfmt's chain-splitting cannot strand an
    /// allow-comment on the wrong line.
    pub(crate) line: usize,
    /// The callee, when `name` maps to exactly one function in the crate.
    pub(crate) callee: Option<usize>,
}

/// The analyzed tree: files and the function table over them.
pub(crate) struct Ir {
    pub(crate) files: Vec<SourceFile>,
    pub(crate) fns: Vec<Func>,
}

impl Ir {
    /// Builds the IR from `(workspace-relative path, source)` pairs.
    pub(crate) fn build(sources: &[(String, String)]) -> Ir {
        let mut ir = Ir {
            files: Vec::with_capacity(sources.len()),
            fns: Vec::new(),
        };
        for (path, source) in sources {
            let tokens = tokenize(source);
            let test = test_regions(&tokens);
            let engine = is_engine_file(path);
            let first = ir.fns.len();
            if engine {
                for (name, sig, body) in fn_items(&tokens, &test) {
                    let calls = body.clone().filter_map(|k| call_at(&tokens, k)).collect();
                    ir.fns.push(Func {
                        file: ir.files.len(),
                        name,
                        sig,
                        body,
                        calls,
                    });
                }
            }
            ir.files.push(SourceFile {
                path: path.clone(),
                crate_name: crate_of(path).to_string(),
                engine,
                lines: source.lines().map(str::to_string).collect(),
                tokens,
                test,
                fns: first..ir.fns.len(),
            });
        }

        // The unique-name resolver: (crate, name) → the one function.
        let mut by_name: HashMap<(String, String), Option<usize>> = HashMap::new();
        for (k, f) in ir.fns.iter().enumerate() {
            by_name
                .entry((ir.files[f.file].crate_name.clone(), f.name.clone()))
                .and_modify(|slot| *slot = None)
                .or_insert(Some(k));
        }
        for f in &mut ir.fns {
            let crate_name = &ir.files[f.file].crate_name;
            for call in &mut f.calls {
                let key = (crate_name.clone(), call.name.clone());
                call.callee = by_name.get(&key).copied().flatten();
            }
        }
        ir
    }

    /// The outermost function of `file` whose body contains token `at`.
    pub(crate) fn enclosing_fn(&self, file: usize, at: usize) -> Option<&Func> {
        self.fns[self.files[file].fns.clone()]
            .iter()
            .find(|f| f.body.contains(&at))
    }
}

/// Function items of one file: `(name, signature range, body range)`.
/// Bodiless trait signatures and test-region functions are skipped; nested
/// items are listed after, and also lie inside, their enclosing body.
fn fn_items(tokens: &[Token], test: &[bool]) -> Vec<(String, Range<usize>, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if test[i] || tokens[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).map(|t| t.text.clone()) else {
            break;
        };
        // The body `{`, or `;` for a bodiless signature.
        let mut j = i + 2;
        while j < tokens.len() && !matches!(tokens[j].text.as_str(), "{" | ";") {
            j += 1;
        }
        if tokens.get(j).is_none_or(|t| t.text != "{") {
            i = j + 1;
            continue;
        }
        let end = matching(tokens, j).unwrap_or(j);
        out.push((name, i + 2..j, j..end + 1));
        // Continue inside the body so nested fns are listed too.
        i = j + 1;
    }
    out
}

/// The one call rule (see the module doc), applied at token `k`.
fn call_at(toks: &[Token], k: usize) -> Option<Call> {
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    let lower = |s: &str| s.starts_with(|c: char| c.is_ascii_lowercase());
    let (name, line) = if text(k) == "." {
        if text(k + 2) != "(" || !lower(text(k + 1)) {
            return None;
        }
        (text(k + 1), toks[receiver_self_root(toks, k)?].line)
    } else {
        let t = text(k);
        let after_path_or_dot = k
            .checked_sub(1)
            .is_some_and(|p| matches!(text(p), "." | "fn" | "::"));
        if text(k + 1) != "(" || !lower(t) || CALL_KEYWORDS.contains(&t) || after_path_or_dot {
            return None;
        }
        (t, toks[k].line)
    };
    Some(Call {
        at: k,
        name: name.to_string(),
        line,
        callee: None,
    })
}

fn is_ident(t: &str) -> bool {
    !t.is_empty() && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The `self` token that the receiver chain of the method call at `dot` (a
/// `.` token) is rooted at, through field accesses and index groups:
/// `self.f(..)`, `self.x.f(..)`, `self.x[i].f(..)`. A chain through an
/// intermediate call (`self.x.lock().f(..)`) has no root: that call lands
/// on the guard's deref target, not on `self`.
pub(crate) fn receiver_self_root(toks: &[Token], dot: usize) -> Option<usize> {
    let mut j = dot.checked_sub(1)?;
    loop {
        while toks[j].text == "]" {
            j = matching(toks, j)?.checked_sub(1)?;
        }
        let t = toks[j].text.as_str();
        if t == "self" {
            return Some(j);
        }
        if !is_ident(t) {
            return None;
        }
        j = j
            .checked_sub(1)
            .filter(|&p| toks[p].text == ".")?
            .checked_sub(1)?;
    }
}

/// The token naming the receiver of the method call at `dot`: the token
/// before the `.`, or, for an indexed receiver (`buckets[i].fetch_add(..)`),
/// the token before the index group.
pub(crate) fn receiver_ident(toks: &[Token], dot: usize) -> Option<usize> {
    let j = dot.checked_sub(1)?;
    if toks[j].text == "]" {
        matching(toks, j)?.checked_sub(1)
    } else {
        Some(j)
    }
}

/// Line of the outermost token of the `a.b.c` chain ending at `dot`, so a
/// site anchors where its statement starts; the `.`'s own line when the
/// chain passes through anything but identifiers.
pub(crate) fn chain_root_line(toks: &[Token], dot: usize) -> usize {
    let mut j = dot;
    while let Some(p) = j.checked_sub(1).filter(|&p| is_ident(&toks[p].text)) {
        match p.checked_sub(1) {
            Some(d) if toks[d].text == "." => j = d,
            _ => return toks[p].line,
        }
    }
    toks[dot].line
}

/// The one bracket matcher: the index of the bracket matching the one at
/// `at`, scanning forward from `(`/`[`/`{` and backward from `)`/`]`/`}`.
pub(crate) fn matching(toks: &[Token], at: usize) -> Option<usize> {
    const PAIRS: [(&str, &str); 3] = [("(", ")"), ("[", "]"), ("{", "}")];
    let t = toks.get(at)?.text.as_str();
    let (deeper, shallower, forward) = PAIRS.iter().find_map(|&(open, close)| {
        if t == open {
            Some((open, close, true))
        } else if t == close {
            Some((close, open, false))
        } else {
            None
        }
    })?;
    let mut depth = 0i64;
    let mut j = at;
    loop {
        let t = toks.get(j)?.text.as_str();
        if t == deeper {
            depth += 1;
        } else if t == shallower {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = if forward { j + 1 } else { j.checked_sub(1)? };
    }
}

/// One monotone fixpoint over resolved calls: `callees[f]` lists the
/// functions `f` calls, and `join(f, &mut facts[f], &facts[callee])` folds
/// a callee's fact into its caller's, reporting whether it grew. Every join
/// is monotone over a finite lattice, so the loop terminates.
pub(crate) fn fixpoint<T: Clone>(
    callees: &[Vec<usize>],
    facts: &mut [T],
    mut join: impl FnMut(usize, &mut T, &T) -> bool,
) {
    loop {
        let mut changed = false;
        for (f, calls) in callees.iter().enumerate() {
            for &c in calls {
                if c != f {
                    let callee = facts[c].clone();
                    changed |= join(f, &mut facts[f], &callee);
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// A live guard in the [`walk_scopes`] walker.
pub(crate) struct Guard<G> {
    /// What the analysis knows about the guard.
    pub(crate) data: G,
    /// Binding name, for `drop(name)`.
    pub(crate) name: Option<String>,
    /// Expression temporary: dies at the end of its statement.
    pub(crate) temp: bool,
    /// Brace depth of the binding: the guard dies when scope unwinds past.
    depth: i64,
}

/// The walker's scope state, handed to the visitor at every token it does
/// not handle itself.
pub(crate) struct Scope<G> {
    /// Guards live at the current token, oldest first.
    pub(crate) guards: Vec<Guard<G>>,
    /// Whether the current token starts a statement.
    pub(crate) stmt_start: bool,
    depth: i64,
    /// The current statement's leading `let [mut] IDENT =` binding.
    pending_let: Option<String>,
}

impl<G> Scope<G> {
    /// Records the guard returned by the argless `.lock()`/`.read()`/
    /// `.write()` at `dot`. The named-versus-temporary test: when the
    /// statement is a `let x =` whose acquisition is terminal (`;` follows
    /// the `()`, or a single `.unwrap()`/`.expect(..)` adapter before the
    /// `;`, the std-Mutex idiom), the guard is named `x` and lives until
    /// scope exit or `drop(x)`; otherwise it is an expression temporary.
    pub(crate) fn acquire(&mut self, toks: &[Token], dot: usize, data: G) {
        let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
        let terminal = match text(dot + 4) {
            ";" => true,
            "." => {
                matches!(text(dot + 5), "unwrap" | "expect")
                    && text(dot + 6) == "("
                    && matching(toks, dot + 6).is_some_and(|close| text(close + 1) == ";")
            }
            _ => false,
        };
        let name = self.pending_let.clone().filter(|n| terminal && n != "_");
        self.guards.push(Guard {
            data,
            temp: name.is_none(),
            name,
            depth: self.depth,
        });
    }
}

/// The one guard-scope walker. Walks `body` handling scoping itself — `{`,
/// `}` and `;` end guards' lives (temporaries at the statement's end,
/// let-bound guards when their block closes), `drop(x)` releases the guard
/// named `x`, and a statement-leading `let [mut] x =` names the guard the
/// statement acquires — and calls `visit` at every other token. `visit`
/// returns the index to continue at.
pub(crate) fn walk_scopes<G>(
    toks: &[Token],
    body: Range<usize>,
    mut visit: impl FnMut(&mut Scope<G>, usize) -> usize,
) {
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let mut s = Scope {
        guards: Vec::new(),
        stmt_start: true,
        depth: 0,
        pending_let: None,
    };
    let mut i = body.start;
    while i < body.end {
        match text(i) {
            "{" => {
                s.depth += 1;
                s.stmt_start = true;
            }
            "}" => {
                s.depth -= 1;
                let depth = s.depth;
                s.guards.retain(|g| g.depth <= depth && !g.temp);
                s.stmt_start = true;
                s.pending_let = None;
            }
            ";" => {
                s.guards.retain(|g| !g.temp);
                s.stmt_start = true;
                s.pending_let = None;
            }
            "drop" if text(i + 1) == "(" => {
                let victim = text(i + 2);
                s.guards.retain(|g| g.name.as_deref() != Some(victim));
            }
            "let" if s.stmt_start => {
                let j = if text(i + 1) == "mut" { i + 2 } else { i + 1 };
                if is_ident(text(j)) && text(j + 1) == "=" {
                    s.pending_let = Some(text(j).to_string());
                }
                s.stmt_start = false;
            }
            _ => {
                i = visit(&mut s, i);
                s.stmt_start = false;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn followed(body: &str) -> Vec<String> {
        let src = format!("fn f() {{ {body} }}");
        let ir = Ir::build(&[("crates/lsm-core/src/x.rs".to_string(), src)]);
        ir.fns[0].calls.iter().map(|c| c.name.clone()).collect()
    }

    #[test]
    fn the_call_rule_follows_self_rooted_and_free_calls_only() {
        assert_eq!(followed("self.a();"), ["a"]);
        assert_eq!(followed("self.x.b();"), ["b"]);
        assert_eq!(followed("self.x[i].c();"), ["c"]);
        assert_eq!(followed("self.x[i][j].y.c2(1);"), ["c2"]);
        assert_eq!(followed("d();"), ["d"]);
        assert_eq!(
            followed("self.x.lock().h();"),
            ["lock"],
            "`h` lands on a guard"
        );
        for ignored in ["other.e();", "m::f();", "Type::g();", "if (x) {}"] {
            assert!(
                followed(ignored).is_empty(),
                "`{ignored}` must not be followed"
            );
        }
    }

    #[test]
    fn calls_resolve_by_unique_name_within_the_crate() {
        let a = "fn one() {}\nfn two() {}\nfn two() {}\nfn g() { one(); two(); }\n";
        let b = "fn one() {}\n";
        let ir = Ir::build(&[
            ("crates/lsm-core/src/a.rs".to_string(), a.to_string()),
            ("crates/lsm-sstable/src/b.rs".to_string(), b.to_string()),
        ]);
        let g = ir.fns.iter().find(|f| f.name == "g").unwrap();
        assert_eq!(g.calls[0].callee, Some(0), "`one` is unique in lsm-core");
        assert_eq!(g.calls[1].callee, None, "`two` is ambiguous");
    }

    #[test]
    fn the_bracket_matcher_runs_both_ways() {
        let toks = tokenize("f(a[b(c)], {d})");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        let open = 1;
        let close = texts.len() - 1;
        assert_eq!(matching(&toks, open), Some(close));
        assert_eq!(matching(&toks, close), Some(open));
        assert_eq!(matching(&toks, 0), None, "not a bracket");
    }
}
