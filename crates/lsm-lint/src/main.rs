//! `lsm-lint` CLI: lints the workspace (or `--path <dir>`) and writes a
//! machine-readable JSON report. Exits non-zero when violations are found.
//!
//! ```text
//! cargo run -p lsm-lint                                  # lint the workspace
//! cargo run -p lsm-lint -- --path <dir>                  # lint an arbitrary tree
//! cargo run -p lsm-lint -- --json report.json
//! cargo run -p lsm-lint -- --write-lock-order lock_order.json
//! cargo run -p lsm-lint -- --check-lock-order lock_order.json
//! cargo run -p lsm-lint -- --write-durability-order durability_order.json
//! cargo run -p lsm-lint -- --check-durability-order durability_order.json
//! cargo run -p lsm-lint -- --write-atomics-order atomics_order.json
//! cargo run -p lsm-lint -- --check-atomics-order atomics_order.json
//! cargo run -p lsm-lint -- --only atomics-order                # one rule
//! ```
//!
//! Exit codes: 0 clean, 1 findings or stale/cyclic spec, 2 bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

/// Compares an on-disk spec against the freshly derived one.
fn check_spec(what: &str, flag: &str, path: &PathBuf, fresh: &str) -> bool {
    match std::fs::read_to_string(path) {
        Ok(on_disk) if on_disk == fresh => {
            eprintln!("lsm-lint: {what} spec {} is up to date", path.display());
            true
        }
        Ok(_) => {
            eprintln!(
                "lsm-lint: {what} spec {} is stale; regenerate with \
                 `cargo run -p lsm-lint -- {flag} {}`",
                path.display(),
                path.display()
            );
            false
        }
        Err(e) => {
            eprintln!(
                "lsm-lint: could not read {what} spec {}: {e}",
                path.display()
            );
            false
        }
    }
}

/// Writes a derived spec to disk.
fn write_spec(what: &str, path: &PathBuf, fresh: &str) -> bool {
    match std::fs::write(path, fresh) {
        Ok(()) => {
            eprintln!("lsm-lint: {what} spec written to {}", path.display());
            true
        }
        Err(e) => {
            eprintln!(
                "lsm-lint: could not write {what} spec to {}: {e}",
                path.display()
            );
            false
        }
    }
}

/// Everything a run derives besides the lint report.
type Analyses = (
    lsm_lint::LockGraph,
    lsm_lint::DurabilityReport,
    lsm_lint::AtomicsReport,
);

/// One checked-in spec: its name, its two flags, and how to derive it.
struct Spec {
    what: &'static str,
    write_flag: &'static str,
    check_flag: &'static str,
    emit: fn(&Analyses) -> String,
}

const SPECS: [Spec; 3] = [
    Spec {
        what: "lock-order",
        write_flag: "--write-lock-order",
        check_flag: "--check-lock-order",
        emit: |a| a.0.spec_json(),
    },
    Spec {
        what: "durability-order",
        write_flag: "--write-durability-order",
        check_flag: "--check-durability-order",
        emit: |a| a.1.spec_json(),
    },
    Spec {
        what: "atomics-order",
        write_flag: "--write-atomics-order",
        check_flag: "--check-atomics-order",
        emit: |a| a.2.spec_json(),
    },
];

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    // Per spec: the file to write and the file to check against.
    let mut targets: [[Option<PathBuf>; 2]; SPECS.len()] = Default::default();
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => Some(PathBuf::from(v)),
            None => {
                eprintln!("lsm-lint: {flag} requires a value");
                None
            }
        };
        let spec_flag = SPECS.iter().enumerate().find_map(|(k, s)| {
            [s.write_flag, s.check_flag]
                .iter()
                .position(|f| *f == arg)
                .map(|mode| (k, mode))
        });
        if let Some((k, mode)) = spec_flag {
            match value(&arg) {
                Some(v) => targets[k][mode] = Some(v),
                None => return ExitCode::from(2),
            }
            continue;
        }
        match arg.as_str() {
            "--path" => match value("--path") {
                Some(v) => root = Some(v),
                None => return ExitCode::from(2),
            },
            "--json" => match value("--json") {
                Some(v) => json_out = Some(v),
                None => return ExitCode::from(2),
            },
            "--only" => match value("--only") {
                Some(v) => only = Some(v.to_string_lossy().into_owned()),
                None => return ExitCode::from(2),
            },
            "--help" | "-h" => {
                println!(
                    "lsm-lint: architectural static analysis for lsm-lab\n\n\
                     USAGE: lsm-lint [--path <dir>] [--json <file>] [--only <rule>]\n\
                            [--write-lock-order <file>] [--check-lock-order <file>]\n\
                            [--write-durability-order <file>] [--check-durability-order <file>]\n\
                            [--write-atomics-order <file>] [--check-atomics-order <file>]\n\n\
                     Rules: L0 bad-allow, L1 fs-boundary, L2 no-panic, L3 lock-nesting,\n\
                     L4 knob-docs, L5 lock-order, L6 io-under-lock, L7 durability-order,\n\
                     L8 atomics-order.\n\
                     Suppress a finding with `// lsm-lint: allow(<rule>)` on the same\n\
                     line or the line above; `allow(durability-order)` and\n\
                     `allow(atomics-order)` additionally require a rationale comment.\n\n\
                     --only <rule> keeps findings of a single rule (by `L<n>` id or\n\
                     kebab name) for fast iteration; spec checks still run if asked.\n\
                     --write-lock-order writes the discovered lock hierarchy (locks,\n\
                     condvars, inter-lock edges, cycles) as JSON; --check-lock-order\n\
                     fails if the checked-in spec is stale or the graph has cycles.\n\
                     --write-durability-order / --check-durability-order do the same\n\
                     for the commit pipeline's effect sequences (L7), and\n\
                     --write-atomics-order / --check-atomics-order for the lock-free\n\
                     layer's publication protocol (L8).\n\n\
                     Exit codes: 0 clean, 1 findings or stale spec, 2 bad arguments."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lsm-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // Default to the workspace root (this crate lives at crates/lsm-lint).
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    // Resolve --only before the (slow) scan so a typo fails fast.
    let only_rule = match only.as_deref() {
        None => None,
        Some(s) => match lsm_lint::Rule::parse(s) {
            Some(r) => Some(r),
            None => {
                let known: Vec<&str> = lsm_lint::Rule::ALL.iter().map(|r| r.name()).collect();
                eprintln!(
                    "lsm-lint: unknown rule `{s}` for --only; known rules: {}",
                    known.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };

    let (mut report, graph, durability, atomics) = match lsm_lint::lint_tree_all(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lsm-lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(rule) = only_rule {
        report.diagnostics.retain(|d| d.rule == rule);
    }

    for d in &report.diagnostics {
        eprintln!("{d}");
    }

    let analyses = (graph, durability, atomics);
    let mut spec_failed = false;
    for (spec, [write, check]) in SPECS.iter().zip(&targets) {
        let fresh = (spec.emit)(&analyses);
        if let Some(path) = write {
            spec_failed |= !write_spec(spec.what, path, &fresh);
        }
        let Some(path) = check else { continue };
        let cycles = &analyses.0.cycles;
        if spec.check_flag == "--check-lock-order" && !cycles.is_empty() {
            eprintln!(
                "lsm-lint: lock-order graph has {} cycle(s): {:?}",
                cycles.len(),
                cycles
            );
            spec_failed = true;
        }
        spec_failed |= !check_spec(spec.what, spec.write_flag, path, &fresh);
    }

    let json_path = json_out.unwrap_or_else(|| root.join("target/lsm-lint-report.json"));
    if let Some(parent) = json_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&json_path, report.to_json()) {
        Ok(()) => eprintln!("lsm-lint: report written to {}", json_path.display()),
        Err(e) => eprintln!(
            "lsm-lint: could not write report to {}: {e}",
            json_path.display()
        ),
    }

    eprintln!(
        "lsm-lint: {} file(s) checked, {} violation(s)",
        report.files_checked,
        report.diagnostics.len()
    );
    if report.is_clean() && !spec_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
