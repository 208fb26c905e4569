//! Conformance test for the checked-in `durability_order.json`: the spec
//! must be exactly what `lsm-lint`'s L7 pass derives from the current tree
//! (no staleness), the real commit pipeline must carry no unsuppressed
//! durability-order findings, and the load-bearing effect sequences are
//! pinned so a reordering shows up as a failed assertion *and* a stale
//! spec. Regenerate after changing the protocol with
//! `cargo run -p lsm-lint -- --write-durability-order durability_order.json`.

use std::path::Path;

use lsm_lint::Rule;

/// Looks up one function's effect sequence in the derived report.
fn effects_of<'a>(
    report: &'a lsm_lint::DurabilityReport,
    crate_name: &str,
    name: &str,
) -> &'a [String] {
    &report
        .functions
        .iter()
        .find(|f| f.crate_name == crate_name && f.name == name)
        .unwrap_or_else(|| panic!("function `{crate_name}::{name}` missing from the spec"))
        .effects
}

#[test]
fn durability_spec_is_current_and_the_commit_pipeline_is_ordered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let on_disk = std::fs::read_to_string(root.join("durability_order.json"))
        .expect("durability_order.json is checked in at the workspace root");

    let (report, _, durability, _) = lsm_lint::lint_tree_all(root).expect("workspace readable");
    assert_eq!(
        durability.spec_json(),
        on_disk,
        "durability_order.json is stale; regenerate with \
         `cargo run -p lsm-lint -- --write-durability-order durability_order.json`"
    );

    // The real tree carries no unsuppressed durability-order findings —
    // every deliberate exception (recovery's early publishes) is annotated
    // with a rationale.
    let l7: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DurabilityOrder)
        .collect();
    assert!(
        l7.is_empty(),
        "unsuppressed durability-order findings in the workspace: {l7:?}"
    );

    // Pin the protocol's load-bearing sequences. These are the exact
    // orderings the PR-5 bugs violated; `assert_eq!` on the whole
    // sequence means an *added* effect (not just a reorder) also fails.
    assert_eq!(
        effects_of(&durability, "lsm-core", "commit_group"),
        ["call:commit_group_inner"],
        "the group-commit span wrapper adds no durability effects"
    );
    assert_eq!(
        effects_of(&durability, "lsm-core", "commit_group_inner"),
        ["wal_append", "wal_sync", "seqno_publish"],
        "group commit must log, sync, then publish"
    );
    assert_eq!(
        effects_of(&durability, "lsm-core", "update"),
        ["call:maybe_stall", "call:commit_group", "call:maybe_freeze"],
        "a read-modify-write commits through the one group-commit path"
    );
    // One front door: every public mutation is a `write_opt`, which
    // commits on the one shard a batch lands on or in the epoch window
    // across several — both through the same per-engine commit.
    for name in ["put_opt", "delete_opt", "single_delete", "delete_range"] {
        assert_eq!(
            effects_of(&durability, "lsm-core", name),
            ["call:write_opt"],
            "`{name}` must be one `write_opt`"
        );
    }
    assert_eq!(
        effects_of(&durability, "lsm-core", "write_opt"),
        ["call:commit_batch", "call:write_epoch"]
    );
    assert_eq!(
        effects_of(&durability, "lsm-core", "write_epoch"),
        ["call:commit_batch"],
        "a cross-shard batch commits each part through the same commit"
    );
    assert_eq!(
        effects_of(&durability, "lsm-core", "commit_batch"),
        ["call:commit_write"]
    );
    // One log-then-apply: the live commit and recovery's re-log are the
    // only code in the engine that appends to a WAL.
    let mut appenders: Vec<&str> = durability
        .functions
        .iter()
        .filter(|f| f.crate_name == "lsm-core" && f.effects.iter().any(|e| e == "wal_append"))
        .map(|f| f.name.as_str())
        .collect();
    appenders.sort_unstable();
    assert_eq!(appenders, ["commit_group_inner", "recover"]);
    assert_eq!(
        effects_of(&durability, "lsm-core", "freeze_active"),
        ["wal_segment_create", "manifest_build", "manifest_persist"],
        "freeze must persist the manifest naming the fresh segment before \
         releasing `mem` (segment create happens under the guard)"
    );
    assert_eq!(
        effects_of(&durability, "lsm-core", "save_manifest"),
        ["manifest_build", "manifest_persist"],
        "manifest build and persist must be one atomic section"
    );

    // The commit entry point acks only after the group commits.
    let commit_write = effects_of(&durability, "lsm-core", "commit_write");
    let group = commit_write
        .iter()
        .position(|e| e == "call:commit_group")
        .expect("commit_write delegates to commit_group");
    let first_ack = commit_write
        .iter()
        .position(|e| e == "ack")
        .expect("commit_write acks its followers");
    assert!(
        group < first_ack,
        "commit_write must ack after the group commit: {commit_write:?}"
    );
}
