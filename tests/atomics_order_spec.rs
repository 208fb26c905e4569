//! Conformance test for the checked-in `atomics_order.json`: the spec must
//! be exactly what `lsm-lint`'s L8 pass derives from the current tree (no
//! staleness), the workspace must carry no unsuppressed atomics-order
//! findings, and the load-bearing publication fields are pinned so a
//! weakened ordering shows up as a failed assertion *and* a stale spec.
//! Regenerate after changing the protocol with
//! `cargo run -p lsm-lint -- --write-atomics-order atomics_order.json`.

use std::path::Path;

use lsm_lint::Rule;

/// Looks up one atomic field in the derived report.
fn field_of<'a>(
    report: &'a lsm_lint::AtomicsReport,
    crate_name: &str,
    field: &str,
) -> &'a lsm_lint::atomics::FieldSpec {
    report
        .fields
        .iter()
        .find(|f| f.crate_name == crate_name && f.field == field)
        .unwrap_or_else(|| panic!("field `{crate_name}::{field}` missing from the spec"))
}

#[test]
fn atomics_spec_is_current_and_the_publication_protocol_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let on_disk = std::fs::read_to_string(root.join("atomics_order.json"))
        .expect("atomics_order.json is checked in at the workspace root");

    let (report, _, _, atomics) = lsm_lint::lint_tree_all(root).expect("workspace readable");
    assert_eq!(
        atomics.spec_json(),
        on_disk,
        "atomics_order.json is stale; regenerate with \
         `cargo run -p lsm-lint -- --write-atomics-order atomics_order.json`"
    );

    // The real tree carries no unsuppressed atomics-order findings: every
    // publication pair is Release/Acquire, counters that guard nothing
    // stay Relaxed, and there is no SeqCst (which would need a rationale).
    let l8: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::AtomicsOrder)
        .collect();
    assert!(
        l8.is_empty(),
        "unsuppressed atomics-order findings in the workspace: {l8:?}"
    );

    // Pin the load-bearing publication fields. Weakening any of these
    // orderings fails here even before the L8 pass fires.
    let seqno = field_of(&atomics, "lsm-core", "seqno");
    assert_eq!(seqno.role, "publication");
    assert_eq!(seqno.stores, ["Release"], "seqno publishes with Release");
    assert_eq!(seqno.loads, ["Acquire"], "snapshots consume with Acquire");
    assert!(
        seqno.consumers.iter().any(|c| c == "read_seqno"),
        "every read pins its seqno in `Engine::read_seqno`: {:?}",
        seqno.consumers
    );

    assert_eq!(
        seqno.publishers,
        ["bulk_load", "commit_group_inner", "recover"],
        "one commit path: a second publisher is a second write path"
    );
    assert!(
        seqno.consumers.iter().any(|c| c == "snapshot"),
        "`Db::snapshot` pins the seqno it loads: {:?}",
        seqno.consumers
    );

    let done = field_of(&atomics, "lsm-core", "done");
    assert_eq!(done.role, "publication");
    assert_eq!(done.stores, ["Release"], "group leader publishes `done`");
    assert_eq!(done.loads, ["Acquire"], "followers consume `done`");

    let pins = field_of(&atomics, "lsm-core", "epoch_pins");
    assert_eq!(pins.role, "publication");
    assert_eq!(pins.rmws, ["AcqRel"], "pin/unpin are AcqRel RMWs");
    assert_eq!(pins.loads, ["Acquire"], "freeze checks pins with Acquire");

    let seq = field_of(&atomics, "lsm-obs", "seq");
    assert_eq!(seq.role, "publication");
    assert!(
        seq.publishers.iter().any(|p| p == "push_span_at"),
        "the seqlock writer publishes slot sequence numbers: {:?}",
        seq.publishers
    );
    assert!(
        seq.consumers.iter().any(|c| c == "events"),
        "the seqlock reader consumes them: {:?}",
        seq.consumers
    );

    // Counters that guard nothing stay Relaxed end to end — the spec
    // records them as `counter` so an accidental upgrade is visible.
    let head = field_of(&atomics, "lsm-obs", "head");
    assert_eq!(head.role, "counter", "ring head is claim-only, Relaxed");

    // No standalone fences anywhere in the engine: publication goes
    // through ordered atomic operations, never a bare `fence(..)`.
    assert!(
        atomics.fences.is_empty(),
        "unexpected standalone fences: {:?}",
        atomics.fences
    );
}
