//! Conformance test for the checked-in `lock_order.json`: the spec must be
//! exactly what `lsm-lint` derives from the current tree (no staleness),
//! acyclic, rank-consistent, and in agreement with the runtime rank table
//! `lsm_sync::ranks::REGISTRY` that `OrderedMutex`/`OrderedRwLock` enforce
//! in debug builds. Regenerate after changing the hierarchy with
//! `cargo run -p lsm-lint -- --write-lock-order lock_order.json`.

use std::collections::HashMap;
use std::path::Path;

/// Extracts a scalar field from one line of the (line-oriented) spec JSON:
/// `"key": "string"` returns the string, `"key": 123` returns `123`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    match rest.strip_prefix('"') {
        Some(stripped) => stripped.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

#[test]
fn lock_order_spec_is_current_acyclic_and_matches_runtime_ranks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let on_disk = std::fs::read_to_string(root.join("lock_order.json"))
        .expect("lock_order.json is checked in at the workspace root");

    // Staleness: the spec must match what the linter derives right now.
    let (_, graph) = lsm_lint::lint_tree_full(root).expect("workspace readable");
    assert_eq!(
        graph.spec_json(),
        on_disk,
        "lock_order.json is stale; regenerate with \
         `cargo run -p lsm-lint -- --write-lock-order lock_order.json`"
    );
    assert!(
        graph.cycles.is_empty(),
        "lock-order graph has cycles: {:?}",
        graph.cycles
    );

    // Parse the line-oriented spec.
    let mut orders: HashMap<String, u32> = HashMap::new();
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut condvars: HashMap<String, String> = HashMap::new();
    for line in on_disk.lines() {
        if let (Some(id), Some(rank_const), Some(order)) = (
            field(line, "id"),
            field(line, "rank_const"),
            field(line, "order"),
        ) {
            let order: u32 = order.parse().expect("order is an integer");
            let registry_order = lsm_sync::ranks::REGISTRY
                .iter()
                .find(|(name, _)| *name == rank_const)
                .map(|(_, rank)| rank.order())
                .unwrap_or_else(|| panic!("spec rank `{rank_const}` missing from REGISTRY"));
            assert_eq!(
                order, registry_order,
                "spec order for `{id}` disagrees with lsm_sync::ranks::{rank_const}"
            );
            orders.insert(id.to_string(), order);
        } else if let (Some(id), Some(mutex)) = (field(line, "id"), field(line, "mutex")) {
            condvars.insert(id.to_string(), mutex.to_string());
        } else if let (Some(from), Some(to)) = (field(line, "from"), field(line, "to")) {
            edges.push((from.to_string(), to.to_string()));
        }
    }

    // Every edge must go strictly up the hierarchy.
    assert!(!edges.is_empty(), "spec records no acquisition edges");
    for (from, to) in &edges {
        let fo = orders[from];
        let to_o = orders[to];
        assert!(
            fo < to_o,
            "edge {from} (order {fo}) -> {to} (order {to_o}) is not strictly ascending"
        );
    }

    // The four converted modules are all covered by tracked locks.
    for id in [
        "lsm-core/write_mx",
        "lsm-memtable/list",
        "lsm-wisckey/state",
        "lsm-storage/shards",
    ] {
        assert!(
            orders.contains_key(id),
            "expected tracked lock `{id}` in the spec"
        );
    }

    // A cross-shard commit holds `epoch_mx` while each involved shard
    // commits through `self.engines[i].commit_batch(..)`, so the engine
    // locks that commit takes are edges out of `epoch_mx`.
    for to in ["lsm-core/write_mx", "lsm-core/commit_mx"] {
        assert!(
            edges.contains(&("lsm-core/epoch_mx".to_string(), to.to_string())),
            "expected edge lsm-core/epoch_mx -> {to} in the spec"
        );
    }

    // Every condvar is bound to the one mutex its wait sites pair it with;
    // the wait's re-acquisition of that mutex is what lets the rank check
    // treat a wait as an acquisition site.
    for (cv, mx) in [
        ("lsm-core/commit_cv", "lsm-core/commit_mx"),
        ("lsm-core/stall_cv", "lsm-core/stall_mx"),
        ("lsm-core/wake_cv", "lsm-core/wake_mx"),
    ] {
        assert_eq!(
            condvars.get(cv).map(String::as_str),
            Some(mx),
            "condvar `{cv}` must be bound to `{mx}` in the spec"
        );
        assert!(
            orders.contains_key(mx),
            "condvar mutex `{mx}` must itself be a tracked lock"
        );
    }
}
