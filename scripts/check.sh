#!/usr/bin/env bash
# Local CI gate: format, clippy, architectural lint, spec checks, tests,
# crash-recovery sweep, loom model check. Runs every step even after a
# failure so one run reports everything, then exits non-zero if any step
# failed. Each step is timed in the summary.
#
#   CHECK_ONLY=<step>   run a single gate by name, e.g.
#                       CHECK_ONLY=durability scripts/check.sh
#                       (unknown names fail: a typo must not pass silently)

set -u
cd "$(dirname "$0")/.."

declare -a NAMES=()
declare -a RESULTS=()
declare -a TIMES=()
FAILED=0
ONLY="${CHECK_ONLY:-}"
ONLY_MATCHED=0

run_step() {
    local name="$1"
    shift
    if [ -n "$ONLY" ] && [ "$name" != "$ONLY" ]; then
        return 0
    fi
    ONLY_MATCHED=1
    echo
    echo "==> ${name}: $*"
    local start end
    start=$(date +%s)
    if "$@"; then
        RESULTS+=(ok)
    else
        RESULTS+=(FAIL)
        FAILED=1
    fi
    end=$(date +%s)
    NAMES+=("$name")
    TIMES+=("$((end - start))s")
}

# The builder-era API cleanup is done: a `#[deprecated]` marker may only
# exist with an explicit sunset note on the preceding line, so deprecations
# are scheduled removals, never permanent residents.
check_no_deprecated() {
    local bad=0 file line prev
    while IFS=: read -r file line _; do
        prev=$(sed -n "$((line - 1))p" "$file")
        case "$prev" in
        *"no-deprecated: allow("*) ;;
        *)
            echo "  $file:$line: #[deprecated] without a '// no-deprecated: allow(...)' sunset note"
            bad=1
            ;;
        esac
    done < <(grep -rn '#\[deprecated' crates/*/src src examples tests 2>/dev/null)
    return "$bad"
}

# The benchmark in perf/ is a separately locked workspace with path deps
# into crates/*: an engine-side rename that breaks it must fail here, not
# in the benchmark driver. Its tests, then the 1 %-scale run of all four
# workloads (a few seconds).
perf_smoke() {
    cargo test -q --release --offline --manifest-path perf/Cargo.toml &&
        bash perf/run.sh smoke
}

run_step "fmt"      cargo fmt --all --check
run_step "clippy"   cargo clippy --workspace --all-targets -- -D warnings
run_step "lsm-lint" cargo run -q -p lsm-lint
run_step "lockgraph" cargo run -q -p lsm-lint -- --check-lock-order lock_order.json
# The checked-in durability spec (L7 effect sequences of the commit
# pipeline) must match what the linter derives from the current tree.
run_step "durability" cargo run -q -p lsm-lint -- --check-durability-order durability_order.json
# The checked-in atomics spec (L8 publication pairs and ordering profiles
# of every atomic field) must match what the linter derives.
run_step "atomics"  cargo run -q -p lsm-lint -- --check-atomics-order atomics_order.json
run_step "no-deprecated" check_no_deprecated
# Compile-time pin of the public Db/DbBuilder/WriteBatch/WriteOptions
# surface: breakage must be deliberate and land with the change.
run_step "api-surface" cargo test -q -p lsm-core --test api_surface
run_step "tests"    cargo test -q --workspace
run_step "crash"    cargo test -q --test crash_recovery
# Debug profile on purpose: the lsm-sync rank assertions only exist with
# debug assertions, so this is the run that proves the lock hierarchy.
run_step "stress"   cargo test -q --test concurrent_stress
# Same rank-asserted stress over the sharded router: cross-shard epoch
# commits racing per-shard writers, readers, and merged scans.
run_step "shard-stress" cargo test -q --test shard_stress
# Exhaustive interleaving exploration of the leader/follower commit queue
# (vendored loom, CHESS preemption bound 2): seqno contiguity, one
# append/sync per group, no ack before durable, no lost wakeups.
run_step "loom"     cargo test -q -p lsm-sync --features loom
# The lock-free layer's publication protocols (memtable occupancy,
# event-ring seqlock, epoch pins) under the store-buffer memory model,
# with seeded-misordering variants proving the checker can see the bugs.
run_step "loom-lockfree" cargo test -q -p lsm-sync --features loom --test loom_lockfree
# Observability gate: lsm-obs unit tests and the trace-schema golden
# fixtures, then the release-mode overhead smoke test (instrumented vs
# Observability::Off within budget on the vector-memtable put path;
# release because timing asserts are meaningless at opt-level 0).
run_step "obs"      cargo test -q -p lsm-obs
# Full-stack export pipeline: causal span nesting through real compactions,
# the metrics exporter's JSONL delta round-trip, and the Prometheus
# surfaces (Db + ShardedDb per-shard labels), plus the exposition goldens.
run_step "obs-export" cargo test -q -p lsm-core --test obs_export --test metrics_golden
run_step "obs-overhead" cargo test -q --release --test obs_overhead -- --ignored
# Read-path gate: pinned index/filter partitions must keep skewed point-get
# p99 ahead of the unpinned-aux policy (paired A/B, median of round ratios;
# release for the same reason as obs-overhead).
run_step "read-regression" cargo test -q --release --test read_regression -- --ignored
run_step "perf-smoke" perf_smoke

if [ -n "$ONLY" ] && [ "$ONLY_MATCHED" -eq 0 ]; then
    echo "CHECK_ONLY=$ONLY matches no step" >&2
    exit 2
fi

echo
echo "==================== summary ===================="
for i in "${!NAMES[@]}"; do
    printf '  %-13s %-5s %6s\n' "${NAMES[$i]}" "${RESULTS[$i]}" "${TIMES[$i]}"
done
if [ "$FAILED" -ne 0 ]; then
    echo "RESULT: FAIL"
    exit 1
fi
echo "RESULT: PASS"
