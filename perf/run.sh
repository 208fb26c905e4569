#!/usr/bin/env bash
# The benchmark's one command. Builds perf/ in release mode, then:
#
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload: the contract in BENCHMARK.json. Prints
#       `workload metric value unit` lines, then one JSON object.
#   perf/run.sh            every workload, untraced then traced, at the
#                          seed in $PERF_SEED (default 1); prints every
#                          metric and writes perf/out/result.json.
#   perf/run.sh smoke      the same at 1 % scale, in a few seconds.
#   perf/run.sh repeat N   N full sets on seeds 1..N: median, quartiles and
#                          IQR/median per metric and workload; fails when a
#                          gated metric's spread exceeds its bound or its
#                          median is worse than the previous repeat's by
#                          more than its bound.
#
# Exits non-zero only on a harness error; a wrong answer from the engine
# is counted in `failed`, not fatal.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml \
    --target-dir "$target" >&2
bin="$target/release/lsm-perf"
case "${1:-all}" in
    --*) exec "$bin" "$@" ;;
    all | smoke | repeat) exec python3 perf/report.py "$bin" "${@:-all}" ;;
    *)
        sed -n '2,18p' "${BASH_SOURCE[0]}" >&2
        exit 2
        ;;
esac
