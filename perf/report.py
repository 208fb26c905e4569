"""Runs the benchmark binary over every workload and reports the results.

Called by perf/run.sh as `report.py <binary> all|smoke|repeat [N]`; see the
header of run.sh for what each mode does.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perf", "out")
SMOKE_KEYS = 2000  # 1 % of the default 200,000


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """One invocation; returns the parsed last line. Raises on harness error."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perf: {' '.join(cmd)} exited with {done.returncode}")
    *lines, last = done.stdout.strip().split("\n")
    print("\n".join(lines), flush=True)
    return json.loads(last)


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host():
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
    }


def full_set(binary, spec, seed, seconds, extra=()):
    """Every workload, untraced then traced. Returns {workload: result}."""
    results = {}
    for w in (w["name"] for w in spec["workloads"]):
        untraced = run_once(binary, w, seed, seconds, 0, extra)
        traced = run_once(binary, w, seed, seconds, 1, extra)
        results[w] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": {**untraced["metrics"], **traced["metrics"]},
        }
    return results


def write_json(name, payload):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    print(f"perf: wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)


def single(binary, spec, smoke):
    seed = int(os.environ.get("PERF_SEED", "1"))
    seconds = 0.3 if smoke else spec["run_seconds"]
    extra = ("--keys", str(SMOKE_KEYS), "--setups", "1") if smoke else ()
    results = full_set(binary, spec, seed, seconds, extra)
    write_json("smoke.json" if smoke else "result.json", {
        "host": host(), "seed": seed, "seconds": seconds,
        "keys": SMOKE_KEYS if smoke else 200_000, "claim": None,
        "workloads": results,
    })
    wrong = {w: r["failed"] for w, r in results.items() if r["failed"]}
    if wrong:
        print(f"perf: failed ops (counted, not fatal): {wrong}", file=sys.stderr)


def spread(values):
    """(median, q1, q3, IQR/median), quartiles as the driver takes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def repeat(binary, spec, n):
    gated = {m["name"]: m for m in spec["end_to_end"]}
    sets = [full_set(binary, spec, seed, spec["run_seconds"]) for seed in range(1, n + 1)]
    previous_path = os.path.join(OUT, "repeat.json")
    previous = None
    if os.path.exists(previous_path):
        with open(previous_path) as f:
            previous = json.load(f)["medians"]
    medians, problems = {}, []
    print(f"{'workload':10} {'metric':42} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}  gate")
    for w in sets[0]:
        medians[w] = {}
        for name, first in sets[0][w]["metrics"].items():
            med, q1, q3, rel = spread([s[w]["metrics"][name]["value"] for s in sets])
            medians[w][name] = med
            gate = ""
            if name in gated:
                bound, lower = gated[name]["bound"], gated[name]["better"] == "lower"
                gate = f"bound {bound}"
                if name != "setup_s" and rel > bound:
                    gate += " SPREAD"
                    problems.append(f"{w} {name}: spread {rel:.3f} exceeds bound {bound}")
                before = previous and previous.get(w, {}).get(name)
                if before:
                    worse = (med - before) / before if lower else (before - med) / before
                    if worse > bound:
                        gate += " WORSE"
                        problems.append(f"{w} {name}: median {med:.6g} is {worse:.1%} worse "
                                        f"than the previous repeat's {before:.6g}")
            print(f"{w:10} {name:42} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.3f}  "
                  f"{first['unit']} {gate}")
    write_json("repeat.json", {"host": host(), "sets": n, "claim": None,
                               "medians": medians})
    for p in problems:
        print(f"perf: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    binary, mode, *rest = sys.argv[1:]
    spec = contract()
    if mode == "repeat":
        if len(rest) != 1 or not rest[0].isdigit() or int(rest[0]) < 1:
            raise SystemExit("usage: perf/run.sh repeat N")
        return repeat(binary, spec, int(rest[0]))
    single(binary, spec, smoke=(mode == "smoke"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
