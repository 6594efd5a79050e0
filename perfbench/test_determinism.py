#!/usr/bin/env python3
"""Same-seed determinism and output-contract test for the benchmark.

    python3 perfbench/test_determinism.py [--seconds 1] [--seed 7]

For every workload in BENCHMARK.json:
  * two traced runs with one seed must report identical per-layer counts
    (path shares, lock and rehash rates, live versions, gate blocks, C
    source size) and the same number of attempted operations;
  * the untraced and traced result lines must pass their correctness
    checks and carry exactly the metrics BENCHMARK.json names, with its
    units.
The virtual engine clock and the work-based cadences are what make the
counts repeat; timings are not compared.  Exits nonzero on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are counts or ratios of counts, so must repeat.
COUNTS = (
    "rt.l1_share", "rt.l2_share", "rt.miss_share",
    "rt.cache_locks_per_route", "rt.cache_rehashes_per_mroute",
    "rt.cache_load_factor", "rt.batch_runs_per_call", "rt.shadow_share",
    "rt.gate_blocks", "rt.post_switch_l2_share", "rt.versions_live_max",
    "codegen.c_source_bytes",
)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def check_shape(result, expected, what, failures):
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != expected:
        failures.append(f"{what}: metrics {sorted(got.items())} != "
                        f"{sorted(expected.items())}")
    if not result.get("correct") or result.get("failed") != 0:
        failures.append(f"{what}: correctness checks failed: {result}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        rc, untraced = run(w, a.seed, a.seconds, 0)
        if rc != 0:
            failures.append(f"{w}: untraced run exited {rc}")
        check_shape(untraced, e2e, f"{w} trace 0", failures)
        (rc1, first), (rc2, second) = (run(w, a.seed, a.seconds, 1),
                                       run(w, a.seed, a.seconds, 1))
        if rc1 != 0 or rc2 != 0:
            failures.append(f"{w}: traced runs exited {rc1}, {rc2}")
        check_shape(first, layer, f"{w} trace 1", failures)
        for name in COUNTS + ("attempted",):
            x = first.get(name, first.get("metrics", {}).get(name))
            y = second.get(name, second.get("metrics", {}).get(name))
            if x != y:
                failures.append(f"{w}: {name} differs between same-seed "
                                f"runs: {x} != {y}")
        print(f"{w}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
