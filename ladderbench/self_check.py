#!/usr/bin/env python3
"""Tiny-scale self-check of the layer-ladder benchmark.

    python3 ladderbench/self_check.py

Run from the repository root.  Runs every workload of BENCHMARK.json, and
update_indep, which the benchmark runs but BENCHMARK.json does not list, at
tiny scale, untraced and traced, and checks that:

  * the run exits 0, the last stdout line is the result object, the oracle
    passed and no operation failed;
  * the traced run's query and update ladders add up to their top rows
    within the stated tolerance;
  * every metric BENCHMARK.json names is printed with its unit, and no other;
  * on the single-client workloads the paper's costs repeat exactly when a
    seed is run twice, for a second, held-out seed as well;
  * README.md maps every per-layer metric to the end-to-end metric it should
    move.

Exits 0 when everything holds.  Takes well under a minute once built.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["tuples_per_query", "bytes_per_query", "round_trips_per_query",
         "tuples_per_update"]
SINGLE_CLIENT = ["engine_indep", "update_indep"]
UNLISTED = ["update_indep"]


def run(workload, seed, trace):
    """Returns the result object, with the exit code and the stdout lines
    before it under "_rc" and "_log"."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{out.returncode}, no result\n{out.stderr}")
    result["_rc"], result["_log"] = out.returncode, lines[:-1]
    return result


def check_result(result, expected, where):
    problems = [f"{where}: {line}" for line in result.pop("_log")
                if line.startswith("# ERROR")]
    rc = result.pop("_rc")
    if rc != 0:
        problems.append(f"{where}: exit {rc}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: oracle or exactness check failed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = [f"README.md: no row for {name}" for name in layer
                if f"`{name}`" not in readme]

    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        problems += check_result(run(name, 7, 0), e2e, f"{name} trace 0")
        traced = run(name, 7, 1)
        ladders = [line for line in traced["_log"]
                   if "rows sum to the top row" in line]
        if len(ladders) != 2 or not all(line.endswith(": yes")
                                        for line in ladders):
            problems.append(f"{name} trace 1: ladder sums {ladders}")
        problems += check_result(traced, layer, f"{name} trace 1")
        print(f"{name}: checked", file=sys.stderr)
        if name not in SINGLE_CLIENT:
            continue
        for seed in (7, 8):  # 8 is held out: not used while tuning
            a, b = run(name, seed, 0), run(name, seed, 0)
            problems += check_result(b, e2e, f"{name} seed {seed}")
            for metric in EXACT:
                va = a["metrics"][metric]["value"]
                vb = b["metrics"][metric]["value"]
                if va != vb:
                    problems.append(f"{name} seed {seed}: {metric} {va} then "
                                    f"{vb}")

    for p in problems:
        print("FAIL", p)
    print("self-check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
