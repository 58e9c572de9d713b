#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the driver (as run.py does), then runs every workload named in
BENCHMARK.json at smoke size, with its correctness checks on, untraced
and traced, on two seeds.  Each run must exit 0 and end with a valid
result line: exactly the keys correct/attempted/failed/metrics, correct
true, no failed operation, and exactly the end-to-end (untraced) or
per-layer (traced) metrics BENCHMARK.json lists, with the listed units
and finite values (end-to-end values non-zero).  Exits non-zero on the
first violation.
"""
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

SEEDS = (1, 20260417)


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def check_result(tag, line, expected, nonzero):
    try:
        res = json.loads(line)
    except ValueError:
        fail(tag + ": last line is not JSON")
    if not isinstance(res, dict) or set(res) != run.RESULT_KEYS:
        fail(tag + ": result keys are " + repr(sorted(res)))
    if res["correct"] is not True:
        fail(tag + ": correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            fail(tag + ": %s is not a whole number" % key)
    if res["attempted"] < 1 or res["failed"] != 0:
        fail(tag + ": attempted %d failed %d" % (res["attempted"], res["failed"]))
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(tag + ": missing %s, unexpected %s" % (missing, extra))
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(tag + ": metric %s is %r, want unit %s" % (name, m, unit))
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(tag + ": metric %s value %r" % (name, v))
        if nonzero and v == 0:
            fail(tag + ": end-to-end metric %s is 0" % name)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exe = run.build()
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                tag = "%s seed %d trace %d" % (w["name"], seed, trace)
                proc = subprocess.run(
                    [exe, "--workload", w["name"], "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--smoke"],
                    cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                    timeout=180)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    fail(tag + ": exit code %d" % proc.returncode)
                check_result(tag, lines[-1], layers if trace else e2e,
                             nonzero=not trace)
                print("ok  " + tag)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
