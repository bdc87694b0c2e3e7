"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest input size for one second, untraced
and traced, and checks that each end-to-end metric (and failed_frac) is
printed with its unit, that failed_frac is 0, that the traced run reports
every per-layer metric and passes its coverage guard, and that the result
line has the keys the benchmark contract names.  Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402  (no package import: spans loads nothing at import)
from run import METRICS, TAIL_PERCENTILE  # noqa: E402

REPORTED = dict(METRICS, failed_frac="frac")


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=os.path.dirname(HERE))
    result = None
    if proc.returncode == 0 and proc.stdout.strip():
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def check(workload):
    problems = []
    proc, result = _run(workload, 0)
    if result is None:
        return [f"{workload}: exit {proc.returncode}, no result\n{proc.stderr}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    printed = {}
    for line in proc.stderr.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in REPORTED:
            printed[parts[0]] = (float(parts[1]), parts[2])
    for name, unit in REPORTED.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{workload}: {name} not printed with unit {unit}")
    for name, unit in METRICS.items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{workload}: {name} missing from the result line")
    if printed.get("failed_frac", (None,))[0] != 0 or result["failed"] != 0:
        problems.append(f"{workload}: failed_frac is not 0\n{proc.stderr}")
    if not result["correct"]:
        problems.append(f"{workload}: untraced run not correct")

    proc, result = _run(workload, 1)
    if result is None:
        return problems + [f"{workload} traced: exit {proc.returncode}, no result\n{proc.stderr}"]
    if not result["correct"]:
        problems.append(f"{workload} traced: not correct (guard or verdicts)\n{proc.stderr}")
    expected = spans.metric_units()
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{workload} traced: per-layer metrics differ from spans.metric_units()")
    return problems


def main():
    problems = []
    for workload in TAIL_PERCENTILE:
        found = check(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
