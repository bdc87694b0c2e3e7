"""Record the benchmark's baseline: end-to-end figures and the traced per-layer table.

    python3 perfbench/baseline.py [--seed 1] [--seconds 18]

Runs every workload once untraced and once traced with the given seed,
then writes perfbench/BASELINE.json (environment, seed, raw metrics,
tracing overhead) and perfbench/BASELINE.md (the same as tables, plus the
figures that bear on the baseline claims in ROADMAP.md).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from run import METRICS, TAIL_PERCENTILE  # noqa: E402

WORKLOADS = list(TAIL_PERCENTILE)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} (trace {trace}) is not correct:\n{proc.stderr}")
    return result, proc.stderr.splitlines()


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _value(result, name):
    return result["metrics"][name]["value"]


def _claims(e2e, traced):
    g = traced["gauge-sweep"]
    lines = [
        "## ROADMAP baseline claims",
        "",
        "- *`cyb` runs twice per quasi-rationality verdict.* `cybe.cyb.calls_per_job` is "
        f"{_value(g, 'cybe.cyb.calls_per_job'):.3g} on gauge-sweep and "
        f"{_value(traced['catalog-rank'], 'cybe.cyb.calls_per_job'):.3g} on catalog-rank. "
        "Each job calls `cyb` once and `is_quasi_rational` calls it again whenever the "
        "difference from the leading term is a skew polynomial (three of the five "
        "gauge-sweep bases), so the claim holds for those verdicts.",
    ]
    for w in ("gauge-sweep", "bialgebra"):
        cal = _value(traced[w], "lie.calibrate_casimir.total_s")
        setup = _value(e2e[w], "setup_s")
        lines.append(
            f"- *Calibration dominates set-up* ({w}): the traced `calibrate_casimir` "
            f"takes {cal:.3g} s of the untraced run's setup_s of {setup:.3g} s (median of "
            f"three processes): {100 * cal / setup:.0f}%, and the traced figure includes "
            "tracing overhead."
        )
    norm = _value(g, "ratfun.RatFun.of.total_s")
    cyb = _value(g, "cybe.cyb.total_s")
    self_cyb = _value(g, "cybe.cyb.self_s") + _value(g, "tensors.leg_bracket.self_s")
    lines.append(
        "- *Normalisation dominates `cyb` on gauge-sweep.* `RatFun.of` (normalisation, "
        f"children included) takes {norm:.3g} s against {cyb:.3g} s inside `cyb` "
        f"({100 * norm / cyb:.0f}%; some `RatFun.of` calls sit outside `cyb`, in "
        "`gauge_transform` and `is_quasi_rational`).  The self time of `cyb` and "
        f"`leg_bracket` together is only {self_cyb:.3g} s: the residual's time is "
        "arithmetic, not loop overhead."
    )
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    args = parser.parse_args()

    e2e, traced, notes = {}, {}, {}
    for w in WORKLOADS:
        e2e[w], _ = _run(w, args.seed, args.seconds, 0)
        traced[w], err = _run(w, args.seed, args.seconds, 1)
        notes[w] = err[0]
        print(err[0], flush=True)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "run_seconds": args.seconds,
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump({"environment": env, "end_to_end": e2e, "traced": traced,
                   "trace_overhead_frac": {w: _value(traced[w], "trace.overhead_frac")
                                           for w in WORKLOADS}}, fh, indent=1)
        fh.write("\n")

    md = [
        "# Benchmark baseline",
        "",
        f"Written by `python3 perfbench/baseline.py --seed {args.seed} --seconds {args.seconds}`"
        f" on {env['nproc']} CPUs, Python {env['python']} ({env['machine']}), "
        f"package source at git {env['git_sha'][:12]}.  One untraced and one traced run "
        "per workload; the figures are single runs, not medians.",
        "",
        "## End to end (untraced)",
        "",
        "Times are reference seconds (see perfbench/run.py).",
        "",
        "| metric | unit | " + " | ".join(WORKLOADS) + " |",
        "|---|---|" + "---|" * len(WORKLOADS),
    ]
    for name, unit in METRICS.items():
        md.append(f"| {name} | {unit} | "
                  + " | ".join(f"{_value(e2e[w], name):.4g}" for w in WORKLOADS) + " |")
    md.append("| job_tail_ms percentile | | "
              + " | ".join(f"p{TAIL_PERCENTILE[w]}" for w in WORKLOADS) + " |")
    md += ["", "## Tracing", ""] + [f"- {notes[w]}" for w in WORKLOADS]
    md += [
        "",
        "## Per layer (traced run: set-up plus the traced replay)",
        "",
        "The replay is a fixed number of whole cycles of the jobs (TRACE_CYCLES in "
        "perfbench/run.py), so counts do not depend on the machine's speed.  Each cell "
        "is calls / self s / total s, times in reference seconds.  A span assigned to a "
        "workload that records no call during the replay (for the set-up spans "
        + ", ".join(f"`{p}`" for p in spans.SETUP) + ", during set-up) fails the traced "
        "run (the coverage guard).",
        "",
        "| span | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---|" * len(WORKLOADS),
    ]
    for module, qualname, assigned in spans.SPANS:
        prefix = spans.metric_prefix(module, qualname)
        cells = []
        for w in WORKLOADS:
            calls = _value(traced[w], f"{prefix}.calls")
            cell = (f"{calls} / {_value(traced[w], prefix + '.self_s'):.3g} / "
                    f"{_value(traced[w], prefix + '.total_s'):.3g}") if calls else "0"
            cells.append(f"**{cell}**" if w in assigned else cell)
        md.append(f"| `{prefix}` | " + " | ".join(cells) + " |")
    md.append("")
    md.append("Bold cells are the workloads each span is assigned to.")
    md += ["", "| derived | unit | " + " | ".join(WORKLOADS) + " |",
           "|---|---|" + "---|" * len(WORKLOADS)]
    for name, unit in spans.DERIVED:
        md.append(f"| `{name}` | {unit} | "
                  + " | ".join(f"{_value(traced[w], name):.4g}" for w in WORKLOADS) + " |")
    md += [""] + _claims(e2e, traced) + [""]
    with open(os.path.join(HERE, "BASELINE.md"), "w") as fh:
        fh.write("\n".join(md))
    return 0


if __name__ == "__main__":
    sys.exit(main())
