"""Exact-verdict benchmark of the yangbaxter package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauge-sweep --seed 1 --seconds 18 --trace 0

One process, one caller, no threads: a closed loop runs the workload's
seeded jobs through the package's public functions for --seconds seconds
and checks every verdict against the value known by construction.  The
last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see METRICS); a
readable report, with the tail percentile and its sample count, the
failed fraction and the raw wall-clock figures, goes to standard error.

Times, and --seconds, are reference seconds.  The speed of a shared
machine drifts by a quarter or more within minutes, so the loop
interleaves a fixed reference computation with the jobs (exact rational
arithmetic on sparse polynomials in plain Python, no package code, at
most a tenth of the time) and scales every time by REFERENCE_S over the
reference's mean time in the same run: a reference second is the work the
baseline machine did in one second.  A change to the package moves these
figures; drift common to the jobs and the reference cancels, and a run
does the same work whatever the machine's speed at the moment.

With --trace 1 the metrics are the per-layer span figures of spans.py,
over set-up and a traced replay of TRACE_CYCLES whole cycles of the jobs
(a fixed amount of work, whatever --seconds and the machine's speed).
The same cycles run untraced first; the run checks that the traced
verdicts equal the untraced ones and that every span assigned to the
workload recorded calls (during the replay, or for the set-up spans
during set-up), and reports the tracing overhead as traced against
untraced jobs per second.  Span times are reference seconds too.
--small runs each workload at its smallest input size.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before the package loads

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# job_tail_ms is the latency at this percentile: the highest one with at
# least ten jobs beyond it in a run at the workload's input size.
TAIL_PERCENTILE = {"gauge-sweep": 75, "catalog-rank": 60, "bialgebra": 99, "doubles": 85}
# Whole cycles of job kinds the traced run replays: a few seconds of work
# each on the baseline machine.  --small replays one.
TRACE_CYCLES = {"gauge-sweep": 1, "catalog-rank": 1, "bialgebra": 50, "doubles": 2}
SETUP_PROBES = 2  # fresh processes timed besides this one; setup_s is the median

# The reference computation's mean time on the machine that set the
# baseline (2 CPUs, Python 3.11), and the job time between two timings.
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.1
WALL_CAP = 2.0  # a run ends after this many times --seconds of wall time

METRICS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _reference():
    """Fixed work shaped like the package's inner loop: a product of two
    sparse bivariate polynomials held as dicts of Fractions."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(7) for j in range(7)}
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


class Speed:
    """Reference timings interleaved with the work they scale."""

    def __init__(self):
        self.times = []

    def probe(self):
        # Without the collector, the reference time does not grow with the
        # number of objects the workload keeps alive.
        gc.disable()
        try:
            t = time.perf_counter()
            _reference()
            self.times.append(time.perf_counter() - t)
        finally:
            gc.enable()

    def scale(self):
        """Reference seconds per wall second, over the timings so far."""
        return REFERENCE_S / statistics.fmean(self.times)


def _import_package():
    """Import the package from this checkout's src/, and the job builders."""
    if not os.path.isfile(os.path.join(SRC, "yangbaxter", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import yangbaxter

    if os.path.dirname(os.path.dirname(os.path.abspath(yangbaxter.__file__))) != SRC:
        sys.exit(f"perfbench: imported {yangbaxter.__file__}, not the checkout's package")
    import workloads

    return workloads


def _run_job(job):
    """The job's verdict, or the unexpected exception that replaced it."""
    try:
        return job.run()
    except Exception as exc:  # a wrong answer, counted as a failure
        traceback.print_exc(file=sys.stderr)
        return ("unexpected", type(exc).__name__)


def _cycle(jobs):
    """Length of one cycle of the job kinds: the prefix holding every kind."""
    first = {}
    for i, job in enumerate(jobs):
        first.setdefault(job.kind, i)
    return max(first.values()) + 1


def _loop(jobs, speed, seconds=None, count=None):
    """Closed loop over the cyclic job list; (latencies, verdicts, busy).

    Runs the first count jobs, or else whole cycles of the job kinds (so
    every negative control is checked and each run has the same mix) until
    the given reference seconds of job time have passed, or WALL_CAP ends
    it.  The reference is timed whenever REFERENCE_EVERY_S of job time has
    passed, and busy is the jobs' wall time alone.
    """
    cycle = _cycle(jobs)
    latencies, verdicts = [], []
    clock = time.perf_counter
    start = clock()
    busy = since_probe = 0.0
    i = 0
    while i < count if count is not None else (
            i < cycle or i % cycle or busy * speed.scale() < seconds):
        if count is None and i >= cycle and clock() - start >= WALL_CAP * seconds:
            break
        if i == 0 or since_probe >= REFERENCE_EVERY_S:
            speed.probe()
            since_probe = 0.0
        job = jobs[i % len(jobs)]
        t = clock()
        verdict = _run_job(job)
        latencies.append(clock() - t)
        verdicts.append(verdict)
        busy += latencies[-1]
        since_probe += latencies[-1]
        i += 1
    return latencies, verdicts, busy


def _percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _setup_probe(args):
    """Set-up times of fresh processes, each running this script with --setup-only."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: set-up probe failed")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _failures(jobs, verdicts):
    return sum(1 for i, v in enumerate(verdicts) if v != jobs[i % len(jobs)].expected)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest input size")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_package()
    if args.trace:
        return _traced(args, workloads)
    jobs = workloads.build(args.workload, args.seed, args.small)
    setup_wall = time.perf_counter() - T0
    speed = Speed()
    for _ in range(10):  # about 0.1 s of reference timings
        speed.probe()
    setup = {"setup_s": setup_wall * speed.scale(), "wall_s": setup_wall}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    speed = Speed()
    latencies, verdicts, busy = _loop(jobs, speed, seconds=args.seconds)
    scale = speed.scale()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup] + _setup_probe(args)
    failed = _failures(jobs, verdicts)
    n = len(latencies)
    pct = TAIL_PERCENTILE[args.workload]
    beyond = sum(1 for x in latencies if x > _percentile(latencies, pct))
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "jobs_per_s": n / (busy * scale),
        "job_p50_ms": 1000 * scale * _percentile(latencies, 50),
        "job_tail_ms": 1000 * scale * _percentile(latencies, pct),
        "peak_rss_mb": peak_rss_mb,
    }
    report = [
        f"workload {args.workload}, seed {args.seed}, "
        f"{'smallest' if args.small else 'full'} size, {args.seconds:g} s closed loop",
        f"jobs {n}, distinct {len(jobs)}; wall clock: {n / busy:.4g} jobs/s, set-up "
        + ", ".join(f"{s['wall_s']:.3f}" for s in setups) + " s; "
        f"reference speed {scale:.4g} over {len(speed.times)} timings (1 = baseline machine)",
        f"tail percentile of job_tail_ms: p{pct}, {beyond} jobs beyond it of {n}"
        + ("" if beyond >= 10 else " (fewer than 10: the tail is not resolved)"),
    ]
    report += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in METRICS.items()]
    report.append(f"failed_frac {failed / n:.6g} frac ({failed} of {n})")
    sys.stderr.write("\n".join(report) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in METRICS.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(args, workloads):
    """Per-layer run: spans over set-up and over a fixed traced replay of the jobs."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        jobs = workloads.build(args.workload, args.seed, args.small)
    finally:
        tracer.uninstall()
    after_setup = tracer.calls()
    n = _cycle(jobs) * (1 if args.small else TRACE_CYCLES[args.workload])
    plain, traced_speed = Speed(), Speed()
    _, untraced, untraced_s = _loop(jobs, plain, count=n)
    tracer.install()
    try:
        _, traced, traced_s = _loop(jobs, traced_speed, count=n)
    finally:
        tracer.uninstall()
    failed = _failures(jobs, traced)
    mismatched = sum(1 for a, b in zip(traced, untraced) if a != b)
    missing = tracer.missing(args.workload, after_setup)
    # Each pass in its own reference seconds, so drift between them cancels.
    overhead = (traced_s * traced_speed.scale()) / (untraced_s * plain.scale()) - 1
    cyb_calls = tracer.stats["cybe.cyb"].calls - after_setup["cybe.cyb"]
    metrics = tracer.metrics(n, cyb_calls, overhead, traced_speed.scale())
    report = [
        f"traced workload {args.workload}, seed {args.seed}: {n} jobs, "
        f"untraced {n / untraced_s:.4g} jobs/s, traced {n / traced_s:.4g} jobs/s (wall clock), "
        f"overhead {overhead:.3f} (reference seconds)",
        f"failed_frac {failed / n:.6g} frac ({failed} of {n}); "
        f"traced verdicts differing from untraced: {mismatched}",
    ]
    if missing:
        report.append("coverage guard: no calls recorded for " + ", ".join(missing))
    report += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    sys.stderr.write("\n".join(report) + "\n")
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0 and not missing,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
