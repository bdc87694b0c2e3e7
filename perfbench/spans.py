"""Per-layer tracing of the package from outside it.

Each traced function is replaced, for the life of a `Tracer`, by a
wrapper that records a span: its call count, its self time (the span's
duration minus the part of it that traced child spans cover) and its total
time (the durations of its outermost activations, children included).
The package's modules are its layers.  A function is patched everywhere it is
bound: in its own module, in every module that imported the name (for
example `from .tensors import leg_bracket` in `cybe`), and in every class
attribute that holds it, so no call slips past a wrapper.

A few spans also record counts at the boundary (see `_OBSERVERS`), from
which the ratios in `Tracer.metrics` are formed.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "yangbaxter"

# (module, qualified name, workloads on which the span must record calls).
# The function's metric prefix is "<module>.<qualified name>", with the
# dunder arithmetic of Poly and RatFun named mul/add.
SPANS = (
    ("ratfun", "RatFun.of", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("ratfun", "poly_gcd", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("ratfun", "Poly.__mul__", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("ratfun", "Poly.__add__", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("ratfun", "RatFun.__mul__", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("ratfun", "RatFun.__add__", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("tensors", "leg_bracket", ("gauge-sweep", "catalog-rank")),
    ("tensors", "ad2_action", ("bialgebra",)),
    ("cybe", "cyb", ("gauge-sweep", "catalog-rank")),
    ("cybe", "is_quasi_rational", ("gauge-sweep", "catalog-rank")),
    ("cybe", "cobracket", ("bialgebra",)),
    ("cybe", "cocycle_check", ("bialgebra",)),
    ("cybe", "cojacobi_check", ("bialgebra",)),
    ("gauge", "gauge_transform", ("gauge-sweep",)),
    ("lie", "calibrate_casimir", ("gauge-sweep", "bialgebra")),
    ("lie", "LieTable.killing_pair", ("doubles",)),
    ("lie", "bracket_poly", ("bialgebra",)),
    ("linalg", "Echelon.add", ("doubles",)),
    ("linalg", "Echelon.reduce", ("doubles",)),
    ("linalg", "nullspace", ("doubles",)),
    ("linalg", "intersect_spans", ("doubles",)),
    ("doubles", "invariant_form", ("doubles",)),
    ("doubles", "diagonal_twist_space", ("doubles",)),
    ("doubles", "orth_complement_truncated", ("doubles",)),
    ("doubles", "quotient_image_of_polynomials", ("doubles",)),
    ("doubles", "check_transversality", ("doubles",)),
    ("doubles", "is_lagrangian_truncated", ("doubles",)),
    ("frobenius", "check_parabolic_pair", ("doubles",)),
    ("frobenius", "quasi_rational_lift", ("catalog-rank",)),
    ("cli", "calibrated_omega", ("gauge-sweep", "catalog-rank", "bialgebra")),
    ("cli", "parse_rmatrix", ("catalog-rank",)),
    ("cli", "print_rmatrix", ("catalog-rank",)),
)

# Spans whose calls on their workloads come from set-up (the calibration,
# and the print of a document the jobs then parse).  The coverage guard
# counts set-up calls for these alone; every other span must record calls
# during the traced replay of the jobs.
SETUP = ("lie.calibrate_casimir", "cli.calibrated_omega", "cli.print_rmatrix")

# Ratio and count metrics: (name, unit); computed in Tracer.metrics.
DERIVED = (
    ("ratfun.RatFun.of.cancel_ratio", "ratio"),
    ("ratfun.poly_gcd.nontrivial_ratio", "ratio"),
    ("tensors.leg_bracket.out_terms", "terms/call"),
    ("cybe.cyb.calls_per_job", "calls/job"),
    ("cybe.cobracket.pole_errors", "count"),
    ("linalg.Echelon.add.rank_gain_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
)


def metric_prefix(module, qualname):
    short = qualname.replace(".__mul__", ".mul").replace(".__add__", ".add")
    return f"{module}.{short}"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, qualname, _ in SPANS:
        prefix = metric_prefix(module, qualname)
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.self_s"] = "s"
        out[f"{prefix}.total_s"] = "s"
    out.update(DERIVED)
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "hits", "total")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0  # open activations: recursion adds to total_s once
        self.hits = 0  # boundary counts, meaning per span: see _OBSERVERS
        self.total = 0


class Tracer:
    """Span wrappers on the package, recording while installed.

    install() and uninstall() may alternate; the statistics accumulate.
    """

    def __init__(self):
        self.stats = {}
        self._stack = []  # child time accumulated by each open span
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        for module, qualname, _ in SPANS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[attr] if owner_name else getattr(mod, attr)
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            stat = self.stats.setdefault(metric_prefix(module, qualname), _Stat())
            wrapper = self._wrap(func, stat, _OBSERVERS.get((module, qualname)))
            self._rebind(func, wrapper)

    def uninstall(self):
        for target, name, old in reversed(self._undo):
            setattr(target, name, old)
        self._undo.clear()

    def _rebind(self, func, wrapper):
        """Replace every binding of func in loaded modules and their classes."""
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is func:
                    self._set(mod, name, value, wrapper)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for attr, raw in list(vars(value).items()):
                        if raw is func:
                            self._set(value, attr, raw, wrapper)
                        elif isinstance(raw, staticmethod) and raw.__func__ is func:
                            self._set(value, attr, raw, staticmethod(wrapper))

    def _set(self, target, name, old, new):
        self._undo.append((target, name, old))
        setattr(target, name, new)

    def _wrap(self, func, stat, observe):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                if observe is not None:
                    observe(stat, args, None, exc)
                raise
            else:
                end = clock()
                if observe is not None:
                    observe(stat, args, result, None)
            finally:
                child = stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += (end - start) - child
                if not stat.active:
                    stat.total_s += end - start
                if stack:
                    # The parent's child time covers this span and the
                    # bookkeeping after it, so neither lands in its self time.
                    stack[-1] += clock() - start
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def calls(self):
        """Call counts so far, by metric prefix."""
        return {prefix: stat.calls for prefix, stat in self.stats.items()}

    def missing(self, workload, before):
        """Spans assigned to the workload that recorded no call since the
        `calls()` snapshot before, or none at all for the SETUP spans."""
        out = []
        for module, qualname, workloads in SPANS:
            prefix = metric_prefix(module, qualname)
            since = 0 if prefix in SETUP else before[prefix]
            if workload in workloads and self.stats[prefix].calls == since:
                out.append(prefix)
        return out

    def metrics(self, jobs, cyb_job_calls, overhead_frac, scale):
        """Every per-layer metric; span times are multiplied by scale."""
        units = metric_units()
        values = {}
        for prefix, stat in self.stats.items():
            values[f"{prefix}.calls"] = stat.calls
            values[f"{prefix}.self_s"] = stat.self_s * scale
            values[f"{prefix}.total_s"] = stat.total_s * scale

        def ratio(a, b):
            return a / b if b else 0.0

        of = self.stats["ratfun.RatFun.of"]
        gcd = self.stats["ratfun.poly_gcd"]
        legs = self.stats["tensors.leg_bracket"]
        ech = self.stats["linalg.Echelon.add"]
        values["ratfun.RatFun.of.cancel_ratio"] = ratio(of.hits, of.calls)
        values["ratfun.poly_gcd.nontrivial_ratio"] = ratio(gcd.hits, gcd.calls)
        values["tensors.leg_bracket.out_terms"] = ratio(legs.total, legs.calls)
        values["cybe.cyb.calls_per_job"] = ratio(cyb_job_calls, jobs)
        values["cybe.cobracket.pole_errors"] = self.stats["cybe.cobracket"].hits
        values["linalg.Echelon.add.rank_gain_ratio"] = ratio(ech.hits, ech.calls)
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# Boundary counters, called after a span ends with its arguments and
# either its result or its exception.


def _cancelled(stat, args, result, exc):
    # The output denominator has lower degree than the input: cancellation.
    if exc is None and result.den.total_degree() < args[1].total_degree():
        stat.hits += 1


def _nontrivial(stat, args, result, exc):
    if exc is None and not result.is_const():
        stat.hits += 1


def _out_terms(stat, args, result, exc):
    if exc is None:
        stat.total += len(result.entries)


def _pole_error(stat, args, result, exc):
    if type(exc).__name__ == "PoleCancellationError":
        stat.hits += 1


def _rank_gain(stat, args, result, exc):
    if result:
        stat.hits += 1


_OBSERVERS = {
    ("ratfun", "RatFun.of"): _cancelled,
    ("ratfun", "poly_gcd"): _nontrivial,
    ("tensors", "leg_bracket"): _out_terms,
    ("cybe", "cobracket"): _pole_error,
    ("linalg", "Echelon.add"): _rank_gain,
}
