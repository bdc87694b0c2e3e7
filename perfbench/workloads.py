"""Seeded verification jobs for the four benchmark workloads.

A job is one verdict a user asks for: one `ybx verify`, one gauge image,
one cocycle pair, one truncated-double check.  Every job carries the
verdict known by construction (theorems of the package's paper or the
construction of the negative control), so the runner can check the
package's answer without trusting it.

`build(workload, seed, small)` returns the list of jobs, in the fixed
cyclic order the runner executes them.  The seed picks the parameters
(gauges, perturbation pairs and coefficients, monomials, twist indices,
forms); the order of job kinds is the same for every seed, so runs with
different seeds do the same mix of work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from yangbaxter import cybe, doubles, frobenius, gauge, lie
from yangbaxter.ratfun import RatFun
from yangbaxter.cli import RMatrixDocument, calibrated_omega, parse_rmatrix, print_rmatrix
from yangbaxter.tensors import Tensor2, is_skew


class Job:
    """One verdict: `run()` returns a hashable verdict, `expected` is the known one."""

    __slots__ = ("kind", "run", "expected")

    def __init__(self, kind, run, expected):
        self.kind = kind
        self.run = run
        self.expected = expected


def raised(exc_type):
    """The verdict of a job whose expected answer is an exception."""
    return ("raised", exc_type.__name__)


def build(workload, seed, small=False):
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, small)


# ---------------------------------------------------------------------------
# gauge-sweep: Ad(p(u) (x) p(v)) images over sl(2), the `ybx gauge` path.


def _gauge_sweep(rng, small):
    table = lie.make_sl(2)
    omega = calibrated_omega(table)
    cat = cybe.catalog(table, omega)
    e, f, h = (table.index[s] for s in "efh")
    # gamma4 + 2(e(x)h - h(x)e) + e(x)f: the symmetric e(x)f part makes the
    # difference from the leading term non-skew, so it is not quasi-rational,
    # and its residual is nonzero; a gauge keeps both (Ad is invertible).
    bad = cat["gamma4"] + Tensor2.make(table, {(e, h): 2, (h, e): -2, (e, f): 1})
    # (name, tensor, Yang-Baxter solution, quasi-rational); gauges preserve both.
    bases = [
        ("q0", cat["q0"], True, True),
        ("q1", cat["q1"], True, True),
        ("q2", cat["q2"], True, True),
        ("rational_eh", cat["rational_eh"], True, False),
        ("negative", bad, False, False),
    ]
    degree = 1 if small else 2
    shapes = [s for s in _GAUGE_SHAPES if sum(d for _, d in s) <= degree]
    jobs = []
    for i in range(len(bases) * len(shapes)):  # coprime lengths: every pairing once
        name, r, solves, qr = bases[i % len(bases)]
        shape = shapes[i % len(shapes)]
        p = gauge.PolyGroupElement.identity(table)
        for root, d in shape:
            t = rng.choice([-3, -2, -1, 1, 2, 3])
            p = p * gauge.PolyGroupElement.unip(table, _ROOTS[root], d, t)
        # The kind is the shape: a cycle of kinds is one pass over the shapes.
        kind = "gauge:" + "*".join(f"{root}{d}" for root, d in shape) + f"#{i % len(shapes)}"
        jobs.append(Job(kind, _gauge_job(p, r, omega), (solves, qr)))
    return jobs


def _gauge_job(p, r, omega):
    def run():
        image = gauge.gauge_transform(p, r, check=False)
        return (cybe.cyb(image).is_zero(), cybe.is_quasi_rational(image, omega))

    return run


# The gauges are the products random_unipotent(total_degree=2) draws: one or
# two factors unip(root, d, t), degrees summing to at most 2, heights t in
# +-{1, 2, 3}.  A product's shape -- which roots, in which order, with which
# degrees -- sets the cost of its job within a factor of four, so the shapes
# follow a fixed cycle weighted by how often random_unipotent draws them, and
# the seed picks the heights.  Every seed then runs the same mix of work.
_ROOTS = {"e": (1, 2), "f": (2, 1)}
_GAUGE_SHAPES = (
    (("e", 2), ("f", 0)), (("e", 1),), (("f", 0),), (("f", 0), ("f", 2)),
    (("f", 2), ("e", 0)), (("f", 1),), (("e", 0),), (("e", 0), ("e", 2)),
    (("e", 0), ("f", 0)), (("f", 2),), (("e", 2),), (("f", 0), ("f", 1)),
    (("e", 1), ("f", 0)), (("e", 1),), (("f", 0),), (("f", 0), ("f", 2)),
    (("e", 1), ("f", 1)), (("f", 1),), (("e", 0),), (("e", 0), ("e", 2)),
    (("f", 1), ("e", 0)), (("f", 2),), (("e", 2),), (("e", 0), ("e", 1)),
)


# ---------------------------------------------------------------------------
# catalog-rank: `ybx verify --input` on sl(3) and sl(4) documents.
#
# A constant skew c*(x(x)y - y(x)x) added to f(u,v)*Omega keeps a solution a
# solution exactly when span{x, y} is a subalgebra (Omega is invariant, so
# the cross terms cancel, and CYB(x^y) is a multiple of [x,y]^x^y).  Pairs
# {H(i), E(j,k)} and commuting E(i,j), E(k,l) are closed; E(i,j) with E(j,i)
# or with E(j,k) are not.


def _closed_pair(n, rng, cartan):
    """{H(i), E(j,k)} if cartan, else two commuting root vectors."""
    roots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if cartan:
        i, j = rng.choice(roots)
        return f"H({rng.randint(1, n - 1)})", f"E({i},{j})"
    while True:
        (i, j), (k, l) = rng.sample(roots, 2)
        if j != k and l != i:
            return f"E({i},{j})", f"E({k},{l})"


def _open_pair(n, rng, opposite):
    """{E(i,j), E(j,i)} if opposite, else the chain {E(i,j), E(j,k)}."""
    i, j, k = rng.sample(range(1, n + 1), 3)
    return f"E({i},{j})", f"E({j},{i})" if opposite else f"E({j},{k})"


def _coeff(rng):
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return f"({c})"


_LEADING = {"gamma2": "(1/(u-v))*Omega", "gamma4": "(u*v/(v-u))*Omega"}


def _catalog_rank(rng, small):
    ranks = (3,) if small else (3, 4)
    tables = {n: lie.make_sl(n) for n in ranks}
    omegas = {n: calibrated_omega(t) for n, t in tables.items()}
    # gamma3 carries the constant Drinfeld-Jimbo part; its document is the
    # package's own entrywise print of the catalog tensor (sl(3) only: the
    # sl(4) convention search alone costs several residuals).
    t3, om3 = tables[3], omegas[3]
    gamma3_text = print_rmatrix(RMatrixDocument(t3, om3, cybe.catalog(t3, om3)["gamma3"]))

    def verify(n, leading, pair=None, solves=True, qr=False):
        """`ybx verify --input` on f(u,v)*Omega + c*(x(x)y - y(x)x)."""
        label = f"verify:sl({n}):{leading}"
        text = f"algebra sl({n}); {_LEADING[leading]}"
        if pair:
            x, y = pair
            c = _coeff(rng)
            text += f" + {c}*{x}(x){y} - {c}*{y}(x){x}"
            label += "+closed" if solves else "+open"
        return Job(label, _verify_job(text), (solves, qr, True))

    def lift(n, pair, c, degenerate=False):
        table = tables[n]
        sub = lie.Subspace(table, [table.basis_element(s) for s in pair])
        coc = frobenius.TwoCocycle.from_pairs(sub, {} if degenerate else {(0, 1): c})
        expected = raised(ValueError) if degenerate else True
        label = f"lift:sl({n})" + (":degenerate" if degenerate else "")
        return Job(label, _lift_job(coc, omegas[n]), expected)

    # Each slot keeps its kind of pair for every seed (the kind sets the
    # number of terms, hence the cost); the seed picks the indices and c.
    # Light and heavy jobs alternate, and the heavy ones (two residuals, or
    # one at sl(4)) are the majority, so the median falls inside them.
    jobs = []
    for _ in range(1 if small else 8):
        jobs += [
            verify(3, "gamma2"),
            verify(3, "gamma2", _open_pair(3, rng, True), solves=False),
            verify(3, "gamma4", _closed_pair(3, rng, True), qr=True),
            Job("verify:sl(3):gamma3", _verify_job(gamma3_text), (True, False, True)),
            lift(3, _closed_pair(3, rng, False), Fraction(rng.randint(1, 4))),
            lift(3, _closed_pair(3, rng, True), 0, degenerate=True),
            verify(3, "gamma4", _open_pair(3, rng, False), solves=False),
            verify(4 if 4 in ranks else 3, "gamma2"),
            verify(3, "gamma4", qr=True),
        ]
    return jobs


def _verify_job(text):
    def run():
        doc = parse_rmatrix(text)
        r = doc.tensor
        return (cybe.cyb(r).is_zero(), cybe.is_quasi_rational(r, doc.omega), is_skew(r))

    return run


def _lift_job(coc, omega):
    def run():
        try:
            lifted = frobenius.quasi_rational_lift(coc, omega)
        except ValueError:
            return raised(ValueError)
        return cybe.is_quasi_rational(lifted, omega)

    return run


# ---------------------------------------------------------------------------
# bialgebra: cocycle and co-Jacobi identities of the sl(2) co-brackets.


def _bialgebra(rng, small):
    table = lie.make_sl(2)
    omega = calibrated_omega(table)
    cat = cybe.catalog(table, omega)
    e, f = table.index["e"], table.index["f"]
    # The non-invariant numerator of e(x)f/(u-v) leaves the pole of
    # [Gamma, p(u)(x)1 + 1(x)p(v)] uncancelled for p an e or f monomial.
    u, v = RatFun.var("u"), RatFun.var("v")
    bad = cat["gamma2"] + Tensor2.make(table, {(e, f): (u - v) ** -1})
    top = 1 if small else 5
    basis = table.basis()

    def mono(letters=None):
        x = rng.choice(basis if letters is None else [table.basis_element(s) for s in letters])
        return lie.GPoly.monomial(x, rng.randint(0, top))

    jobs = []
    for _ in range(10 if small else 400):
        for name in ("gamma2", "gamma3", "gamma4"):
            g = cat[name]
            p, q = mono(), mono()
            jobs.append(Job(f"cocycle:{name}", _call(cybe.cocycle_check, g, p, q), True))
            jobs.append(Job(f"cojacobi:{name}", _call(cybe.cojacobi_check, g, mono()), True))
        jobs.append(Job("cojacobi:bad-kernel", _call(cybe.cojacobi_check, bad, mono("ef")),
                        raised(cybe.PoleCancellationError)))
    return jobs


def _call(fn, *args):
    def run():
        try:
            return fn(*args)
        except cybe.PoleCancellationError:
            return raised(cybe.PoleCancellationError)

    return run


# ---------------------------------------------------------------------------
# doubles: truncated-double checks over sl(3) and sl(4), window [-2T, T].


def _doubles(rng, small):
    # 15 kinds of job per cycle: an odd count keeps the percentiles the
    # runner reports inside one kind's cluster of latencies, not between two.
    ranks = (3,) if small else (3, 4)
    t_top = 2 if small else 16
    window = doubles.Window(-2 * t_top, t_top)
    jobs = []
    for _ in range(2 if small else 12):
        for n in ranks:
            table = lie.make_sl(n)
            k_twist = rng.randrange(n)
            k_par = rng.randint(1, n - 1)
            jobs += [
                Job(f"complement:sl({n})", _complement_job(table, k_twist, window), (True, True)),
                Job(f"quotient:sl({n})", _quotient_job(table, k_par, window), table.dim),
                Job(f"transversal:pstar:sl({n})",
                    _transversal_job(doubles.standard_complement, table, window), (True, True, True)),
                _parabolic_pair(table, rng, k_par, full=True),
                Job(f"transversal:embedded-p:sl({n})",
                    _transversal_job(doubles.embedded_polynomials, table, window), (False, False, False)),
                _parabolic_pair(table, rng, k_par, full=False),
            ]
            if n == 3:
                # The isotropy check is quadratic in the subspace's dimension:
                # at sl(4) one Lagrangian job would cost as much as a whole cycle.
                jobs[-2:-2] = [_lagrangian(table, rng, window, skew=True)]
                jobs.append(_lagrangian(table, rng, window, skew=False))
                jobs.append(Job("quotient:sl(3):other-k", _quotient_job(table, 3 - k_par, window),
                                table.dim))
    return jobs


def _complement_job(table, k, window):
    def run():
        wk = doubles.diagonal_twist_space(table, k, window)
        comp = doubles.orth_complement_truncated(wk, window)
        return (comp.equals(doubles.loop_part(wk)), wk.dim - comp.dim == 2 * table.dim)

    return run


def _quotient_job(table, k, window):
    def run():
        try:
            return len(doubles.quotient_image_of_polynomials(table, k, window))
        except doubles.QuotientMismatch:
            return raised(doubles.QuotientMismatch)

    return run


def _transversal_job(make_subspace, table, window):
    def run():
        rep = doubles.check_transversality(make_subspace(table, window), window)
        return (rep["trivial_intersection"], rep["spans_with_polynomials"], rep["contains_tail"])

    return run


def _lagrangian(table, rng, window, skew):
    """Twisted loops plus the graph of a form over a seeded subspace L.

    With a skew form the space is isotropic for every L (loops pair only
    with loops, the graph pairs to -(B(x,y) + B(y,x))) and has half the
    non-radical dimension, so it is Lagrangian; a form with a nonzero
    diagonal entry makes some graph vector non-isotropic.
    """
    k = rng.randrange(table.n)
    size = rng.randint(2, 4)
    subalg = [table.basis_element(a) for a in rng.sample(range(table.dim), size)]
    form = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = rng.randint(-3, 3)
            form[i][j], form[j][i] = Fraction(c), Fraction(-c)
    if not skew:
        form[0][0] = Fraction(rng.choice([-2, -1, 1, 2]))

    def run():
        w = doubles.lagrangian_from_pair(table, k, subalg, lambda i, j: form[i][j], window)
        return doubles.is_lagrangian_truncated(w, window)

    kind = "lagrangian" if skew else "lagrangian:non-skew"
    return Job(f"{kind}:sl({table.n})", run, skew)


def _parabolic_pair(table, rng, k, full):
    """Transversal-pair report against parabolic(k).

    full: L = sl(n) with the coboundary form B(x,y) = K(x0, [x,y]) of a
    seeded x0 -- a subalgebra, spanning with the parabolic, a cocycle
    (every coboundary is one); whether it is nondegenerate on the
    parabolic depends on x0, so that entry is reported, not checked.
    Otherwise L = span{E(i,j), E(j,i)}, which is not bracket-closed, so
    it is neither a subalgebra nor carries a cocycle.
    """
    if full:
        basis = table.basis()
        x0 = table.basis_element(rng.randrange(table.dim))
        matrix = [[x0.killing(x.bracket(y)) for y in basis] for x in basis]
        expected = (True, True, True)
    else:
        i, j = rng.sample(range(1, table.n + 1), 2)
        basis = [table.basis_element(f"E({i},{j})"), table.basis_element(f"E({j},{i})")]
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        matrix = [[Fraction(0), c], [-c, Fraction(0)]]
        expected = (False, False)
    sub = lie.Subspace(table, basis)

    def run():
        rep = frobenius.check_parabolic_pair(table, sub, matrix, k)
        if full:
            return (rep["subalgebra"], rep["spans_with_parabolic"], rep["cocycle"])
        return (rep["subalgebra"], rep["cocycle"])

    kind = "parabolic-pair" if full else "parabolic-pair:open"
    return Job(f"{kind}:sl({table.n})", run, expected)


_BUILDERS = {
    "gauge-sweep": _gauge_sweep,
    "catalog-rank": _catalog_rank,
    "bialgebra": _bialgebra,
    "doubles": _doubles,
}
