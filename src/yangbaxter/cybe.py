"""Classical Yang-Baxter residuals, quasi-rationality, co-brackets.

The residual of a two-leg tensor r is

    cyb(r) = [r12, r13] + [r12, r23] + [r13, r23]

as a three-leg tensor in (u1, u2, u3); r solves the classical Yang-Baxter
equation iff the residual is the zero tensor.  It is computed with the
denominators cleared once: with d(u, v) the lcm of r's denominators and
P = d*r a polynomial tensor,

    cyb(r)*d12*d13*d23 = [P12,P13]*d23 + [P12,P23]*d13 + [P13,P23]*d12,

so the three commutators and their sum need no gcd.  Each entry of each
commutator (`tensors.leg_bracket`, which stays the public commutator) is
multiplied by its weight d_jk straight into one {monomial: int} dict per
output key, shared by the three pairs, and each key builds one Poly (the
sparse accumulation of Monagan & Pearce, over a weighted sum of three
products).  The commutators multiply ints: d and P (which holds Fractions
such as Omega's 1/2) are scaled by the lcm L of their coefficient
denominators.  `cyb` returns these cleared numerators
N = L^3*d12*d13*d23*cyb(r) and never divides them back.  L^3*d12*d13*d23
is a nonzero polynomial, so an entry of N is zero exactly when the entry of
cyb(r) is: a verdict reads the support of N, and every verdict and residual
term count is the symbolic one.  `cyb` computes it
once per tensor and stores it there (see `tensors`).

The co-bracket attached to a kernel Gamma is
delta(p) = [Gamma, p(u)(x)1 + 1(x)p(v)]; for the built-in kernels the pole
of Gamma on the diagonal must cancel, making delta(p) a polynomial tensor.
ad2_action sums it on the cleared kernel d*Gamma, one dict per entry, and
divides each entry by d*(u*v)^s once (s > 0 only for a Laurent p).
RatFun.of reduces that quotient to lowest terms, so an entry keeps a
nonconstant denominator exactly when the entrywise result has one: the pole
test reads the same reduced coefficients and gives the same verdict.

The built-in catalog over the calibrated Casimir:

    gamma1 = 0
    gamma2 = Omega/(u-v)
    gamma3 = v*Omega/(v-u) + r_DJ           (lie.dj_rmatrix; checked once)
    gamma4 = u*v*Omega/(v-u)
    q0     = gamma4
    q1     = gamma4 + e(x)h - h(x)e                      (sl(2) only)
    q2     = gamma4 + (1/2)h(x)e - (1/2)e(x)h
                    - u*(e(x)f) + v*(f(x)e)              (sl(2) only)
    rational_eh = Omega/(u-v) + u*(e(x)h) - v*(h(x)e)    (sl(2) only)

rational_eh is a Yang-Baxter solution but NOT quasi-rational: its difference
from the leading term u*v*Omega/(v-u) (`CasimirSpec.leading`) has a pole.
"""

from __future__ import annotations

from math import lcm

from .lie import GPoly, bracket_poly, dj_rmatrix
from .ratfun import RatFun, _addmul, _polys
from .tensors import (
    Tensor2,
    Tensor3,
    ad2_action,
    clear_denominators,
    is_polynomial,
    is_skew,
    leg_bracket,
)


_LEGS = {
    "12": {"u": "u1", "v": "u2"},
    "13": {"u": "u1", "v": "u3"},
    "23": {"u": "u2", "v": "u3"},
}


def cyb(r):
    """The cleared Yang-Baxter residual [r12,r13] + [r12,r23] + [r13,r23].

    Computed in the polynomial ring as [P12,P13]*d23 + [P12,P23]*d13 +
    [P13,P23]*d12 with (d, P) = clear_denominators(r) made integral (times
    L, see the module docstring).  The entries are the Poly numerators
    N = L^3*d12*d13*d23*cyb(r), not divided back: the factor is nonzero, so
    `is_zero()` and the entry count are the symbolic residual's.  Later
    calls on r return the stored Tensor3.
    """
    if not isinstance(r, Tensor2):
        raise ValueError(f"cyb needs a Tensor2, not {type(r).__name__}")
    if getattr(r, "_residual", None) is not None:
        return r._residual
    d, p = clear_denominators(r)
    scale = lcm(*(c.denominator for f in (d, *p.entries.values()) for c in f.terms.values()))
    d, p = d * scale, Tensor2(r.table, {key: f * scale for key, f in p.entries.items()})
    d12, d13, d23 = (d.rename(_LEGS[legs]) for legs in ("12", "13", "23"))
    sums = {}
    for pair, weight in (("12^13", d23), ("12^23", d13), ("13^23", d12)):
        for key, c in leg_bracket(p, p, pair).entries.items():
            _addmul(sums.setdefault(key, {}), c.terms.items(), weight.terms.items())
    r._residual = Tensor3(r.table, _polys(sums))
    return r._residual


def is_quasi_rational(r, omega):
    """True iff r solves Yang-Baxter and r - u*v*Omega/(v-u) is a skew polynomial."""
    diff = r - omega.leading
    if not is_polynomial(diff):
        return False
    if not is_skew(diff):
        return False
    return cyb(r).is_zero()


_NAMES = ("gamma1", "gamma2", "gamma3", "gamma4", "q0")
_SL2_NAMES = _NAMES + ("q1", "q2", "rational_eh")


def catalog_names(table):
    """The built-in names over table: gamma1..gamma4 and q0 for every sl(n),
    and q1, q2 and rational_eh, which use the e/f/h aliases, for sl(2)."""
    return _SL2_NAMES if table.n == 2 else _NAMES


class ConventionError(RuntimeError):
    """gamma3 = v*Omega/(v-u) + dj_rmatrix fails Yang-Baxter."""


def catalog_entry(table, omega, name):
    """The built-in kernel or solution `name` over the given Casimir.

    Builds only that entry; KeyError for a name not in catalog_names(table).
    gamma3 is checked once, and its stored residual serves later verdicts:
    ConventionError when it is not zero.
    """
    if name not in catalog_names(table):
        raise KeyError(name)
    u = RatFun.var("u")
    v = RatFun.var("v")
    om = omega.tensor()
    if name == "gamma1":
        return Tensor2.zero(table)
    if name == "gamma2":
        return om.scale((u - v) ** -1)
    if name == "gamma3":
        gamma3 = om.scale(v / (v - u)) + dj_rmatrix(table, omega)
        residual = cyb(gamma3)
        if not residual.is_zero():
            raise ConventionError(
                f"v*Omega/(v-u) + r_DJ leaves {len(residual.entries)} residual terms"
            )
        return gamma3
    if name in ("gamma4", "q0"):
        return omega.leading
    e, f, h = (table.index[x] for x in "efh")
    if name == "q1":
        return omega.leading + Tensor2.make(table, {(e, h): 1, (h, e): -1})
    if name == "q2":
        half = RatFun.from_frac(1) / 2
        return omega.leading + Tensor2.make(
            table, {(h, e): half, (e, h): -half, (e, f): -u, (f, e): v}
        )
    # rational_eh, the last sl(2) name
    return om.scale((u - v) ** -1) + Tensor2.make(table, {(e, h): u, (h, e): -v})


def catalog(table, omega):
    """The built-in kernels/solutions over the given Casimir; dict by name."""
    return {name: catalog_entry(table, omega, name) for name in catalog_names(table)}


class PoleCancellationError(ArithmeticError):
    """The co-bracket of p is not polynomial: the diagonal pole survives."""


def cobracket(gamma, p):
    """delta(p) = [Gamma, p(u)(x)1 + 1(x)p(v)], checked polynomial.

    Raises PoleCancellationError when the pole of Gamma does not cancel,
    which signals that Gamma is not a valid co-bracket kernel for the
    polynomial current algebra.
    """
    result = ad2_action(p, gamma).scale(-1)
    if not is_polynomial(result):
        bad = [f for f in result.entries.values() if not f.is_poly()]
        raise PoleCancellationError(
            f"pole does not cancel: {len(bad)} non-polynomial coefficients, "
            f"e.g. {bad[0]}"
        )
    return result


def cocycle_check(gamma, p, q):
    """delta([p,q]) = ad2(p, delta(q)) - ad2(q, delta(p)), exactly."""
    lhs = cobracket(gamma, bracket_poly(p, q))
    rhs = ad2_action(p, cobracket(gamma, q)) - ad2_action(q, cobracket(gamma, p))
    return lhs == rhs


def _delta_on_first_leg(gamma, dp):
    """(delta (x) id) applied to a polynomial two-leg tensor dp.

    Decomposes each coefficient over monomials u^k in the first variable,
    applies the co-bracket to the corresponding g-valued monomial on leg 1
    (fresh variables u1, u2), and carries the old leg 2 to slot 3 with u3.
    One dict per output key; the entries are RatFuns (the tensor is not cleared).
    """
    table = dp.table
    to12 = {"u": "u1", "v": "u2"}
    sums = {}
    cache = {}
    # dp is a cobracket output, and cobracket raises unless every
    # coefficient is polynomial.
    for (a, b), f in dp.entries.items():
        for k, g_k in f.num.as_univariate("u").items():
            key = (a, k)
            inner = cache.get(key)
            if inner is None:
                inner = cobracket(gamma, GPoly.monomial(table.basis_element(a), k))
                cache[key] = inner
            weight = g_k.rename({"v": "u3"}).terms.items()
            for (c, d), h in inner.entries.items():
                _addmul(sums.setdefault((c, d, b), {}), h.num.rename(to12).terms.items(), weight)
    return Tensor3(table, {key: RatFun.from_poly(h) for key, h in _polys(sums).items()})


def cojacobi_check(gamma, p):
    """Co-Jacobi for delta at p: the cyclic sum of (delta (x) id) delta(p) is 0."""
    dp = cobracket(gamma, p)
    w = _delta_on_first_leg(gamma, dp)
    w1 = w.rotate()
    w2 = w1.rotate()
    return (w + w1 + w2).is_zero()
