"""Tests for polynomial gauge transformations: unimodularity, the adjoint
action on elements and tensors, and group-action functoriality.  The
cleared-denominator transform is compared, entry for entry, with the
entrywise RatFun transform it replaces."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter.cybe import catalog, cyb, is_quasi_rational, leading_term
from yangbaxter.gauge import (
    GaugeError,
    PolyGroupElement,
    _ad_coordinate_matrix,
    ad_element,
    gauge_transform,
    random_unipotent,
)
from yangbaxter.lie import GPoly, calibrate_casimir, casimir, make_sl
from yangbaxter.ratfun import Poly, RatFun
from yangbaxter.tensors import Tensor2, accumulate, swap

U = RatFun.var("u")
V = RatFun.var("v")


def max_degree(p):
    """Largest u-degree among the entries of a PolyGroupElement."""
    return max(
        (e.degree_in("u") for row in p.mat for e in row if not e.is_zero()), default=0
    )


def test_unipotent_construction():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(1,2)", 1, 1)
    assert str(p.mat[0][1]) == "u"
    assert max_degree(p) == 1
    q = PolyGroupElement.unip(t, (2, 1), 0, -3)
    assert q.mat[1][0] == Poly.const(-3)
    with pytest.raises(AssertionError):
        PolyGroupElement.unip(t, (1, 1), 0, 1)  # not a root position
    with pytest.raises(AssertionError):
        PolyGroupElement.unip(t, (1, 2), -1, 1)  # negative degree


def test_non_unimodular_matrix_rejected():
    t = make_sl(2)
    twice_identity = [
        [Poly.const(2), Poly.const(0)],
        [Poly.const(0), Poly.const(2)],
    ]
    with pytest.raises(GaugeError):
        PolyGroupElement(t, twice_identity)


def test_gauge_checks_hold_under_optimisation():
    # Neither verdict may rest on assert: `python -O` must reject the det-4
    # matrix diag(2, 2), and a transform that breaks Yang-Baxter.
    script = (
        "import yangbaxter.gauge as g\n"
        "from yangbaxter.cybe import catalog\n"
        "from yangbaxter.lie import calibrate_casimir, make_sl\n"
        "from yangbaxter.ratfun import Poly\n"
        "t = make_sl(2)\n"
        "try:\n"
        "    g.PolyGroupElement(t, [[Poly.const(2), Poly.const(0)],"
        " [Poly.const(0), Poly.const(2)]])\n"
        "    print('det accepted')\n"
        "except g.GaugeError:\n"
        "    print('det rejected')\n"
        "q0 = catalog(t, calibrate_casimir(t))['q0']\n"
        "one = g.PolyGroupElement.identity(t)\n"
        "cols = g._ad_coordinate_matrix(one)\n"
        "e, h = t.index['e'], t.index['h']\n"
        "# x_e -> x_h is linear but not a Lie algebra map.\n"
        "g._ad_coordinate_matrix = lambda p: [cols[h] if a == e else cols[a]"
        " for a in range(t.dim)]\n"
        "try:\n"
        "    g.gauge_transform(one, q0)\n"
        "    print('broken image accepted')\n"
        "except g.GaugeError:\n"
        "    print('broken image rejected')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.split("\n")[:2] == ["det rejected", "broken image rejected"], (
            flags, proc.stdout)


def test_inverse_is_polynomial_adjugate():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(1,2)", 2, 5)
    prod = [
        [
            sum((p.mat[i][k] * p.inv[k][j] for k in range(2)), Poly.const(0))
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert prod[0][0] == Poly.const(1) and prod[1][1] == Poly.const(1)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_ad_element_oracle():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(1,2)", 1, 1)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    assert ad_element(p, e) == GPoly.monomial(e, 0)
    assert ad_element(p, f) == GPoly(t, {0: f, 1: h, 2: e.scale(-1)})
    assert ad_element(p, h) == GPoly(t, {0: h, 1: e.scale(-2)})
    # Laurent input shifts degreewise.
    assert ad_element(p, GPoly.monomial(h, -2)) == GPoly(
        t, {-2: h, -1: e.scale(-2)}
    )


def test_ad_element_is_an_algebra_map_seeded():
    t = make_sl(2)
    rng = random.Random(61)
    from yangbaxter.lie import bracket_poly

    for _ in range(4):
        p = random_unipotent(t, rng)
        x = GPoly.monomial(
            t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)}),
            rng.randint(0, 2),
        )
        y = GPoly.monomial(
            t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)}),
            rng.randint(0, 2),
        )
        lhs = ad_element(p, bracket_poly(x, y))
        rhs = bracket_poly(ad_element(p, x), ad_element(p, y))
        assert lhs == rhs


def test_gauge_transform_is_a_group_action():
    t = make_sl(2)
    rng = random.Random(67)
    p = random_unipotent(t, rng)
    q = random_unipotent(t, rng)
    r = Tensor2.single(t, "e", "f", U) + Tensor2.single(t, "h", "h", 1)
    lhs = gauge_transform(p * q, r, check=False)
    rhs = gauge_transform(p, gauge_transform(q, r, check=False), check=False)
    assert lhs == rhs
    ident = PolyGroupElement.identity(t)
    assert gauge_transform(ident, r, check=False) == r


def test_gauge_transform_is_linear():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(2,1)", 1, 2)
    a = Tensor2.single(t, "e", "h", U)
    b = Tensor2.single(t, "f", "e", 3)
    assert gauge_transform(p, a + b, check=False) == gauge_transform(
        p, a, check=False
    ) + gauge_transform(p, b, check=False)


def test_gauge_preserves_catalog_solutions():
    t = make_sl(2)
    om = calibrate_casimir(t)
    cat = catalog(t, om)
    p = PolyGroupElement.unip(t, "E(1,2)", 1, 1)
    for name in ("q0", "q1", "q2"):
        out = gauge_transform(p, cat[name])  # check=True asserts Yang-Baxter
        assert is_quasi_rational(out, om), name
    # A solution with a pole off the diagonal is moved but stays a solution.
    out = gauge_transform(p, cat["gamma2"])
    assert cyb(out).is_zero()


def test_random_unipotent_is_seeded_and_bounded():
    t = make_sl(2)
    a = random_unipotent(t, random.Random(9), max_factors=3, total_degree=2)
    b = random_unipotent(t, random.Random(9), max_factors=3, total_degree=2)
    assert a.mat == b.mat
    for _ in range(10):
        p = random_unipotent(t, random.Random(_), total_degree=2)
        assert max_degree(p) <= 2


def _entrywise_gauge_transform(p, r):
    """Reference transform: every term multiplied out in RatFun arithmetic."""
    cols = _ad_coordinate_matrix(p)
    out = {}
    for (a, b), f in r.entries.items():
        for c, pu in cols[a].items():
            left = RatFun.from_poly(pu) * f
            for d, pv in cols[b].items():
                accumulate(out, (c, d), left * RatFun.from_poly(pv.rename({"u": "v"})))
    return Tensor2(r.table, out)


def test_gauge_transform_matches_entrywise_reference():
    t = make_sl(2)
    cat = catalog(t, calibrate_casimir(t))
    e, f, h = (t.index[s] for s in "efh")
    inputs = dict(
        cat,
        # not skew, hence neither a solution nor quasi-rational
        control=cat["gamma4"] + Tensor2.make(t, {(e, h): 2, (h, e): -2, (e, f): 1}),
        mixed=cat["gamma2"] + Tensor2.make(t, {(e, f): U / (U - V) + V, (h, h): (U + V) ** -2}),
        zero=Tensor2.zero(t),
    )
    rng = random.Random(29)
    for name, r in inputs.items():
        for _ in range(2):
            p = random_unipotent(t, rng)
            assert gauge_transform(p, r, check=False) == _entrywise_gauge_transform(p, r), name


_SL2 = make_sl(2)
_Q0 = leading_term(casimir(_SL2, 4))  # q0 over the calibrated sl(2) scale


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    terms=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2), st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 2**16),
)
def test_gauge_transform_matches_reference_on_skew_perturbations(terms, seed):
    t = _SL2
    half = Tensor2.zero(t)
    for a, b, i, j, c in terms:
        half = half + Tensor2.single(t, a, b, U ** i * V ** j * c)
    r = _Q0 + half - swap(half)  # a skew polynomial perturbation of q0
    p = random_unipotent(t, random.Random(seed))
    assert gauge_transform(p, r, check=False) == _entrywise_gauge_transform(p, r)
