"""Tests for polynomial gauge transformations: the inverse each element
carries, the adjoint action on basis elements and tensors, and group-action
functoriality.  The inverse and the adjoint columns are compared with the
cofactor adjugate and the degree-split reference of `reference.py`; the
cleared-denominator transform is compared, entry for entry, with the
entrywise RatFun transform it replaces."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from reference import poly_matmul, ref_ad_columns, ref_gauge_loop, ref_poly_adjugate
from yangbaxter.cybe import catalog, catalog_entry, cyb, is_quasi_rational
from yangbaxter.gauge import (
    PolyGroupElement,
    _ad_coordinate_matrix,
    gauge_transform,
    random_unipotent,
)
from yangbaxter.lie import calibrate_casimir, casimir, make_sl
from yangbaxter.ratfun import Poly, RatFun
from yangbaxter.tensors import Tensor2, accumulate, swap

U = RatFun.var("u")
V = RatFun.var("v")
u = Poly.var("u")


def max_degree(p):
    """Largest u-degree among the entries of a PolyGroupElement."""
    return max(
        (e.degree_in("u") for row in p.mat for e in row if not e.is_zero()), default=0
    )


def is_identity(m):
    return all(m[i][j] == Poly.const(int(i == j)) for i in range(len(m)) for j in range(len(m)))


def test_unipotent_construction():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(1,2)", 1, 1)
    assert str(p.mat[0][1]) == "u"
    assert str(p.inv[0][1]) == "-u"
    assert max_degree(p) == 1
    q = PolyGroupElement.unip(t, (2, 1), 0, -3)
    assert q.mat[1][0] == Poly.const(-3)
    with pytest.raises(ValueError):
        PolyGroupElement.unip(t, (1, 1), 0, 1)  # not a root position
    with pytest.raises(ValueError):
        PolyGroupElement.unip(t, (1, 3), 0, 1)  # not a root of sl(2)
    with pytest.raises(ValueError):
        PolyGroupElement.unip(t, (1, 2), -1, 1)  # negative degree
    with pytest.raises(ValueError):
        p * PolyGroupElement.unip(make_sl(3), (1, 2), 0, 1)  # mismatched algebras


def test_gauge_checks_hold_under_optimisation():
    # No input check or verdict may rest on assert: `python -O` must reject an
    # sl(3) gauge on an sl(2) tensor (it once returned 21 entries over the 9
    # keys of sl(2)), a matrix with trace 3 (it once read as {6: 1, 7: 2}),
    # and a transform that breaks Yang-Baxter.
    script = (
        "import yangbaxter.gauge as g\n"
        "from yangbaxter.cybe import catalog\n"
        "from yangbaxter.lie import calibrate_casimir, make_sl\n"
        "t = make_sl(2)\n"
        "q1 = catalog(t, calibrate_casimir(t))['q1']\n"
        "try:\n"
        "    g.gauge_transform(g.PolyGroupElement.unip(make_sl(3), 'E(1,3)', 1, 1), q1,"
        " check=False)\n"
        "    print('mismatch accepted')\n"
        "except ValueError:\n"
        "    print('mismatch rejected')\n"
        "try:\n"
        "    make_sl(3).coords_of_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
        "    print('trace accepted')\n"
        "except ValueError:\n"
        "    print('trace rejected')\n"
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
        assert proc.stdout.split("\n")[:3] == [
            "mismatch rejected", "trace rejected", "broken image rejected"], (
            flags, proc.stdout)


def test_inverse_is_polynomial_adjugate():
    t = make_sl(2)
    p = PolyGroupElement.unip(t, "E(1,2)", 2, 5)
    assert is_identity(poly_matmul(p.mat, p.inv))
    assert p.inv == ref_poly_adjugate(p.mat)
    ident = PolyGroupElement.identity(t)
    assert is_identity(ident.mat) and is_identity(ident.inv)


def _unipotent_products(n):
    factor = st.tuples(st.sampled_from(make_sl(n).root_pairs), st.integers(0, 2),
                       st.integers(-3, 3).filter(bool))
    return st.tuples(st.just(n), st.lists(factor, min_size=1, max_size=3))


def _product(t, factors):
    out = PolyGroupElement.identity(t)
    for root, deg, c in factors:
        out = out * PolyGroupElement.unip(t, root, deg, c)
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(*(_unipotent_products(n) for n in (2, 3, 4))))
def test_carried_inverse_and_columns_match_reference(case):
    n, factors = case
    t = make_sl(n)
    p = _product(t, factors)
    assert is_identity(poly_matmul(p.mat, p.inv))
    assert p.inv == ref_poly_adjugate(p.mat)
    assert _ad_coordinate_matrix(p) == ref_ad_columns(t, p.mat)


def _columns_or_none(p):
    try:
        return _ad_coordinate_matrix(p)
    except ValueError:  # a wrong inverse can leave a conjugate with a trace
        return None


def test_inverse_reference_negative_controls():
    # A flipped -t, or the inverses multiplied in the product's order, is
    # caught by each of the three comparisons above.
    t = make_sl(3)
    a = PolyGroupElement.unip(t, "E(1,2)", 1, 2)
    b = PolyGroupElement.unip(t, "E(2,3)", 0, -1)
    flipped = PolyGroupElement(t, a.mat, a.mat)
    ab = a * b
    swapped = PolyGroupElement(t, ab.mat, poly_matmul(a.inv, b.inv))
    for bad in (flipped, swapped):
        assert not is_identity(poly_matmul(bad.mat, bad.inv))
        assert bad.inv != ref_poly_adjugate(bad.mat)
        assert _columns_or_none(bad) != ref_ad_columns(t, bad.mat)
    assert _ad_coordinate_matrix(ab) == ref_ad_columns(t, ab.mat)


def test_ad_columns_oracle():
    t = make_sl(2)
    e, f, h = (t.index[s] for s in "efh")
    cols = _ad_coordinate_matrix(PolyGroupElement.unip(t, "E(1,2)", 1, 1))
    assert cols[e] == {e: Poly.const(1)}
    assert cols[f] == {e: -u * u, f: Poly.const(1), h: u}
    assert cols[h] == {e: -2 * u, h: Poly.const(1)}


def _bracket_columns(t, x, y):
    """[x, y] of two g[u] elements given as {basis: Poly}."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            for k, c in t.structure.get((a, b), ()):
                accumulate(out, k, xa * yb * c)
    return out


def test_ad_columns_are_an_algebra_map_seeded():
    # Ad p [x_a, x_b] = [Ad p x_a, Ad p x_b] on every basis pair.
    for n, seed in ((2, 61), (3, 62)):
        t = make_sl(n)
        rng = random.Random(seed)
        for _ in range(3):
            cols = _ad_coordinate_matrix(random_unipotent(t, rng, max_factors=3))
            for a in range(t.dim):
                for b in range(t.dim):
                    lhs = {}
                    for k, c in t.structure.get((a, b), ()):
                        for m, x in cols[k].items():
                            accumulate(lhs, m, x * c)
                    assert lhs == _bracket_columns(t, cols[a], cols[b]), (n, a, b)


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
_Q0 = casimir(_SL2, 4).leading  # q0 over the calibrated sl(2) scale


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


# Built without cyb (no gamma3), so a faulty residual cannot stop collection.
_SL3 = make_sl(3)
_GAUGE_INPUTS = {
    2: [_Q0, catalog_entry(_SL2, casimir(_SL2, 4), "q2"),
        _Q0 + Tensor2.single(_SL2, "e", "h", (2 * U ** 2 + V) ** -1)],
    3: [casimir(_SL3, 6).leading, catalog_entry(_SL3, casimir(_SL3, 6), "gamma2")
        + Tensor2.single(_SL3, "E(1,3)", "H(2)", U / (U + V))],
}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3)), which=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_gauge_transform_equals_the_poly_by_poly_reference(n, which, seed):
    # One sparse accumulation per output key against one Poly product and
    # one sum per pair of adjoint columns, on seeded unipotents.
    inputs = _GAUGE_INPUTS[n]
    r = inputs[which % len(inputs)]
    p = random_unipotent(make_sl(n), random.Random(seed), total_degree=2)
    image = gauge_transform(p, r, check=False)
    assert image == ref_gauge_loop(p, r)
