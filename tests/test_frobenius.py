"""Tests for quasi-Frobenius pairs: 2-cocycle validation, the induced
constant skew solutions, quasi-rational lifts, and the parabolic pair
report."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import yangbaxter
from yangbaxter.cybe import catalog
from yangbaxter.frobenius import (
    InvalidCocycle,
    TwoCocycle,
    check_parabolic_pair,
    cocycle_residual,
    coords_in_basis,
    quasi_rational_lift,
    skew_r_from_frobenius,
)
from yangbaxter.lie import Subspace, borel_plus, calibrate_casimir, make_sl, span
from yangbaxter.tensors import Tensor2


def _eh_pair():
    t = make_sl(2)
    sub = Subspace(t, [t.basis_element("e"), t.basis_element("h")])
    return t, TwoCocycle.from_pairs(sub, {(0, 1): 1})


def test_two_cocycle_construction_and_value():
    t, coc = _eh_pair()
    assert coc.matrix == [[0, 1], [-1, 0]]


def test_two_cocycle_rejects_bad_input():
    t = make_sl(2)
    sub = Subspace(t, [t.basis_element("e"), t.basis_element("h")])
    with pytest.raises(InvalidCocycle):
        TwoCocycle(sub, [[F(0), F(1)], [F(1), F(0)]])  # not skew
    open_sub = Subspace(t, [t.basis_element("e"), t.basis_element("f")])
    with pytest.raises(InvalidCocycle):
        TwoCocycle.from_pairs(open_sub, {(0, 1): 1})  # not bracket-closed


def test_cocycle_identity_enforced():
    # Borel of sl(3), basis [E(1,2), E(1,3), E(2,3), H(1), H(2)]; pairing
    # H(1) with E(1,3) alone violates the 2-cocycle identity.
    t = make_sl(3)
    sub = borel_plus(t)
    labels = [str(x) for x in sub.elements]
    assert labels == ["E(1,2)", "E(1,3)", "E(2,3)", "H(1)", "H(2)"]
    n = sub.dim
    matrix = [[F(0)] * n for _ in range(n)]
    matrix[3][1] = F(1)
    matrix[1][3] = F(-1)
    assert cocycle_residual(sub, matrix) == (0, 2, 3, F(-1))
    with pytest.raises(InvalidCocycle):
        TwoCocycle(sub, matrix)


def test_skew_r_orientation_is_pinned_by_q1():
    t, coc = _eh_pair()
    r = skew_r_from_frobenius(coc)
    assert r == Tensor2.single(t, "e", "h") + Tensor2.single(t, "h", "e", -1)


def test_lift_reproduces_catalog_q1():
    t, coc = _eh_pair()
    om = calibrate_casimir(t)
    assert quasi_rational_lift(coc, om) == catalog(t, om)["q1"]


def test_empty_pair_lifts_to_leading_term():
    t = make_sl(2)
    om = calibrate_casimir(t)
    coc = TwoCocycle.from_pairs(Subspace(t, []), {})
    assert skew_r_from_frobenius(coc).is_zero()
    assert quasi_rational_lift(coc, om) == catalog(t, om)["q0"]


def test_scaling_covariance():
    t, coc = _eh_pair()
    doubled = TwoCocycle.from_pairs(coc.sub, {(0, 1): 2})
    assert skew_r_from_frobenius(doubled) == skew_r_from_frobenius(coc).scale(
        F(1, 2)
    )


def test_degenerate_coboundary_has_no_rmatrix():
    # On all of sl(2), B = K(f, [.,.]) has f in its radical.
    t = make_sl(2)
    f = t.basis_element("f")
    sub = Subspace(t, [t.basis_element("e"), f, t.basis_element("h")])
    coc = TwoCocycle.coboundary(sub, lambda w: f.killing(w))
    assert coc.matrix[0][2] == F(-8)
    assert coc.matrix[1][2] == 0
    with pytest.raises(ValueError) as exc:
        skew_r_from_frobenius(coc)
    assert "degenerate" in str(exc.value)


def test_coboundary_on_borel_lifts():
    # Restricted to span{e, h} the same coboundary is nondegenerate and
    # lifts to a scaled copy of the q1 constant part.
    t = make_sl(2)
    om = calibrate_casimir(t)
    f = t.basis_element("f")
    sub = Subspace(t, [t.basis_element("e"), t.basis_element("h")])
    coc = TwoCocycle.coboundary(sub, lambda w: f.killing(w))
    assert coc.matrix == [[0, -8], [8, 0]]
    lifted = quasi_rational_lift(coc, om)
    delta = lifted - catalog(t, om)["q0"]
    assert delta == (
        Tensor2.single(t, "e", "h") + Tensor2.single(t, "h", "e", -1)
    ).scale(F(-1, 8))


def test_check_parabolic_pair_full_sl2():
    t = make_sl(2)
    f = t.basis_element("f")
    basis = [t.basis_element("e"), f, t.basis_element("h")]
    sub = Subspace(t, basis)
    n = sub.dim
    matrix = [
        [f.killing(basis[i].bracket(basis[j])) for j in range(n)]
        for i in range(n)
    ]
    assert matrix[0][2] == F(-8)
    rep = check_parabolic_pair(t, sub, matrix, 1)
    assert rep["subalgebra"]
    assert rep["spans_with_parabolic"]
    assert rep["cocycle"]
    assert rep["nondegenerate_on_intersection"]
    assert rep["intersection_dim"] == 2


def test_check_parabolic_pair_detects_failures():
    t = make_sl(2)
    sub = Subspace(t, [t.basis_element("e"), t.basis_element("h")])
    matrix = [[F(0), F(1)], [F(-1), F(0)]]
    rep = check_parabolic_pair(t, sub, matrix, 1)
    assert rep["subalgebra"]
    assert not rep["spans_with_parabolic"]  # borel + parabolic(1) = borel
    assert rep["intersection_dim"] == 2
    degenerate = [[F(0), F(0)], [F(0), F(0)]]
    rep2 = check_parabolic_pair(t, sub, degenerate, 1)
    assert not rep2["nondegenerate_on_intersection"]


def test_coords_in_basis():
    t = make_sl(2)
    e = t.basis_element("e")
    h = t.basis_element("h")
    x = e.scale(F(2, 3)) + h.scale(-1)
    assert coords_in_basis([e, h], x) == [F(2, 3), F(-1)]
    assert coords_in_basis([e, h], t.basis_element("f")) is None
    assert coords_in_basis([], t.zero()) == []
    assert coords_in_basis([], e) is None


def test_lift_checks_hold_under_optimisation():
    # No lift verdict may rest on assert: under `python -O` too, a form that
    # skips TwoCocycle's validation must give LiftError, not a bogus r.
    # span{e, f} is not closed, so e^f fails Yang-Baxter; a symmetric form
    # gives a symmetric r; and a non-skew r makes the lift non-quasi-rational.
    script = (
        "from yangbaxter import frobenius as fr\n"
        "from yangbaxter.lie import Subspace, casimir, make_sl\n"
        "from yangbaxter.tensors import Tensor2\n"
        "t = make_sl(2)\n"
        "om = casimir(t, 4)\n"
        "sub = Subspace(t, [t.basis_element('e'), t.basis_element('f')])\n"
        "def unchecked(matrix):\n"
        "    coc = object.__new__(fr.TwoCocycle)\n"
        "    coc.sub, coc.matrix = sub, matrix\n"
        "    return coc\n"
        "def outcome(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "        return 'accepted'\n"
        "    except fr.LiftError as exc:\n"
        "        return f'LiftError: {exc}'\n"
        "print(outcome(fr.skew_r_from_frobenius, unchecked([[0, 1], [-1, 0]])))\n"
        "print(outcome(fr.skew_r_from_frobenius, unchecked([[0, 1], [1, 0]])))\n"
        "fr.skew_r_from_frobenius = lambda coc: Tensor2.single(t, 'e', 'h')\n"
        "print(outcome(fr.quasi_rational_lift, unchecked([]), om))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    expected = [
        "LiftError: constructed r-matrix fails Yang-Baxter",
        "LiftError: constructed r-matrix is not skew",
        "LiftError: lift fails quasi-rationality",
    ]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.splitlines() == expected, (flags, proc.stdout)
