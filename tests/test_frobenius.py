"""Tests for quasi-Frobenius pairs: 2-cocycle validation, the induced
constant skew solutions, quasi-rational lifts, and the parabolic pair
report."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter import linalg
from yangbaxter.cybe import catalog
from yangbaxter.frobenius import (
    InvalidCocycle,
    TwoCocycle,
    check_parabolic_pair,
    cocycle_residual,
    quasi_rational_lift,
    skew_r_from_frobenius,
)
from yangbaxter.lie import (
    GElement,
    Subspace,
    calibrate_casimir,
    make_sl,
    parabolic,
)
from yangbaxter.tensors import Tensor2

from reference import ref_check_parabolic_pair


def borel_plus(table):
    els = [table.basis_element(f"E({i},{j})") for (i, j) in table.root_pairs if i < j]
    els += [table.basis_element(f"H({i})") for i in range(1, table.n)]
    return Subspace(table, els)


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


def test_check_parabolic_pair_brackets_each_pair_once(monkeypatch):
    # Closure is read off the cocycle pass on a skew form: the sl(3) Borel
    # pair with a zero form brackets its 10 basis pairs once each.
    t = make_sl(3)
    sub = borel_plus(t)
    zero = [[F(0)] * sub.dim for _ in range(sub.dim)]
    bracket = GElement.bracket
    calls = []

    def counting(x, y):
        calls.append(1)
        return bracket(x, y)

    monkeypatch.setattr(GElement, "bracket", counting)
    rep = check_parabolic_pair(t, sub, zero, 1)
    assert len(calls) == 10
    monkeypatch.undo()
    assert rep == ref_check_parabolic_pair(t, sub, zero, 1)
    # The same report as closure checked on its own, on skew and non-skew
    # forms over closed, open and full pairs.
    rng = random.Random(29)
    seen = set()
    for sub in _SPACES:
        t = sub.table
        for kind in ("coboundary", "perturbed", "zero"):
            m = _seeded_form(sub, rng, kind)
            not_skew = [row[:] for row in m]
            not_skew[0][1] += 1
            for form in (m, not_skew):
                rep = check_parabolic_pair(t, sub, form, 1)
                assert rep == ref_check_parabolic_pair(t, sub, form, 1), (sub, kind)
                seen.add((form is m, rep["subalgebra"], rep["cocycle"], sub.dim == t.dim))
    assert {(True, True, True, True), (True, True, False, False), (True, False, False, False),
            (False, True, False, False), (False, False, False, False)} <= seen, seen


def test_nondegeneracy_verdict_matches_gram_determinant():
    # The verdict is full rank of the Gram rows; the reference is the
    # determinant of the same Gram matrix.  A random and a zero skew form on
    # each space below meet odd-dimensional intersections, where a skew form
    # is always degenerate, and even ones of both verdicts.
    from test_linalg import det_dense

    rng = random.Random(83)
    seen = set()
    for sub in _spaces():
        t, n = sub.table, sub.dim
        random_form = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            random_form[i][j] = F(rng.randint(-2, 2))
            random_form[j][i] = -random_form[i][j]
        coords = linalg.coordinates([x.terms for x in sub.elements], t.dim)
        for k in range(1, t.n):
            inter = linalg.intersect_spans([x.terms for x in sub.elements],
                                           [x.terms for x in parabolic(t, k).elements])
            cc = [coords(v) for v in inter]
            for m in (random_form, [[F(0)] * n for _ in range(n)]):
                gram = [[sum(a * b * m[i][j] for i, a in cx.items() for j, b in cy.items())
                         for cy in cc] for cx in cc]
                expected = det_dense(gram) != 0  # 1 on an empty intersection
                rep = check_parabolic_pair(t, sub, m, k)
                assert rep["nondegenerate_on_intersection"] == expected, (sub, k)
                seen.add((len(cc) % 2, expected))
    assert {(1, False), (0, True), (0, False)} <= seen, seen


def test_coords_in_basis():
    t = make_sl(2)
    e = t.basis_element("e")
    h = t.basis_element("h")
    x = e.scale(F(2, 3)) + h.scale(-1)
    coords = linalg.coordinates([e.terms, h.terms], t.dim)
    assert coords(x.terms) == {0: F(2, 3), 1: F(-1)}
    assert coords(h.terms) == {1: F(1)}
    assert coords(t.basis_element("f").terms) is None
    assert coords((x + t.basis_element("f")).terms) is None
    assert linalg.coordinates([], t.dim)(t.zero().terms) == {}
    assert linalg.coordinates([], t.dim)(e.terms) is None
    # A basis that is not in echelon form: x = 2*(e + h) - 3*h.
    coords = linalg.coordinates([(e + h).terms, h.terms], t.dim)
    assert coords((e.scale(2) - h).terms) == {0: F(2), 1: F(-3)}


def test_skew_r_inverts_seeded_forms():
    """r = sum_ij (B^-1)^T_ij x_i (x) x_j: B^-1 read off r inverts B.

    Seeded coboundary forms phi([x, y]) on subalgebras with scaled unit
    bases; the odd-dimensional Borel of sl(3) is the singular control."""
    from test_linalg import det_dense

    rng = random.Random(47)
    cases = [(2, ["e", "h"]), (3, ["H(1)", "E(1,2)"]), (3, ["H(1)", "H(2)", "E(1,2)", "E(1,3)"]),
             (3, ["E(1,3)", "E(2,3)", "H(1)", "H(2)"]),
             (3, ["E(1,2)", "E(1,3)", "E(2,3)", "H(1)", "H(2)"])]
    verdicts = set()
    for n, labels in cases:
        t = make_sl(n)
        for _ in range(3):
            scales = [rng.choice([1, -1, 2, F(-1, 3)]) for _ in labels]
            sub = Subspace(t, [t.basis_element(s).scale(c) for s, c in zip(labels, scales)])
            phi = {a: F(rng.randint(-2, 2)) for a in range(t.dim)}
            coc = TwoCocycle.coboundary(sub, lambda w: sum(c * phi[a] for a, c in w.terms.items()))
            b = coc.matrix
            m = len(labels)
            if det_dense(b) == 0:
                with pytest.raises(ValueError) as exc:
                    skew_r_from_frobenius(coc)
                assert str(exc.value) == "the form is degenerate on the subalgebra; no r-matrix"
                verdicts.add(False)
                continue
            r = skew_r_from_frobenius(coc)
            idx = [t.index[s] for s in labels]
            # inv[k][j] = (B^-1)_kj = coefficient of x_j (x) x_k in r
            inv = [[r.coeff(idx[j], idx[k]).const_value() / (scales[j] * scales[k])
                    for j in range(m)] for k in range(m)]
            for i in range(m):
                for j in range(m):
                    assert sum(b[i][k] * inv[k][j] for k in range(m)) == (1 if i == j else 0), (labels, i, j)
            verdicts.add(True)
    assert verdicts == {True, False}


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


def test_cocycle_residual_rejects_non_skew_form_under_optimisation():
    # The alternating loop reads only i < j, so a non-skew form must be
    # refused by a typed raise, not an assert that `python -O` drops.  So
    # must a TwoCocycle on something other than a Subspace, or with a matrix
    # of the wrong shape.
    script = (
        "from yangbaxter import frobenius as fr\n"
        "from yangbaxter.lie import Subspace, make_sl\n"
        "t = make_sl(3)\n"
        "labels = ('E(1,2)', 'E(1,3)', 'E(2,3)', 'H(1)', 'H(2)')\n"
        "sub = Subspace(t, [t.basis_element(s) for s in labels])\n"
        "sym = [[0] * 5 for _ in range(5)]\n"
        "sym[1][3] = sym[3][1] = 1\n"
        "diag = [[0] * 5 for _ in range(5)]\n"
        "diag[2][2] = 1\n"
        "for m in (sym, diag):\n"
        "    try:\n"
        "        print('accepted', fr.cocycle_residual(sub, m))\n"
        "    except fr.InvalidCocycle as exc:\n"
        "        print(f'InvalidCocycle: {exc}')\n"
        "for args in ((labels, sym), (sub, sym[:4]), (sub, [row[:4] for row in sym])):\n"
        "    try:\n"
        "        print('accepted', fr.TwoCocycle(*args))\n"
        "    except ValueError as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    expected = [
        "InvalidCocycle: form is not skew at (1, 3)",
        "InvalidCocycle: form is not skew at (2, 2)",
        "ValueError: a 2-cocycle needs a Subspace, not tuple",
        "ValueError: a 2-cocycle on a 5-dim subspace needs a 5x5 matrix",
        "ValueError: a 2-cocycle on a 5-dim subspace needs a 5x5 matrix",
    ]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.splitlines() == expected, (flags, proc.stdout)


def _ref_coords(basis, x):
    """Coordinates over an independent `basis`, from the kernel vector z of
    the columns (basis | x): x = -sum_j z_j/z_n * basis[j] when z_n != 0."""
    n = len(basis)
    cols = [y.terms for y in basis] + [x.terms]
    rows = [{j: v[i] for j, v in enumerate(cols) if i in v} for i in range(x.table.dim)]
    for z in linalg.nullspace(rows, list(range(n + 1))):
        if z.get(n):
            return [-F(z.get(j, 0)) / z[n] for j in range(n)]
    return None


def _ref_cocycle_residual(sub, matrix):
    """The all-ordered-triples loop: n^2 bracket solves and n^3 cyclic sums."""
    basis = sub.elements
    n = len(basis)

    def b_form(coeffs, j):
        return sum((c * matrix[i][j] for i, c in enumerate(coeffs) if c), F(0))

    brackets = {}
    for i, j in itertools.product(range(n), repeat=2):
        cw = _ref_coords(basis, basis[i].bracket(basis[j]))
        if cw is None:
            return (i, j, None, "bracket leaves the span")
        brackets[i, j] = cw
    for i, j, k in itertools.product(range(n), repeat=3):
        total = (b_form(brackets[i, j], k) + b_form(brackets[j, k], i)
                 + b_form(brackets[k, i], j))
        if total != 0:
            return (i, j, k, total)
    return None


def _spaces():
    """Borel, parabolic and full sl(3), sl(4), each also in a mixed basis,
    plus spans that are not bracket-closed."""
    out = []
    for n in (3, 4):
        t = make_sl(n)
        for sub in (borel_plus(t), parabolic(t, 1), parabolic(t, n - 1), Subspace(t, t.basis())):
            els = sub.elements
            mixed = [x + els[i + 1].scale(i - 1) for i, x in enumerate(els[:-1])] + [els[-1]]
            out += [sub, Subspace(t, mixed)]
        out.append(Subspace(t, [t.basis_element("E(1,2)"), t.basis_element("E(2,3)"),
                                t.basis_element("H(1)")]))
        out.append(Subspace(t, borel_plus(t).elements[1:] + [t.basis_element(f"E({n},1)")]))
    return out


_SPACES = _spaces()


def _seeded_form(sub, rng, kind):
    """A skew form on sub: a coboundary phi([x, y]) (a cocycle), a
    coboundary with one entry perturbed, a sparse random form, or zero."""
    n = sub.dim
    if kind == "zero":
        return [[F(0)] * n for _ in range(n)]
    if kind == "random":
        m = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                m[i][j] = F(rng.randint(-3, 3), rng.randint(1, 2))
                m[j][i] = -m[i][j]
        return m
    t = sub.table
    phi = {a: F(rng.randint(-2, 2)) for a in range(t.dim)}
    els = sub.elements
    m = [[sum((c * phi[a] for a, c in x.bracket(y).terms.items()), F(0)) for y in els]
         for x in els]
    if kind == "perturbed":
        i, j = sorted(rng.sample(range(n), 2))
        m[i][j] += 1
        m[j][i] -= 1
    return m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_SPACES) - 1),
       st.sampled_from(("coboundary", "perturbed", "random", "zero")),
       st.integers(0, 2**16))
def test_cocycle_residual_matches_all_triples_reference(space, kind, seed):
    sub = _SPACES[space]
    matrix = _seeded_form(sub, random.Random(seed), kind)
    assert cocycle_residual(sub, matrix) == _ref_cocycle_residual(sub, matrix), (
        space, kind, seed)


def test_cocycle_residual_reference_controls():
    # Each verdict kind occurs, with the same witness from both loops: the
    # coboundaries pass, a perturbed coboundary on a closed space fails at
    # a sorted triple, and an open span fails at its first escaping bracket.
    rng = random.Random(71)
    verdicts = set()
    for sub in _SPACES:
        for kind in ("coboundary", "perturbed", "random"):
            matrix = _seeded_form(sub, rng, kind)
            got = cocycle_residual(sub, matrix)
            assert got == _ref_cocycle_residual(sub, matrix), (str(sub), kind)
            if got is None:
                verdicts.add("holds")
                assert sub.is_subalgebra()
            elif got[2] is None:
                verdicts.add("leaves the span")
                assert not sub.is_subalgebra() and got[0] < got[1]
            else:
                verdicts.add("fails")
                assert got[0] < got[1] < got[2] and got[3] != 0
        if sub.is_subalgebra():
            assert cocycle_residual(sub, _seeded_form(sub, rng, "coboundary")) is None
    assert verdicts == {"holds", "leaves the span", "fails"}
