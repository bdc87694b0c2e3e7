"""Tests for the finite-dimensional Lie algebra layer: sl(n) structure
constants, Killing form, Casimir calibration, and distinguished subalgebras."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter.cybe import catalog_entry
from yangbaxter.linalg import DependentElement
from yangbaxter.lie import (
    DJ_CONVENTION,
    CalibrationError,
    GElement,
    GPoly,
    Subspace,
    bracket_poly,
    calibrate_casimir,
    casimir,
    dj_rmatrix,
    make_sl,
    orthogonal_complement_g,
    parabolic,
)
from yangbaxter.ratfun import Poly, RatFun
from yangbaxter.tensors import swap
from reference import ref_dj_rmatrix


def to_matrix(x):
    """The element x in the defining representation."""
    n = x.table.n
    m = [[F(0)] * n for _ in range(n)]
    for idx, c in x.terms.items():
        mat = x.table.mats[idx]
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    m[i][j] += c * mat[i][j]
    return m


def cartan(table):
    return Subspace(table, [table.basis_element(f"H({i})") for i in range(1, table.n)])


def borel(table, sign=1):
    """The positive (sign 1) or negative (sign -1) Borel subalgebra."""
    els = [
        table.basis_element(f"E({i},{j})")
        for (i, j) in table.root_pairs
        if (j - i) * sign > 0
    ]
    els += [table.basis_element(f"H({i})") for i in range(1, table.n)]
    return Subspace(table, els)


def test_sl2_structure_constants():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    assert h.bracket(e) == e.scale(2)
    assert h.bracket(f) == f.scale(-2)
    assert e.bracket(f) == h
    assert e.bracket(e).is_zero()


def _check_jacobi(table):
    """Exact Jacobi identity on all basis triples."""
    basis = table.basis()
    for x in basis:
        for y in basis:
            for z in basis:
                s = x.bracket(y).bracket(z)
                s = s + y.bracket(z).bracket(x)
                s = s + z.bracket(x).bracket(y)
                if not s.is_zero():
                    return False
    return True


def test_jacobi_identity():
    assert _check_jacobi(make_sl(2))
    assert _check_jacobi(make_sl(3))


def test_killing_form_sl2():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    assert e.killing(f) == F(4)
    assert f.killing(e) == F(4)
    assert h.killing(h) == F(8)
    assert e.killing(e) == 0
    assert e.killing(h) == 0


def test_killing_is_trace_multiple():
    # K(x, y) = 2n * tr(xy) in the defining representation of sl(n).
    for n in (2, 3):
        t = make_sl(n)
        rng = random.Random(n)
        for _ in range(5):
            x = t.element({i: F(rng.randint(-3, 3)) for i in range(t.dim)})
            y = t.element({i: F(rng.randint(-3, 3)) for i in range(t.dim)})
            mx, my = to_matrix(x), to_matrix(y)
            tr = sum(
                mx[i][j] * my[j][i] for i in range(n) for j in range(n)
            )
            assert x.killing(y) == 2 * n * tr


def test_killing_matrix_is_trace_form_on_every_basis_pair():
    # The sparse structure-constant sum gives K = 2n * tr(x_a x_b) exactly.
    for n in (2, 3, 4, 5):
        t = make_sl(n)
        for a, ma in enumerate(t.mats):
            for b, mb in enumerate(t.mats):
                tr = sum(ma[i][j] * mb[j][i] for i in range(n) for j in range(n))
                assert t.killing[a][b] == 2 * n * tr, (n, a, b)


def test_subalgebra_unordered_pairs_match_ordered_reference():
    def ordered(sub):
        return all(sub.contains(x.bracket(y)) for x in sub.elements for y in sub.elements)

    rng = random.Random(4)
    for n in (2, 3):
        t = make_sl(n)
        spaces = [cartan(t), borel(t), borel(t, -1)]
        spaces += [parabolic(t, k) for k in range(1, n)]
        spaces += [Subspace(t, rng.sample(t.basis(), rng.randint(1, t.dim))) for _ in range(6)]
        # Negative control: [E(1,2), E(2,1)] = H(1) is missing.
        spaces.append(Subspace(t, [t.basis_element("E(1,2)"), t.basis_element("E(2,1)")]))
        verdicts = [sub.is_subalgebra() for sub in spaces]
        assert verdicts == [ordered(sub) for sub in spaces]
        assert verdicts[-1] is False and verdicts[1] is True


def test_killing_invariance_seeded():
    # K([x, y], z) == K(x, [y, z]) exactly.
    t = make_sl(3)
    rng = random.Random(7)
    for _ in range(10):
        x, y, z = (
            t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            for _ in range(3)
        )
        assert x.bracket(y).killing(z) == x.killing(y.bracket(z))


def test_killing_row_matches_killing_pair():
    # killing_row(x)[b] = K(x, x_b), with absent entries meaning zero.
    rng = random.Random(13)
    for n in (2, 3, 4):
        t = make_sl(n)
        xs = [t.zero()] + [
            t.element({i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(t.dim)})
            for _ in range(5)
        ]
        # A sparse element: one root vector pairs only with its opposite.
        xs.append(t.basis_element("E(1,2)").scale(3))
        for x in xs:
            row = t.killing_row(x.terms)
            assert all(c for c in row.values()), (n, str(x))
            for b, xb in enumerate(t.basis()):
                assert row.get(b, 0) == t.killing_pair(x.terms, xb.terms), (n, str(x), b)
        assert t.killing_row(t.zero().terms) == {}
        assert t.killing_row(xs[-1].terms) == {t.index["E(2,1)"]: F(6 * n)}


def test_coords_of_matrix_round_trip():
    t = make_sl(3)
    for x in t.basis():
        assert t.coords_of_matrix(to_matrix(x)) == x.terms
    mixed = t.element({"E(1,3)": F(2), "E(3,1)": F(-1, 2), "H(2)": 3})
    assert t.coords_of_matrix(to_matrix(mixed)) == mixed.terms
    # Poly entries: u*E(1,3) + (1 - u)*H(2) reads back entry for entry.
    u, one = Poly.var("u"), Poly.const(1)
    m = [[Poly.const(0)] * 3 for _ in range(3)]
    m[0][2], m[1][1], m[2][2] = u, one - u, u - one
    assert t.coords_of_matrix(m) == {t.index["E(1,3)"]: u, t.index["H(2)"]: one - u}
    with pytest.raises(ValueError):
        t.coords_of_matrix([[F(1), F(0), F(0)]] * 3)  # not traceless


def test_bracket_bilinearity_seeded():
    t = make_sl(2)
    rng = random.Random(3)
    for _ in range(10):
        x, y, z = (
            t.element({i: F(rng.randint(-4, 4)) for i in range(t.dim)})
            for _ in range(3)
        )
        assert x.bracket(y) == y.bracket(x).scale(-1)
        assert (x + y).bracket(z) == x.bracket(z) + y.bracket(z)
        c = F(rng.randint(1, 5), rng.randint(1, 5))
        assert x.scale(c).bracket(y) == x.bracket(y).scale(c)


def test_calibrated_casimir_sl2():
    om = calibrate_casimir(make_sl(2))
    assert om.scale == F(4)
    t = make_sl(2)
    e, f, h = t.index["e"], t.index["f"], t.index["h"]
    entries = om.tensor().entries
    assert entries[(e, f)] * 1 == 1
    assert entries[(f, e)] * 1 == 1
    assert entries[(h, h)] * 2 == 1
    assert len(entries) == 3


def test_calibration_needs_sl2():
    with pytest.raises(ValueError):
        calibrate_casimir(make_sl(3))


def test_casimir_is_ad_invariant():
    # [x (x) 1 + 1 (x) x, Omega] = 0 for every basis x, any scale.
    from yangbaxter.tensors import ad2_action

    for n in (2, 3):
        t = make_sl(n)
        om = casimir(t, 2 * n).tensor()
        for x in t.basis():
            assert ad2_action(GPoly.monomial(x), om).is_zero()


def test_dj_constant_rmatrix():
    # gamma3's constant part is the closed form, with the convention the
    # search used to find, and the catalog returns gamma3 already checked.
    t = make_sl(2)
    om = calibrate_casimir(t)
    gamma3 = catalog_entry(t, om, "gamma3")
    u, v = RatFun.var("u"), RatFun.var("v")
    r = gamma3 - om.tensor().scale(v / (v - u))
    assert r == dj_rmatrix(t, om)
    assert DJ_CONVENTION == {"sign": -1, "orientation": "ef"}
    assert ref_dj_rmatrix(t, om, with_convention=True) == (r, DJ_CONVENTION)
    e, f, h = t.index["e"], t.index["f"], t.index["h"]
    assert r.entries[(e, f)] * 1 == -1
    assert r.entries[(h, h)] * 4 == -1
    assert len(r.entries) == 2
    assert (r + swap(r) + om.tensor()).is_zero()
    assert gamma3._residual is not None and gamma3._residual.is_zero()


def test_dj_rmatrix_matches_the_convention_search():
    # The closed form is the tensor that the four-candidate search returned,
    # over sl(2)-sl(6) at the catalog scale 2n and over sl(2)-sl(4) at a
    # negative and two fractional scales too; r + swap(r) = -Omega at each.
    cases = [(n, 2 * n) for n in range(2, 7)]
    cases += [(n, c) for n in (2, 3, 4) for c in (-2, F(1, 3), F(-3, 7))]
    for n, c in cases:
        t = make_sl(n)
        om = casimir(t, c)
        r = dj_rmatrix(t, om)
        assert r == ref_dj_rmatrix(t, om), (n, c)
        assert (r + swap(r) + om.tensor()).is_zero(), (n, c)


def test_cartan_and_borel():
    t = make_sl(3)
    assert cartan(t).dim == 2
    bp = borel(t)
    bm = borel(t, -1)
    assert bp.dim == 5 and bm.dim == 5
    assert bp.is_subalgebra() and bm.is_subalgebra()
    assert bp.contains(t.basis_element("E(1,3)"))
    assert not bp.contains(t.basis_element("E(3,1)"))


def test_parabolic_subalgebras():
    t = make_sl(3)
    p1 = parabolic(t, 1)
    assert p1.dim == 6
    assert p1.contains(t.basis_element("E(3,2)"))
    assert not p1.contains(t.basis_element("E(2,1)"))
    assert not p1.contains(t.basis_element("E(3,1)"))
    p2 = parabolic(t, 2)
    assert p2.dim == 6
    assert p2.contains(t.basis_element("E(2,1)"))
    assert not p2.contains(t.basis_element("E(3,1)"))
    with pytest.raises(ValueError):
        parabolic(t, 3)
    with pytest.raises(ValueError):
        parabolic(t, 0)
    # parabolic() relies on closure by construction; the check is here
    for n in range(2, 7):
        t = make_sl(n)
        for k in range(1, n):
            assert parabolic(t, k).is_subalgebra(), (n, k)


def test_orthogonal_complement_of_parabolic():
    # The Killing-orthogonal complement of P_k is its nilradical.
    t = make_sl(3)
    comp = orthogonal_complement_g(parabolic(t, 1), t)
    expected = Subspace(t, [t.basis_element("E(1,2)"), t.basis_element("E(1,3)")])
    assert comp.dim == 2
    assert comp.equals(expected)
    comp2 = orthogonal_complement_g(parabolic(t, 2), t)
    expected2 = Subspace(t, [t.basis_element("E(1,3)"), t.basis_element("E(2,3)")])
    assert comp2.equals(expected2)


def test_killing_inverse_closed_form_matches_elimination():
    for n in range(2, 7):
        t = make_sl(n)
        k, inv = t.killing, t.killing_inv
        for i in range(t.dim):
            for j in range(t.dim):
                s = sum(k[i][m] * inv[m][j] for m in range(t.dim))
                assert s == (1 if i == j else 0), (n, i, j)
        assert all(type(c) is F for row in t.killing_inv for c in row), n


def test_mismatched_algebras_raise_value_error():
    t2, t3 = make_sl(2), make_sl(3)
    x, y = t2.basis_element("e"), t3.basis_element("E(1,2)")
    p, q = GPoly.monomial(x, 1), GPoly.monomial(y, 2)
    for op in (lambda: x + y, lambda: x - y, lambda: x.bracket(y), lambda: x.killing(y),
               lambda: p + q, lambda: bracket_poly(p, q), lambda: Subspace(t2, [x, y])):
        with pytest.raises(ValueError, match="algebra"):
            op()


def test_cross_algebra_sum_rejected_under_optimisation():
    script = (
        "from yangbaxter.lie import make_sl\n"
        "x, y = make_sl(2).basis_element(0), make_sl(3).basis_element(0)\n"
        "try:\n"
        "    print('accepted', x + y)\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n", proc.stdout


def test_subspace_validation():
    t = make_sl(2)
    e = t.basis_element("e")
    # A dependent spanning set raises the typed error, still a ValueError.
    with pytest.raises(DependentElement, match="^dependent spanning set for Subspace$"):
        Subspace(t, [e, e.scale(2)])
    assert issubclass(DependentElement, ValueError)


def test_make_sl_validation_and_sharing():
    with pytest.raises(ValueError):
        make_sl(1)
    with pytest.raises(ValueError):
        make_sl("2")
    assert make_sl(2) is make_sl(2)
    assert make_sl(3) is make_sl(3)


def test_gpoly_shift_and_bracket():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    p = GPoly.monomial(e, 1)
    q = GPoly.monomial(f, 2)
    assert bracket_poly(p, q) == GPoly.monomial(h, 3)
    assert bracket_poly(p, p).is_zero()
    combo = p + GPoly.monomial(h, 1)
    assert combo.coeff(1) == e + h
    assert combo.degrees() == [1]
    assert (combo - combo).is_zero()


def test_gpoly_bracket_collects_degrees():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    p = GPoly(t, {0: e, 1: f})
    q = GPoly(t, {1: h})
    out = bracket_poly(p, q)
    assert out.coeff(1) == e.scale(-2)
    assert out.coeff(2) == f.scale(2)


def test_basis_indices_are_bounded():
    # An index outside range(dim) raises KeyError, as an unknown label
    # does; a negative index no longer wraps round to the last basis element.
    for n in (2, 3):
        t = make_sl(n)
        for bad in (-1, -2, t.dim):
            with pytest.raises(KeyError):
                t.basis_element(bad)
            with pytest.raises(KeyError):
                t.element({bad: 1})
        with pytest.raises(KeyError):
            t.element({0: 1, t.dim: 0})
        for i in (0, t.dim - 1):
            assert t.basis_element(i) == t.element({i: 1}) == t.element({t.labels[i]: 1})
            assert str(t.basis_element(i)) == t.labels[i]


class _RefGElement:
    """Dense reference element: a coordinate tuple of length dim, every
    operation scanning all of it, as GElement did before it held a sparse map."""

    def __init__(self, table, coords):
        self.table = table
        self.coords = tuple(F(c) for c in coords)

    @staticmethod
    def of(x):
        return _RefGElement(x.table, [x.terms.get(i, 0) for i in range(x.table.dim)])

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return self.table is other.table and self.coords == other.coords

    def __add__(self, other):
        return _RefGElement(self.table, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return _RefGElement(self.table, [a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        return _RefGElement(self.table, [a * F(c) for a in self.coords])

    def bracket(self, other):
        out = [F(0)] * self.table.dim
        for a, xa in enumerate(self.coords):
            for b, yb in enumerate(other.coords):
                for k, c in self.table.structure.get((a, b), ()):
                    out[k] += xa * yb * c
        return _RefGElement(self.table, out)

    def killing(self, other):
        km = self.table.killing
        return sum((xa * yb * km[a][b] for a, xa in enumerate(self.coords)
                    for b, yb in enumerate(other.coords)), F(0))

    def killing_row(self):
        km = self.table.killing
        row = [sum((xa * km[a][b] for a, xa in enumerate(self.coords)), F(0))
               for b in range(self.table.dim)]
        return {b: c for b, c in enumerate(row) if c}

    def ad_on_basis(self, b):
        out = [F(0)] * self.table.dim
        for a, xa in enumerate(self.coords):
            for k, c in self.table.structure.get((a, b), ()):
                out[k] += xa * c
        return {k: c for k, c in enumerate(out) if c}

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            self.table.labels[i] if c == 1 else f"{c}*{self.table.labels[i]}"
            for i, c in enumerate(self.coords) if c
        )


_FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _matrix_bracket(x, y):
    a, b = to_matrix(x), to_matrix(y)
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_sparse_element_matches_dense_reference(n, data):
    t = make_sl(n)
    coeffs = st.dictionaries(st.integers(0, t.dim - 1), _FRACS, max_size=t.dim)
    x, y = t.element(data.draw(coeffs)), t.element(data.draw(coeffs))
    c = data.draw(_FRACS)
    rx, ry = _RefGElement.of(x), _RefGElement.of(y)
    results = {
        "+": (x + y, rx + ry),
        "-": (x - y, rx - ry),
        "neg": (-x, rx.scale(-1)),
        "scale": (x.scale(c), rx.scale(c)),
        "bracket": (x.bracket(y), rx.bracket(ry)),
        "bracket zero": (x.bracket(t.zero()), rx.scale(0)),
        "x - x": (x - x, rx.scale(0)),
    }
    for what, (got, ref) in results.items():
        assert all(type(v) is F and v for v in got.terms.values()), what  # no stored zero
        assert _RefGElement.of(got) == ref, what
        assert str(got) == str(ref), what
        assert got.is_zero() == ref.is_zero(), what
    assert x.killing(y) == rx.killing(ry)
    assert t.killing_row(x.terms) == rx.killing_row()
    for b in range(t.dim):
        assert dict(t.ad_on_basis(x.terms, b)) == rx.ad_on_basis(b), b
    assert (x == y) == (rx == ry)
    # The map is compared and printed independently of insertion order.
    shuffled = GElement(t, dict(reversed(list(x.terms.items()))))
    assert shuffled == x and str(shuffled) == str(rx)
    # An independent oracle: the commutator of the defining matrices.
    assert to_matrix(x.bracket(y)) == _matrix_bracket(x, y)
