"""Polynomial gauge transformations Ad(p(u)) with exact unimodular matrices.

Group elements are n x n matrices of polynomials in u with determinant
identically 1, generated as products of unipotents

    unip(root, d, t) = I + t * u^d * E(i,j)        (E(i,j)^2 = 0),

so the inverse is the adjugate and stays polynomial.  Acting on a two-leg
tensor, leg 1 is conjugated with variable u and leg 2 with variable v; the
Casimir-leading term of quasi-rational solutions is fixed pointwise, so
gauge transforms preserve both the Yang-Baxter property and
quasi-rationality — both are checked, not assumed.  The action is linear,
so it runs on the cleared tensor d*r in the polynomial ring and divides each
output entry by d once.  A failed check raises GaugeError.
"""

from __future__ import annotations

from fractions import Fraction

from .lie import GElement, GPoly
from .ratfun import Poly, RatFun
from .tensors import Tensor2, accumulate, clear_denominators


class GaugeError(ValueError):
    """A gauge check failed: a non-unimodular matrix, or a broken solution."""


def _poly_matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), Poly.const(0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _poly_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Poly.const(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _poly_adjugate(mat):
    n = len(mat)
    if n == 1:
        return [[Poly.const(1)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = _poly_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


class PolyGroupElement:
    """Unimodular polynomial matrix; inverse precomputed as the adjugate."""

    __slots__ = ("table", "mat", "inv")

    def __init__(self, table, mat):
        n = table.n
        assert len(mat) == n and all(len(row) == n for row in mat), mat
        self.table = table
        self.mat = mat
        det = _poly_det(mat)
        if det != Poly.const(1):
            raise GaugeError(f"determinant must be 1, got {det}")
        self.inv = _poly_adjugate(mat)

    @staticmethod
    def identity(table):
        n = table.n
        return PolyGroupElement(
            table,
            [
                [Poly.const(1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ],
        )

    @staticmethod
    def unip(table, root, deg, t):
        """I + t * u^deg * E(i,j): the exponential of a nilpotent root vector."""
        if isinstance(root, str):
            i, j = root[2:-1].split(",")
            root = (int(i), int(j))
        i, j = root
        assert i != j and 1 <= i <= table.n and 1 <= j <= table.n, root
        assert deg >= 0, deg
        n = table.n
        mat = [
            [Poly.const(1 if a == b else 0) for b in range(n)] for a in range(n)
        ]
        mat[i - 1][j - 1] = mat[i - 1][j - 1] + Poly.var("u", deg) * Fraction(t)
        return PolyGroupElement(table, mat)

    def __mul__(self, other):
        assert isinstance(other, PolyGroupElement) and other.table is self.table
        return PolyGroupElement(self.table, _poly_matmul(self.mat, other.mat))

    def __repr__(self):
        return f"PolyGroupElement({self.mat})"


def _collect_degrees(mat):
    """Split a Poly matrix into {degree: Fraction matrix}."""
    n = len(mat)
    out = {}
    for i in range(n):
        for j in range(n):
            for d, coeff_poly in mat[i][j].as_univariate("u").items():
                assert coeff_poly.is_const(), coeff_poly
                c = coeff_poly.const_value()
                if c:
                    out.setdefault(d, [[Fraction(0)] * n for _ in range(n)])[i][
                        j
                    ] = c
    return out


def ad_element(p, x):
    """p(u) * x * p(u)^-1 re-expressed over the basis; GPoly in u.

    Accepts a constant element or a g-valued (Laurent) polynomial; the
    result is again g-valued with exact coefficients (tracelessness is
    preserved degree by degree).
    """
    assert isinstance(p, PolyGroupElement), p
    if isinstance(x, GElement):
        x = GPoly.monomial(x, 0)
    table = x.table
    assert table is p.table, "mismatched algebras"
    n = table.n
    out = {}
    for d, xe in x.terms.items():
        xmat = [[Poly.const(c) for c in row] for row in xe.to_matrix()]
        conj = _poly_matmul(_poly_matmul(p.mat, xmat), p.inv)
        for dd, m in _collect_degrees(conj).items():
            tgt = d + dd
            cur = out.get(tgt)
            el = GElement(table, table.coords_of_matrix(m))
            out[tgt] = el if cur is None else cur + el
    return GPoly(table, out)


def _ad_coordinate_matrix(p):
    """M[c][a]: Poly coefficient of basis c in p(u) x_a p(u)^-1."""
    table = p.table
    dim = table.dim
    cols = []
    for a in range(dim):
        img = ad_element(p, table.basis_element(a))
        col = {}
        for d, el in img.terms.items():
            for c, coeff in el.terms.items():
                col.setdefault(c, {})[d] = coeff
        cols.append(
            {
                c: Poly.from_univariate("u", {d: Poly.const(v) for d, v in ds.items()})
                for c, ds in col.items()
            }
        )
    return cols


def gauge_transform(p, r, check=True):
    """Ad(p(u) (x) p(v)) applied to a two-leg tensor.

    Transforms P = d*r from clear_denominators with Poly products and
    divides each output entry by d once.  With check=True (default) and r a
    Yang-Baxter solution, GaugeError is raised unless the result is one too
    — the exact forward consistency statement.
    """
    assert isinstance(r, Tensor2), r
    table = r.table
    assert table is p.table, "mismatched algebras"
    cols = _ad_coordinate_matrix(p)
    to_v = {"u": "v"}
    cols_v = [{c: pu.rename(to_v) for c, pu in col.items()} for col in cols]
    d, cleared = clear_denominators(r)
    out = {}
    for (a, b), f in cleared.entries.items():
        for c, pu in cols[a].items():
            left = pu * f
            for dd, pv in cols_v[b].items():
                accumulate(out, (c, dd), left * pv)
    result = Tensor2(table, {key: RatFun.of(f, d) for key, f in out.items()})
    if check:
        from . import cybe

        if cybe.cyb(r).is_zero() and not cybe.cyb(result).is_zero():
            raise GaugeError("gauge broke the Yang-Baxter property")
    return result


def random_unipotent(table, rng, max_factors=2, total_degree=2, height=3):
    """Seeded product of unipotents with bounded degree and integer height."""
    roots = list(table.root_pairs)
    k = rng.randint(1, max_factors)
    out = PolyGroupElement.identity(table)
    budget = total_degree
    for _ in range(k):
        root = roots[rng.randrange(len(roots))]
        deg = rng.randint(0, budget)
        budget -= deg
        t = 0
        while t == 0:
            t = rng.randint(-height, height)
        out = out * PolyGroupElement.unip(table, root, deg, t)
    return out
