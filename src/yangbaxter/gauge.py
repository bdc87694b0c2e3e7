"""Polynomial gauge transformations Ad(p(u)) with exact unimodular matrices.

Group elements are n x n matrices of polynomials in u, built only as
products of unipotents

    unip(root, d, t) = I + t * u^d * E(i,j)        (i != j, E(i,j)^2 = 0).

Each factor is unitriangular, so every product has determinant 1 by
construction, and each factor's inverse is unip(root, d, -t).  An element
therefore carries its inverse from the start: the inverse of a product is
the reversed product of the inverse factors, and it stays polynomial.
Acting on a two-leg tensor, leg 1 is conjugated with variable u and leg 2
with variable v; the Casimir-leading term of quasi-rational solutions is
fixed pointwise, so gauge transforms preserve both the Yang-Baxter property
and quasi-rationality — both are checked, not assumed.  The action is
linear, so it runs on the cleared tensor d*r in the polynomial ring and
divides each output entry by d once.  A failed check raises GaugeError.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfun import Poly, RatFun, _addmul, _polys
from .tensors import Tensor2, clear_denominators


class GaugeError(ValueError):
    """A gauge check failed: the transform broke a Yang-Baxter solution."""


def _poly_matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), Poly.const(0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _unit_matrix(n):
    return [[Poly.const(1 if a == b else 0) for b in range(n)] for a in range(n)]


def _unip_matrix(n, i, j, deg, t):
    mat = _unit_matrix(n)
    mat[i - 1][j - 1] = Poly.var("u", deg) * t
    return mat


class PolyGroupElement:
    """Polynomial matrix `mat` of determinant 1 with its polynomial inverse
    `inv`; build it with identity, unip and *."""

    __slots__ = ("table", "mat", "inv")

    def __init__(self, table, mat, inv):
        # raw constructor: mat * inv = I is the caller's to keep
        self.table = table
        self.mat = mat
        self.inv = inv

    @staticmethod
    def identity(table):
        return PolyGroupElement(table, _unit_matrix(table.n), _unit_matrix(table.n))

    @staticmethod
    def unip(table, root, deg, t):
        """I + t * u^deg * E(i,j): the exponential of a nilpotent root vector."""
        if isinstance(root, str):
            i, j = root[2:-1].split(",")
            root = (int(i), int(j))
        i, j = root
        n = table.n
        if not (i != j and 1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"unip needs a root position E(i,j) of sl({n}), got {root}")
        if deg < 0:
            raise ValueError(f"unip degree must be >= 0, got {deg}")
        t = Fraction(t)
        return PolyGroupElement(
            table, _unip_matrix(n, i, j, deg, t), _unip_matrix(n, i, j, deg, -t)
        )

    def __mul__(self, other):
        if not (isinstance(other, PolyGroupElement) and other.table is self.table):
            raise ValueError("gauge product needs two elements of the same algebra")
        return PolyGroupElement(
            self.table,
            _poly_matmul(self.mat, other.mat),
            _poly_matmul(other.inv, self.inv),
        )

    def __repr__(self):
        return f"PolyGroupElement({self.mat})"


def _ad_coordinate_matrix(p):
    """M[a] = {c: Poly coefficient of basis c in p(u) x_a p(u)^-1}.

    The defining matrix of x_a has at most two nonzero entries m[k][l], so
    the conjugate is the sum of m[k][l] * (column k of p)(row l of p^-1).
    """
    table = p.table
    n = table.n
    mat, inv = p.mat, p.inv
    cols = []
    for m in table.mats:
        units = [(k, l, c) for k, row in enumerate(m) for l, c in enumerate(row) if c]
        conj = [
            [
                sum((mat[i][k] * inv[l][j] * c for k, l, c in units), Poly.const(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        cols.append(table.coords_of_matrix(conj))
    return cols


def gauge_transform(p, r, check=True):
    """Ad(p(u) (x) p(v)) applied to a two-leg tensor.

    Transforms P = d*r from clear_denominators with Poly products and
    divides each output entry by d once.  With check=True (default) and r a
    Yang-Baxter solution, GaugeError is raised unless the result is one too
    — the exact forward consistency statement.
    """
    if not isinstance(r, Tensor2):
        raise ValueError(f"gauge_transform needs a Tensor2, got {type(r).__name__}")
    table = r.table
    if table is not p.table:
        raise ValueError(
            f"gauge element of sl({p.table.n}) applied to a tensor over sl({table.n})"
        )
    cols = _ad_coordinate_matrix(p)
    to_v = {"u": "v"}
    cols_v = [{c: pu.rename(to_v) for c, pu in col.items()} for col in cols]
    d, cleared = clear_denominators(r)
    sums = {}
    for (a, b), f in cleared.entries.items():
        for c, pu in cols[a].items():
            left = (pu * f).terms.items()
            for dd, pv in cols_v[b].items():
                _addmul(sums.setdefault((c, dd), {}), left, pv.terms.items())
    result = Tensor2(table, {key: RatFun.of(f, d) for key, f in _polys(sums).items()})
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
