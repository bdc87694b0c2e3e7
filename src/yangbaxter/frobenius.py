"""Quasi-Frobenius data (L, B) and the constant skew r-matrices they induce.

A pair is a bracket-closed subspace L of sl(n) with a skew bilinear form B
satisfying the 2-cocycle identity

    B([x,y], z) + B([y,z], x) + B([z,x], y) = 0.

When B is nondegenerate the inverse matrix yields a constant skew solution
of the classical Yang-Baxter equation,

    r = sum_ij (B^-1)^T_ij  x_i (x) x_j ,

whose orientation (transpose versus plain inverse — both are Yang-Baxter
solutions, differing by sign) is pinned so that (span{e,h}, B(e,h)=1)
produces exactly e(x)h - h(x)e, the constant part of the built-in q1.
Adding the quasi-rational leading term u*v*Omega/(v-u) lifts r to a
quasi-rational solution.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .lie import Subspace, parabolic
from .tensors import Tensor2


class InvalidCocycle(ValueError):
    """The form is not skew, the subspace is not closed, or the identity fails."""


class LiftError(ValueError):
    """A constructed r-matrix or lift fails the check it must pass."""


def _skew_failure(matrix):
    """First (i, j), i <= j, with matrix[i][j] != -matrix[j][i], or None."""
    n = len(matrix)
    return next(
        ((i, j) for i in range(n) for j in range(i, n) if matrix[i][j] != -matrix[j][i]),
        None,
    )


def cocycle_residual(sub, matrix):
    """First failing triple of the 2-cocycle identity, or None if it holds.

    Requires every bracket of basis elements to lie back in the span; a
    bracket escaping the span is reported as the failure.  Raises
    InvalidCocycle unless the matrix is skew.

    For a skew B the cyclic sum c(i, j, k) = B([x_i,x_j],x_k) +
    B([x_j,x_k],x_i) + B([x_k,x_i],x_j) is alternating: it is cyclic by
    construction, and swapping two indices negates it because the bracket
    and B are both skew.  So c vanishes when two indices agree and is
    +-c(sorted triple) otherwise, and the first failing ordered triple in
    lex order is sorted.  Only the brackets [x_i, x_j] with i < j are
    solved, only the triples i < j < k are summed, and with
    beta[i, j][k] = B([x_i, x_j], x_k) the sum is
    beta[i, j][k] + beta[j, k][i] - beta[i, k][j].  Likewise [x_j, x_i]
    leaves the span exactly when [x_i, x_j] does, so the witnesses are
    those of the all-triples loop.
    """
    bad = _skew_failure(matrix)
    if bad is not None:
        raise InvalidCocycle(f"form is not skew at {bad}")
    basis = sub.elements
    n = len(basis)
    coords = linalg.coordinates(sub.rows, sub.table.dim)
    rows = [{k: x for k, x in enumerate(row) if x} for row in matrix]
    beta = {}
    for i in range(n):
        for j in range(i + 1, n):
            cw = coords(basis[i].bracket(basis[j]).terms)
            if cw is None:
                return (i, j, None, "bracket leaves the span")
            beta[i, j] = b = {}  # sparse: k -> B([x_i, x_j], x_k), zeros left out
            for a, c in cw.items():
                for k, x in rows[a].items():
                    b[k] = b.get(k, 0) + c * x
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = beta[i, j].get(k, 0) + beta[j, k].get(i, 0) - beta[i, k].get(j, 0)
                if total != 0:
                    return (i, j, k, total)
    return None


class TwoCocycle:
    """Skew matrix of B(x_i, x_j) over a subalgebra basis; identity checked.

    Raises InvalidCocycle when the pair is not a 2-cocycle on a subalgebra.
    """

    def __init__(self, sub, matrix):
        if not isinstance(sub, Subspace):
            raise ValueError(f"a 2-cocycle needs a Subspace, not {type(sub).__name__}")
        n = sub.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"a 2-cocycle on a {n}-dim subspace needs a {n}x{n} matrix")
        self.sub = sub
        self.matrix = [[Fraction(c) for c in row] for row in matrix]
        # The one check: it raises on a non-skew form first, and returns an
        # escaping bracket (k is None) before it sums any triple.
        bad = cocycle_residual(sub, self.matrix)
        if bad is not None:
            raise InvalidCocycle("the subspace is not bracket-closed" if bad[2] is None
                                 else f"2-cocycle identity fails: {bad}")

    @staticmethod
    def from_pairs(sub, pairs):
        """Build the skew matrix from {(i, j): B(x_i, x_j)} with i < j."""
        n = sub.dim
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in pairs.items():
            matrix[i][j] = Fraction(c)
            matrix[j][i] = -Fraction(c)
        return TwoCocycle(sub, matrix)

    @staticmethod
    def coboundary(sub, functional):
        """B(x, y) = phi([x, y]) for a linear functional given on g-coords."""
        basis = sub.elements
        n = len(basis)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                w = basis[i].bracket(basis[j])
                matrix[i][j] = functional(w)
        return TwoCocycle(sub, matrix)


def skew_r_from_frobenius(cocycle):
    """The constant skew Yang-Baxter solution of a nondegenerate pair.

    r = sum_ij (B^-1)^T_ij x_i (x) x_j over the subalgebra basis; raises
    ValueError on a singular form, and LiftError if the result is not skew
    or fails Yang-Baxter.
    """
    from . import cybe
    from .tensors import is_skew

    basis = cocycle.sub.rows
    table = cocycle.sub.table
    if not basis:
        return Tensor2.zero(table)
    n = len(basis)
    coords = linalg.coordinates(
        [{k: x for k, x in enumerate(row) if x} for row in cocycle.matrix], n
    )
    inv = [coords({j: 1}) for j in range(n)]  # inv[j] is row j of B^-1
    if None in inv:
        raise ValueError("the form is degenerate on the subalgebra; no r-matrix")
    entries = {}
    for i in range(n):
        for j in range(n):
            m = inv[j].get(i)  # transpose orientation, pinned by the q1 lift
            if not m:
                continue
            for a, ca in basis[i].items():
                for b, cb in basis[j].items():
                    key = (a, b)
                    entries[key] = entries.get(key, Fraction(0)) + m * ca * cb
    r = Tensor2.make(table, entries)
    if not is_skew(r):
        raise LiftError("constructed r-matrix is not skew")
    if not cybe.cyb(r).is_zero():
        raise LiftError("constructed r-matrix fails Yang-Baxter")
    return r


def quasi_rational_lift(cocycle, omega):
    """u*v*Omega/(v-u) + skew_r_from_frobenius, checked quasi-rational.

    Raises LiftError when the lift is not quasi-rational, so a returned
    lift needs no second check.
    """
    from . import cybe

    r = skew_r_from_frobenius(cocycle)
    lifted = omega.leading + r
    if not cybe.is_quasi_rational(lifted, omega):
        raise LiftError("lift fails quasi-rationality")
    return lifted


def check_parabolic_pair(table, sub, matrix, k):
    """Report on the transversal-pair conditions against parabolic(k).

    Checks: sub is a subalgebra; sub + parabolic(k) = sl(n); the matrix is
    a skew 2-cocycle on sub; and the form restricted to sub ∩ parabolic(k)
    is nondegenerate.  Returns the booleans without raising.
    """
    skew = _skew_failure(matrix) is None
    bad = cocycle_residual(sub, matrix) if skew else None
    # cocycle_residual brackets every basis pair before it sums a triple, so
    # an escaping bracket is the one failure with k None
    closed = (bad is None or bad[2] is not None) if skew else sub.is_subalgebra()
    cocycle = skew and bad is None
    par = parabolic(table, k)
    inter = linalg.intersect_spans(sub.rows, par.rows)
    # Both bases are independent, so dim(sub + par) = dims minus the overlap.
    spans = sub.dim + par.dim - len(inter) == table.dim
    # Every intersection vector lies in sub, so every coordinate exists.
    coords = linalg.coordinates(sub.rows, table.dim)
    cc = [coords(v) for v in inter]
    # nondegenerate <=> the Gram rows have full rank
    gram = []
    for cx in cc:
        row = {}
        for col, cy in enumerate(cc):
            g = sum(a * b * matrix[i][j] for i, a in cx.items() for j, b in cy.items())
            if g:
                row[col] = g
        gram.append(row)
    return {
        "subalgebra": closed,
        "spans_with_parabolic": spans,
        "cocycle": cocycle,
        "nondegenerate_on_intersection": linalg.echelon_of(gram).rank == len(cc),
        "intersection_dim": len(inter),
    }
