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


def coords_in_basis(basis, x):
    """Coefficients of x over a list of independent GElements, or None."""
    if not basis:
        return [] if x.is_zero() else None
    dim = basis[0].table.dim
    rows = []
    rhs = []
    for i in range(dim):
        row = {j: y.coords[i] for j, y in enumerate(basis) if y.coords[i]}
        rows.append(row)
        rhs.append(x.coords[i])
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    return [sol.get(j, Fraction(0)) for j in range(len(basis))]


def cocycle_residual(sub, matrix):
    """First failing triple of the 2-cocycle identity, or None if it holds.

    Requires every bracket of basis elements to lie back in the span; a
    bracket escaping the span is reported as the failure.
    """
    basis = sub.elements

    def b_form(coeffs, j):
        return sum(
            (c * matrix[i][j] for i, c in enumerate(coeffs) if c), Fraction(0)
        )

    n = len(basis)
    bracket_coords = {}
    for i in range(n):
        for j in range(n):
            w = basis[i].bracket(basis[j])
            cw = coords_in_basis(basis, w)
            if cw is None:
                return (i, j, None, "bracket leaves the span")
            bracket_coords[(i, j)] = cw
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = (
                    b_form(bracket_coords[(i, j)], k)
                    + b_form(bracket_coords[(j, k)], i)
                    + b_form(bracket_coords[(k, i)], j)
                )
                if total != 0:
                    return (i, j, k, total)
    return None


class InvalidCocycle(ValueError):
    """The form is not skew, the subspace is not closed, or the identity fails."""


class LiftError(ValueError):
    """A constructed r-matrix or lift fails the check it must pass."""


class TwoCocycle:
    """Skew matrix of B(x_i, x_j) over a subalgebra basis; identity checked.

    Raises InvalidCocycle when the pair is not a 2-cocycle on a subalgebra.
    """

    def __init__(self, sub, matrix):
        assert isinstance(sub, Subspace), sub
        n = sub.dim
        assert len(matrix) == n and all(len(row) == n for row in matrix), matrix
        self.sub = sub
        self.matrix = [[Fraction(c) for c in row] for row in matrix]
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise InvalidCocycle(f"form is not skew at ({i}, {j})")
        if not sub.is_subalgebra():
            raise InvalidCocycle("the subspace is not bracket-closed")
        bad = cocycle_residual(sub, self.matrix)
        if bad is not None:
            raise InvalidCocycle(f"2-cocycle identity fails: {bad}")

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

    basis = cocycle.sub.elements
    table = cocycle.sub.table
    if not basis:
        return Tensor2.zero(table)
    try:
        inv = linalg.inverse_dense(cocycle.matrix)
    except ValueError:
        raise ValueError(
            "the form is degenerate on the subalgebra; no r-matrix"
        ) from None
    entries = {}
    n = len(basis)
    for i in range(n):
        for j in range(n):
            m = inv[j][i]  # transpose orientation, pinned by the q1 lift
            if not m:
                continue
            for a, ca in enumerate(basis[i].coords):
                if not ca:
                    continue
                for b, cb in enumerate(basis[j].coords):
                    if not cb:
                        continue
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
    lifted = cybe.leading_term(omega) + r
    if not cybe.is_quasi_rational(lifted, omega):
        raise LiftError("lift fails quasi-rationality")
    return lifted


def check_parabolic_pair(table, sub, matrix, k):
    """Report on the transversal-pair conditions against parabolic(k).

    Checks: sub is a subalgebra; sub + parabolic(k) = sl(n); the matrix is
    a skew 2-cocycle on sub; and the form restricted to sub ∩ parabolic(k)
    is nondegenerate.  Returns the booleans without raising.
    """
    n = sub.dim
    skew = all(
        matrix[i][j] == -matrix[j][i] for i in range(n) for j in range(n)
    )
    closed = sub.is_subalgebra()
    cocycle = skew and closed and cocycle_residual(sub, matrix) is None
    par = parabolic(table, k)
    ech = linalg.Echelon()
    for x in sub.elements:
        ech.add(x.as_vector())
    for x in par.elements:
        ech.add(x.as_vector())
    spans = ech.rank == table.dim
    inter = linalg.intersect_spans(
        [x.as_vector() for x in sub.elements],
        [x.as_vector() for x in par.elements],
    )
    inter_basis = []
    from .lie import GElement

    for vec in inter:
        coords = [Fraction(0)] * table.dim
        for i, c in vec.items():
            coords[i] = c
        inter_basis.append(GElement(table, tuple(coords)))
    nondeg = True
    if inter_basis:
        gram = []
        cc = [coords_in_basis(sub.elements, x) for x in inter_basis]
        if any(c is None for c in cc):
            nondeg = False
        else:
            for cx in cc:
                gram.append(
                    [
                        sum(
                            (
                                cx[i] * cy[j] * matrix[i][j]
                                for i in range(n)
                                for j in range(n)
                                if cx[i] and cy[j]
                            ),
                            Fraction(0),
                        )
                        for cy in cc
                    ]
                )
            nondeg = linalg.det_dense(gram) != 0
    return {
        "subalgebra": closed,
        "spans_with_parabolic": spans,
        "cocycle": cocycle,
        "nondegenerate_on_intersection": nondeg,
        "intersection_dim": len(inter_basis),
    }
