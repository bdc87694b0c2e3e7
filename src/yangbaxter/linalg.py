"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping a column key (int, or any ordered hashable)
to a nonzero Fraction.  The Echelon class maintains a reduced row
echelon form incrementally, which makes rank, membership, span equality
and nullspace computations structural and exact.
"""

from __future__ import annotations

from fractions import Fraction


def vec_scale(v, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: x * c for k, x in v.items()}


def vec_add(a, b):
    out = dict(a)
    for k, x in b.items():
        y = out.get(k, Fraction(0)) + x
        if y == 0:
            out.pop(k, None)
        else:
            out[k] = y
    return out


def vec_sub(a, b):
    return vec_add(a, vec_scale(b, -1))


class Echelon:
    """Reduced row echelon form, built incrementally.

    rows[p] is the unique stored row with pivot column p; each stored row
    has coefficient 1 at its pivot and zeros at every other pivot column.
    """

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Return v reduced modulo the current row space.

        One pass suffices: every stored row is zero at the other rows'
        pivot columns, so eliminating pivot p cannot reintroduce pivot q.
        """
        v = dict(v)
        for p, row in self.rows.items():
            c = v.get(p)
            if c:
                for k, x in row.items():
                    y = v.get(k, Fraction(0)) - c * x
                    if y == 0:
                        v.pop(k, None)
                    else:
                        v[k] = y
        return v

    def add(self, v):
        """Insert v into the span; True if the rank grew."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        inv = 1 / v[p]
        row = {k: x * inv for k, x in v.items()}
        for q, other in self.rows.items():
            c = other.get(p)
            if c:
                self.rows[q] = vec_sub(other, vec_scale(row, c))
        self.rows[p] = row
        return True

    def contains(self, v):
        return not self.reduce(v)

    def pivots(self):
        return sorted(self.rows)


def echelon_of(vectors):
    e = Echelon()
    for v in vectors:
        e.add(v)
    return e


def rank(vectors):
    return echelon_of(vectors).rank


def span_equal(vectors_a, vectors_b):
    ea = echelon_of(vectors_a)
    eb = echelon_of(vectors_b)
    return ea.rows == eb.rows


def span_contains_all(vectors_a, vectors_b):
    """True iff span(A) contains every vector of B."""
    ea = echelon_of(vectors_a)
    return all(ea.contains(v) for v in vectors_b)


def nullspace(rows, cols):
    """Basis of {x : for every row r, sum_k r[k]*x[k] = 0}.

    `rows` are sparse vectors over the columns `cols` (an ordered list);
    the result is a list of sparse vectors over the same columns.
    """
    ech = echelon_of(rows)
    pivot_cols = set(ech.pivots())
    free = [c for c in cols if c not in pivot_cols]
    out = []
    for f in free:
        x = {f: Fraction(1)}
        for p, row in ech.rows.items():
            c = row.get(f)
            if c:
                x[p] = -c
        out.append(x)
    return out


def solve(rows, rhs):
    """One solution x of the sparse linear system rows @ x = rhs, or None.

    Each equation i is sum_k rows[i][k]*x[k] = rhs[i].  Free variables
    are set to zero.  Column keys must not be the string '#rhs'.
    """
    augmented = []
    for r, b in zip(rows, rhs):
        v = dict(r)
        if b:
            v[_RHS] = Fraction(b)
        augmented.append(v)
    ech = echelon_of(augmented)
    if _RHS in ech.rows:
        return None
    x = {}
    for p, row in ech.rows.items():
        b = row.get(_RHS)
        if b:
            x[p] = b
    return x


class _Rhs:
    """Sentinel column that sorts after every other key."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True

    def __repr__(self):
        return "#rhs"


_RHS = _Rhs()


def intersect_spans(vectors_a, vectors_b):
    """Basis of span(A) ∩ span(B) (Zassenhaus block reduction)."""
    rows = []
    for a in vectors_a:
        v = {(0, k): x for k, x in a.items()}
        v.update({(1, k): x for k, x in a.items()})
        rows.append(v)
    for b in vectors_b:
        rows.append({(0, k): x for k, x in b.items()})
    ech = echelon_of(rows)
    out = []
    for p in sorted(ech.rows):
        if p[0] == 1:
            row = ech.rows[p]
            assert all(k[0] == 1 for k in row), row
            out.append({k[1]: x for k, x in row.items()})
    return out


def inverse_dense(mat):
    """Inverse of a small dense square matrix (list of Fraction lists)."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def det_dense(mat):
    """Determinant of a small dense square matrix of Fractions."""
    n = len(mat)
    m = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                c = m[r][col] * inv
                m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return det
