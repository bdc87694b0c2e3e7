"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping a column key (int, or any ordered hashable)
to a nonzero int or Fraction.  The Echelon class maintains a reduced row
echelon form incrementally, touching only nonzero entries, which makes
rank, membership, span equality and nullspace structural and exact.
Integral entries stay ints: a pivot of 1 or -1 divides nothing.
"""

from __future__ import annotations

from fractions import Fraction


class Echelon:
    """Reduced row echelon form, built incrementally and sparsely.

    rows[p] is the unique stored row with pivot column p; each stored row
    has coefficient 1 at its pivot and zeros at every other pivot column,
    so `rows` is the RREF of the span whatever the insertion order.
    cols[k] is the set of pivots whose rows hold the non-pivot column k:
    a new pivot is back-substituted only into the rows that hold it.
    Both are updated in place, and no step reads a zero entry.
    """

    def __init__(self):
        self.rows = {}
        self.cols = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Return v reduced modulo the current row space.

        Only the pivots that are keys of v are eliminated, in one pass:
        every stored row is zero at the other rows' pivot columns, so
        eliminating pivot p cannot bring back a pivot q.
        """
        v = dict(v)
        rows = self.rows
        for p in [k for k in v if k in rows]:
            c = v[p]
            for k, x in rows[p].items():
                y = v.get(k)
                if y is None:
                    v[k] = -c * x
                else:
                    y -= c * x
                    if y:
                        v[k] = y
                    else:
                        del v[k]
        return v

    def add(self, v):
        """Insert v into the span; True if the rank grew."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        piv = v.pop(p)
        if piv == 1:
            row = v
        elif piv == -1:
            row = {k: -x for k, x in v.items()}
        else:
            inv = Fraction(1) / piv
            row = {k: x * inv for k, x in v.items()}
        rows, cols = self.rows, self.cols
        for k in row:
            cols.setdefault(k, set()).add(p)
        for q in cols.pop(p, ()):
            other = rows[q]
            c = other.pop(p)
            for k, x in row.items():
                y = other.get(k)
                if y is None:
                    other[k] = -c * x
                    cols[k].add(q)
                else:
                    y -= c * x
                    if y:
                        other[k] = y
                    else:
                        del other[k]
                        cols[k].discard(q)
        row[p] = 1
        rows[p] = row
        return True

    def contains(self, v):
        return not self.reduce(v)


def echelon_of(vectors):
    e = Echelon()
    for v in vectors:
        e.add(v)
    return e


class DependentElement(ValueError):
    """A row of a Span lies in the span of the rows before it; the message
    is the Span's `_dependent(row)`."""


class Span:
    """The span of independent sparse rows over `table`, with their RREF; a
    subclass names a dependent row in `_dependent(row)`.  `rows` is shared
    and never mutated, as the echelon would not follow."""

    def __init__(self, table, rows):
        self.table = table
        self.rows = tuple(rows)
        self._ech = Echelon()
        for row in self.rows:
            if not self._ech.add(row):
                raise DependentElement(self._dependent(row))

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, row):
        return self._ech.contains(row)

    def reduce(self, row):
        """The row modulo the span: a linear projection whose kernel is the span."""
        return self._ech.reduce(row)

    def equals(self, other):
        return self._ech.rows == other._ech.rows

    def closed_under(self, bracket):
        """Each bracket(x, y) of two rows lies in the span, or is None if
        undecidable; one pair each, as [y, x] = -[x, y] and [x, x] = 0."""
        rows = self.rows
        for i, x in enumerate(rows):
            for y in rows[i + 1:]:
                if (z := bracket(x, y)) is not None and not self._ech.contains(z):
                    return False
        return True


def nullspace(rows, cols):
    """Basis of {x : for every row r, sum_k r[k]*x[k] = 0}.

    `rows` are sparse vectors over the columns `cols` (an ordered list);
    the result is a list of sparse vectors over the same columns.
    """
    ech = echelon_of(rows)
    out = []
    for f in (c for c in cols if c not in ech.rows):
        x = {f: 1}
        for p in sorted(ech.cols.get(f, ())):
            x[p] = -ech.rows[p][f]
        out.append(x)
    return out


def coordinates(vectors, width):
    """Coordinates over a list of vectors, from one tagged elimination.

    `vectors` and each later `x` are sparse over int keys in range(width).
    Returns coords(x): one {j: c_j} without zeros with
    sum_j c_j * vectors[j] = x, or None if x is outside the span; for
    independent vectors it is the only one.  Vector j is tagged with the
    column width + j and the int 1.  Reducing x by the RREF of the tagged
    rows leaves no column below width exactly when x is in the span, and
    then the tag columns hold minus the coordinates.
    """
    ech = echelon_of({**v, width + j: 1} for j, v in enumerate(vectors))

    def coords(x):
        v = ech.reduce(x)
        if any(k < width for k in v):
            return None
        return {k - width: -c for k, c in v.items()}

    return coords


def intersect_spans(vectors_a, vectors_b):
    """Basis of span(A) ∩ span(B) (Zassenhaus block reduction)."""
    rows = [{(i, k): x for i in (0, 1) for k, x in a.items()} for a in vectors_a]
    rows += [{(0, k): x for k, x in b.items()} for b in vectors_b]
    ech = echelon_of(rows)
    out = []
    for p in sorted(ech.rows):
        if p[0] == 1:
            row = ech.rows[p]
            if any(k[0] != 1 for k in row):
                raise ArithmeticError(f"Zassenhaus row {p} leaves the second block")
            out.append({k[1]: x for k, x in row.items()})
    return out
