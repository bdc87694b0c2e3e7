import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from yangbaxter import linalg
from yangbaxter.linalg import (
    Echelon,
    coordinates,
    echelon_of,
    intersect_spans,
    nullspace,
)


def F(x):
    return Fraction(x)


def det_dense(mat):
    """Determinant of a small dense square matrix, by Gaussian elimination."""
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
        for r in range(col + 1, n):
            if m[r][col] != 0:
                c = m[r][col] / m[col][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return det


def _sparse(row):
    return {k: x for k, x in enumerate(row) if x}


def _combine(vectors, coeffs):
    """sum_j coeffs[j] * vectors[j], zeros left out: the multiply-back check."""
    out = {}
    for j, c in coeffs.items():
        out = _vec_add(out, vectors[j], c)
    return out


def rank(vectors):
    return echelon_of(vectors).rank


def span_equal(vectors_a, vectors_b):
    return echelon_of(vectors_a).rows == echelon_of(vectors_b).rows


def span_contains_all(vectors_a, vectors_b):
    """True iff span(A) contains every vector of B."""
    ea = echelon_of(vectors_a)
    return all(ea.contains(v) for v in vectors_b)


def test_echelon_rank_and_contains():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: F(1), 2: F(1)}]
    ech = echelon_of(rows)
    assert ech.rank == 2
    assert ech.contains({0: F(3), 1: F(6)})
    assert not ech.contains({2: F(1)})
    assert rank(rows) == 2


def test_span_equal_and_contains_all():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    assert span_equal(a, b)
    assert span_contains_all(a, [{0: F(5), 1: F(7)}])
    assert not span_contains_all(b, [{2: F(1)}])


def test_nullspace_known():
    # x + y + z = 0, x - z = 0  ->  kernel spanned by (1, -2, 1)
    rows = [{0: F(1), 1: F(1), 2: F(1)}, {0: F(1), 2: F(-1)}]
    basis = nullspace(rows, list(range(3)))
    assert len(basis) == 1
    v = basis[0]
    t = v.get(0, F(0))
    assert v.get(1, F(0)) == -2 * t and v.get(2, F(0)) == t and t != 0


def test_nullspace_annihilates_seeded():
    rng = random.Random(3)
    for _ in range(15):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            {j: c for j in range(m) if rng.random() < 0.7
             and (c := F(rng.randint(-3, 3))) != 0}
            for _ in range(n)
        ]
        rows = [r for r in rows if r]
        for v in nullspace(rows, list(range(m))):
            for r in rows:
                s = sum((r.get(j, F(0)) * c for j, c in v.items()), F(0))
                assert s == 0
        assert len(nullspace(rows, list(range(m)))) == m - rank(rows)


def test_solve_consistent_and_inconsistent():
    # (3, 1) = 2*(1, 1) + 1*(1, -1)
    vectors = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    coords = coordinates(vectors, 2)
    assert coords({0: F(3), 1: F(1)}) == {0: 2, 1: 1}
    assert coords({}) == {}
    # (1, 3) is outside span{(1, 2)}; (2, 4) is inside
    coords = coordinates([{0: F(1), 1: F(2)}], 2)
    assert coords({0: F(1), 1: F(3)}) is None
    assert coords({0: F(2), 1: F(4)}) == {0: 2}
    # no vectors: only zero has coordinates
    assert coordinates([], 2)({}) == {}
    assert coordinates([], 2)({1: F(1)}) is None


def test_solve_seeded_satisfies():
    """Coordinates multiply back, dependent sets included; None off the span."""
    rng = random.Random(9)
    for _ in range(20):
        n, width = rng.randint(1, 4), rng.randint(1, 4)
        vectors = [
            {k: c for k in range(width) if rng.random() < 0.8
             and (c := F(rng.randint(-2, 2))) != 0}
            for _ in range(n)
        ]
        vectors.append(_vec_add(vectors[0], vectors[-1], rng.randint(-2, 2)))
        coords = coordinates(vectors, width)
        target = {j: c for j in range(len(vectors)) if (c := F(rng.randint(-2, 2)))}
        x = _combine(vectors, target)
        sol = coords(x)
        assert sol is not None and _combine(vectors, sol) == x
        probe = {k: c for k in range(width) if (c := F(rng.randint(-2, 2)))}
        sol = coords(probe)
        assert (sol is None) == (not echelon_of(vectors).contains(probe))
        assert sol is None or _combine(vectors, sol) == probe


def test_intersect_spans():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{1: F(1)}, {2: F(1)}]
    inter = intersect_spans(a, b)
    assert len(inter) == 1
    assert span_equal(inter, [{1: F(1)}])
    # dim(A int B) = dim A + dim B - dim(A + B), seeded
    rng = random.Random(21)
    for _ in range(10):
        dim = 5
        mk = lambda: {j: c for j in range(dim)
                      if (c := F(rng.randint(-2, 2))) != 0}
        va = [mk() for _ in range(rng.randint(1, 3))]
        vb = [mk() for _ in range(rng.randint(1, 3))]
        inter = intersect_spans(va, vb)
        assert len(inter) == rank(va) + rank(vb) - rank(va + vb)
        assert span_contains_all(va, inter)
        assert span_contains_all(vb, inter)


def test_inverse_and_det():
    # Row j of M^-1 is the coordinates of the unit vector e_j over M's rows.
    m = [[F(2), F(1)], [F(1), F(1)]]
    coords = coordinates([_sparse(row) for row in m], 2)
    assert [coords({j: 1}) for j in range(2)] == [{0: 1, 1: -1}, {0: -1, 1: 2}]
    assert det_dense(m) == 1
    singular = [[F(1), F(2)], [F(2), F(4)]]
    coords = coordinates([_sparse(row) for row in singular], 2)
    assert coords({0: 1}) is None and coords({1: 1}) is None
    assert det_dense(singular) == 0


def test_inverse_seeded():
    rng = random.Random(14)
    done = 0
    while done < 10:
        n = rng.randint(1, 4)
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        coords = coordinates([_sparse(row) for row in m], n)
        inv = [coords({j: 1}) for j in range(n)]
        if det_dense(m) == 0:
            assert None in inv
            continue
        for i in range(n):
            for j in range(n):
                s = sum((c * m[k][j] for k, c in inv[i].items()), F(0))
                assert s == (1 if i == j else 0)
        done += 1


def test_echelon_incremental():
    ech = Echelon()
    assert ech.add({0: F(1), 1: F(1)})
    assert not ech.add({0: F(2), 1: F(2)})
    assert ech.add({1: F(1)})
    assert ech.rank == 2
    assert sorted(ech.rows) == [0, 1]


# --- Differential tests: the sparse Echelon against the row-scanning one.


def _vec_add(a, b, c=1):
    """a + c*b with zero entries dropped."""
    out = dict(a)
    for k, x in b.items():
        y = out.get(k, F(0)) + c * x
        if y == 0:
            out.pop(k, None)
        else:
            out[k] = y
    return out


class _RefEchelon:
    """The reference RREF: reduce and back-substitute over every row."""

    def __init__(self):
        self.rows = {}

    def reduce(self, v):
        v = dict(v)
        for p, row in self.rows.items():
            c = v.get(p)
            if c:
                v = _vec_add(v, row, -c)
        return v

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        inv = 1 / v[p]
        row = {k: x * inv for k, x in v.items()}
        for q, other in self.rows.items():
            c = other.get(p)
            if c:
                self.rows[q] = _vec_add(other, row, -c)
        self.rows[p] = row
        return True


def _ref_nullspace(rows, cols):
    ech = _RefEchelon()
    for r in rows:
        ech.add(r)
    out = []
    for f in cols:
        if f in ech.rows:
            continue
        x = {f: F(1)}
        for p, row in ech.rows.items():
            if row.get(f):
                x[p] = -row[f]
        out.append(x)
    return out


def _ref_intersect(vectors_a, vectors_b):
    ech = _RefEchelon()
    for a in vectors_a:
        v = {(0, k): x for k, x in a.items()}
        v.update({(1, k): x for k, x in a.items()})
        ech.add(v)
    for b in vectors_b:
        ech.add({(0, k): x for k, x in b.items()})
    return [
        {k[1]: x for k, x in ech.rows[p].items()}
        for p in sorted(ech.rows)
        if p[0] == 1
    ]


def _assert_index_exact(ech):
    """cols[k] holds exactly the pivots whose rows have the non-pivot k."""
    expect = {}
    for p, row in ech.rows.items():
        assert row[p] == 1
        for k, x in row.items():
            assert x != 0
            if k != p:
                assert k not in ech.rows
                expect.setdefault(k, set()).add(p)
    assert {k: q for k, q in ech.cols.items() if q} == expect
    assert all(ech.cols[k] for k in ech.cols), "empty index entry kept"


_COLS = 8
_entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_sparse_vec = st.dictionaries(
    st.integers(0, _COLS - 1), _entry, max_size=4
).map(lambda d: {k: x for k, x in d.items() if x})


@st.composite
def _vector_lists(draw):
    """Sparse vectors with dependent combinations and exact duplicates mixed in."""
    vecs = draw(st.lists(_sparse_vec, min_size=1, max_size=10))
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(vecs) - 1))
        j = draw(st.integers(0, len(vecs) - 1))
        c = draw(_entry)
        extra.append(dict(vecs[i]) if draw(st.booleans()) else _vec_add(vecs[i], vecs[j], c))
    out = vecs + extra
    draw(st.randoms(use_true_random=False)).shuffle(out)
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_vector_lists(), st.lists(_sparse_vec, max_size=4))
def test_echelon_matches_row_scanning_reference(vectors, probes):
    ech, ref = Echelon(), _RefEchelon()
    for v in vectors:
        assert ech.add(v) == ref.add(v)
        assert ech.rows == ref.rows
        _assert_index_exact(ech)
    for w in vectors + probes:
        assert ech.reduce(w) == ref.reduce(w)
    assert ech.contains(vectors[0])
    cols = list(range(_COLS))
    assert nullspace(vectors, cols) == _ref_nullspace(vectors, cols)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_vector_lists(), _vector_lists())
def test_intersect_spans_matches_reference(va, vb):
    inter = intersect_spans(va, vb)
    assert inter == _ref_intersect(va, vb)
    assert len(inter) == rank(va) + rank(vb) - rank(va + vb)
    assert span_contains_all(va, inter) and span_contains_all(vb, inter)


def test_echelon_index_negative_control():
    """The exactness check catches an index that misses a holder."""
    ech = Echelon()
    ech.add({0: F(1), 2: F(1)})
    ech.add({1: F(1), 2: F(3)})
    _assert_index_exact(ech)
    ech.cols[2].discard(1)
    with pytest.raises(AssertionError):
        _assert_index_exact(ech)


# --- Differential tests: integer-valued Echelon against the all-Fraction one.


class _ref_Echelon:
    """The sparse Echelon over Fractions only: every entry becomes a Fraction
    and each new row is scaled by `1 / pivot`.  The reference for Echelon."""

    def __init__(self):
        self.rows = {}
        self.cols = {}

    def reduce(self, v):
        v = {k: F(x) for k, x in v.items()}
        rows = self.rows
        for p in [k for k in v if k in rows]:
            c = v[p]
            for k, x in rows[p].items():
                y = v.get(k, F(0)) - c * x
                if y:
                    v[k] = y
                else:
                    del v[k]
        return v

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        inv = 1 / v.pop(p)
        row = {k: x * inv for k, x in v.items()}
        rows, cols = self.rows, self.cols
        for k in row:
            cols.setdefault(k, set()).add(p)
        for q in cols.pop(p, ()):
            other = rows[q]
            c = other.pop(p)
            for k, x in row.items():
                y = other.get(k, F(0)) - c * x
                if y:
                    other[k] = y
                    cols[k].add(q)
                else:
                    del other[k]
                    cols[k].discard(q)
        row[p] = F(1)
        rows[p] = row
        return True

    def contains(self, v):
        return not self.reduce(v)


def _assert_same_rref(ech, ref):
    """Equal rows and column index, and every entry a nonzero int or Fraction."""
    assert ech.rows == ref.rows
    assert {k: q for k, q in ech.cols.items() if q} == {k: q for k, q in ref.cols.items() if q}
    for row in ech.rows.values():
        for x in row.values():
            assert type(x) in (int, Fraction) and x != 0, x


def _with_reference_echelon(fn, *args):
    """Run a linalg routine with the all-Fraction Echelon in place."""
    with mock.patch.object(linalg, "Echelon", _ref_Echelon):
        return fn(*args)


# Entries mix ints and Fractions; +-1 (as int and as Fraction) are drawn
# often, so pivots of 1, of -1 and of other values all occur.
_mixed_entry = st.one_of(
    st.sampled_from([1, -1, F(1), F(-1)]),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_mixed_vec = st.dictionaries(st.integers(0, _COLS - 1), _mixed_entry, max_size=5).map(
    lambda d: {k: x for k, x in d.items() if x}
)


@st.composite
def _mixed_lists(draw):
    vecs = draw(st.lists(_mixed_vec, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(vecs) - 1))
        j = draw(st.integers(0, len(vecs) - 1))
        vecs.append(_vec_add(vecs[i], vecs[j], draw(st.sampled_from([1, -1, 2]))))
    return vecs


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_mixed_lists(), st.lists(_mixed_vec, max_size=4))
def test_integer_echelon_matches_fraction_reference(vectors, probes):
    ech, ref = Echelon(), _ref_Echelon()
    for v in vectors:
        assert ech.add(v) == ref.add(v)
        _assert_same_rref(ech, ref)
        _assert_index_exact(ech)
    for w in vectors + probes:
        assert ech.reduce(w) == ref.reduce(w)
        assert ech.contains(w) == ref.contains(w)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_mixed_lists(), _mixed_lists(), st.lists(_mixed_entry, min_size=10, max_size=10))
def test_nullspace_solve_intersect_match_fraction_reference(va, vb, weights):
    cols = list(range(_COLS))
    assert nullspace(va, cols) == _with_reference_echelon(nullspace, va, cols)
    # Coordinates over va (dependent combinations included) of a vector in
    # its span, which multiply back, and of each vector of vb.
    coords = coordinates(va, _COLS)
    ref = _with_reference_echelon(coordinates, va, _COLS)
    x = _combine(va, {j: c for j in range(len(va)) if (c := weights[j % 10])})
    sol = coords(x)
    assert sol == ref(x) and sol is not None and _combine(va, sol) == x
    ech = echelon_of(va)
    for w in vb:
        got = coords(w)
        assert got == ref(w) and (got is None) == (not ech.contains(w))
    inter = intersect_spans(va, vb)
    assert inter == _with_reference_echelon(intersect_spans, va, vb)
    entries = [c for vec in nullspace(va, cols) + inter for c in vec.values()]
    assert all(type(c) in (int, Fraction) and c != 0 for c in entries + list(sol.values()))


def test_integer_echelon_pivots():
    """A pivot of 1 keeps the row, -1 negates it (ints stay ints), any other
    pivot divides; the stored pivot entry is the int 1."""
    ech = Echelon()
    ech.add({0: 1, 3: 4, 5: Fraction(1, 2)})
    ech.add({1: -1, 3: 2, 4: -5})
    ech.add({2: 2, 3: 3})
    assert ech.rows[0] == {0: 1, 3: 4, 5: Fraction(1, 2)}
    assert ech.rows[1] == {1: 1, 3: -2, 4: 5}
    assert ech.rows[2] == {2: 1, 3: Fraction(3, 2)}
    assert [type(x) for x in ech.rows[1].values()] == [int] * 3
    assert all(type(ech.rows[p][p]) is int for p in ech.rows)
    assert all(type(x) is int for x in nullspace([{0: 1, 1: 2}], [0, 1])[0].values())
    # Tags are the int 1, so integral coordinates over unit pivots stay ints.
    sol = coordinates([{0: 1, 1: 2}, {1: -1}], 2)({0: 3, 1: 4})
    assert sol == {0: 3, 1: 2} and [type(c) for c in sol.values()] == [int, int]


def test_integer_echelon_comparison_negative_control():
    """One entry off in one row makes the reference comparison fail."""
    vectors = [{0: 1, 2: 3}, {1: -1, 2: 2, 3: Fraction(1, 3)}, {0: 2, 3: 5}]
    ech, ref = Echelon(), _ref_Echelon()
    for v in vectors:
        ech.add(v)
        ref.add(v)
    _assert_same_rref(ech, ref)
    p, row = next((p, r) for p, r in sorted(ech.rows.items()) if len(r) > 1)
    k = next(k for k in row if k != p)
    row[k] += 1
    with pytest.raises(AssertionError):
        _assert_same_rref(ech, ref)
