"""Structure constants, Killing form and Casimir data for sl(n).

Basis convention: the matrix units E(i,j), i != j, in row-major order,
followed by H(i) = E(i,i) - E(i+1,i+1) for i = 1..n-1.  For sl(2) the
aliases e = E(1,2), f = E(2,1), h = H(1) are registered.

Everything is built from the defining representation by exact matrix
arithmetic; the Killing form is the trace form of the adjoint
representation, computed from the structure constants (K(e,f) = 4 and
K(h,h) = 8 for sl(2), i.e. K = 2n * trace-form for sl(n)).  The constant
Drinfeld-Jimbo part `dj_rmatrix` is read off a Casimir's coefficients in
closed form; `cybe.catalog_entry` checks the kernel it completes.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .ratfun import RatFun
from .tensors import Tensor2


class LieTable:
    """Basis, structure constants and Killing form of sl(n)."""

    def __init__(self, n):
        if not (isinstance(n, int) and n >= 2):
            raise ValueError(f"sl(n) needs an integer n >= 2, got {n!r}")
        self.n = n
        self.dim = n * n - 1
        self.labels = []
        self.index = {}
        self.root_pairs = []  # (i, j) with i != j, matching E(i,j) labels
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    self._register(f"E({i},{j})")
                    self.root_pairs.append((i, j))
        for i in range(1, n):
            self._register(f"H({i})")
        if n == 2:
            self.index["e"] = self.index["E(1,2)"]
            self.index["f"] = self.index["E(2,1)"]
            self.index["h"] = self.index["H(1)"]
        self.mats = [self._defining_matrix(lbl) for lbl in self.labels]
        self.structure = {}
        for a in range(self.dim):
            for b in range(self.dim):
                if a == b:
                    continue
                entry = self.coords_of_matrix(_mat_comm(self.mats[a], self.mats[b]))
                if entry:
                    self.structure[(a, b)] = tuple(entry.items())
        self.killing = self._killing_matrix()
        self.killing_inv = self._killing_inverse()

    def _register(self, label):
        self.index[label] = len(self.labels)
        self.labels.append(label)

    def _defining_matrix(self, label):
        n = self.n
        m = [[0] * n for _ in range(n)]
        if label.startswith("E"):
            i, j = label[2:-1].split(",")
            m[int(i) - 1][int(j) - 1] = 1
        else:
            i = int(label[2:-1])
            m[i - 1][i - 1] = 1
            m[i][i] = -1
        return m

    def coords_of_matrix(self, m):
        """Sparse coordinates {index: nonzero entry} of a traceless n x n
        matrix of numbers or Polys, inserted in index order."""
        n = self.n
        if sum(m[i][i] for i in range(n)):
            raise ValueError("matrix is not traceless")
        coords = {}
        pos = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    if m[i][j]:
                        coords[pos] = m[i][j]
                    pos += 1
        partial = 0
        for i in range(n - 1):
            partial += m[i][i]
            if partial:
                coords[pos] = partial
            pos += 1
        return coords

    def _killing_matrix(self):
        """K(a, b) = tr(ad_a ad_b) = sum of [x_a, x_m]_k [x_b, x_k]_m over the
        sparse structure entries; into[(k, m)] lists the b with [x_b, x_k]_m."""
        into = {}
        for (b, k), entry in self.structure.items():
            for m, c in entry:
                into.setdefault((k, m), []).append((b, c))
        killing = [[0] * self.dim for _ in range(self.dim)]
        for (a, m), entry in self.structure.items():
            row = killing[a]
            for k, c in entry:
                for b, d in into.get((k, m), ()):
                    row[b] += c * d
        return killing

    def _killing_inverse(self):
        """K^-1 in closed form.  K pairs E(i,j) only with E(j,i), with value
        2n, and is 2n*C on the H block, C the Cartan matrix of A_(n-1), whose
        inverse is C^-1[i][j] = min(i,j)*(n - max(i,j))/n."""
        n, dim = self.n, self.dim
        inv = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j in self.root_pairs:
            inv[self.index[f"E({i},{j})"]][self.index[f"E({j},{i})"]] = Fraction(1, 2 * n)
        h = dim - n + 1  # index of H(1)
        for i in range(1, n):
            for j in range(1, n):
                inv[h + i - 1][h + j - 1] = Fraction(min(i, j) * (n - max(i, j)), 2 * n * n)
        return inv

    def _key(self, key):
        """Basis index of a label (aliases allowed) or an index in range(dim)."""
        if isinstance(key, str):
            if key not in self.index:
                raise KeyError(f"unknown basis symbol {key!r} for sl({self.n})")
            return self.index[key]
        if not 0 <= key < self.dim:
            raise KeyError(f"basis index {key!r} outside range({self.dim}) for sl({self.n})")
        return key

    def basis_element(self, key):
        """Unit basis GElement from an index or a label (aliases allowed)."""
        return GElement(self, {self._key(key): 1})

    def element(self, coeffs):
        """GElement from {label or index: rational coefficient}."""
        terms = {}
        for key, c in coeffs.items():
            idx = self._key(key)
            terms[idx] = terms.get(idx, 0) + Fraction(c)
        return GElement(self, {k: c for k, c in terms.items() if c})

    def zero(self):
        return GElement(self, {})

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def ad_on_basis(self, x, b):
        """[x, x_b] for x's sparse coordinates, as (index, coeff) pairs."""
        out = {}
        for a, xa in x.items():
            for k, c in self.structure.get((a, b), ()):
                out[k] = out.get(k, 0) + xa * c
        return [(k, c) for k, c in out.items() if c]

    def bracket_coords(self, x, y):
        """Sparse coordinates of [x, y] from sparse coordinates x and y."""
        out = {}
        structure = self.structure
        for a, xa in x.items():
            for b, yb in y.items():
                entry = structure.get((a, b))
                if entry:
                    c0 = xa * yb
                    for k, c in entry:
                        out[k] = out.get(k, 0) + c0 * c
        return {k: c for k, c in out.items() if c}

    def killing_pair(self, x, y):
        """K(x, y) for sparse coordinate maps."""
        out = 0
        for a, xa in x.items():
            row = self.killing[a]
            for b, yb in y.items():
                k = row[b]
                if k:
                    out += xa * yb * k
        return out

    def killing_row(self, x):
        """Sparse row {b: K(x, x_b)} of the Killing form at x."""
        row = {}
        for a, xa in x.items():
            for b, k in enumerate(self.killing[a]):
                if k:
                    row[b] = row.get(b, 0) + xa * k
        return {b: c for b, c in row.items() if c}

    def __repr__(self):
        return f"LieTable(sl({self.n}))"


def _mat_comm(a, b):
    """ab - ba, summed over the nonzero entries of the (sparse) basis matrices."""
    sa, sb = ([(i, k, c) for i, r in enumerate(m) for k, c in enumerate(r) if c] for m in (a, b))
    out = [[0] * len(a) for _ in a]
    for x, y, s in ((sa, sb, 1), (sb, sa, -1)):
        for i, k, c in x:
            for k2, j, d in y:
                if k == k2:
                    out[i][j] += s * c * d
    return out


_SL_TABLES = {}


def make_sl(n):
    """LieTable for sl(n), n >= 2.  Tables are shared: the same n always
    returns the same instance, so elements built independently compare."""
    if n not in _SL_TABLES:
        _SL_TABLES[n] = LieTable(n)
    return _SL_TABLES[n]


class GElement:
    """Element of sl(n) as the sparse map {basis index: nonzero int or Fraction}."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GElement):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def _plus(self, items):
        out = dict(self.terms)
        for k, c in items:
            c = out.get(k, 0) + c
            if c:
                out[k] = c
            else:
                del out[k]
        return GElement(self.table, out)

    def __add__(self, other):
        if self.table is not other.table:
            raise ValueError("mismatched algebras")
        return self._plus(other.terms.items())

    def __sub__(self, other):
        if self.table is not other.table:
            raise ValueError("mismatched algebras")
        return self._plus((k, -c) for k, c in other.terms.items())

    def __neg__(self):
        return GElement(self.table, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return GElement(self.table, {})
        return GElement(self.table, {k: a * c for k, a in self.terms.items()})

    def bracket(self, other):
        if self.table is not other.table:
            raise ValueError("mismatched algebras")
        return GElement(self.table, self.table.bracket_coords(self.terms, other.terms))

    def killing(self, other):
        if self.table is not other.table:
            raise ValueError("mismatched algebras")
        return self.table.killing_pair(self.terms, other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in sorted(self.terms):
            c = self.terms[i]
            lbl = self.table.labels[i]
            parts.append(lbl if c == 1 else f"{c}*{lbl}")
        return " + ".join(parts)

    def __repr__(self):
        return f"GElement({self})"


class GPoly:
    """g-valued Laurent polynomial: {integer degree: nonzero GElement}."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = {d: x for d, x in terms.items() if not x.is_zero()}

    @staticmethod
    def monomial(x, d=0):
        return GPoly(x.table, {d: x})

    def is_zero(self):
        return not self.terms

    def coeff(self, d):
        return self.terms.get(d, self.table.zero())

    def degrees(self):
        return sorted(self.terms)

    def __add__(self, other):
        if self.table is not other.table:
            raise ValueError("mismatched algebras")
        terms = dict(self.terms)
        for d, x in other.terms.items():
            terms[d] = terms.get(d, self.table.zero()) + x
        return GPoly(self.table, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return GPoly(self.table, {d: x.scale(c) for d, x in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[d]})*u^{d}" if d else f"({self.terms[d]})"
            for d in sorted(self.terms)
        )

    def __repr__(self):
        return f"GPoly({self})"


def bracket_poly(p, q):
    """Degreewise bracket of g-valued (Laurent) polynomials."""
    if p.table is not q.table:
        raise ValueError("mismatched algebras")
    out = {}
    for d1, x in p.terms.items():
        for d2, y in q.terms.items():
            z = x.bracket(y)
            if not z.is_zero():
                d = d1 + d2
                out[d] = out.get(d, p.table.zero()) + z
    return GPoly(p.table, out)


class CasimirSpec:
    """Symmetric invariant 2-tensor: scale * sum_i x^i (x) x_i.

    The coefficient matrix is scale * K^-1 over the basis.  `tensor()` is
    it as a constant Tensor2, and `leading` is the quasi-rational leading
    term u*v*Omega/(v-u); both are built once, here.
    """

    __slots__ = ("table", "scale", "matrix", "_tensor", "leading")

    def __init__(self, table, scale, matrix):
        self.table = table
        self.scale = Fraction(scale)
        self.matrix = matrix
        self._tensor = Tensor2.make(table, {
            (a, b): c for a, row in enumerate(matrix) for b, c in enumerate(row) if c
        })
        u = RatFun.var("u")
        v = RatFun.var("v")
        self.leading = self._tensor.scale(u * v / (v - u))

    def tensor(self):
        return self._tensor

    def __repr__(self):
        return f"CasimirSpec(sl({self.table.n}), scale={self.scale})"


def casimir(table, scale=1):
    """CasimirSpec with coefficient matrix scale * K^-1 (dual-basis sum)."""
    scale = Fraction(scale)
    matrix = [
        [scale * table.killing_inv[a][b] for b in range(table.dim)]
        for a in range(table.dim)
    ]
    return CasimirSpec(table, scale, matrix)


class Subspace:
    """Subspace of sl(n), held as a list of linearly independent GElements."""

    def __init__(self, table, elements):
        self.table = table
        self.elements = []
        self._ech = linalg.Echelon()
        for x in elements:
            if x.table is not table:
                raise ValueError("Subspace element of another algebra")
            if self._ech.add(x.terms):
                self.elements.append(x)
            else:
                raise ValueError("dependent spanning set for Subspace")

    @property
    def dim(self):
        return len(self.elements)

    def contains(self, x):
        return self._ech.contains(x.terms)

    def equals(self, other):
        return self._ech.rows == other._ech.rows

    def is_subalgebra(self):
        """Bracket-closed; one pair each, as [y, x] = -[x, y], [x, x] = 0."""
        els = self.elements
        for i, x in enumerate(els):
            for y in els[i + 1:]:
                if not self.contains(x.bracket(y)):
                    return False
        return True

    def __repr__(self):
        return f"Subspace(dim={self.dim} of sl({self.table.n}))"


def parabolic(table, k):
    """Maximal parabolic P_k: block upper-triangular for blocks (k, n-k).

    Contains the positive Borel and every negative root vector E(i,j)
    (i > j) except those with j <= k < i.  Closed under the bracket.
    """
    if not (1 <= k <= table.n - 1):
        raise ValueError(f"k must be in 1..{table.n - 1}, got {k}")
    els = []
    for (i, j) in table.root_pairs:
        if i < j or not (j <= k < i):
            els.append(table.basis_element(f"E({i},{j})"))
    els += [table.basis_element(f"H({i})") for i in range(1, table.n)]
    # Closed by construction: block upper-triangular matrices are closed
    # under the product, so their commutators stay in P_k.
    return Subspace(table, els)


def orthogonal_complement_g(sub, table):
    """Killing-orthogonal complement of a subspace of sl(n), exact."""
    rows = [table.killing_row(x.terms) for x in sub.elements]
    vecs = linalg.nullspace(rows, range(table.dim))
    return Subspace(table, [GElement(table, v) for v in vecs])


CANDIDATE_SCALES = (
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(4),
    Fraction(8),
)


class CalibrationError(RuntimeError):
    """Raised when the Casimir scale search has no unique survivor."""

    def __init__(self, residuals):
        self.residuals = residuals
        lines = [
            f"  scale {c}: residual terms {r1} (rational probe), {r2} (polynomial-tail probe)"
            for c, (r1, r2) in residuals.items()
        ]
        super().__init__(
            "Casimir calibration did not single out one scale:\n" + "\n".join(lines)
        )


def calibrate_casimir(table):
    """Fix the Casimir scale operationally for the sl(2) catalog.

    Candidate scales multiply the Killing-dual Casimir.  A candidate
    survives when two exact Yang-Baxter probes both vanish:

    * the rational probe  Omega_c/(u-v) + u*(e(x)h) - v*(h(x)e),
    * the polynomial-tail probe  u*v*Omega_c/(v-u) + (1/2)h(x)e
      - (1/2)e(x)h - u*(e(x)f) + v*(f(x)e),

    the catalog's rational_eh and q2 built over Omega_c.

    The rational probe alone is scale-insensitive (its cross terms with
    the symmetric part vanish for every invariant tensor), so the
    second, scale-sensitive probe is required to discriminate; exactly
    one candidate must survive, otherwise CalibrationError carries the
    per-candidate residual report.
    """
    from . import cybe

    if table.n != 2:
        raise ValueError("calibration is defined over sl(2)")
    residuals = {}
    survivors = []
    for c in CANDIDATE_SCALES:
        spec = casimir(table, c)
        r1 = cybe.cyb(cybe.catalog_entry(table, spec, "rational_eh"))
        r2 = cybe.cyb(cybe.catalog_entry(table, spec, "q2"))
        residuals[c] = (len(r1.entries), len(r2.entries))
        if r1.is_zero() and r2.is_zero():
            survivors.append(spec)
    if len(survivors) != 1:
        raise CalibrationError(residuals)
    return survivors[0]


# dj_rmatrix's sign and orientation, as `ybx calibrate` reports them.
DJ_CONVENTION = {"sign": -1, "orientation": "ef"}


def dj_rmatrix(table, omega):
    """The standard constant r-matrix of Belavin and Drinfeld (1982) for Omega:

        r = -(Omega_H/2 + sum_{i<j} Omega[E(i,j), E(j,i)] E(i,j)(x)E(j,i)),

    with Omega_H the Cartan block of omega.matrix, so r + swap(r) = -Omega
    at any nonzero scale.  v*Omega/(v-u) + r solves Yang-Baxter only with
    the sign -1 and half the Cartan block; the orientation e(x)f (f(x)e
    solves too) is DJ_CONVENTION's.  `cybe.catalog_entry` checks gamma3.
    """
    m = omega.matrix
    cartan = [table.index[f"H({i})"] for i in range(1, table.n)]
    entries = {(a, b): m[a][b] / 2 for a in cartan for b in cartan}
    for i, j in table.root_pairs:
        if i < j:
            p, q = table.index[f"E({i},{j})"], table.index[f"E({j},{i})"]
            entries[p, q] = m[p][q]
    return -Tensor2.make(table, entries)
