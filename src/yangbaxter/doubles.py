"""Truncated model of the classical double of the polynomial current algebra.

Elements are pairs (loop, jet): a g-valued Laurent polynomial plus a 1-jet
A0 + A1*eps with eps^2 = 0, each held as its sparse coordinate row over
("loop", d, i), ("a0", i) and ("a1", i).  The invariant pairing is

    Q(x, y) = [coefficient of u^1 in K(loop_x, loop_y)]
              - K(A0_x, A1_y) - K(A1_x, A0_y)

and the polynomial current algebra embeds by

    i(sum c_k u^k) = (sum c_k u^k, c_0, c_1),

which is exactly isotropic: the u^1 coefficient of K(p, q) equals
K(p_0, q_1) + K(p_1, q_0).

All subspace computations happen inside a truncation Window [lo, hi] on
loop exponents.  Truncation is an approximation of the full topological
double; every check states its window, and the default windows are chosen
as [-2*hi, hi] so that the pairing (which couples degree t against 1-t)
never silently loses partners for in-window elements.  The radical of Q
on a window ambient is known in closed form: the loop degrees t whose
partner 1-t falls outside the window.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .lie import GElement, GPoly, Subspace, casimir, orthogonal_complement_g, parabolic
from .ratfun import RF_ZERO, Poly, RatFun


class Window:
    """Allowed loop-exponent range [lo, hi], lo <= 0 <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not lo <= 0 <= hi:
            raise ValueError(f"window needs lo <= 0 <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def exponents(self):
        return range(self.lo, self.hi + 1)

    def __contains__(self, t):
        return self.lo <= t <= self.hi

    def __eq__(self, other):
        return (
            isinstance(other, Window) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Window({self.lo}, {self.hi})"


class WindowOverflow(ValueError):
    """An exponent left the truncation window; the message names the fix."""


class DependentElement(ValueError):
    """A spanning element of a DoubleSubspace lies in the span of the others."""


class UnrealizableForm(ValueError):
    """No xi in g has K(xi, y) = B(x, y) for every y of the subalgebra."""


class DoubleElement:
    """loop + (A0 + A1*eps): one element of the truncated double, as its row.

    The row is the sparse dict over ("loop", d, i), ("a0", i) and ("a1", i)
    that a DoubleSubspace holds, shared and never mutated; `of` packs a GPoly
    loop and two GElement jets into it."""

    __slots__ = ("table", "row")

    def __init__(self, table, row):
        self.table = table
        self.row = row

    @staticmethod
    def of(table, loop=None, a0=None, a1=None):
        loop = loop if loop is not None else GPoly(table, {})
        a0 = a0 if a0 is not None else table.zero()
        a1 = a1 if a1 is not None else table.zero()
        if not (isinstance(loop, GPoly) and isinstance(a0, GElement) and isinstance(a1, GElement)):
            raise ValueError(f"need a GPoly and two GElements, not {(loop, a0, a1)}")
        if not table is loop.table is a0.table is a1.table:
            raise ValueError("double element parts over different algebras")
        row = {("loop", d, i): c for d, x in loop.terms.items() for i, c in x.terms.items()}
        for part, x in (("a0", a0), ("a1", a1)):
            row.update(((part, i), c) for i, c in x.terms.items())
        return DoubleElement(table, row)

    def __eq__(self, other):
        if not isinstance(other, DoubleElement):
            return NotImplemented
        return self.table is other.table and self.row == other.row

    def coords(self, window):
        """The row, once every loop exponent is checked against the window."""
        for key in self.row:
            if key[0] == "loop" and key[1] not in window:
                raise WindowOverflow(
                    f"loop exponent {key[1]} outside window [{window.lo}, {window.hi}]"
                )
        return self.row

    def __str__(self):
        parts = _by_head(self.row)
        loops = sorted(head for head in parts if head[0] == "loop")
        out = [f"({GElement(self.table, parts[head])})" + (f"*u^{head[1]}" if head[1] else "")
               for head in loops]
        out += [f"({GElement(self.table, parts[head])}){suffix}"
                for head, suffix in ((("a0",), "_0"), (("a1",), "*eps")) if head in parts]
        return " + ".join(out) or "0"

    def __repr__(self):
        return f"DoubleElement({self})"


def _by_head(row):
    """A row grouped by head: {("loop", d) | ("a0",) | ("a1",): {i: c}}."""
    parts = {}
    for key, c in row.items():
        parts.setdefault(key[:-1], {})[key[-1]] = c
    return parts


# The head of a bracket of two jet heads: a0 has grade 0 and a1 grade 1, and
# eps^2 = 0 drops grade 2.
_JET_PRODUCT = {("a0", "a0"): ("a0",), ("a0", "a1"): ("a1",), ("a1", "a0"): ("a1",)}


def _partner(head):
    """The head that Q pairs with `head`, and the sign of the pairing:
    loop degree d with 1 - d, and a0 with a1 under a minus sign."""
    if head[0] == "loop":
        return ("loop", 1 - head[1]), 1
    return (("a1",) if head[0] == "a0" else ("a0",)), -1


def double_bracket(x, y):
    """Componentwise bracket; the jet part obeys eps^2 = 0.

    [A0 + A1 eps, B0 + B1 eps] = [A0,B0] + ([A0,B1] + [A1,B0]) eps.
    """
    if x.table is not y.table:
        raise ValueError("bracket of double elements over different algebras")
    table = x.table
    ys = _by_head(y.row)
    out = {}
    for hx, a in _by_head(x.row).items():
        for hy, b in ys.items():
            if hx[0] == "loop" or hy[0] == "loop":
                head = ("loop", hx[1] + hy[1]) if hx[0] == hy[0] else None
            else:
                head = _JET_PRODUCT.get((hx[0], hy[0]))
            if head is not None:
                for i, c in table.bracket_coords(a, b).items():
                    key = head + (i,)
                    out[key] = out.get(key, 0) + c
    return DoubleElement(table, {key: c for key, c in out.items() if c})


def invariant_form(x, y):
    """Q(x, y): u^1-coefficient of K(loops) minus the crossed jet pairings."""
    if x.table is not y.table:
        raise ValueError("pairing of double elements over different algebras")
    ys = _by_head(y.row)
    total = 0
    for head, a in _by_head(x.row).items():
        partner, sign = _partner(head)
        b = ys.get(partner)
        if b is not None:
            total += sign * x.table.killing_pair(a, b)
    return total


def embed_polynomial(p, window):
    """i(p) = (p, p_0, p_1) for a polynomial loop fitting the window."""
    if not isinstance(p, GPoly):
        raise ValueError(f"embedding needs a GPoly, not {p!r}")
    if p.terms:
        degs = p.degrees()
        if degs[0] < 0:
            raise ValueError(f"embedding needs a polynomial, found degree {degs[0]}")
        if degs[-1] > window.hi:
            raise WindowOverflow(
                f"degree {degs[-1]} needs window hi >= {degs[-1]}, have {window.hi}"
            )
    return DoubleElement.of(p.table, p, p.coeff(0), p.coeff(1))


def ambient_coords(table, window):
    keys = [("loop", d, i) for d in window.exponents() for i in range(table.dim)]
    return keys + [(part, i) for part in ("a0", "a1") for i in range(table.dim)]


def ambient_dim(table, window):
    return table.dim * (window.hi - window.lo + 1) + 2 * table.dim


class DoubleSubspace:
    """Finite-rank subspace of the truncated double, held as independent rows.

    Each row is a sparse vector over the window coordinates ("loop", d, i),
    ("a0", i) and ("a1", i), shared with the DoubleElements that `of` admits
    and `elements` returns, and never mutated: the echelon would not follow.
    """

    def __init__(self, table, window, rows):
        self.table = table
        self.window = window
        self.rows = tuple(rows)
        self._ech = linalg.Echelon()
        for row in self.rows:
            if not self._ech.add(row):
                raise DependentElement(
                    f"dependent spanning element {DoubleElement(table, row)}")

    @staticmethod
    def of(table, window, elements):
        """The span of independent DoubleElements over `table` in the window."""
        elements = tuple(elements)
        rows = [el.coords(window) for el in elements]
        for el in elements:
            if el.table is not table:
                raise ValueError(f"spanning element {el} is over another algebra")
        return DoubleSubspace(table, window, rows)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def elements(self):
        return tuple(DoubleElement(self.table, row) for row in self.rows)

    def contains(self, row):
        return self._ech.contains(row)

    def reduce(self, row):
        """The row modulo the span: a linear projection whose kernel is the span."""
        return self._ech.reduce(row)

    def equals(self, other):
        return self._ech.rows == other._ech.rows

    def __repr__(self):
        return (
            f"DoubleSubspace(dim={self.dim}, window=[{self.window.lo}, "
            f"{self.window.hi}], sl({self.table.n}))"
        )


@functools.lru_cache(maxsize=8)
def embedded_polynomials(table, window):
    """i(g[u]) at the window: the embeddings of x * u^m, 0 <= m <= hi.

    Built once per (table, window) and shared; DoubleSubspace is immutable."""
    els = [embed_polynomial(GPoly.monomial(x, m), window)
           for m in range(window.hi + 1) for x in table.basis()]
    return DoubleSubspace.of(table, window, els)


def standard_complement(table, window):
    """The model of the dual side: loops in non-positive degrees plus g*eps."""
    rows = [{("loop", d, i): 1} for d in range(window.lo, 1) for i in range(table.dim)]
    rows += [{("a1", i): 1} for i in range(table.dim)]
    return DoubleSubspace(table, window, rows)


def _same_window(sub, window):
    """A check at another window than the subspace's would read it wrongly."""
    if window != sub.window:
        raise ValueError(f"{window} is not the subspace's {sub.window}")


def _pairing_row(table, row, window):
    """Sparse row c -> Q(unit_c, v) over the ambient coordinates, for a row v.

    Loop degree d pairs with 1 - d, and a0 with a1 under a minus sign."""
    out = {}
    for head, terms in _by_head(row).items():
        partner, sign = _partner(head)
        if partner[0] == "loop" and partner[1] not in window:
            continue
        for i, c in table.killing_row(terms).items():
            out[partner + (i,)] = sign * c
    return out


def orth_complement_truncated(sub, window):
    """Exact Q-orthogonal complement of a subspace within the window ambient."""
    _same_window(sub, window)
    table = sub.table
    rows = [_pairing_row(table, row, window) for row in sub.rows]
    return DoubleSubspace(table, window, linalg.nullspace(rows, ambient_coords(table, window)))


def ambient_radical_dim(table, window):
    """Rank defect of Q on the whole window ambient (truncation artifact).

    Q pairs loop degree t only with 1-t, and the jet block is
    nondegenerate, so the radical is exactly the loop degrees t whose
    partner 1-t lies outside the window.
    """
    return table.dim * sum(1 for t in window.exponents() if 1 - t not in window)


def is_isotropic(sub):
    """Q vanishes on every pair of spanning elements.

    Q is graded: loop degree t pairs only with 1 - t, and the jet's a0
    (grade 0) only with its a1 (grade 1).  Q is evaluated on the pairs
    j >= i whose grades meet; every other pair is zero by definition.
    The grades of a row are its heads, read off its keys."""
    heads = [_by_head(row) for row in sub.rows]
    holders = {}
    for j, grades in enumerate(heads):
        for head in grades:
            holders.setdefault(head, set()).add(j)
    els = sub.elements
    for i, x in enumerate(els):
        partners = set()
        for head in heads[i]:
            partners.update(j for j in holders.get(_partner(head)[0], ()) if j >= i)
        for j in sorted(partners):
            if invariant_form(x, els[j]) != 0:
                return False
    return True


def is_lagrangian_truncated(sub, window):
    """Isotropy plus dimensional maximality at the truncation window.

    Maximality accounts for the radical of Q on the truncated ambient
    (deep loop degrees whose pairing partners fall outside the window):
    a maximal isotropic subspace has dimension (ambient + radical) / 2.
    This is the window-level approximation of the untruncated condition.
    """
    _same_window(sub, window)
    if not is_isotropic(sub):
        return False
    total = ambient_dim(sub.table, window) + ambient_radical_dim(sub.table, window)
    # Even: t -> 1-t has no fixed point, so the t with 1-t in the window pair up.
    return sub.dim == total // 2


def is_subalgebra(sub):
    """Closure under double_bracket, checked for in-window results.

    One bracket per unordered pair, as [y, x] = -[x, y] and [x, x] = 0.
    Pairs whose bracket leaves the window are skipped: truncation cannot
    decide them.  With the default deep windows every decidable pair of
    the built-in spaces is checked.
    """
    window = sub.window
    els = sub.elements
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            z = double_bracket(x, y).row
            if all(key[0] != "loop" or key[1] in window for key in z) and not sub.contains(z):
                return False
    return True


def check_transversality(w, window, tail_depth=1):
    """The three complement conditions for a candidate W.

    1. W intersects the embedded polynomial part trivially.
    2. W + i(g[u]) spans the whole window ambient.
    3. W contains the deep tail x * u^t, lo <= t <= -tail_depth.
    Both spanning sets are independent (a DoubleSubspace raises
    DependentElement otherwise), so one rank decides the first two:
    dim(W ∩ i(g[u])) is dim W + dim i(g[u]) - rank(W ∪ i(g[u])), and
    reducing modulo W's echelon is a projection with kernel span W, so
    rank(W ∪ i(g[u])) = dim W + rank{reduce_W(x) : x in i(g[u])}.
    The window must be W's own.  Returns a report dict; window and tail
    depth are echoed for the caller.
    """
    _same_window(w, window)
    table = w.table
    ip = embedded_polynomials(table, window)
    rank = w.dim + linalg.echelon_of(map(w.reduce, ip.rows)).rank
    tail = all(
        w.contains({("loop", t, i): 1})
        for t in range(window.lo, -tail_depth + 1)
        for i in range(table.dim)
    )
    return {
        "trivial_intersection": w.dim + ip.dim == rank,
        "spans_with_polynomials": rank == ambient_dim(table, window),
        "contains_tail": tail,
        "window": (window.lo, window.hi),
        "tail_depth": tail_depth,
    }


def _dual_pair_bases(table, order):
    """Primal embeddings and their claimed Q-duals, up to loop degree `order`.

    Primal: i(x_i u^k) for 2 <= k <= order, i(x_i u), i(x_i).
    Dual:   x^i u^(1-k),  x^i u^0,  -x^i eps,   with x^i the Killing-dual
    basis (K(x_i, x^j) = delta).  Over the rationals no Killing-orthonormal
    basis of sl(n) exists, so dual pairs replace orthonormal expansions.
    """
    if order < 2:
        raise ValueError(f"dual pair bases need order >= 2, got {order}")
    window = Window(-(order + 2), order + 1)
    dual_basis = [
        table.element({i: table.killing_inv[i][j] for i in range(table.dim)})
        for j in range(table.dim)
    ]
    primal = []
    dual = []
    for k in range(2, order + 1):
        for i, x in enumerate(table.basis()):
            primal.append(embed_polynomial(GPoly.monomial(x, k), window))
            dual.append(
                DoubleElement.of(table, loop=GPoly.monomial(dual_basis[i], 1 - k))
            )
    for i, x in enumerate(table.basis()):
        primal.append(embed_polynomial(GPoly.monomial(x, 1), window))
        dual.append(DoubleElement.of(table, loop=GPoly.monomial(dual_basis[i], 0)))
    for i, x in enumerate(table.basis()):
        primal.append(embed_polynomial(GPoly.monomial(x, 0), window))
        dual.append(DoubleElement.of(table, a1=dual_basis[i].scale(-1)))
    return primal, dual


def dual_basis_check(table, order):
    """Q(primal_a, dual_b) = delta_ab for the dual pair bases up to `order`."""
    primal, dual = _dual_pair_bases(table, order)
    for a, x in enumerate(primal):
        for b, y in enumerate(dual):
            expect = Fraction(1 if a == b else 0)
            if invariant_form(x, y) != expect:
                return False
    return True


class DualSumMismatch(RuntimeError):
    """The dual-sum projection disagrees with the series expansion."""

    def __init__(self, pair, exponent, got, expected):
        self.pair = pair
        self.exponent = exponent
        self.got = got
        self.expected = expected
        super().__init__(
            f"dual-sum term at basis pair {pair}, v-exponent {exponent}: "
            f"got {got}, series expansion gives {expected}"
        )


def _expansion_mismatch(f, series, order):
    """None if `series` is the expansion of f at v = oo down to v^-order.

    `series` maps v-exponents >= -order to Polys in u (a lower exponent
    raises ValueError).  With f = N/D and T = v^order * series,
    f - series = R / (v^order * D) for R = v^order * N - D * T, so the kept
    terms agree exactly when R is zero or of lower v-degree than D.
    Otherwise returns the highest differing term as (exponent, got, expected).
    """
    t = Poly.from_univariate("v", {k + order: p for k, p in series.items()})
    r = f.num * Poly.var("v", order) - f.den * t
    d_r, d_d = r.degree_in("v"), f.den.degree_in("v")
    if r.is_zero() or d_r < d_d:
        return None
    k = d_r - d_d - order
    got = RatFun.from_poly(series.get(k, Poly({})))
    lead = RatFun.of(r.as_univariate("v")[d_r], f.den.as_univariate("v")[d_d])
    return k, got, got + lead


def dual_sum_projection(table, order, omega=None):
    """Loop-leg projection of the dual-pair sum vs the geometric series.

    sum_i [ x_i u (x) x^i  +  sum_{k>=2} x_i u^k (x) x^i v^(1-k) ]
    truncated to v-exponents >= -order must match, term by term, the
    expansion at v = oo of u*v*Omega/(v-u), with Omega the Killing-normalized
    Casimir (dual-basis scale).  Passing a different omega substitutes the
    reference side; a mismatch raises DualSumMismatch carrying the highest
    differing term.  Returns {basis pair: {v-exponent: Poly in u}}.
    """
    if order < 1:
        raise ValueError(f"dual-sum projection needs order >= 1, got {order}")
    if omega is None:
        omega = casimir(table, 1)
    dual_coeff = table.killing_inv  # x^i = sum_j K^-1[j][i] x_j
    result = {}
    for k in range(1, order + 2):
        # primal x_i u^k pairs with dual x^i v^(1-k); v-exponent 1-k >= -order
        u_pow = Poly.var("u", k)
        for i in range(table.dim):
            for j in range(table.dim):
                c = dual_coeff[j][i]
                if c:
                    result.setdefault((i, j), {})[1 - k] = u_pow * c
    ref_pairs = dict(omega.leading.entries)
    for pair in sorted(set(result) | set(ref_pairs)):
        witness = _expansion_mismatch(ref_pairs.get(pair, RF_ZERO), result.get(pair, {}), order)
        if witness is not None:
            raise DualSumMismatch(pair, *witness)
    return result


def line_shift(table, line_index, k):
    """Degree shift of a basis line under conjugation by diag(1..1, u..u).

    The first k diagonal entries are 1, the rest u; E(i,j) picks up
    u^(s_j - s_i) with s_m = 0 for m <= k, else 1; Cartan lines are fixed.
    """
    if line_index >= len(table.root_pairs):
        return 0
    i, j = table.root_pairs[line_index]
    s_i = 0 if i <= k else 1
    s_j = 0 if j <= k else 1
    return s_j - s_i


def _twist_loop_keys(table, k, window):
    """The loop keys of W_k: line `a` in degrees lo..min(hi, shift_a)."""
    if not (0 <= k <= table.n - 1):
        raise ValueError(f"k must be in 0..{table.n - 1}, got {k}")
    return [("loop", d, a) for a in range(table.dim)
            for d in range(window.lo, min(window.hi, line_shift(table, a, k)) + 1)]


def diagonal_twist_space(table, k, window):
    """Loops conjugated by diag(1,..,1,u,..,u) (k ones) plus the full jet part.

    Loop line `a` appears in degrees lo..min(hi, shift_a); the jet part is
    all of sl(n) + sl(n)*eps.  k = 0 gives the plain non-positive loops.
    """
    rows = [{key: 1} for key in _twist_loop_keys(table, k, window)]
    rows += [{(part, i): 1} for part in ("a0", "a1") for i in range(table.dim)]
    return DoubleSubspace(table, window, rows)


def loop_part(sub):
    """The loop-only rows of a subspace basis, as a new subspace.

    No row is empty, as the basis is independent."""
    rows = [row for row in sub.rows if all(key[0] == "loop" for key in row)]
    return DoubleSubspace(sub.table, sub.window, rows)


class QuotientMismatch(RuntimeError):
    """The quotient image disagrees with the parabolic prediction."""


def quotient_image_of_polynomials(table, k, window):
    """Image of i(g[u]) ∩ twist-space in the jet quotient, exactly.

    The quotient of the twist space by its orthogonal complement (its loop
    part) is coordinatized by (a0, a1).  The image must equal
    parabolic(k) + eps * (Killing complement of parabolic(k)); any
    disagreement raises QuotientMismatch instead of being projected away.
    W_k is read as its keys, with no subspace of it built.  Returns the
    image as jet-only DoubleElements.
    """
    if not (1 <= k <= table.n - 1):
        raise ValueError(f"k must be in 1..{table.n - 1}, got {k}")
    keys = set(_twist_loop_keys(table, k, window))
    ip = embedded_polynomials(table, window).rows
    # W_k is spanned by unit rows, so sum_j c_j * ip[j] lies in W_k exactly
    # when its coordinates off W_k's keys vanish: one constraint per off-key.
    off = {}
    for j, row in enumerate(ip):
        for key, c in row.items():
            if key[0] == "loop" and key not in keys:
                off.setdefault(key, {})[j] = c
    image_ech = linalg.Echelon()
    image = []
    for coeffs in linalg.nullspace(off.values(), range(len(ip))):
        jet = {}
        for j, c in coeffs.items():
            for key, x in ip[j].items():
                if key[0] != "loop":
                    jet[key] = jet.get(key, 0) + c * x
        jet = {key: x for key, x in jet.items() if x}
        if image_ech.add(jet):
            image.append(DoubleElement(table, jet))
    par = parabolic(table, k)
    expected_ech = linalg.echelon_of(
        [{("a0", i): c for i, c in x.terms.items()} for x in par.elements]
        + [{("a1", i): c for i, c in x.terms.items()}
           for x in orthogonal_complement_g(par, table).elements]
    )
    if image_ech.rows != expected_ech.rows:
        raise QuotientMismatch(
            f"jet image of the polynomial part (dim {image_ech.rank}) differs "
            f"from parabolic({k}) + eps*complement (dim {expected_ech.rank}) "
            f"at window [{window.lo}, {window.hi}]"
        )
    return image


def lagrangian_from_pair(table, k, subalg, form, window):
    """Lagrangian from (subalgebra L, skew 2-form B): twisted loops + graph.

    Elements: the loop part of the twist space, the graph {(0, x, xi_x)}
    with K(xi_x, y) = B(x, y) for all y in L, and {(0, 0, eta)} for eta in
    the Killing complement of L.  `form` maps (index_x, index_y) over the
    basis list `subalg` to rationals.  The twisted loops are W_k's loop
    keys as unit rows, with no subspace of W_k built.
    """
    rows = [{key: 1} for key in _twist_loop_keys(table, k, window)]
    basis = list(subalg)
    n = len(basis)
    # Column m is {j: K(x_m, y_j)}; coordinates over the columns give xi.
    cols = [{} for _ in range(table.dim)]
    for j, y in enumerate(basis):
        for m, c in table.killing_row(y.terms).items():
            cols[m][j] = c
    coords = linalg.coordinates(cols, n)
    for i, x in enumerate(basis):
        xi = coords({j: c for j in range(n) if (c := Fraction(form(i, j)))})
        if xi is None:
            raise UnrealizableForm("form not realizable against the Killing pairing")
        rows.append({**{("a0", m): c for m, c in x.terms.items()},
                     **{("a1", m): c for m, c in xi.items()}})
    comp = orthogonal_complement_g(Subspace(table, basis), table)
    rows += [{("a1", m): c for m, c in eta.terms.items()} for eta in comp.elements]
    return DoubleSubspace(table, window, rows)

