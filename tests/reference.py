"""Reference implementations shared by the tests.

`ref_leg_bracket` is the leg commutator written out once per pair in
coefficient arithmetic alone (`rename`, `*`, `+`, `is_zero`), so it runs on
RatFun tensors and on cleared (Poly) tensors alike and shares no code with
`tensors.leg_bracket`.

`ref_weighted_cyb` and `ref_gauge_loop` are the cleared residual and the
cleared gauge image summed Poly by Poly: each leg commutator entry times its
weight d_jk, and each left factor times each right one, added into the
output through `accumulate`.  This is the path that the single sparse
accumulation of `cybe.cyb` and `gauge.gauge_transform` replaced.

`ref_poly_adjugate` and `ref_ad_columns` are the gauge inverse by cofactor
expansion and the adjoint action read degree by degree through Fraction
matrices; they share no code with `gauge`.

`ref_clear_denominators` finds each cofactor d/den by long division once the
lcm d is built, and `ref_delta_on_first_leg` sums (delta (x) id) of a
co-bracket RatFun by RatFun through `accumulate`: the paths that the kept
cofactors of `tensors.clear_denominators` and the sparse accumulation of
`cybe._delta_on_first_leg` replaced.

`ref_diagonal_twist_space`, `ref_standard_complement`, `ref_loop_part` and
`ref_contains_tail` build the coordinate subspaces of the truncated double
one `DoubleElement` per unit vector, and test the tail one element at a
time: the paths that the unit rows of `doubles` replaced.

`ref_parts` splits a row of the truncated double into a `GPoly` loop and two
`GElement` jets, and `ref_row` packs them back.  `ref_double_bracket`,
`ref_invariant_form`, `ref_str` and `ref_is_isotropic` are the bracket, the
pairing, the printed text and the graded isotropy check on those triples:
the paths that reading the coordinate row in `doubles` replaced.

`ref_dj_rmatrix` is the four-candidate search for the sign and the
orientation of the constant Drinfeld-Jimbo part, one Yang-Baxter residual
per candidate: the path that the closed form of `lie.dj_rmatrix` replaced.

`ref_const_product`, `ref_reciprocal` and `ref_pow` reduce the product with
a constant, the reciprocal and the power of a RatFun from scratch through
`RatFun.of`: the paths that keeping the reduced form by theorem replaced.

`ref_rename` renames a RatFun's numerator and denominator and reduces the
pair from scratch through `RatFun.of`: the path by which a polynomial was
renamed before it was renamed over its unit denominator directly.

`ref_lagrangian_from_pair` takes its twisted loops as the loop part of the
element-built W_k: the path that reading W_k's keys in `doubles` replaced.

`ref_check_parabolic_pair` checks closure with `Subspace.is_subalgebra` and
then the cocycle identity: the path that reading closure off
`cocycle_residual` replaced.

`ref_intersect_spans` is the Zassenhaus block reduction, and
`ref_check_transversality` and `ref_quotient_image` read the transversality
counts and the jet image off the intersections it returns: the paths that
one rank and one nullspace in `doubles` replaced.  Each takes the rows of
i(g[u]) as an argument, so that a test can drop one as a negative control.
"""

from fractions import Fraction
from math import lcm

from yangbaxter import cybe, linalg
from yangbaxter.cybe import ConventionError, cobracket
from yangbaxter.doubles import (
    DoubleElement, DoubleSubspace, QuotientMismatch, UnrealizableForm, ambient_dim, line_shift,
)
from yangbaxter.frobenius import _skew_failure, check_parabolic_pair, cocycle_residual
from yangbaxter.gauge import _ad_coordinate_matrix
from yangbaxter.lie import (
    GElement, GPoly, Subspace, bracket_poly, orthogonal_complement_g, parabolic,
)
from yangbaxter.ratfun import P_ONE, Poly, RatFun, _poly_divexact, poly_gcd
from yangbaxter.tensors import Tensor2, Tensor3, accumulate, clear_denominators, leg_bracket

_RENAMES = {
    "12^13": ({"u": "u1", "v": "u2"}, {"u": "u1", "v": "u3"}),
    "12^23": ({"u": "u1", "v": "u2"}, {"u": "u2", "v": "u3"}),
    "13^23": ({"u": "u1", "v": "u3"}, {"u": "u2", "v": "u3"}),
}


def ref_leg_bracket(r, s, pair):
    table = r.table
    ren_r, ren_s = _RENAMES[pair]
    out = {}

    def add(key, val):
        cur = out.get(key)
        val = val if cur is None else cur + val
        if val.is_zero():
            out.pop(key, None)
        else:
            out[key] = val

    for (a, b), f in r.entries.items():
        f = f.rename(ren_r)
        for (c, d), g in s.entries.items():
            g = g.rename(ren_s)
            if pair == "12^13":
                for k, sc in table.structure.get((a, c), ()):
                    add((k, b, d), f * g * sc)
            elif pair == "12^23":
                for k, sc in table.structure.get((b, c), ()):
                    add((a, k, d), f * g * sc)
            else:
                for k, sc in table.structure.get((b, d), ()):
                    add((a, c, k), f * g * sc)
    return Tensor3(table, out)


_LEGS = {"12": {"u": "u1", "v": "u2"}, "13": {"u": "u1", "v": "u3"},
         "23": {"u": "u2", "v": "u3"}}
# The weight d_jk of each leg commutator: the legs it leaves out.
CYB_WEIGHTS = {"12^13": "23", "12^23": "13", "13^23": "12"}


def ref_weighted_cyb(r, weights=CYB_WEIGHTS):
    """[P12,P13]*d23 + [P12,P23]*d13 + [P13,P23]*d12 on the integral cleared
    form, one Poly product and one `accumulate` per commutator entry;
    `weights` maps each pair to the legs of its weight."""
    d, p = clear_denominators(r)
    scale = lcm(*(c.denominator for f in (d, *p.entries.values()) for c in f.terms.values()))
    d, p = d * scale, Tensor2(r.table, {key: f * scale for key, f in p.entries.items()})
    out = {}
    for pair, legs in weights.items():
        weight = d.rename(_LEGS[legs])
        for key, c in leg_bracket(p, p, pair).entries.items():
            accumulate(out, key, c * weight)
    return Tensor3(r.table, out)


def ref_gauge_loop(p, r):
    """Ad(p(u) (x) p(v)) on the cleared tensor, one Poly product and one
    `accumulate` per pair of adjoint columns, then each entry over d."""
    cols = _ad_coordinate_matrix(p)
    cols_v = [{c: pu.rename({"u": "v"}) for c, pu in col.items()} for col in cols]
    d, cleared = clear_denominators(r)
    out = {}
    for (a, b), f in cleared.entries.items():
        for c, pu in cols[a].items():
            left = pu * f
            for dd, pv in cols_v[b].items():
                accumulate(out, (c, dd), left * pv)
    return Tensor2(r.table, {key: RatFun.of(f, d) for key, f in out.items()})


def ref_clear_denominators(r):
    """(d, d*r): the lcm d of r's denominators, then d/den by long division."""
    dens = dict.fromkeys(f.den for f in r.entries.values() if not f.den.is_const())
    d = P_ONE
    for den in dens:
        d = d * _poly_divexact(den, poly_gcd(d, den))
    cofactor = {den: _poly_divexact(d, den) for den in dens}
    return d, type(r)(r.table, {
        key: f.num * cofactor.get(f.den, d) for key, f in r.entries.items()
    })


def ref_delta_on_first_leg(gamma, dp):
    """(delta (x) id) dp for a polynomial co-bracket dp: one RatFun product
    and one `accumulate` per co-bracket entry and u-degree of dp."""
    table = dp.table
    out = {}
    for (a, b), f in dp.entries.items():
        for k, g_k in f.num.as_univariate("u").items():
            inner = cobracket(gamma, GPoly.monomial(table.basis_element(a), k))
            weight = RatFun.from_poly(g_k).rename({"v": "u3"})
            for (c, d), h in inner.entries.items():
                accumulate(out, (c, d, b), h.rename({"u": "u1", "v": "u2"}) * weight)
    return Tensor3(table, out)


def poly_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Poly.const(0))
             for j in range(n)] for i in range(n)]


def ref_poly_det(mat):
    """Determinant by cofactor expansion along the first row."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Poly.const(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * ref_poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ref_poly_adjugate(mat):
    """Transposed cofactor matrix: the inverse of a determinant-1 matrix."""
    n = len(mat)
    if n == 1:
        return [[Poly.const(1)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = ref_poly_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def ref_ad_columns(table, mat):
    """[{c: Poly coefficient of basis c in mat x_a mat^-1} for each basis a],
    with mat^-1 the adjugate: each conjugate is split into one Fraction
    matrix per u-degree, read by coords_of_matrix and summed back."""
    n = table.n
    inv = ref_poly_adjugate(mat)
    cols = []
    for xa in table.mats:
        xmat = [[Poly.const(c) for c in row] for row in xa]
        conj = poly_matmul(poly_matmul(mat, xmat), inv)
        by_degree = {}
        for i in range(n):
            for j in range(n):
                for d, c in conj[i][j].as_univariate("u").items():
                    m = by_degree.setdefault(d, [[Fraction(0)] * n for _ in range(n)])
                    m[i][j] = c.const_value()
        col = {}
        for d, m in by_degree.items():
            for c, x in table.coords_of_matrix(m).items():
                col[c] = col.get(c, Poly.const(0)) + Poly.var("u", d) * x
        cols.append({c: x for c, x in col.items() if not x.is_zero()})
    return cols


def ref_parts(table, row):
    """A row of the truncated double as (GPoly loop, GElement a0, GElement a1)."""
    loop, jets = {}, {"a0": {}, "a1": {}}
    for key, c in row.items():
        if key[0] == "loop":
            loop.setdefault(key[1], {})[key[2]] = c
        else:
            jets[key[0]][key[1]] = c
    return (GPoly(table, {d: GElement(table, x) for d, x in loop.items()}),
            GElement(table, jets["a0"]), GElement(table, jets["a1"]))


def ref_row(loop, a0, a1):
    """The row of a (loop, a0, a1) triple."""
    row = {("loop", d, i): c for d, x in loop.terms.items() for i, c in x.terms.items()}
    for part, x in (("a0", a0), ("a1", a1)):
        row.update(((part, i), c) for i, c in x.terms.items())
    return row


def ref_double_bracket(x, y, cross=True):
    """(loop, a0, a1) of [x, y]: bracket_poly on the loops, and
    [A0 + A1 eps, B0 + B1 eps] = [A0,B0] + ([A0,B1] + [A1,B0]) eps.
    cross=False leaves out [A1,B0], as a negative control."""
    a1 = x[1].bracket(y[2])
    if cross:
        a1 = a1 + x[2].bracket(y[1])
    return bracket_poly(x[0], y[0]), x[1].bracket(y[1]), a1


def ref_invariant_form(x, y):
    """u^1-coefficient of K(loop_x, loop_y) - K(A0_x, A1_y) - K(A1_x, A0_y)."""
    total = 0
    for d, xe in x[0].terms.items():
        ye = y[0].terms.get(1 - d)
        if ye is not None:
            total += xe.killing(ye)
    return total - x[1].killing(y[2]) - x[2].killing(y[1])


def ref_str(x):
    """loop + (A0)_0 + (A1)*eps, leaving out the zero parts; "0" if all are."""
    loop, a0, a1 = x
    parts = [str(loop)] if not loop.is_zero() else []
    parts += [f"({a})" + suffix for a, suffix in ((a0, "_0"), (a1, "*eps")) if not a.is_zero()]
    return " + ".join(parts) if parts else "0"


def ref_is_isotropic(els):
    """Graded isotropy over triples: loop degree t meets 1 - t, jet grade 0
    (a0) meets grade 1 (a1), and Q is evaluated on the pairs j >= i that meet."""
    grades = [[("loop", d) for d in x[0].terms]
              + [("jet", t) for t, a in enumerate(x[1:]) if not a.is_zero()] for x in els]
    holders = {}
    for j, keys in enumerate(grades):
        for key in keys:
            holders.setdefault(key, set()).add(j)
    for i, x in enumerate(els):
        partners = set()
        for part, t in grades[i]:
            partners.update(j for j in holders.get((part, 1 - t), ()) if j >= i)
        if any(ref_invariant_form(x, els[j]) != 0 for j in partners):
            return False
    return True


def ref_diagonal_twist_space(table, k, window):
    """W_k: line a in loop degrees lo..min(hi, shift_a), then g and g*eps."""
    els = []
    for a in range(table.dim):
        x = table.basis_element(a)
        top = min(window.hi, line_shift(table, a, k))
        for d in range(window.lo, top + 1):
            els.append(DoubleElement.of(table, loop=GPoly.monomial(x, d)))
    for x in table.basis():
        els.append(DoubleElement.of(table, a0=x))
    for x in table.basis():
        els.append(DoubleElement.of(table, a1=x))
    return DoubleSubspace.of(table, window, els)


def ref_standard_complement(table, window):
    """P*: the loops in degrees lo..0, then g*eps."""
    els = []
    for d in range(window.lo, 1):
        for x in table.basis():
            els.append(DoubleElement.of(table, loop=GPoly.monomial(x, d)))
    for x in table.basis():
        els.append(DoubleElement.of(table, a1=x))
    return DoubleSubspace.of(table, window, els)


def ref_loop_part(sub):
    """The spanning elements with a zero jet part, as a new subspace."""
    els = [el for el in sub.elements
           if all(a.is_zero() for a in ref_parts(sub.table, el.row)[1:])]
    return DoubleSubspace.of(sub.table, sub.window, els)


def ref_contains_tail(w, tail_depth):
    """Whether w holds every x * u^t with lo <= t <= -tail_depth."""
    table, window = w.table, w.window
    for t in range(window.lo, -tail_depth + 1):
        for x in table.basis():
            el = DoubleElement.of(table, loop=GPoly.monomial(x, t))
            if not w.contains(el.coords(window)):
                return False
    return True


def ref_lagrangian_from_pair(table, k, subalg, form, window):
    """The loop part of the element-built W_k, then the graph of the form
    over L and the eps part of L's Killing complement."""
    rows = list(ref_loop_part(ref_diagonal_twist_space(table, k, window)).rows)
    basis = list(subalg)
    n = len(basis)
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


def ref_intersect_spans(vectors_a, vectors_b):
    """RREF basis of span(A) ∩ span(B), by pivot: rows (a, a) and (b, 0)
    reduce to rows (0, x) with x running over the intersection."""
    rows = [{(i, k): x for i in (0, 1) for k, x in a.items()} for a in vectors_a]
    rows += [{(0, k): x for k, x in b.items()} for b in vectors_b]
    ech = linalg.echelon_of(rows)
    return [{k[1]: x for k, x in ech.rows[p].items()} for p in sorted(ech.rows) if p[0] == 1]


def ref_check_transversality(w, window, tail_depth, ip_rows):
    """The transversality report from dim(W ∩ i(g[u])) by Zassenhaus."""
    inter = ref_intersect_spans(w.rows, ip_rows)
    return {
        "trivial_intersection": len(inter) == 0,
        "spans_with_polynomials":
            w.dim + len(ip_rows) - len(inter) == ambient_dim(w.table, window),
        "contains_tail": ref_contains_tail(w, tail_depth),
        "window": (window.lo, window.hi),
        "tail_depth": tail_depth,
    }


def ref_quotient_image(table, k, window, ip_rows):
    """The jet parts of the Zassenhaus basis of i(g[u]) ∩ W_k, each kept when
    it raises the rank; QuotientMismatch unless they span
    parabolic(k) + eps * (Killing complement of parabolic(k))."""
    wk = ref_diagonal_twist_space(table, k, window)
    image_ech = linalg.Echelon()
    image = []
    for vec in ref_intersect_spans(ip_rows, wk.rows):
        jet = {key: c for key, c in vec.items() if key[0] != "loop"}
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


def ref_dj_rmatrix(table, omega, with_convention=False):
    """Constant Drinfeld-Jimbo-type r-matrix compatible with v*Omega/(v-u).

    Construction: half the Cartan block of Omega plus, for every positive
    root, the dual pair with the scaling inherited from Omega.  The sign
    and the orientation of the root-vector pairing are fixed by a
    deterministic search over (+1, e(x)f), (+1, f(x)e), (-1, e(x)f),
    (-1, f(x)e): the first candidate r making v*Omega/(v-u) + r an exact
    Yang-Baxter solution wins, and the winning convention is recorded.
    The winner satisfies r + swap(r) = -Omega.
    """
    u = RatFun.var("u")
    v = RatFun.var("v")
    n = table.n
    cartan_idx = [table.index[f"H({i})"] for i in range(1, n)]
    omega_t = omega.tensor()
    base = {}
    for a in cartan_idx:
        for b in cartan_idx:
            c = omega.matrix[a][b]
            if c:
                base[(a, b)] = RatFun.from_frac(c / 2)
    attempts = []
    for sign, orient in ((1, "ef"), (1, "fe"), (-1, "ef"), (-1, "fe")):
        entries = dict(base)
        for (i, j) in table.root_pairs:
            if i < j:
                p = table.index[f"E({i},{j})"]
                m = table.index[f"E({j},{i})"]
                coeff = RatFun.from_frac(omega.matrix[p][m])
                key = (p, m) if orient == "ef" else (m, p)
                entries[key] = entries.get(key, RatFun.from_frac(0)) + coeff
        r = Tensor2.make(table, entries).scale(RatFun.from_frac(sign))
        candidate = omega_t.scale(v / (v - u)) + r
        residual = cybe.cyb(candidate)
        if residual.is_zero():
            if with_convention:
                return r, {"sign": sign, "orientation": orient}
            return r
        attempts.append((sign, orient, len(residual.entries)))
    raise ConventionError(
        "no sign/orientation makes the constant r-matrix compatible: "
        + ", ".join(f"(sign {s}, {o}): {k} residual terms" for s, o, k in attempts)
    )


def ref_const_product(f, c):
    """f * c for a constant RatFun c, reduced from scratch."""
    return RatFun.of(f.num * c.num, f.den)


def ref_reciprocal(f):
    """1 / f for a nonzero RatFun f, reduced from scratch."""
    return RatFun.of(f.den, f.num)


def ref_pow(f, n):
    """f ** n, each power reduced from scratch."""
    if n < 0:
        return ref_pow(ref_reciprocal(f), -n)
    return f if n == 1 else RatFun.of(f.num ** n, f.den ** n)


def ref_rename(f, mapping):
    """f with its variables renamed, reduced from scratch."""
    return RatFun.of(f.num.rename(mapping), f.den.rename(mapping))


def ref_check_parabolic_pair(table, sub, matrix, k):
    """The parabolic pair report with closure checked by is_subalgebra, and
    the cocycle identity only on a skew form over a closed subspace; the
    span and intersection keys are check_parabolic_pair's own."""
    closed = sub.is_subalgebra()
    cocycle = _skew_failure(matrix) is None and closed and cocycle_residual(sub, matrix) is None
    return {**check_parabolic_pair(table, sub, matrix, k), "subalgebra": closed, "cocycle": cocycle}
