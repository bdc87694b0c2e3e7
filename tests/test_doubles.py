"""Tests for the truncated double: bracket and invariant form, polynomial
embedding, dual pair bases, twist spaces, quotient images, and Lagrangian
constructions — all in exact rational arithmetic."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter

from yangbaxter.doubles import (
    DependentElement,
    DoubleElement,
    DoubleSubspace,
    DualSumMismatch,
    Window,
    WindowOverflow,
    ambient_dim,
    ambient_radical_dim,
    check_transversality,
    diagonal_twist_space,
    double_bracket,
    dual_basis_check,
    dual_sum_projection,
    embed_polynomial,
    _expansion_mismatch,
    _pairing_row,
    ambient_coords,
    embedded_polynomials,
    invariant_form,
    is_isotropic,
    is_lagrangian_truncated,
    is_subalgebra,
    lagrangian_from_pair,
    line_shift,
    loop_part,
    orth_complement_truncated,
    QuotientMismatch,
    quotient_image_of_polynomials,
    standard_complement,
)
from yangbaxter import doubles, linalg
from yangbaxter.lie import GPoly, casimir, make_sl
from yangbaxter.ratfun import RF_ZERO, Poly, RatFun

from reference import (
    ref_check_transversality,
    ref_contains_tail,
    ref_diagonal_twist_space,
    ref_double_bracket,
    ref_invariant_form,
    ref_is_isotropic,
    ref_lagrangian_from_pair,
    ref_loop_part,
    ref_parts,
    ref_quotient_image,
    ref_row,
    ref_standard_complement,
    ref_str,
)


def _rand_gpoly(t, rng, lo, hi):
    terms = {}
    for d in range(lo, hi + 1):
        if rng.random() < 0.5:
            x = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            if not x.is_zero():
                terms[d] = x
    return GPoly(t, terms)


def _rand_double(t, rng, window):
    return DoubleElement.of(
        t,
        loop=_rand_gpoly(t, rng, window.lo // 2, window.hi // 2),
        a0=t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)}),
        a1=t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)}),
    )


def test_window_basics():
    w = Window(-8, 4)
    assert w == Window(-8, 4)
    assert 0 in w and 4 in w and -8 in w
    assert 5 not in w and -9 not in w
    assert list(Window(-1, 1).exponents()) == [-1, 0, 1]
    with pytest.raises(ValueError):
        Window(1, 2)
    with pytest.raises(ValueError):
        Window(-2, -1)


def test_coords_round_trip():
    t = make_sl(2)
    w = Window(-4, 2)
    rng = random.Random(23)
    for _ in range(5):
        el = _rand_double(t, rng, w)
        row = el.coords(w)
        assert row is el.row and DoubleElement(t, row) == el
        assert ref_row(*ref_parts(t, row)) == row
    deep = DoubleElement.of(t, loop=GPoly.monomial(t.basis_element("e"), -9))
    with pytest.raises(WindowOverflow, match=r"loop exponent -9 outside window \[-4, 2\]"):
        deep.coords(w)
    # The jets have no degree, so no window refuses them.
    assert DoubleElement.of(t, a0=t.basis_element("e")).coords(Window(0, 0)) == {("a0", 0): 1}


def test_embed_polynomial_and_errors():
    t = make_sl(2)
    w = Window(-4, 2)
    e = t.basis_element("e")
    p = GPoly(t, {0: e, 1: e.scale(2)})
    el = embed_polynomial(p, w)
    assert ref_parts(t, el.row) == (p, e, e.scale(2))
    assert el.row == {("loop", 0, 0): 1, ("loop", 1, 0): 2, ("a0", 0): 1, ("a1", 0): 2}
    with pytest.raises(ValueError):
        embed_polynomial(GPoly.monomial(e, -1), w)
    with pytest.raises(WindowOverflow) as exc:
        embed_polynomial(GPoly.monomial(e, 3), w)
    assert "window hi" in str(exc.value)


def test_double_bracket_is_componentwise_with_nilpotent_jet():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    # eps^2 = 0: two pure-eps elements commute.
    x = DoubleElement.of(t, a1=e)
    y = DoubleElement.of(t, a1=f)
    assert double_bracket(x, y).row == {}
    # [a0, b1*eps] and [a1*eps, b0] land in the eps slot.
    h = t.index["h"]
    assert double_bracket(DoubleElement.of(t, a0=e), y).row == {("a1", h): 1}
    assert double_bracket(y, DoubleElement.of(t, a0=e)).row == {("a1", h): -1}
    # Loops and jets do not meet.
    assert double_bracket(DoubleElement.of(t, loop=GPoly.monomial(e)), DoubleElement.of(t, a0=f)).row == {}
    # The loop part is the loop bracket, whatever window holds the factors.
    w = Window(-4, 4)
    x = embed_polynomial(GPoly.monomial(e, 2), w)
    y = embed_polynomial(GPoly.monomial(f, 3), w)
    assert double_bracket(x, y) == DoubleElement.of(t, loop=GPoly.monomial(t.basis_element("h"), 5))


def test_embedding_is_a_homomorphism_seeded():
    t = make_sl(2)
    w = Window(-8, 4)
    rng = random.Random(31)
    for _ in range(6):
        p = _rand_gpoly(t, rng, 0, 2)
        q = _rand_gpoly(t, rng, 0, 2)
        from yangbaxter.lie import bracket_poly

        lhs = double_bracket(embed_polynomial(p, w), embed_polynomial(q, w))
        rhs = embed_polynomial(bracket_poly(p, q), w)
        assert lhs == rhs


def test_invariant_form_values():
    t = make_sl(2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    # Loop pairing picks complementary degrees d and 1-d.
    x = DoubleElement.of(t, loop=GPoly.monomial(e, 2))
    y = DoubleElement.of(t, loop=GPoly.monomial(f, -1))
    assert invariant_form(x, y) == F(4)
    assert invariant_form(y, x) == F(4)
    assert invariant_form(x, DoubleElement.of(t, loop=GPoly.monomial(f, 0))) == 0
    # Jet pairing is the crossed Killing pairing, negated.
    assert invariant_form(
        DoubleElement.of(t, a0=e), DoubleElement.of(t, a1=f)
    ) == F(-4)
    assert invariant_form(
        DoubleElement.of(t, a1=f), DoubleElement.of(t, a0=e)
    ) == F(-4)
    assert invariant_form(
        DoubleElement.of(t, a0=e), DoubleElement.of(t, a0=f)
    ) == 0


def test_invariant_form_is_ad_invariant_seeded():
    t = make_sl(2)
    w = Window(-4, 2)
    rng = random.Random(41)
    for _ in range(6):
        x, y, z = (_rand_double(t, rng, w) for _ in range(3))
        lhs = invariant_form(double_bracket(x, y), z)
        rhs = invariant_form(y, double_bracket(x, z))
        assert lhs + rhs == 0


def test_embedded_polynomials_isotropic():
    for n in (2, 3):
        t = make_sl(n)
        w = Window(-4, 2)
        ip = embedded_polynomials(t, w)
        assert ip.dim == t.dim * 3
        assert is_isotropic(ip)
        assert is_subalgebra(ip)


def test_ambient_radical_dimension():
    t = make_sl(2)
    # Loop degrees -2, -3, -4 have pairing partners outside [-4, 2].
    assert ambient_radical_dim(t, Window(-4, 2)) == 9
    assert ambient_dim(t, Window(-4, 2)) == 3 * 7 + 6


def _ref_ambient_radical_dim(table, window):
    """The radical as the kernel of the full Gram matrix of Q on the window."""
    unit_elements = []
    for d in window.exponents():
        for x in table.basis():
            unit_elements.append(DoubleElement.of(table, loop=GPoly.monomial(x, d)))
    for x in table.basis():
        unit_elements.append(DoubleElement.of(table, a0=x))
    for x in table.basis():
        unit_elements.append(DoubleElement.of(table, a1=x))
    rows = [_pairing_row(table, el.coords(window), window) for el in unit_elements]
    return len(linalg.nullspace(rows, ambient_coords(table, window)))


def test_ambient_radical_matches_gram_nullspace():
    # Every window with lo in [-6, 0] and hi in [0, 4], over sl(2)-sl(4).
    for n in (2, 3, 4):
        t = make_sl(n)
        for lo in range(-6, 1):
            for hi in range(0, 5):
                w = Window(lo, hi)
                assert ambient_radical_dim(t, w) == _ref_ambient_radical_dim(t, w), (
                    n, lo, hi)


def _ref_pairing_row(el, window):
    """Q(unit_c, el) built from one basis element and one Killing pair per entry."""
    table = el.table
    loop, a0, a1 = ref_parts(table, el.row)
    row = {}
    for d, y in loop.terms.items():
        t = 1 - d
        if t in window:
            for i in range(table.dim):
                c = table.killing_pair(table.basis_element(i).terms, y.terms)
                if c:
                    row[("loop", t, i)] = row.get(("loop", t, i), F(0)) + c
    for i in range(table.dim):
        c = table.killing_pair(table.basis_element(i).terms, a0.terms)
        if c:
            row[("a1", i)] = row.get(("a1", i), F(0)) - c
        c = table.killing_pair(table.basis_element(i).terms, a1.terms)
        if c:
            row[("a0", i)] = row.get(("a0", i), F(0)) - c
    return row


def test_pairing_row_matches_reference():
    rng = random.Random(59)
    for n in (2, 3, 4):
        t = make_sl(n)
        w = Window(-4, 2)
        els = [DoubleElement.of(t)] + [_rand_double(t, rng, w) for _ in range(6)]
        assert any(key[0] == "loop" for el in els for key in el.row)
        for el in els:
            row = _pairing_row(t, el.coords(w), w)
            assert row == _ref_pairing_row(el, w), (n, str(el))
            # The row is Q against the element, entry for entry.
            for key, c in row.items():
                unit = DoubleElement(t, {key: F(1)})
                assert invariant_form(unit, el) == c


def test_transversality_of_standard_complement():
    t = make_sl(2)
    w = Window(-4, 2)
    rep = check_transversality(standard_complement(t, w), w)
    assert rep["trivial_intersection"]
    assert rep["spans_with_polynomials"]
    assert rep["contains_tail"]
    assert rep["window"] == (-4, 2)
    # The polynomial part itself fails the trivial-intersection condition.
    rep_bad = check_transversality(embedded_polynomials(t, w), w)
    assert not rep_bad["trivial_intersection"]


def test_dual_pair_bases():
    assert dual_basis_check(make_sl(2), 4)
    assert dual_basis_check(make_sl(3), 2)


def test_dual_sum_projection_matches_series():
    t = make_sl(2)
    result = dual_sum_projection(t, 3)
    e, f = t.index["e"], t.index["f"]
    # The (e, f) slot truncates to c*(u + u^2*v^-1 + u^3*v^-2 + u^4*v^-3),
    # c = K^-1[f][e] = 1/4.
    u = Poly.var("u")
    assert result[(e, f)] == {-k: u ** (k + 1) * F(1, 4) for k in range(4)}
    # At scale 2 every term differs; the highest is the constant one.
    with pytest.raises(DualSumMismatch) as exc:
        dual_sum_projection(t, 3, omega=casimir(t, 2))
    w = exc.value
    assert (w.pair, w.exponent) == ((e, f), 0)
    assert w.got == RatFun.var("u") * F(1, 4) and w.expected == RatFun.var("u") * F(1, 2)
    assert "series expansion" in str(w)


def _geometric(order, scale, shift):
    """{v^-t-shift: scale*u^(t+1-shift)} for t = 0.., down to v^-order."""
    return {-t - shift: Poly.var("u", t + 1 - shift) * scale
            for t in range(order + 1 - shift)}


def test_expansion_mismatch_hand_built_controls():
    uu, vv = RatFun.var("u"), RatFun.var("v")
    u = Poly.var("u")
    for order in (1, 2, 5):
        # 1/(u - v) = -v^-1 - u*v^-2 - ...;  u*v/(v - u) = u + u^2*v^-1 + ...
        inv = (uu - vv) ** -1
        inv_series = _geometric(order, -1, 1)
        assert _expansion_mismatch(inv, inv_series, order) is None
        kernel = uu * vv / (vv - uu)
        kernel_series = _geometric(order, 1, 0)
        assert _expansion_mismatch(kernel, kernel_series, order) is None
        # One term missing: the witness is that term.
        missing = dict(kernel_series)
        del missing[-order]
        assert _expansion_mismatch(kernel, missing, order) == (
            -order, RF_ZERO, uu ** (order + 1))
        # One term too many, above the expansion's top exponent.
        extra = {**inv_series, 0: u}
        assert _expansion_mismatch(inv, extra, order) == (0, uu, RF_ZERO)
        # Nothing kept for a nonzero entry: the top term is missing.
        assert _expansion_mismatch(kernel, {}, order) == (0, RF_ZERO, uu)
        assert _expansion_mismatch(inv, {}, order) == (-1, RF_ZERO, RatFun.from_frac(-1))
    with pytest.raises(ValueError):
        _expansion_mismatch(inv, {-2: u}, 1)


def test_expansion_mismatch_matches_sympy_series():
    # Substituting v = 1/w turns the expansion at v = oo into a series at
    # w = 0.  The numerator carries a power of the v-leading coefficient a(u)
    # of the denominator, so every kept coefficient is a polynomial in u.
    sympy = pytest.importorskip("sympy")
    su, sv, sw = sympy.symbols("u v w")
    rng = random.Random(41)
    u, v = Poly.var("u"), Poly.var("v")

    def small_u_poly():
        return Poly.const(rng.randint(-2, 2)) + u * rng.randint(-1, 1)

    def to_sympy(p):
        return sympy.sympify(str(p).replace("^", "**"), locals={"u": su, "v": sv})

    for case in range(8):
        order = case // 2 + 1
        d_deg = rng.randint(1, 2)
        lead = u * rng.choice((1, -2)) if case % 2 else Poly.const(rng.choice((1, 3)))
        den = lead * v ** d_deg + sum((small_u_poly() * v ** i for i in range(d_deg)),
                                      Poly({}))
        n_deg = rng.randint(0, 2)
        num0 = sum((small_u_poly() * v ** i for i in range(n_deg + 1)), Poly({}))
        if num0.is_zero():
            num0 = Poly.const(1)
        num = num0 * lead ** max(0, n_deg - d_deg + order + 1)
        f = RatFun.of(num, den)
        top = num.degree_in("v") - d_deg
        at_zero = sympy.cancel((to_sympy(num) / to_sympy(den)).subs(sv, 1 / sw))
        series = sympy.series(at_zero, sw, 0, order + 1).removeO()
        # w^(top+1) * series is a polynomial in w over a denominator in u.
        top_num, top_den = sympy.fraction(sympy.cancel(series * sw ** (top + 1)))
        assert sw not in top_den.free_symbols
        by_w = sympy.Poly(top_num, sw)
        expansion = {}
        for k in range(-order, top + 2):
            c = sympy.Poly(sympy.cancel(by_w.coeff_monomial(sw ** (top + 1 - k)) / top_den), su)
            expansion[k] = Poly.make(("u",), {(e,): F(str(a)) for (e,), a in c.terms()})
        kept = {k: p for k, p in expansion.items() if p}
        assert _expansion_mismatch(f, kept, order) is None, case
        k0 = rng.randint(-order, top + 1)
        bumped = dict(kept)
        bumped[k0] = expansion[k0] + (u if rng.random() < 0.5 else Poly.const(-2))
        assert _expansion_mismatch(f, bumped, order) == (
            k0, RatFun.from_poly(bumped[k0]), RatFun.from_poly(expansion[k0])), case


def test_line_shift_and_twist_space_dims():
    t2 = make_sl(2)
    assert [line_shift(t2, a, 1) for a in range(t2.dim)] == [1, -1, 0]
    assert [line_shift(t2, a, 0) for a in range(t2.dim)] == [0, 0, 0]
    w = Window(-4, 2)
    assert diagonal_twist_space(t2, 0, w).dim == 21
    assert diagonal_twist_space(t2, 1, w).dim == 21
    t3 = make_sl(3)
    assert diagonal_twist_space(t3, 2, Window(-8, 4)).dim == 88
    with pytest.raises(ValueError):
        diagonal_twist_space(t2, 2, w)


def test_twist_spaces_are_subalgebras():
    t = make_sl(2)
    w = Window(-4, 2)
    for k in (0, 1):
        assert is_subalgebra(diagonal_twist_space(t, k, w))


def test_twist_space_complement_is_its_loop_part():
    for n, ks in ((2, (0, 1)), (3, (0, 1, 2))):
        t = make_sl(n)
        w = Window(-4, 2)
        for k in ks:
            wk = diagonal_twist_space(t, k, w)
            comp = orth_complement_truncated(wk, w)
            assert comp.equals(loop_part(wk)), (n, k)
            assert wk.dim - comp.dim == 2 * t.dim, (n, k)


def test_quotient_image_of_polynomials():
    t = make_sl(2)
    image = quotient_image_of_polynomials(t, 1, Window(-4, 2))
    assert [str(el) for el in image] == [
        "(E(1,2))_0",
        "(H(1))_0",
        "(E(1,2))*eps",
    ]
    with pytest.raises(ValueError):
        quotient_image_of_polynomials(t, 0, Window(-4, 2))
    # sl(3), both parabolics: dim = dim P_k + dim complement = 6 + 2.
    t3 = make_sl(3)
    for k in (1, 2):
        image = quotient_image_of_polynomials(t3, k, Window(-4, 2))
        assert len(image) == 8


def test_lagrangian_from_pair():
    t = make_sl(2)
    w = Window(-4, 2)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")

    def form_eh(i, j):
        return {(0, 1): F(1), (1, 0): F(-1)}.get((i, j), F(0))

    lag = lagrangian_from_pair(t, 0, [e, h], form_eh, w)
    assert lag.dim == 18
    assert is_lagrangian_truncated(lag, w)
    assert is_subalgebra(lag)

    def form_cob(i, j):
        basis = [e, f, h]
        return f.killing(basis[i].bracket(basis[j]))

    lag2 = lagrangian_from_pair(t, 1, [e, f, h], form_cob, w)
    assert lag2.dim == 18
    assert is_lagrangian_truncated(lag2, w)
    assert is_subalgebra(lag2)


def test_lagrangian_fails_on_nonisotropic_space():
    t = make_sl(2)
    w = Window(-2, 1)
    els = [
        DoubleElement.of(t, loop=GPoly.monomial(t.basis_element("e"), 1)),
        DoubleElement.of(t, loop=GPoly.monomial(t.basis_element("f"), 0)),
    ]
    sub = DoubleSubspace.of(t, w, els)
    assert not is_isotropic(sub)
    assert not is_lagrangian_truncated(sub, w)


def test_double_checks_hold_under_optimisation():
    # No check may rest on assert: under `python -O` a dependent spanning
    # element, a form with no Killing realization (the subalgebra basis
    # [e, e] asks B(e, e') = 0 and = 1 at once) and a window without 0
    # must raise, and so must a dual-pair order below its minimum and a
    # check at another window than its subspace's.
    script = (
        "from yangbaxter import doubles as d\n"
        "from yangbaxter.lie import GPoly, make_sl\n"
        "t = make_sl(2)\n"
        "w = d.Window(-2, 1)\n"
        "e = t.basis_element('e')\n"
        "el = d.embed_polynomial(GPoly.monomial(e, 1), w)\n"
        "try:\n"
        "    d.DoubleSubspace.of(t, w, [el, d.embed_polynomial(GPoly.monomial(e.scale(2), 1), w)])\n"
        "    print('dependent accepted')\n"
        "except d.DependentElement:\n"
        "    print('dependent rejected')\n"
        "try:\n"
        "    d.lagrangian_from_pair(t, 0, [e, e], lambda i, j: i - j, w)\n"
        "    print('form accepted')\n"
        "except d.UnrealizableForm:\n"
        "    print('form rejected')\n"
        "try:\n"
        "    d.Window(1, 0)\n"
        "    print('window accepted')\n"
        "except ValueError:\n"
        "    print('window rejected')\n"
        "for fn, order in ((d._dual_pair_bases, 1), (d.dual_sum_projection, 0)):\n"
        "    try:\n"
        "        fn(t, order)\n"
        "        print('order accepted')\n"
        "    except ValueError:\n"
        "        print('order rejected')\n"
        # Elements of sl(2) and sl(3) must not meet, nor a non-GPoly loop
        # enter, nor parts enter a table not their own: each call below
        # raises ValueError.
        "t3 = make_sl(3)\n"
        "el3 = d.embed_polynomial(GPoly.monomial(t3.basis_element(0), 1), w)\n"
        "for fn in (lambda: d.double_bracket(el, el3), lambda: d.invariant_form(el, el3),\n"
        "           lambda: d.DoubleSubspace.of(t, w, [el3]),\n"
        "           lambda: d.DoubleElement.of(t, GPoly.monomial(e, 1), t3.zero(), t.zero()),\n"
        "           lambda: d.DoubleElement.of(t3, GPoly.monomial(e, 1)),\n"
        "           lambda: d.DoubleElement.of(t, e, e, e), lambda: d.embed_polynomial(e, w)):\n"
        "    try:\n"
        "        fn()\n"
        "        print('cross accepted')\n"
        "    except ValueError:\n"
        "        print('cross rejected')\n"
        # A check at another window than its subspace's raises ValueError.
        "w4 = d.Window(-4, 2)\n"
        "for fn in (lambda: d.check_transversality(d.standard_complement(t, w4), w),\n"
        "           lambda: d.orth_complement_truncated(d.diagonal_twist_space(t, 1, w4), w),\n"
        "           lambda: d.is_lagrangian_truncated(d.diagonal_twist_space(t, 0, w), w4)):\n"
        "    try:\n"
        "        fn()\n"
        "        print('other window accepted')\n"
        "    except ValueError:\n"
        "        print('other window rejected')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.split("\n")[:15] == [
            "dependent rejected", "form rejected", "window rejected",
            "order rejected", "order rejected"] + ["cross rejected"] * 7 + [
            "other window rejected"] * 3, (flags, proc.stdout)


# --- Graded isotropy and unordered-pair closure against the all-pairs checks.


def _all_pairs_isotropic(sub):
    els = sub.elements
    return all(invariant_form(x, y) == 0 for i, x in enumerate(els) for y in els[i:])


def _ordered_pairs_subalgebra(sub, window):
    """Every ordered pair, bracketed as triples by the reference."""
    parts = [ref_parts(sub.table, row) for row in sub.rows]
    for x in parts:
        for y in parts:
            z = ref_double_bracket(x, y)
            degs = z[0].degrees()
            if degs and (degs[0] < window.lo or degs[-1] > window.hi):
                continue
            if not sub.contains(ref_row(*z)):
                return False
    return True


def _seeded_lagrangian(t, rng, window, skew):
    """lagrangian_from_pair over a seeded L; a non-skew form has B(x0, x0) != 0."""
    k, basis, form = _seeded_pair(t, rng, skew)
    return lagrangian_from_pair(t, k, basis, lambda i, j: form[i][j], window)


def _seeded_pair(t, rng, skew):
    """(k, basis of L, form matrix) for _seeded_lagrangian."""
    size = rng.randint(1, min(4, t.dim))
    basis = [t.basis_element(a) for a in rng.sample(range(t.dim), size)]
    form = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = F(rng.randint(-3, 3))
            form[i][j], form[j][i] = c, -c
    if not skew:
        form[0][0] = F(rng.choice([-2, -1, 1, 2]))
    k = rng.randrange(t.n)
    return k, basis, form


def test_lagrangian_graph_realises_the_form_up_to_the_complement():
    """Each graph element (0, x_i, xi_i) has K(xi_i, y_j) = B(i, j).  xi_i is
    fixed only up to the Killing complement of L, which W holds as its eps
    part: shifting every xi_i by a seeded element of it gives the same W,
    and shifting by x_0 (K(x_0, x_0) != 0 for these unit bases) does not."""
    from yangbaxter.lie import Subspace, orthogonal_complement_g

    rng = random.Random(29)
    w = Window(-4, 2)
    shifted_off = 0
    for n in (2, 3, 3, 4):
        t = make_sl(n)
        for _ in range(3):
            k, basis, form = _seeded_pair(t, rng, skew=True)
            lag = lagrangian_from_pair(t, k, basis, lambda i, j: form[i][j], w)
            parts = [ref_parts(t, row) for row in lag.rows]
            graph = [(a0, a1) for _, a0, a1 in parts if not a0.is_zero()]
            assert [a0 for a0, _ in graph] == basis
            for i, (_, a1) in enumerate(graph):
                for j, y in enumerate(basis):
                    assert t.killing_pair(a1.terms, y.terms) == form[i][j], (n, i, j)
            comp = orthogonal_complement_g(Subspace(t, basis), t).elements
            others = [el for el, (_, a0, _) in zip(lag.elements, parts) if a0.is_zero()]

            def shifted(by):
                return DoubleSubspace.of(t, w, others + [
                    DoubleElement.of(t, a0=a0, a1=a1 + by(i)) for i, (a0, a1) in enumerate(graph)
                ])

            def eta(i):
                return sum((c.scale(rng.randint(-2, 2)) for c in comp), t.zero())

            assert shifted(eta).equals(lag)
            if t.killing_pair(basis[0].terms, basis[0].terms):
                assert not shifted(lambda i: basis[0]).equals(lag)
                shifted_off += 1
    assert shifted_off > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.booleans(), st.integers(0, 2**16))
def test_graded_isotropy_matches_all_pairs_on_lagrangians(n, skew, seed):
    t = make_sl(n)
    w = Window(-4, 2)
    lag = _seeded_lagrangian(t, random.Random(seed), w, skew)
    assert is_isotropic(lag) == _all_pairs_isotropic(lag) == skew
    assert is_lagrangian_truncated(lag, w) == skew


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3)), st.integers(1, 4), st.integers(0, 2**16))
def test_graded_isotropy_matches_all_pairs_on_random_spaces(n, size, seed):
    """Sparse random elements: single loop terms, jet parts, or both."""
    t = make_sl(n)
    w = Window(-3, 3)
    rng = random.Random(seed)
    els = []
    ech = linalg.Echelon()
    while len(els) < size:
        x = t.basis_element(rng.randrange(t.dim)).scale(rng.choice([-2, -1, 1, 3]))
        parts = rng.choice(("loop", "a0", "a1", "jet", "mixed"))
        loop = GPoly.monomial(x, rng.randint(w.lo, w.hi)) if parts in ("loop", "mixed") else None
        a0 = x if parts in ("a0", "jet", "mixed") else None
        a1 = t.basis_element(rng.randrange(t.dim)) if parts in ("a1", "jet") else None
        el = DoubleElement.of(t, loop=loop, a0=a0, a1=a1)
        if ech.add(el.coords(w)):
            els.append(el)
    sub = DoubleSubspace.of(t, w, els)
    assert is_isotropic(sub) == _all_pairs_isotropic(sub)


def test_graded_isotropy_negative_controls():
    t = make_sl(2)
    w = Window(-4, 4)
    e, f, h = (t.basis_element(s) for s in "efh")
    # Loop degrees t and 1 - t pair: K(e, f) = 4.
    for d in range(-2, 5):
        pair = [DoubleElement.of(t, loop=GPoly.monomial(e, d)),
                DoubleElement.of(t, loop=GPoly.monomial(f, 1 - d))]
        assert not is_isotropic(DoubleSubspace.of(t, w, pair)), d
        shifted = [pair[0], DoubleElement.of(t, loop=GPoly.monomial(f, 2 - d))]
        assert is_isotropic(DoubleSubspace.of(t, w, shifted)), d
    # a0 pairs with a1 across two elements; a0 with a0 does not.
    cross = [DoubleElement.of(t, a0=e), DoubleElement.of(t, a1=f)]
    assert not is_isotropic(DoubleSubspace.of(t, w, cross))
    same = [DoubleElement.of(t, a0=e), DoubleElement.of(t, a0=f)]
    assert is_isotropic(DoubleSubspace.of(t, w, same))
    # The graph of a non-skew form: one element pairs with itself.
    diagonal = [DoubleElement.of(t, a0=h, a1=h)]
    assert not is_isotropic(DoubleSubspace.of(t, w, diagonal))
    lag = lagrangian_from_pair(t, 0, [e, h], lambda i, j: F(1 if i == j == 0 else 0), w)
    assert not is_isotropic(lag) and not _all_pairs_isotropic(lag)


def test_isotropy_pairs_only_graded_partners(monkeypatch):
    """The sl(4) Lagrangian at [-32, 16] needs few Q evaluations, not n^2/2."""
    t = make_sl(4)
    w = Window(-32, 16)
    lag = _seeded_lagrangian(t, random.Random(5), w, skew=True)
    calls = []
    form = doubles.invariant_form

    def counted(x, y):
        calls.append((x, y))
        return form(x, y)

    monkeypatch.setattr(doubles, "invariant_form", counted)
    assert is_lagrangian_truncated(lag, w)
    all_pairs = lag.dim * (lag.dim + 1) // 2
    assert 0 < len(calls) < lag.dim < all_pairs // 100, (len(calls), lag.dim)


def test_subalgebra_unordered_pairs_match_ordered_reference():
    w = Window(-4, 2)
    t2, t3 = make_sl(2), make_sl(3)
    spaces = [embedded_polynomials(t2, w), standard_complement(t2, w)]
    spaces += [diagonal_twist_space(t, k, w) for t in (t2, t3) for k in range(t.n)]
    rng = random.Random(12)
    spaces += [_seeded_lagrangian(t2, rng, w, skew) for skew in (True, False, True)]
    # Negative control: span{E(1,2), E(2,1)} in the constant loops misses [e, f].
    open_pair = [DoubleElement.of(t3, loop=GPoly.monomial(t3.basis_element(s)))
                 for s in ("E(1,2)", "E(2,1)")]
    spaces.append(DoubleSubspace.of(t3, w, open_pair))
    verdicts = [is_subalgebra(sub) for sub in spaces]
    assert verdicts == [_ordered_pairs_subalgebra(sub, w) for sub in spaces]
    assert verdicts[-1] is False and verdicts[0] is True


# --- Transversality by the dimension formula against one joint elimination.


def _ref_check_transversality(w, window, tail_depth=1):
    """The Zassenhaus report against a freshly built i(g[u])."""
    ip = embedded_polynomials.__wrapped__(w.table, window)
    return ref_check_transversality(w, window, tail_depth, ip.rows)


def test_transversality_matches_joint_rank_on_builtin_spaces():
    w = Window(-4, 2)
    t2, t3 = make_sl(2), make_sl(3)
    rng = random.Random(5)
    spaces = [standard_complement(t, w) for t in (t2, t3)]
    spaces += [embedded_polynomials(t, w) for t in (t2, t3)]
    spaces += [diagonal_twist_space(t, k, w) for t in (t2, t3) for k in range(t.n)]
    spaces += [loop_part(diagonal_twist_space(t3, 1, w))]
    spaces += [orth_complement_truncated(diagonal_twist_space(t2, 1, w), w)]
    spaces += [_seeded_lagrangian(t, rng, w, True) for t in (t2, t3)]
    spans = []
    for sub in spaces:
        for depth in (0, 1, 3):
            rep = check_transversality(sub, w, depth)
            assert rep == _ref_check_transversality(sub, w, depth), (sub, depth)
        spans.append(rep["spans_with_polynomials"])
    assert True in spans and False in spans


@st.composite
def _perturbed_complements(draw):
    """Subsets of P* (sl(2), window [-2, 1]) shifted by integral combinations
    of i(g[u]), plus some elements of i(g[u]) itself: all of P* kept spans,
    a dropped element does not, and an added i(g[u]) element meets it."""
    t = make_sl(2)
    window = Window(-2, 1)
    ip = embedded_polynomials(t, window).rows
    drop, shift = draw(st.booleans()), draw(st.booleans())
    rows = []
    for p in standard_complement(t, window).rows:
        if drop and draw(st.integers(0, 3)) == 0:
            continue
        for q in ip if shift else ():
            c = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
            if c:
                p = {key: p.get(key, 0) + c * q.get(key, 0) for key in {**p, **q}}
                p = {key: x for key, x in p.items() if x}
        rows.append(p)
    rows += draw(st.lists(st.sampled_from(ip), max_size=2, unique_by=id))
    ech = linalg.Echelon()
    return DoubleSubspace(t, window, [row for row in rows if ech.add(row)]), window


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_perturbed_complements(), st.integers(0, 2))
def test_transversality_matches_joint_rank_on_random_subspaces(space, depth):
    sub, window = space
    assert check_transversality(sub, window, depth) == _ref_check_transversality(
        sub, window, depth
    )


def test_transversality_with_shared_polynomial_part_is_repeatable():
    t = make_sl(3)
    w = Window(-4, 2)
    embedded_polynomials.cache_clear()
    first_ip = embedded_polynomials(t, w)
    rows = [dict(r) for r in first_ip.rows]
    pstar = standard_complement(t, w)
    reports = [check_transversality(pstar, Window(-4, 2)) for _ in range(2)]
    reports.append(check_transversality(first_ip, w))
    assert embedded_polynomials.cache_info().hits >= 3
    assert embedded_polynomials(t, Window(-4, 2)) is first_ip
    assert reports[0] == reports[1] == _ref_check_transversality(pstar, w)
    assert reports[2] == _ref_check_transversality(first_ip, w)
    assert isinstance(first_ip.elements, tuple)
    assert list(first_ip.rows) == rows == [el.coords(w) for el in first_ip.elements]
    assert hash(Window(-4, 2)) == hash(w) and Window(-4, 2) == w != Window(-4, 1)


# --- One rank and one nullspace against the Zassenhaus references.


@st.composite
def _double_subspaces(draw):
    """(table, window [-2T, T], W) for sl(2)..sl(4) and T in 0..4.  W is P*,
    i(g[u]) itself, a twist space, a pair Lagrangian (rows that are not unit
    vectors), or seeded unit rows with a few integral combinations."""
    n, top = draw(st.sampled_from((2, 3, 4))), draw(st.integers(0, 4))
    t, w = make_sl(n), Window(-2 * top, top)
    kind = draw(st.sampled_from(("pstar", "polynomials", "twist", "lagrangian", "rows")))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "pstar":
        return t, w, standard_complement(t, w)
    if kind == "polynomials":
        return t, w, embedded_polynomials(t, w)
    if kind == "twist":
        return t, w, diagonal_twist_space(t, rng.randrange(n), w)
    if kind == "lagrangian":
        return t, w, _seeded_lagrangian(t, rng, w, skew=True)
    keys = ambient_coords(t, w)
    rows = [{key: 1} for key in rng.sample(keys, rng.randint(1, len(keys)))]
    for _ in range(rng.randint(0, 3)):
        rows.append({key: rng.choice([-2, -1, 1, 3]) for key in rng.sample(keys, 3)})
    ech = linalg.Echelon()
    return t, w, DoubleSubspace(t, w, [row for row in rows if ech.add(row)])


def _quotient_or_mismatch(quotient, *args):
    try:
        return [el.coords(args[-1]) for el in quotient(*args)]
    except QuotientMismatch as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_double_subspaces())
def test_rank_and_nullspace_match_zassenhaus_references(space):
    """Every tail depth 0..2T gives the reference's report, and every k the
    reference's quotient image: the same rows in the same order, or the same
    QuotientMismatch (as at T = 0, where no u^1 reaches W_k)."""
    t, w, sub = space
    ip = embedded_polynomials(t, w).rows
    for depth in range(-w.lo + 1):
        assert check_transversality(sub, w, depth) == ref_check_transversality(sub, w, depth, ip)
    for k in range(1, t.n):
        assert _quotient_or_mismatch(quotient_image_of_polynomials, t, k, w) == \
            _quotient_or_mismatch(lambda *a: ref_quotient_image(*a, ip), t, k, w), (t.n, k, w)


def test_zassenhaus_references_see_a_dropped_polynomial_row():
    """Negative control: with one row of i(g[u]) dropped, each reference
    differs from the package on some of these spaces."""
    transversal = quotient = 0
    for n in (2, 3, 4):
        t = make_sl(n)
        for top in (0, 1, 2):
            w = Window(-2 * top, top)
            ip = embedded_polynomials(t, w).rows
            for drop in (0, len(ip) - 1):
                short = ip[:drop] + ip[drop + 1:]
                for sub in (standard_complement(t, w), diagonal_twist_space(t, n - 1, w)):
                    transversal += check_transversality(sub, w) != \
                        ref_check_transversality(sub, w, 1, short)
                for k in range(1, n):
                    quotient += _quotient_or_mismatch(quotient_image_of_polynomials, t, k, w) != \
                        _quotient_or_mismatch(lambda *a: ref_quotient_image(*a, short), t, k, w)
    assert transversal > 0 and quotient > 0, (transversal, quotient)


# --- Coordinate subspaces from unit rows against the element-built references.


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.integers(0, 4))
def test_unit_row_subspaces_match_element_references(n, top):
    """W_k for every k, P* and their loop parts, at the window [-2T, T]: the
    same rows in the same order, equal spans and equal reports at every
    tail depth.  Negative controls: one line raised by one degree, and one
    tail vector dropped."""
    t = make_sl(n)
    w = Window(-2 * top, top)
    pairs = [(standard_complement(t, w), ref_standard_complement(t, w))]
    for k in range(n):
        pairs.append((diagonal_twist_space(t, k, w), ref_diagonal_twist_space(t, k, w)))
    pairs += [(loop_part(new), ref_loop_part(ref)) for new, ref in pairs]
    pairs.append((loop_part(embedded_polynomials(t, w)), ref_loop_part(embedded_polynomials(t, w))))
    for new, ref in pairs:
        assert new.rows == ref.rows, (n, top, ref)
        assert new.equals(ref) and ref.equals(new), (n, top, ref)
        for depth in range(2 * top + 1):
            rep = check_transversality(new, w, depth)
            assert rep == check_transversality(ref, w, depth), (n, top, ref, depth)
            assert rep["contains_tail"] == ref_contains_tail(ref, depth), (n, top, ref, depth)
    for k in range(n):
        wk = diagonal_twist_space(t, k, w)
        for a in range(t.dim):
            d = line_shift(t, a, k) + 1
            if d <= top:
                raised = wk.rows + ({("loop", d, a): 1},)
                assert not DoubleSubspace(t, w, raised).equals(wk), (n, top, k, a)
                assert not ref_diagonal_twist_space(t, k, w).equals(DoubleSubspace(t, w, raised))
    pstar = standard_complement(t, w)
    for depth in range(2 * top + 1):
        for gone in ({("loop", w.lo, 0): 1}, {("loop", -depth, t.dim - 1): 1}):
            holed = DoubleSubspace(t, w, [row for row in pstar.rows if row != gone])
            assert holed.dim == pstar.dim - 1
            assert not check_transversality(holed, w, depth)["contains_tail"], (n, top, depth)
            assert not ref_contains_tail(holed, depth)


# --- W_k read as keys, and the transversality rank off W's own echelon.


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.integers(0, 4), st.booleans(), st.integers(0, 2**16))
def test_lagrangian_rows_match_element_built_twist_space(n, top, skew, seed):
    """For every k at the window [-2T, T], the rows of the reference, built
    from the loop part of the element-built W_k, in the same order; k = n
    is refused."""
    t = make_sl(n)
    w = Window(-2 * top, top)
    _, basis, form = _seeded_pair(t, random.Random(seed), skew)
    for k in range(n):
        args = (t, k, basis, lambda i, j: form[i][j], w)
        assert lagrangian_from_pair(*args).rows == ref_lagrangian_from_pair(*args).rows, (n, top, k)
    with pytest.raises(ValueError, match=f"k must be in 0..{n - 1}, got {n}"):
        lagrangian_from_pair(t, n, basis, lambda i, j: form[i][j], w)


def test_twist_keys_build_no_subspace_of_w_k(monkeypatch):
    """With i(g[u]) cached, the quotient image builds no DoubleSubspace, and
    the pair Lagrangian builds only the one it returns."""
    w = Window(-4, 2)
    tables = [make_sl(n) for n in (2, 3, 4)]
    for t in tables:
        embedded_polynomials(t, w)
    built = []
    init = DoubleSubspace.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(DoubleSubspace, "__init__", counted)
    for t in tables:
        for k in range(1, t.n):
            quotient_image_of_polynomials(t, k, w)
        assert built == [], t.n
        for k in range(t.n):
            lag = lagrangian_from_pair(t, k, t.basis(), lambda i, j: 0, w)
            assert built == [lag], (t.n, k)
            built.clear()


def test_transversality_rank_off_w_matches_zassenhaus_on_meeting_and_short_spaces():
    """rank(W ∪ i(g[u])) = dim W + the rank of i(g[u]) reduced modulo W: the
    report equals the reference's on a W that meets i(g[u]) nontrivially
    (P* plus the embedding of a constant, which only a0 sets apart) and on
    one that does not span (P* without its deepest row), and on both at
    once."""
    for n in (2, 3):
        t = make_sl(n)
        w = Window(-2, 1)
        ip = embedded_polynomials(t, w).rows
        pstar = standard_complement(t, w).rows
        spaces = {(False, True): pstar + (ip[0],), (True, False): pstar[1:],
                  (False, False): pstar[1:] + (ip[-1],)}
        for verdicts, rows in spaces.items():
            sub = DoubleSubspace(t, w, rows)
            for depth in (0, 1, 2):
                rep = check_transversality(sub, w, depth)
                assert rep == ref_check_transversality(sub, w, depth, ip), (n, verdicts, depth)
                assert (rep["trivial_intersection"], rep["spans_with_polynomials"]) == verdicts


def test_subspace_holds_rows_and_reads_elements_back():
    t = make_sl(2)
    w = Window(-2, 1)
    e = t.basis_element("e")
    el = embed_polynomial(GPoly.monomial(e, 1), w)
    sub = DoubleSubspace.of(t, w, [el])
    assert sub.rows == (el.coords(w),) and sub.elements == (el,)
    # The elements wrap the rows; nothing is converted.
    assert sub.elements[0].row is sub.rows[0] and sub.elements[0].table is t
    assert sub.contains({key: 3 * c for key, c in el.row.items()})
    assert not sub.contains({("a1", 0): 1})
    assert "elements" not in vars(sub)
    with pytest.raises(DependentElement, match="dependent spanning element"):
        DoubleSubspace(t, w, [{("a0", 0): 1}, {("a0", 0): 2}])
    with pytest.raises(WindowOverflow):
        DoubleSubspace.of(t, w, [DoubleElement.of(t, loop=GPoly.monomial(e, 2))])
    with pytest.raises(ValueError, match="another algebra"):
        DoubleSubspace.of(make_sl(3), w, [el])


def test_checks_refuse_a_window_other_than_the_subspace_s():
    """Each window-taking check reads its subspace at the subspace's own
    window: P* at [-4, 2] would otherwise not span at [-2, 1], W_1 get a
    9-dim complement in place of 15, and a Lagrangian at [-4, 2] fail to be
    maximal at [-8, 4]."""
    t = make_sl(2)
    w, small, large = Window(-4, 2), Window(-2, 1), Window(-8, 4)
    pstar = standard_complement(t, w)
    w1 = diagonal_twist_space(t, 1, w)
    lag = lagrangian_from_pair(t, 0, [t.basis_element("e"), t.basis_element("h")],
                               lambda i, j: F(i - j), w)
    for other in (small, large):
        with pytest.raises(ValueError, match="not the subspace's"):
            check_transversality(pstar, other)
        with pytest.raises(ValueError, match="not the subspace's"):
            orth_complement_truncated(w1, other)
        with pytest.raises(ValueError, match="not the subspace's"):
            is_lagrangian_truncated(lag, other)
    # At the subspace's own window, built anew, every check holds.
    assert check_transversality(pstar, Window(-4, 2))["spans_with_polynomials"]
    assert orth_complement_truncated(w1, Window(-4, 2)).dim == 15
    assert is_lagrangian_truncated(lag, Window(-4, 2))


# --- Row elements against the (GPoly, GElement, GElement) triples they replaced.

_COEFFS = (-2, -1, 1, 3, F(1, 2))


def _random_rows(t, rng, window, count=4):
    """Rows with up to three loop terms in the window and up to two terms in
    each of a0 and a1; any part may be empty."""
    rows = []
    for _ in range(count):
        row = {("loop", rng.randint(window.lo, window.hi), rng.randrange(t.dim)): rng.choice(_COEFFS)
               for _ in range(rng.randint(0, 3))}
        for part in ("a0", "a1"):
            row.update(((part, rng.randrange(t.dim)), rng.choice(_COEFFS))
                       for _ in range(rng.randint(0, 2)))
        rows.append(row)
    return rows


def _independent(t, window, rows):
    ech = linalg.Echelon()
    return DoubleSubspace(t, window, [row for row in rows if ech.add(row)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 4)), st.integers(0, 2**16))
def test_row_elements_match_parent_triples(n, seed):
    """Bracket, pairing, printed text and graded isotropy read off the row
    agree with the same operations on the row's (loop, a0, a1) triple; the
    zero row is among the elements."""
    t = make_sl(n)
    w = Window(-2, 3)
    rows = _random_rows(t, random.Random(seed), w) + [{}]
    els = [DoubleElement(t, row) for row in rows]
    parts = [ref_parts(t, row) for row in rows]
    for x, px in zip(els, parts):
        assert str(x) == ref_str(px)
        for y, py in zip(els, parts):
            assert double_bracket(x, y).row == ref_row(*ref_double_bracket(px, py))
            assert invariant_form(x, y) == ref_invariant_form(px, py)
    sub = _independent(t, w, rows)
    assert is_isotropic(sub) == ref_is_isotropic([ref_parts(t, row) for row in sub.rows])


def test_parent_triples_see_a_dropped_jet_term():
    """Negative control over the same draws: a reference bracket without
    [A1,B0] differs from the row bracket on some pair, and the draws give
    both isotropy verdicts."""
    differs, verdicts = 0, set()
    w = Window(-2, 3)
    for seed in range(30):
        t = make_sl(2 + seed % 3)
        rows = _random_rows(t, random.Random(seed), w)
        parts = [ref_parts(t, row) for row in rows]
        differs += sum(
            double_bracket(DoubleElement(t, x), DoubleElement(t, y)).row
            != ref_row(*ref_double_bracket(px, py, cross=False))
            for x, px in zip(rows, parts) for y, py in zip(rows, parts))
        verdicts.add(is_isotropic(_independent(t, w, rows)))
    assert differs > 0 and verdicts == {True, False}, (differs, verdicts)

