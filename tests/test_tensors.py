"""Tests for the sparse two- and three-leg tensor layer: swap/rotate
symmetries, leg commutators, and the adjoint action; the last two are also
compared with straightforward reference implementations."""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter.cybe import catalog
from yangbaxter.lie import GPoly, casimir, make_sl
from yangbaxter.ratfun import ExponentOverflow, P_ONE, Poly, RatFun
from yangbaxter.tensors import (
    Tensor2,
    Tensor3,
    ad2_action,
    clear_denominators,
    is_polynomial,
    is_skew,
    leg_bracket,
    swap,
)
from reference import ref_leg_bracket

U = RatFun.var("u")
V = RatFun.var("v")


def test_single_and_coeff_accessors():
    t = make_sl(2)
    r = Tensor2.single(t, "e", "f", F(1, 2))
    e, f = t.index["e"], t.index["f"]
    assert r == Tensor2.single(t, e, f, F(1, 2))
    assert r.coeff("e", "f") * 2 == 1
    assert r.coeff("f", "e").is_zero()
    assert Tensor2.single(t, "h", "h", 0).is_zero()


def test_make_drops_zero_entries():
    t = make_sl(2)
    e, f = t.index["e"], t.index["f"]
    r = Tensor2.make(t, {(e, f): U - U, (f, e): F(3)})
    assert (e, f) not in r.entries
    assert list(r.entries) == [(f, e)]
    with pytest.raises(ValueError):
        Tensor2.make(t, {(0, 99): 1})


def test_typed_errors_with_and_without_optimisation():
    # Mismatched algebras, out-of-range keys and wrong tensor kinds raise
    # ValueError, not an assert that `python -O` strips: stripped, the sum
    # below returned an sl(2) tensor with the sl(3) key (1, 4).
    script = (
        "from yangbaxter.cybe import cobracket, cyb\n"
        "from yangbaxter.lie import GPoly, make_sl\n"
        "from yangbaxter.tensors import Tensor2, Tensor3, ad2_action, clear_denominators, "
        "leg_bracket, swap\n"
        "s2, s3 = make_sl(2), make_sl(3)\n"
        "a = Tensor2.single(s2, 'e', 'f')\n"
        "b = Tensor2.single(s3, 'E(1,3)', 'E(3,1)')\n"
        "pa, pb = clear_denominators(a)[1], clear_denominators(b)[1]\n"
        "cases = {\n"
        "    'add': lambda: a + b,\n"
        "    'make': lambda: Tensor2.make(s2, {(1, 4): 1}),\n"
        "    'legs': lambda: Tensor3.make(s2, {(0, 1): 1}),\n"
        "    'leg_bracket': lambda: leg_bracket(pa, pb, '12^13'),\n"
        "    'ad2_action': lambda: ad2_action(GPoly.monomial(s3.basis_element(0), 1), a),\n"
        "    'cyb': lambda: cyb(Tensor3.zero(s2)),\n"
        "    'cobracket': lambda: cobracket(Tensor3.zero(s2), GPoly.monomial(s2.basis_element(0), 1)),\n"
        "    'swap': lambda: swap(Tensor3.zero(s2)),\n"
        "}\n"
        "for name, case in cases.items():\n"
        "    try:\n"
        "        print(name, 'accepted', case())\n"
        "    except ValueError:\n"
        "        print(name, 'ValueError')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    expected = [f"{name} ValueError"
                for name in ("add", "make", "legs", "leg_bracket", "ad2_action", "cyb",
                             "cobracket", "swap")]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.splitlines() == expected, (flags, proc.stdout)


def test_swap_is_an_involution():
    t = make_sl(2)
    r = Tensor2.make(
        t,
        {
            (t.index["e"], t.index["f"]): U * V,
            (t.index["h"], t.index["e"]): (U - V) ** -1,
        },
    )
    s = swap(r)
    assert s.coeff("f", "e") == U * V
    assert s.coeff("e", "h") == (V - U) ** -1
    assert swap(s) == r


def test_is_skew():
    t = make_sl(2)
    r = Tensor2.single(t, "e", "f", U) + Tensor2.single(t, "f", "e", -V)
    assert is_skew(r)
    assert not is_skew(Tensor2.single(t, "e", "f", U))
    # u*v*Omega/(v-u) is skew under the swap-variables convention.
    om = casimir(make_sl(2), 4).tensor()
    assert is_skew(om.scale(U * V / (V - U)))
    assert not is_skew(om)


def test_is_polynomial():
    t = make_sl(2)
    om = casimir(t, 4).tensor()
    assert is_polynomial(om)
    assert is_polynomial(om.scale(U * V))
    assert not is_polynomial(om.scale((U - V) ** -1))


def test_tensor2_algebra_seeded():
    t = make_sl(2)
    rng = random.Random(5)
    coeffs = [U, V, U * V, (U - V) ** -1, RatFun.from_frac(F(-2, 3))]
    for _ in range(8):
        def rand_tensor():
            entries = {}
            for _ in range(rng.randint(1, 4)):
                key = (rng.randrange(t.dim), rng.randrange(t.dim))
                entries[key] = rng.choice(coeffs)
            return Tensor2.make(t, entries)

        a, b = rand_tensor(), rand_tensor()
        assert a + b == b + a
        assert (a - b) + b == a
        assert a.scale(2).scale(F(1, 2)) == a
        assert swap(a + b) == swap(a) + swap(b)


def test_casimir_leg_identities():
    # Ad-invariance of Omega forces [Om12, Om13] + [Om12, Om23] = 0 and
    # [Om12, Om23] + [Om13, Om23] = 0, each summand being nonzero.
    for n in (2, 3):
        t = make_sl(n)
        om = clear_denominators(casimir(t, 2 * n).tensor())[1]
        b12_13 = leg_bracket(om, om, "12^13")
        b12_23 = leg_bracket(om, om, "12^23")
        b13_23 = leg_bracket(om, om, "13^23")
        assert not b12_13.is_zero()
        assert (b12_13 + b12_23).is_zero()
        assert (b12_23 + b13_23).is_zero()


def test_leg_bracket_single_terms():
    # [ (e(x)e)_12, (f(x)f)_13 ] = [e,f](x)e(x)f = h(x)e(x)f.
    t = make_sl(2)
    ee = clear_denominators(Tensor2.single(t, "e", "e"))[1]
    ff = clear_denominators(Tensor2.single(t, "f", "f"))[1]
    out = leg_bracket(ee, ff, "12^13")
    e, f, h = t.index["e"], t.index["f"], t.index["h"]
    assert out.entries == {(h, e, f): P_ONE}
    # Inner collision: [ (e(x)e)_12, (f(x)f)_23 ] = e(x)h(x)f.
    out = leg_bracket(ee, ff, "12^23")
    assert out.entries == {(e, h, f): P_ONE}
    # Last collision: [ (e(x)e)_13, (f(x)f)_23 ] = e(x)f(x)h.
    out = leg_bracket(ee, ff, "13^23")
    assert out.entries == {(e, f, h): P_ONE}


def test_leg_bracket_renames_variables():
    t = make_sl(2)
    r = clear_denominators(Tensor2.single(t, "e", "e", U))[1]
    s = clear_denominators(Tensor2.single(t, "f", "f", V))[1]
    out = leg_bracket(r, s, "12^13")
    e, f, h = t.index["e"], t.index["f"], t.index["h"]
    assert out.entries == {(h, e, f): Poly.var("u1") * Poly.var("u3")}


def test_leg_bracket_raises_exponent_overflow():
    # [(e(x)e) u^i, (f(x)f) u^j] for "12^13" is h(x)e(x)f u1^(i+j); a sum
    # past MAX_POLY_EXPONENT = 2047 must raise, not carry into u2's field.
    t = make_sl(2)
    e, f, h = t.index["e"], t.index["f"], t.index["h"]

    def power(label, k):
        return clear_denominators(Tensor2.single(t, label, label, U ** k))[1]

    out = leg_bracket(power("e", 2000), power("f", 47), "12^13")
    assert out.entries == {(h, e, f): Poly.var("u1", 2047)}
    with pytest.raises(ExponentOverflow):
        leg_bracket(power("e", 2000), power("f", 48), "12^13")


def test_ad2_action_weight_vectors():
    t = make_sl(2)
    e = t.basis_element("e")
    h = t.basis_element("h")
    hp = GPoly.monomial(h)
    assert ad2_action(hp, Tensor2.single(t, "e", "f")).is_zero()
    assert ad2_action(hp, Tensor2.single(t, "e", "e")) == Tensor2.single(
        t, "e", "e", 4
    )
    # Degree-1 element sees u on leg 1 and v on leg 2.
    out = ad2_action(GPoly.monomial(e, 1), Tensor2.single(t, "f", "f"))
    assert out == Tensor2.single(t, "h", "f", U) + Tensor2.single(
        t, "f", "h", V
    )


def test_ad2_action_is_a_derivation_like_sum():
    # ad2(x+y) = ad2(x) + ad2(y) on a fixed tensor, exactly.
    t = make_sl(3)
    rng = random.Random(9)
    r = Tensor2.make(
        t, {(rng.randrange(t.dim), rng.randrange(t.dim)): U for _ in range(4)}
    )
    x = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
    y = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
    px, py = GPoly.monomial(x, 2), GPoly.monomial(y, 2)
    assert ad2_action(px + py, r) == ad2_action(px, r) + ad2_action(py, r)


def test_tensor3_rotate_three_times():
    t = make_sl(2)
    u1, u2 = RatFun.var("u1"), RatFun.var("u2")
    e, f, h = t.index["e"], t.index["f"], t.index["h"]
    w = Tensor3.make(t, {(e, f, h): u1 * u2 ** 2, (h, h, e): u1 - u2})
    r1 = w.rotate()
    assert (h, e, f) in r1.entries
    assert r1.entries[(h, e, f)] == RatFun.var("u2") * RatFun.var("u3") ** 2
    assert r1.rotate().rotate() == w


def test_str_forms():
    t = make_sl(2)
    r = Tensor2.single(t, "e", "f", U)
    assert str(r) == "(u) * E(1,2)(x)E(2,1)"
    assert str(Tensor2.zero(t)) == "0"
    w = Tensor3.make(t, {(0, 0, 0): 1})
    assert "E(1,2)(x)E(1,2)(x)E(1,2)" in str(w)


# Reference implementation of ad2_action for the differential test, summed
# degree by degree; the leg commutator's reference is in reference.py.


def _ref_ad2_action(p, t):
    table = t.table
    out = Tensor2.zero(table)
    for d, x in p.terms.items():
        add = {}
        for (a, b), f in t.entries.items():
            for k, c in table.ad_on_basis(x.terms, a):
                add[(k, b)] = add.get((k, b), RatFun.from_frac(0)) + f * c * U ** d
            for k, c in table.ad_on_basis(x.terms, b):
                add[(a, k)] = add.get((a, k), RatFun.from_frac(0)) + f * c * V ** d
        out = out + Tensor2.make(table, add)
    return out


def _seeded_tensor(t, rng, terms):
    coeffs = [U, V, U * V, (U - V) ** -1, V ** 2 * (U - V) ** -1,
              U - 2 * V, RatFun.from_frac(F(-2, 3))]
    return Tensor2.make(
        t,
        {(rng.randrange(t.dim), rng.randrange(t.dim)): rng.choice(coeffs)
         for _ in range(terms)},
    )


def test_leg_bracket_and_ad2_match_reference():
    rng = random.Random(17)
    pairs = ("12^13", "12^23", "13^23")
    kinds = set()
    for n, terms in ((2, 5), (3, 6)):
        t = make_sl(n)
        for _ in range(3):
            r, s = _seeded_tensor(t, rng, terms), _seeded_tensor(t, rng, terms)
            cr, cs = clear_denominators(r)[1], clear_denominators(s)[1]
            # The cleared tensors as they are (monic d, so Fractions such as
            # -2/3 survive) and times 3 (integral: the seeded coefficients'
            # denominators are 1 and 3).
            for p, q in ((cr, cs), (_times(cr, 3), _times(cs, 3))):
                kinds |= {type(c) for f in (*p.entries.values(), *q.entries.values())
                          for c in f.terms.values()}
                for pair in pairs:
                    assert leg_bracket(p, q, pair) == ref_leg_bracket(p, q, pair)
                # Negative control: the pairs place the bracket on different
                # slots, so on a non-symmetric input they must disagree.
                assert leg_bracket(p, q, "12^23") != ref_leg_bracket(p, q, "12^13")
            x = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            y = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            p = GPoly.monomial(x, 0) + GPoly.monomial(y, 2)
            assert ad2_action(p, r) == _ref_ad2_action(p, r)
    assert kinds == {int, F}


def _times(p, c):
    return Tensor2(p.table, {key: f * c for key, f in p.entries.items()})


@functools.cache
def _kernels(n):
    """The kernels whose co-brackets the bialgebra checks take, over sl(n).

    gamma1..gamma4 (and rational_eh over sl(2)) over the scale-2n Casimir,
    plus the bad kernel gamma2 + E(1,2)(x)E(2,1)/(u-v), whose pole survives.
    Built on first use: gamma3 computes a residual, and a faulty cyb must
    fail the tests, not their collection.
    """
    t = make_sl(n)
    cat = catalog(t, casimir(t, 2 * n))
    names = ["gamma1", "gamma2", "gamma3", "gamma4"] + (["rational_eh"] if n == 2 else [])
    out = {name: cat[name] for name in names}
    out["bad"] = cat["gamma2"] + Tensor2.single(t, "E(1,2)", "E(2,1)", (U - V) ** -1)
    return t, out


def _assert_matches_reference(p, r, what):
    out = ad2_action(p, r)
    ref = _ref_ad2_action(p, r)
    assert out == ref, what
    assert str(out) == str(ref), what  # canonical, reduced coefficients


def test_ad2_action_matches_reference_on_kernels():
    # Monomials of every basis element in degrees -2..3 (Laurent included),
    # and one p spanning all of them, on each kernel over sl(2) and sl(3).
    for n in (2, 3):
        t, kernels = _kernels(n)
        laurent = GPoly(t, {d: t.basis_element(d % t.dim) for d in range(-2, 4)})
        for name, r in kernels.items():
            for a in range(t.dim):
                for d in range(-2, 4):
                    p = GPoly.monomial(t.basis_element(a), d)
                    _assert_matches_reference(p, r, (n, name, a, d))
            _assert_matches_reference(laurent, r, (n, name, "laurent"))


def test_ad2_action_matches_reference_on_mixed_denominators():
    rng = random.Random(31)
    for n, terms in ((2, 5), (3, 6)):
        t = make_sl(n)
        for _ in range(4):
            r = _seeded_tensor(t, rng, terms)
            x = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            y = t.element({i: F(rng.randint(-2, 2)) for i in range(t.dim)})
            for lo in (-2, -1, 0, 1):
                p = GPoly.monomial(x, lo) + GPoly.monomial(y, 3)
                _assert_matches_reference(p, r, (n, lo))


def test_ad2_action_of_zero():
    t, kernels = _kernels(2)
    e = t.basis_element("e")
    zero_p = GPoly(t, {})
    for r in kernels.values():
        assert ad2_action(zero_p, r).is_zero()
    for d in (-2, 0, 3):
        assert ad2_action(GPoly.monomial(e, d), Tensor2.zero(t)).is_zero()
    # A p killed by the kernel's invariance gives zero, not a zero-valued entry.
    h0 = GPoly.monomial(t.basis_element("h"))
    assert ad2_action(h0, kernels["gamma2"]).entries == {}


_MONOMIALS = st.lists(
    st.tuples(
        st.integers(0, 2),                    # basis index
        st.integers(-2, 3),                   # degree
        st.integers(-3, 3).filter(bool),      # coefficient
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(terms=_MONOMIALS, name=st.sampled_from(
    ("bad", "gamma1", "gamma2", "gamma3", "gamma4", "rational_eh")))
def test_ad2_action_matches_reference_on_monomial_sums(terms, name):
    t = make_sl(2)
    p = GPoly(t, {})
    for a, d, c in terms:
        p = p + GPoly.monomial(t.basis_element(a).scale(c), d)
    _assert_matches_reference(p, _kernels(2)[1][name], (name, terms))


# scale(c) by a constant multiplies each numerator by a Fraction and skips
# RatFun.of; the reference is the RatFun product it replaced.
_NONLINEAR = [(U ** 2 + V) ** -1, U * V * (2 * U ** 2 + 3 * V) ** -1, (U + V) ** -2,
              (U ** 2 + V ** 2 + 1) ** -1 * (U - V), F(3, 7) * V * (U - V) ** -1,
              U ** 3 - F(1, 2) * V, RatFun.from_frac(F(-2, 3))]
_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(RatFun.from_frac),
    st.sampled_from([U, V * (U - V) ** -1, (U ** 2 + 1) ** -1, 2 * U * V - 1]),
)


def _ref_scale(r, c):
    c = c if isinstance(c, RatFun) else RatFun.from_frac(c)
    out = {key: f * c for key, f in r.entries.items()}
    return Tensor2(r.table, {key: f for key, f in out.items() if not f.is_zero()})


def _term_types(r):
    return {key: [type(c) for f in (g.num, g.den) for c in f.terms.values()]
            for key, g in r.entries.items()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                st.integers(0, len(_NONLINEAR) - 1)), min_size=1, max_size=5),
       c=_SCALARS)
def test_scale_matches_ratfun_product_reference(picks, c):
    t = make_sl(2)
    r = Tensor2.make(t, {(a, b): _NONLINEAR[i] for a, b, i in picks})
    got, want = r.scale(c), _ref_scale(r, c)
    assert got == want and str(got) == str(want)
    assert _term_types(got) == _term_types(want)  # ints stay ints, as RatFun.of leaves them
    # Negative control: the comparison tells c from c + 1 on a nonzero tensor.
    assert r.scale(c) != _ref_scale(r, c + 1)


def test_scale_by_a_constant_makes_no_reduction(monkeypatch):
    t = make_sl(2)
    r = Tensor2.make(t, {(0, 1): _NONLINEAR[0], (2, 2): _NONLINEAR[1]})
    for zero in (0, F(0), RatFun.from_frac(0)):
        assert r.scale(zero).entries == {}
    calls = []
    real_of = RatFun.of
    monkeypatch.setattr(RatFun, "of", staticmethod(lambda n, d: calls.append(d) or real_of(n, d)))
    for scaled, c in ((lambda: r.scale(F(2, 3)), F(2, 3)), (lambda: -r, -1),
                      (lambda: r.scale(RatFun.from_frac(F(-5, 2))), F(-5, 2))):
        calls.clear()
        got = scaled()
        assert not calls
        assert got == _ref_scale(r, c)
    # Negative control: a non-constant c still reduces each entry.
    calls.clear()
    r.scale(U)
    assert len(calls) == 2
