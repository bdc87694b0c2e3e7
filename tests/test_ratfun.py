import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter.ratfun import (
    LaurentPoly,
    Poly,
    RatFun,
    _divide_difference,
    _poly_divexact,
    _reduce_fraction,
    _vanishes_on_diagonal,
    expand_at_infinity,
    poly_gcd,
)

U = RatFun.var("u")
V = RatFun.var("v")


def test_poly_basics():
    p = Poly.var("u") + Poly.var("v")
    q = p * p
    assert str(q) == "u^2 + 2*u*v + v^2"
    assert q.total_degree() == 2
    assert q.degree_in("u") == 2
    assert (p - p).is_zero()
    assert Poly.const(Fraction(3, 2)).const_value() == Fraction(3, 2)


def test_poly_str_forms():
    u, v = Poly.var("u"), Poly.var("v")
    assert str(u - v) == "u - v"
    assert str(v - u) == "-u + v"
    assert str(u * u - Poly.const(1)) == "u^2 - 1"
    assert str(Poly.const(Fraction(1, 2)) * u) == "1/2*u"


def test_rational_cancellation():
    # the classic partial-fraction identity
    assert U / (V - U) + V / (U - V) == -1
    assert (U ** 2 - V ** 2) / (U - V) == U + V
    # multiplicity handling
    assert (U ** 2 - 2 * U * V + V ** 2) / (U - V) == U - V
    assert (U ** 3) / (U ** 2) == U
    assert (U ** 2 * V - U * V ** 2) / (U * V) == U - V


def test_canonical_form_is_bit_identical():
    a = U / (U - V)
    b = (U * U) / (U * U - U * V)
    assert a == b
    assert str(a) == str(b)
    # denominator leading coefficient is always one
    c = U / (2 * V - 2 * U)
    assert str(c.den) == "u - v"
    assert c.num.leading()[1] == Fraction(-1, 2)


def test_pow_and_inverse():
    f = (U - V) ** -1
    assert f * (U - V) == 1
    assert (U ** 0) == 1
    g = (U / V) ** -2
    assert g == (V * V) / (U * U)
    with pytest.raises(ZeroDivisionError):
        (U - U) ** -1


def test_field_axioms_seeded():
    rng = random.Random(11)
    pool = [U, V, U + V, U - V, U * V, RatFun.from_frac(Fraction(2, 3)),
            (U + 1) / (V - U), V ** 2 / (U - V), RatFun.from_frac(-2)]
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * (1 / a if False else a ** -1) == 1
    # subtraction and division consistency
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        assert a - b + b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_rename():
    f = U / (U - V)
    g = f.rename({"u": "u1", "v": "u2"})
    u1, u2 = RatFun.var("u1"), RatFun.var("u2")
    assert g == u1 / (u1 - u2)


def test_expand_at_infinity_cutoff():
    f = (U - V) ** -1
    one = expand_at_infinity(f, "v", 1)
    assert one.floor == -1 and sorted(one.coeffs) == [-1]
    assert one.coeff(-1) == -1
    two = expand_at_infinity(f, "v", 2)
    assert two.coeff(-1) == -1
    assert two.coeff(-2) == -U
    assert two.coeff(-3).is_zero()
    # a polynomial expands to itself
    lp = expand_at_infinity(U * V + 1, "v", 3)
    assert lp.coeff(1) == U and lp.coeff(0) == 1
    # in u the leading coefficient is +1: 1/(u - v) = u^-1 + v*u^-2 + ...
    assert expand_at_infinity(f, "u", 1).coeff(-1) == 1


def test_expand_geometric_tail_seeded():
    # (sum of kept terms) * (u - v) recovers 1 up to the cutoff
    rng = random.Random(5)
    for _ in range(10):
        order = rng.randint(1, 6)
        lp = expand_at_infinity((U - V) ** -1, "v", order)
        total = RatFun.from_frac(0)
        for k, c in lp.coeffs.items():
            total = total + c * V ** k
        resid = total * (U - V) - 1
        tail = expand_at_infinity(resid, "v", order - 1)
        for k, c in tail.coeffs.items():
            assert k <= -order or c.is_zero(), (order, k, str(c))


def test_laurent_poly_ops():
    a = LaurentPoly("v", {-1: 1, 2: U}, floor=-1)
    b = LaurentPoly("v", {-1: 2}, floor=-1)
    c = a + b
    assert c.coeff(-1) == 3
    assert c.coeff(2) == U
    assert a == LaurentPoly("v", {-1: 1, 2: U}, floor=-1)


def test_as_univariate_roundtrip_seeded():
    rng = random.Random(7)
    u, v = Poly.var("u"), Poly.var("v")
    pool = [u, v, u * v, u * u, Poly.const(3), u + v, v * v * u]
    for _ in range(25):
        p = Poly.const(0)
        for _ in range(rng.randint(1, 4)):
            p = p + rng.choice(pool) * Fraction(rng.randint(-3, 3))
        coeffs = p.as_univariate("u")
        back = Poly.const(0)
        for k, c in coeffs.items():
            back = back + c * u ** k
        assert back == p


# ---------------------------------------------------------------------------
# The linear-factor reduction against the reference it replaced: generic
# long division by each linear factor and substitution tests through
# `as_univariate` and `Poly` products.


def _ref_min_exp(p, name):
    return min(p.as_univariate(name))


def _ref_subst_var(p, x, y):
    out = Poly.const(0)
    ypow = Poly.const(1)
    coeffs = p.as_univariate(x)
    for k in range(max(coeffs) + 1):
        if k:
            ypow = ypow * Poly.var(y)
        if k in coeffs:
            out = out + coeffs[k] * ypow
    return out


def _ref_divides_linear(f, p):
    if len(f.terms) == 1:
        return _ref_min_exp(p, f.vars[0]) >= 1
    return _ref_subst_var(p, f.vars[0], f.vars[1]).is_zero()


def _ref_reduce_fraction(num, den):
    linear = []
    for x in den.vars:
        m = _ref_min_exp(den, x)
        if m:
            f = Poly.var(x)
            den = _poly_divexact(den, f ** m)
            linear.append([f, m])
    dvars = den.vars
    for i in range(len(dvars)):
        for j in range(i + 1, len(dvars)):
            x, y = dvars[i], dvars[j]
            f = Poly.var(x) - Poly.var(y)
            m = 0
            while not den.is_const() and _ref_subst_var(den, x, y).is_zero():
                den = _poly_divexact(den, f)
                m += 1
            if m:
                linear.append([f, m])
    if not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = _poly_divexact(num, g)
            den = _poly_divexact(den, g)
    for f, m in linear:
        while m and _ref_divides_linear(f, num):
            num = _poly_divexact(num, f)
            m -= 1
        if m:
            den = den * f ** m
    return num, den


NAMES = ("u", "v", "u1", "u2", "u3")
X = {n: Poly.var(n) for n in NAMES}
FACTORS = list(NAMES) + [(a, b) for i, a in enumerate(NAMES) for b in NAMES[i + 1:]]
CORE = X["u"] ** 2 + X["v"] ** 2 + 1


def _factor(f):
    return X[f] if isinstance(f, str) else X[f[0]] - X[f[1]]


def _product(mults, c=1):
    out = Poly.const(c)
    for f, m in mults.items():
        out = out * _factor(f) ** m
    return out


def _assert_matches_reference(num, den):
    got = _reduce_fraction(num, den)
    want = _ref_reduce_fraction(num, den)
    assert got == want, (str(num), str(den), [str(p) for p in got], [str(p) for p in want])
    # the same value: num/den == got[0]/got[1]
    assert num * got[1] == got[0] * den


def test_reduce_fraction_matches_reference_on_seeded_linear_products():
    rng = random.Random(29)
    for _ in range(120):
        den_mults = {f: rng.randint(1, 4) for f in rng.sample(FACTORS, rng.randint(1, 3))}
        num_mults = {f: rng.randint(0, 4) for f in rng.sample(list(den_mults), rng.randint(0, len(den_mults)))}
        num_mults.update({f: rng.randint(1, 2) for f in rng.sample(FACTORS, rng.randint(0, 1))})
        cofactor = Poly.const(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            cofactor = cofactor + X[rng.choice(NAMES)] * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if cofactor.is_zero():
            cofactor = Poly.const(1)
        num = _product(num_mults, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))) * cofactor
        den = _product(den_mults, Fraction(rng.randint(1, 4)))
        _assert_matches_reference(num, den)


def test_reduce_fraction_matches_reference_on_chosen_cases():
    u, v, u1, u2, u3 = (X[n] for n in NAMES)
    cases = [
        # (u - v)^k (u1 - u3)^j with multiplicities up to 4
        (((u - v) ** 2) * (u1 - u3), ((u - v) ** 4) * (u1 - u3) ** 3),
        (((u - v) ** 4) * (u1 - u3) ** 4 * u, ((u - v) ** 3) * (u1 - u3) ** 4 * u ** 2),
        ((u1 - u2) * (u2 - u3) * u3, (u1 - u2) ** 2 * (u2 - u3) * (u1 - u3) * u3 ** 4),
        # a numerator that lacks one of the two variables
        (u, u - v),
        (v ** 3 + 1, (u - v) ** 2),
        (u1 * u1, (u - u1) * u),
        # a numerator that lacks both, and a constant numerator
        (u3 + 2, (u - v) * (u1 - u2)),
        (Poly.const(7), (u - v) ** 2 * u * v),
        # shared factors in part only
        ((u - v) * v ** 2 * (u + v), (u - v) ** 3 * v * u ** 2),
        ((u - v) ** 2 + u * v, (u - v) ** 2 * u),
        # a non-linear core, with and without a shared core
        (CORE * (u - v) * u, CORE ** 2 * (u - v) ** 2 * u),
        (u + v, CORE * (u - v)),
        (CORE * u1, CORE * (u - u1) * 3),
        # constants
        (Poly.const(3), Poly.const(6)),
        (u - v, Poly.const(Fraction(1, 2))),
        (Poly.const(Fraction(-2, 3)), u),
    ]
    for num, den in cases:
        _assert_matches_reference(num, den)


def test_diagonal_test_and_synthetic_division():
    u, v, u1 = X["u"], X["v"], X["u1"]
    for p, q in [((u - v) * (u * u + v * u1 + 3), u * u + v * u1 + 3),
                 ((u - v) ** 3, (u - v) ** 2), (u - v, Poly.const(1)),
                 ((u - v) * v * Fraction(2, 3), v * Fraction(2, 3))]:
        assert _vanishes_on_diagonal(p, "u", "v")
        assert _divide_difference(p, "u", "v") == q
    # negative controls, among them polynomials that lack u or v
    for p in [u * u + v, u, v ** 2, u1 - u, Poly.const(5), (u - v) * (u - v) + 1]:
        assert not _vanishes_on_diagonal(p, "u", "v")
        with pytest.raises(ArithmeticError):
            _divide_difference(p, "u", "v")


_MULTS = st.lists(st.integers(0, 4), min_size=len(FACTORS), max_size=len(FACTORS))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    den_mults=_MULTS,
    num_mults=_MULTS,
    terms=st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(NAMES + ("",))), max_size=3),
    core=st.booleans(),
)
def test_reduce_fraction_property(den_mults, num_mults, terms, core):
    # at most three distinct factors each, so the reference stays quick
    den = _product(dict([(f, m) for f, m in zip(FACTORS, den_mults) if m][:3]))
    num = _product(dict([(f, m) for f, m in zip(FACTORS, num_mults) if m][:3]))
    cofactor = Poly.const(1)
    for c, n in terms:
        cofactor = cofactor + (X[n] if n else Poly.const(1)) * c
    if cofactor.is_zero():
        cofactor = Poly.const(1)
    if core:
        den = den * CORE
    _assert_matches_reference(num * cofactor, den)


def test_reduction_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    syms = {n: sympy.Symbol(n) for n in NAMES}

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*[syms[n] ** k for n, k in zip(p.vars, e)])
             for e, c in p.terms.items()),
            sympy.Integer(0),
        )

    def agrees(got_num, got_den, num, den):
        """got_num/got_den is num/den in lowest terms, as sympy's cancel has it."""
        a, b = to_sympy(got_num), to_sympy(got_den)
        want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        return (sympy.expand(a * want_den - want_num * b) == 0
                and sympy.gcd(a, b).is_number
                and sympy.cancel(b / want_den).is_number)

    rng = random.Random(31)
    for _ in range(25):
        den_mults = {f: rng.randint(1, 3) for f in rng.sample(FACTORS, 2)}
        num_mults = {f: rng.randint(0, 3) for f in rng.sample(FACTORS, 3)}
        num = _product(num_mults, rng.randint(1, 4)) * (X["u"] + rng.randint(-2, 2))
        den = _product(den_mults, rng.randint(1, 4))
        if rng.random() < 0.3:
            den = den * CORE
        f = RatFun.of(num, den)
        assert agrees(f.num, f.den, num, den), (str(num), str(den), str(f))
    # negative control: the unreduced pair is the same value but not in
    # lowest terms
    u, v = X["u"], X["v"]
    num, den = (u - v) * u, (u - v) * v
    assert agrees(u, v, num, den)
    assert not agrees(num, den, num, den)


def test_inexact_synthetic_division_raises_under_optimisation():
    script = (
        "from yangbaxter.ratfun import Poly, _divide_difference, _poly_divexact\n"
        "p = Poly.var('u') ** 2 + Poly.var('v')\n"
        "try:\n"
        "    _divide_difference(p, 'u', 'v')\n"
        "    print('inexact accepted')\n"
        "except ArithmeticError:\n"
        "    print('inexact rejected')\n"
        "try:\n"
        "    _poly_divexact(p, Poly.var('u') - Poly.var('v'))\n"
        "    print('inexact accepted')\n"
        "except ArithmeticError:\n"
        "    print('inexact rejected')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout.splitlines() == ["inexact rejected"] * 2, (flags, proc.stdout)
