import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import yangbaxter
from reference import ref_const_product, ref_pow, ref_reciprocal, ref_rename
from yangbaxter.ratfun import (
    MAX_POLY_EXPONENT,
    ExponentOverflow,
    Poly,
    RatFun,
    _divide_difference,
    _exponents,
    _monic,
    _poly_divexact,
    _reduce_fraction,
    _vanishes_on_diagonal,
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
    P = type(p)
    out = P.const(0)
    ypow = P.const(1)
    coeffs = p.as_univariate(x)
    for k in range(max(coeffs) + 1):
        if k:
            ypow = ypow * P.var(y)
        if k in coeffs:
            out = out + coeffs[k] * ypow
    return out


def _ref_divides_linear(f, p):
    if len(f.terms) == 1:
        return _ref_min_exp(p, f.vars[0]) >= 1
    return _ref_subst_var(p, f.vars[0], f.vars[1]).is_zero()


def _ref_reduce_fraction(num, den):
    # on Poly or _RefPoly, with that class's division and gcd
    P = type(num)
    divexact, gcd = (_poly_divexact, poly_gcd) if P is Poly else (_ref_divexact, _ref_gcd)
    linear = []
    for x in den.vars:
        m = _ref_min_exp(den, x)
        if m:
            f = P.var(x)
            den = divexact(den, f ** m)
            linear.append([f, m])
    dvars = den.vars
    for i in range(len(dvars)):
        for j in range(i + 1, len(dvars)):
            x, y = dvars[i], dvars[j]
            f = P.var(x) - P.var(y)
            m = 0
            while not den.is_const() and _ref_subst_var(den, x, y).is_zero():
                den = divexact(den, f)
                m += 1
            if m:
                linear.append([f, m])
    if not den.is_const():
        g = gcd(num, den)
        if not g.is_const():
            num = divexact(num, g)
            den = divexact(den, g)
    for f, m in linear:
        while m and _ref_divides_linear(f, num):
            num = divexact(num, f)
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

    def to_sympy(p, names=NAMES):
        # exponents through the public API: one variable at a time
        if not names:
            c = p.const_value()
            return sympy.Rational(c.numerator, c.denominator)
        return sum(
            (to_sympy(c, names[1:]) * syms[names[0]] ** k
             for k, c in p.as_univariate(names[0]).items()),
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


# ---------------------------------------------------------------------------
# The packed-monomial Poly against the tuple-keyed one it replaced.
# `_RefPoly` keeps the old layout: exponent tuples aligned with the sorted
# names that occur, Fraction coefficients, re-keyed on every mixed-variable
# operation.  Its gcd is the old primitive remainder sequence.

_REF_ORDER = {n: i for i, n in enumerate(NAMES)}


def _ref_var_key(name):
    return (_REF_ORDER.get(name, len(NAMES)), name)


def _ref_merge_vars(a, b):
    if a == b:
        return a
    out = list(a)
    for name in b:
        if name not in out:
            out.append(name)
    out.sort(key=_ref_var_key)
    return tuple(out)


def _ref_embed_terms(terms, oldvars, newvars):
    if oldvars == newvars:
        return dict(terms)
    pos = [newvars.index(name) for name in oldvars]
    out = {}
    for exps, c in terms.items():
        e = [0] * len(newvars)
        for i, x in enumerate(exps):
            e[pos[i]] = x
        out[tuple(e)] = c
    return out


class _RefPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = terms

    @staticmethod
    def make(vars, terms):
        terms = {e: Fraction(c) for e, c in terms.items() if c != 0}
        if not terms:
            return _RefPoly((), {})
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        return _RefPoly(vars, terms)

    @staticmethod
    def const(c):
        return _RefPoly.make((), {(): Fraction(c)})

    @staticmethod
    def var(name, exp=1):
        return _RefPoly.make((name,), {(exp,): 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.vars

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _RefPoly.const(other)
        vars = _ref_merge_vars(self.vars, other.vars)
        terms = _ref_embed_terms(self.terms, self.vars, vars)
        for e, c in _ref_embed_terms(other.terms, other.vars, vars).items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return _RefPoly.make(vars, terms)

    def __neg__(self):
        return _RefPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefPoly.make(self.vars, {e: k * other for e, k in self.terms.items()})
        vars = _ref_merge_vars(self.vars, other.vars)
        a = _ref_embed_terms(self.terms, self.vars, vars)
        b = _ref_embed_terms(other.terms, other.vars, vars)
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
        return _RefPoly.make(vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _RefPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def leading(self):
        key = max(self.terms, key=lambda e: (sum(e), e))
        return key, self.terms[key]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name):
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def as_univariate(self, name):
        if name not in self.vars:
            return {0: self} if not self.is_zero() else {}
        i = self.vars.index(name)
        rest = tuple(n for n in self.vars if n != name)
        buckets = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {d: _RefPoly.make(rest, t) for d, t in buckets.items()}

    @staticmethod
    def from_univariate(name, coeffs):
        out = _RefPoly.const(0)
        for d, p in coeffs.items():
            out = out + p * _RefPoly.var(name, d)
        return out

    def rename(self, mapping):
        newnames = tuple(mapping.get(n, n) for n in self.vars)
        order = sorted(range(len(newnames)), key=lambda i: _ref_var_key(newnames[i]))
        vars = tuple(newnames[i] for i in order)
        return _RefPoly(vars, {tuple(e[i] for i in order): c for e, c in self.terms.items()})

    def __str__(self):
        if self.is_zero():
            return "0"
        chunks = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(n if x == 1 else f"{n}^{x}" for n, x in zip(self.vars, e) if x)
            a = str(abs(c).numerator) if abs(c).denominator == 1 else str(abs(c))
            body = mono if mono and abs(c) == 1 else "*".join(filter(None, (a, mono)))
            chunks.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(chunks)
        return s[2:] if s[0] == "+" else "-" + s[2:]


def _ref_monic(p):
    return p if p.is_zero() else p * (1 / p.leading()[1])


def _ref_divexact(p, d):
    if d.is_const():
        return p * (1 / d.terms[()])
    name = d.vars[0]
    dcoe = d.as_univariate(name)
    dd = max(dcoe)
    q = {}
    rem = p
    while not rem.is_zero():
        rcoe = rem.as_univariate(name)
        rd = max(rcoe)
        assert rd >= dd, "inexact reference division"
        t = _ref_divexact(rcoe[rd], dcoe[dd])
        q[rd - dd] = q.get(rd - dd, _RefPoly.const(0)) + t
        rem = rem - _RefPoly.from_univariate(name, {rd - dd: t}) * d
    return _RefPoly.from_univariate(name, q)


def _ref_gcd_list(polys):
    g = _RefPoly.const(0)
    for p in polys:
        g = _ref_gcd(g, p)
        if g.is_const() and not g.is_zero():
            return _RefPoly.const(1)
    return g


def _ref_pseudo_rem(a, b, name):
    bcoe = b.as_univariate(name)
    db = max(bcoe)
    rem = a
    while not rem.is_zero():
        rcoe = rem.as_univariate(name)
        dr = max(rcoe)
        if dr < db:
            break
        rem = bcoe[db] * rem - _RefPoly.from_univariate(name, {dr - db: rcoe[dr]}) * b
    return rem


def _ref_gcd(p, q):
    if p.is_zero():
        return _ref_monic(q)
    if q.is_zero():
        return _ref_monic(p)
    if p.is_const() or q.is_const():
        return _RefPoly.const(1)
    name = _ref_merge_vars(p.vars, q.vars)[0]
    pc, qc = p.as_univariate(name), q.as_univariate(name)
    cont_p, cont_q = _ref_gcd_list(pc.values()), _ref_gcd_list(qc.values())
    cont = _ref_gcd(cont_p, cont_q)
    if max(pc) == 0 or max(qc) == 0:
        return _ref_monic(cont)
    a, b = _ref_divexact(p, cont_p), _ref_divexact(q, cont_q)
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while not b.is_zero():
        r = _ref_pseudo_rem(a, b, name)
        if r.is_zero():
            a, b = b, r
            break
        rc = _ref_gcd_list(r.as_univariate(name).values())
        a, b = b, _ref_monic(_ref_divexact(r, rc))
    return _ref_monic(cont * a)


def _exponent_terms(p, names=NAMES, exps=()):
    """{exponent tuple over NAMES: coefficient}, read through as_univariate."""
    if not names:
        return {exps: p.const_value()}
    out = {}
    for k, c in p.as_univariate(names[0]).items():
        out.update(_exponent_terms(c, names[1:], exps + (k,)))
    return out


def _to_ref(p):
    return _RefPoly.make(NAMES, _exponent_terms(p))


def _assert_canonical(p):
    """Coefficients are nonzero ints where integral and Fractions otherwise."""
    for c in p.terms.values():
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)), (p, c)


_COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_POLY_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(NAMES)), _COEFF, max_size=5
)


def _pair(terms):
    return Poly.make(NAMES, terms), _RefPoly.make(NAMES, terms)


def _agree(p, ref):
    _assert_canonical(p)
    assert _to_ref(p) == ref, (str(p), str(ref))
    assert str(p) == str(ref)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    a=_POLY_TERMS,
    b=_POLY_TERMS,
    scalar=_COEFF,
    n=st.integers(0, 3),
    perm=st.permutations(NAMES),
    name=st.sampled_from(NAMES),
)
def test_poly_matches_tuple_keyed_reference(a, b, scalar, n, perm, name):
    (p, rp), (q, rq) = _pair(a), _pair(b)
    _agree(p, rp)
    _agree(p + q, rp + rq)
    _agree(p - q, rp - rq)
    _agree(p * q, rp * rq)
    _agree(p * scalar, rp * scalar)
    _agree(p * scalar.numerator, rp * scalar.numerator)
    _agree(p ** n, rp ** n)
    mapping = dict(zip(NAMES, perm))
    _agree(p.rename(mapping), rp.rename(mapping))
    got = p.as_univariate(name)
    want = rp.as_univariate(name)
    assert sorted(got) == sorted(want)
    for d, c in got.items():
        _agree(c, want[d])
    assert Poly.from_univariate(name, got) == p
    assert p.total_degree() == rp.total_degree()
    assert p.degree_in(name) == rp.degree_in(name)
    assert p.vars == rp.vars
    if not p.is_zero():
        mono, c = p.leading()
        rmono, rc = rp.leading()
        assert c == rc
        assert dict(zip(NAMES, _exponents(mono))) == {
            x: dict(zip(rp.vars, rmono)).get(x, 0) for x in NAMES
        }


# small polynomials in u, v, u1 for the gcd, whose sequence swells fast
_SMALL_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: e + (0, 0)), _COEFF, max_size=3
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    den_mults=_MULTS,
    num_mults=_MULTS,
    cofactor=_POLY_TERMS,
    core=st.booleans(),
    gcd_terms=st.tuples(_SMALL_TERMS, _SMALL_TERMS, _SMALL_TERMS),
)
def test_reduction_and_gcd_match_tuple_keyed_reference(den_mults, num_mults, cofactor, core, gcd_terms):
    den = _product(dict([(f, m) for f, m in zip(FACTORS, den_mults) if m][:3]))
    num = _product(dict([(f, m) for f, m in zip(FACTORS, num_mults) if m][:3]))
    cof = Poly.make(NAMES, cofactor)
    if not cof.is_zero():
        num = num * cof
    if core:
        den = den * CORE
    got = _reduce_fraction(num, den)
    want = _ref_reduce_fraction(_to_ref(num), _to_ref(den))
    for p, ref in zip(got, want):
        _agree(p, ref)
    # two cofactors and a shared factor that the gcd must find
    a, b, g = (Poly.make(NAMES, t) for t in gcd_terms)
    for x, y in ((a * g, b * g), (a, b), (a * g, g)):
        _agree(poly_gcd(x, y), _ref_gcd(_to_ref(x), _to_ref(y)))


def test_coefficients_are_never_floats():
    u, v = X["u"], X["v"]
    p = _monic(2 * u + 1)
    assert p.terms and all(type(c) in (int, Fraction) for c in p.terms.values())
    assert str(p) == "u + 1/2"
    _assert_canonical(p)
    # an integral Fraction product or sum comes back an int
    half = p * Fraction(2)
    assert all(type(c) is int for c in half.terms.values())
    assert all(type(c) is int for c in (p + p).terms.values())
    f = RatFun.of(u + 1, 2 * v - 2 * u)
    for part in (f.num, f.den, _poly_divexact(6 * u, 3 * u), _poly_divexact(u, 2 * u)):
        _assert_canonical(part)
    assert Poly.const(Fraction(4, 2)).terms == {0: 2}
    assert Poly.const(3).const_value() == Fraction(3)
    assert type(Poly.const(3).const_value()) is Fraction


def test_unknown_variable_and_bad_exponent_raise_value_error():
    for bad in (
        lambda: Poly.var("x"),
        lambda: Poly.var("u", -1),
        lambda: Poly.make(("w",), {(1,): 1}),
        lambda: Poly.make(("u", "u"), {(1, 1): 1}),
        lambda: X["u"].rename({"u": "x"}),
        lambda: (X["u"] + X["v"]).rename({"u": "v"}),
        lambda: X["u"].degree_in("x"),
        lambda: X["u"].as_univariate("t"),
        lambda: Poly.const(0).leading(),
        lambda: X["u"].const_value(),
    ):
        with pytest.raises(ValueError):
            bad()


def test_exponent_overflow_raises_under_optimisation():
    script = (
        "from yangbaxter.ratfun import ExponentOverflow, MAX_POLY_EXPONENT as M, Poly\n"
        "top = Poly.var('u3', M - 1) * Poly.var('u3')\n"
        "assert top.degree_in('u3') == M and top.vars == ('u3',), 'limit refused'\n"
        "cases = [\n"
        "    lambda: top * Poly.var('u3'),\n"
        "    lambda: (top + Poly.var('u2')) ** 2,\n"
        "    lambda: Poly.var('u', M + 1),\n"
        "    lambda: Poly.make(('v',), {(M + 1,): 1}),\n"
        "    lambda: Poly.from_univariate('u3', {1: top}),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        p = case()\n"
        "        print('wrapped', p.vars)\n"
        "    except ExponentOverflow:\n"
        "        print('overflow')\n"
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
        assert proc.stdout.splitlines() == ["overflow"] * 5, (flags, proc.stdout)
    assert issubclass(ExponentOverflow, OverflowError) and MAX_POLY_EXPONENT >= 1000


def test_power_squares_only_the_bits_it_uses():
    # The top bit of k = 1024 needs u^1024 and no square past it: u^2048 would
    # pass the limit though the power itself fits.
    for k in (1024, 1500, MAX_POLY_EXPONENT):
        assert Poly.var("u") ** k == Poly.var("u", k)
        assert (RatFun.var("u") ** k).num == Poly.var("u", k)
    with pytest.raises(ExponentOverflow):
        Poly.var("u") ** (MAX_POLY_EXPONENT + 1)


def test_argument_errors_are_typed_with_and_without_optimisation():
    # Each check was an assert, which python -O skips: const_value of
    # 1/(u+1) then read its numerator, 1.
    script = (
        "from fractions import Fraction\n"
        "from yangbaxter.ratfun import RatFun\n"
        "u = RatFun.var('u')\n"
        "cases = [\n"
        "    (ValueError, lambda: (u + 1).const_value()),\n"
        "    (ValueError, lambda: ((u + 1) ** -1).const_value()),\n"
        "    (TypeError, lambda: u ** Fraction(1, 2)),\n"
        "]\n"
        "for error, case in cases:\n"
        "    try:\n"
        "        print('accepted', case())\n"
        "    except error:\n"
        "        print('rejected')\n"
        "print(RatFun.from_frac(Fraction(3, 2)).const_value(), (u ** 2).num.degree_in('u'))\n"
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
        # The last line is the negative control: valid arguments still work.
        assert proc.stdout.splitlines() == ["rejected"] * 3 + ["3/2 2"], (flags, proc.stdout)


# Reduced fractions from products of these factors: linear forms, among them
# a non-monic one, and non-linear ones that only the general gcd meets.
_KEPT_FACTORS = [X["u"], X["v"], X["u"] - X["v"], X["u"] + X["v"], -2 * X["u"] + X["v"],
                 CORE, X["u"] * X["v"] + 1]
_KEPT_CONSTS = [0, 1, -1, 3, -2, Fraction(1, 2), Fraction(-5, 3)]


def _kept_ratfun(num_factors, den_factors, scale):
    num, den = Poly.const(scale), Poly.const(1)
    for f in num_factors:
        num = num * f
    for f in den_factors:
        den = den * f
    return RatFun.of(num, den)


_KEPT = st.builds(_kept_ratfun, st.lists(st.sampled_from(_KEPT_FACTORS), max_size=2),
                  st.lists(st.sampled_from(_KEPT_FACTORS), max_size=2), st.sampled_from(_KEPT_CONSTS))


def _same(got, want):
    assert got == want and str(got) == str(want), (str(got), str(want))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=_KEPT, g=_KEPT, c=st.sampled_from(_KEPT_CONSTS), n=st.sampled_from((0, 1, 2, 3, -1, -2)))
@example(f=_kept_ratfun([-2 * X["u"] + X["v"]], [], 1), g=U, c=-2, n=-1)
@example(f=_kept_ratfun([], [CORE], 3), g=U - V, c=Fraction(1, 2), n=-2)
@example(f=_kept_ratfun([X["u"] - X["v"]], [CORE, X["u"]], Fraction(-5, 3)), g=V, c=3, n=3)
@example(f=_kept_ratfun([], [], 0), g=V, c=0, n=0)
def test_kept_reductions_match_reduction_from_scratch(f, g, c, n):
    # a product with a constant on either side, a reciprocal and a power
    # give the very RatFun that reducing from scratch gives
    const = RatFun.from_frac(c)
    _same(f * const, ref_const_product(f, const))
    _same(const * f, ref_const_product(f, const))
    if not f.is_zero():
        _same(f ** -1, ref_reciprocal(f))
        _same(g / f, RatFun.of(g.num * f.den, g.den * f.num))
    if n >= 0 or not f.is_zero():
        _same(f ** n, ref_pow(f, n))


_RENAMINGS = [{"u": "u1", "v": "u2"}, {"u": "u2", "v": "u3"}, {"u": "v", "v": "u"}, {"v": "u"},
              {"u3": "u"}, {}]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=_KEPT, c=st.sampled_from(_KEPT_CONSTS), mapping=st.sampled_from(_RENAMINGS))
@example(f=_kept_ratfun([], [], 0), c=0, mapping={"u": "v", "v": "u"})
@example(f=_kept_ratfun([X["u"]], [-2 * X["u"] + X["v"]], 1), c=-2, mapping={"u": "v", "v": "u"})
def test_rename_matches_reduction_from_scratch(f, c, mapping):
    # a polynomial, zero and the constants among them, renames over the unit
    # denominator directly; any other RatFun renames and rescales its
    # denominator monic, as a swap of u and v can change its leading term;
    # v -> u on a RatFun in u and v is refused on both paths
    for g in (f, RatFun.from_poly(f.num), RatFun.from_frac(c)):
        try:
            want = ref_rename(g, mapping)
        except ValueError:
            with pytest.raises(ValueError, match="not injective"):
                g.rename(mapping)
            continue
        _same(g.rename(mapping), want)
