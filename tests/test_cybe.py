"""Tests for Yang-Baxter residuals, the built-in solution catalog,
quasi-rationality, and the induced co-bracket with its cocycle/co-Jacobi
identities.  The cleared residual numerators are compared, entry for entry,
with the entrywise RatFun residual: the same support, and one constant
ratio once divided by d12*d13*d23."""

import functools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from yangbaxter import cybe as cybe_module
from yangbaxter.cybe import (
    ConventionError,
    PoleCancellationError,
    catalog,
    catalog_entry,
    cobracket,
    cocycle_check,
    cojacobi_check,
    cyb,
    is_quasi_rational,
)
from yangbaxter.gauge import gauge_transform, random_unipotent
from yangbaxter.lie import GPoly, calibrate_casimir, casimir, dj_rmatrix, make_sl
from yangbaxter.ratfun import ExponentOverflow, Poly, RatFun
from yangbaxter.tensors import (
    Tensor2,
    Tensor3,
    clear_denominators,
    is_polynomial,
    is_skew,
    leg_bracket,
    swap,
)
from reference import (
    CYB_WEIGHTS,
    ref_clear_denominators,
    ref_delta_on_first_leg,
    ref_leg_bracket,
    ref_weighted_cyb,
)
from test_tensors import _kernels, _ref_ad2_action

U = RatFun.var("u")
V = RatFun.var("v")


def _sl2():
    t = make_sl(2)
    return t, calibrate_casimir(t)


def test_catalog_solves_yang_baxter_sl2():
    t, om = _sl2()
    cat = catalog(t, om)
    assert set(cat) == {
        "gamma1", "gamma2", "gamma3", "gamma4", "q0", "q1", "q2", "rational_eh",
    }
    for name, r in cat.items():
        assert cyb(r).is_zero(), name


def test_catalog_solves_yang_baxter_sl3():
    t = make_sl(3)
    om = casimir(t, 6)
    cat = catalog(t, om)
    assert set(cat) == {"gamma1", "gamma2", "gamma3", "gamma4", "q0"}
    for name, r in cat.items():
        assert cyb(r).is_zero(), name


def test_catalog_entry_refuses_a_gamma3_that_fails_yang_baxter(monkeypatch):
    # The sign and the Cartan half of the constant part are forced: with
    # sign +1, or with the whole Cartan block, gamma3 keeps a residual, and
    # catalog_entry's one check raises with its term count.
    def whole_cartan(table, omega):
        cartan = [table.index[f"H({i})"] for i in range(1, table.n)]
        block = {(a, b): omega.matrix[a][b] / 2 for a in cartan for b in cartan}
        return dj_rmatrix(table, omega) - Tensor2.make(table, block)

    controls = ((lambda table, omega: -dj_rmatrix(table, omega), (6, 36, 108)),
                (whole_cartan, (2, 8, 20)))
    for n in (2, 3, 4):
        t = make_sl(n)
        om = casimir(t, 2 * n)
        assert cyb(catalog_entry(t, om, "gamma3")).is_zero()
        for constant_part, terms in controls:
            monkeypatch.setattr(cybe_module, "dj_rmatrix", constant_part)
            with pytest.raises(ConventionError, match=f" {terms[n - 2]} residual terms"):
                catalog_entry(t, om, "gamma3")
            monkeypatch.undo()


def test_quasi_rational_membership():
    t, om = _sl2()
    cat = catalog(t, om)
    assert is_quasi_rational(cat["gamma4"], om)
    assert is_quasi_rational(cat["q0"], om)
    assert is_quasi_rational(cat["q1"], om)
    assert is_quasi_rational(cat["q2"], om)
    # Yang-Baxter solutions whose difference from the leading term keeps a pole:
    assert cyb(cat["rational_eh"]).is_zero()
    assert not is_quasi_rational(cat["rational_eh"], om)
    assert not is_quasi_rational(cat["gamma1"], om)
    assert not is_quasi_rational(cat["gamma2"], om)
    assert not is_quasi_rational(cat["gamma3"], om)


def test_leading_term_structure():
    t, om = _sl2()
    lead = om.leading
    factor = U * V / (V - U)
    assert lead.coeff("e", "f") == factor
    assert lead.coeff("f", "e") == factor
    assert lead.coeff("h", "h") == factor / 2
    assert len(lead.entries) == 3
    assert is_skew(lead)


def test_gamma2_and_gamma3_coefficients():
    t, om = _sl2()
    cat = catalog(t, om)
    pole = (U - V) ** -1
    g2 = cat["gamma2"]
    assert g2.coeff("e", "f") == pole
    assert g2.coeff("f", "e") == pole
    assert g2.coeff("h", "h") == pole / 2
    g3 = cat["gamma3"]
    assert g3.coeff("e", "f") == -U / (U - V)
    assert g3.coeff("f", "e") == -V / (U - V)
    assert g3.coeff("h", "h") == (-U / 4 - V / 4) / (U - V)
    assert len(g3.entries) == 3


def test_q_matrix_differences():
    t, om = _sl2()
    cat = catalog(t, om)
    d1 = cat["q1"] - cat["gamma4"]
    assert d1 == Tensor2.single(t, "e", "h") + Tensor2.single(t, "h", "e", -1)
    d2 = cat["q2"] - cat["q0"]
    assert d2.coeff("e", "f") == -U
    assert d2.coeff("f", "e") == V
    assert d2.coeff("e", "h") * -2 == 1
    assert d2.coeff("h", "e") * 2 == 1
    assert len(d2.entries) == 4
    assert is_skew(d1) and is_skew(d2)


def test_cobracket_oracles():
    t, om = _sl2()
    cat = catalog(t, om)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    out = cobracket(cat["gamma4"], GPoly.monomial(e, 1))
    assert out == Tensor2.single(t, "e", "h", -U * V) + Tensor2.single(
        t, "h", "e", U * V
    )
    out = cobracket(cat["gamma2"], GPoly.monomial(h, 2))
    assert out == Tensor2.single(t, "e", "f", -2 * U - 2 * V) + Tensor2.single(
        t, "f", "e", 2 * U + 2 * V
    )
    # Constants are killed: the kernel is ad-invariant on the diagonal.
    assert cobracket(cat["gamma2"], GPoly.monomial(f, 0)).is_zero()
    assert cobracket(cat["gamma4"], GPoly.monomial(h, 0)).is_zero()


def test_cobracket_results_are_skew_polynomials():
    t, om = _sl2()
    cat = catalog(t, om)
    for name in ("gamma2", "gamma3", "gamma4"):
        for lbl in ("e", "f", "h"):
            for d in range(4):
                p = GPoly.monomial(t.basis_element(lbl), d)
                out = cobracket(cat[name], p)
                assert is_skew(out), (name, lbl, d)


def test_cobracket_pole_error():
    t, _ = _sl2()
    bad_kernel = Tensor2.single(t, "e", "f", (U - V) ** -1)
    with pytest.raises(PoleCancellationError) as exc:
        cobracket(bad_kernel, GPoly.monomial(t.basis_element("e")))
    assert "pole" in str(exc.value)


def test_cocycle_identity_seeded():
    t, om = _sl2()
    cat = catalog(t, om)
    rng = random.Random(17)
    labels = ("e", "f", "h")
    for name in ("gamma2", "gamma3", "gamma4"):
        g = cat[name]
        for _ in range(3):
            p = GPoly.monomial(t.basis_element(rng.choice(labels)), rng.randint(0, 3))
            q = GPoly.monomial(t.basis_element(rng.choice(labels)), rng.randint(0, 3))
            assert cocycle_check(g, p, q), (name, str(p), str(q))


def test_cojacobi_identity():
    t, om = _sl2()
    cat = catalog(t, om)
    for name in ("gamma2", "gamma4"):
        g = cat[name]
        for lbl, d in (("e", 1), ("h", 2), ("f", 0)):
            assert cojacobi_check(g, GPoly.monomial(t.basis_element(lbl), d))
    # gamma2 + (e(x)h - h(x)e) keeps co-Jacobi at every degree; gamma2 +
    # (e(x)f - f(x)e) has a polynomial co-bracket too, but co-Jacobi fails
    # for it past degree 0: the negative control.
    eh = cat["gamma2"] + _constant_skew(t, "e", "h", 1)
    ef = cat["gamma2"] + _constant_skew(t, "e", "f", 1)
    for lbl in "efh":
        for d in range(3):
            p = GPoly.monomial(t.basis_element(lbl), d)
            assert cojacobi_check(eh, p), (lbl, d)
            assert cojacobi_check(ef, p) == (d == 0), (lbl, d)


def test_delta_on_first_leg_equals_the_ratfun_reference():
    # The sparse sum per key against one RatFun product and one accumulate
    # per term: the same Tensor3 of RatFuns, on the two skew kernels above
    # and on gamma2..gamma4 over sl(2) and sl(3).  A reference result with
    # its slots rotated must differ, or the comparison is vacuous.
    t = _SL2
    kernels = [(t, _sl2_cat()[name]) for name in ("gamma2", "gamma3", "gamma4")]
    kernels += [(t, _sl2_cat()["gamma2"] + _constant_skew(t, x, y, 1))
                for x, y in (("e", "h"), ("e", "f"))]
    kernels += [(_SL3, _sl3_cat()[name]) for name in ("gamma2", "gamma3", "gamma4")]
    nonzero = 0
    for table, gamma in kernels:
        for a in range(table.dim):
            for d in (1, 2):
                dp = cobracket(gamma, GPoly.monomial(table.basis_element(a), d))
                got = cybe_module._delta_on_first_leg(gamma, dp)
                want = ref_delta_on_first_leg(gamma, dp)
                assert got == want, (table.n, a, d)
                assert all(type(f) is RatFun for f in got.entries.values())
                if not got.is_zero():
                    nonzero += 1
                    assert got != want.rotate(), (table.n, a, d)
    assert nonzero > 0


def test_cyb_detects_non_solutions():
    t, _ = _sl2()
    r = Tensor2.single(t, "e", "f", U) + Tensor2.single(t, "h", "h", 1)
    assert not cyb(r).is_zero()
    assert cyb(Tensor2.zero(t)).is_zero()


def _symbolic_cyb(r):
    """Reference residual: the three leg commutators in RatFun arithmetic,
    with no code shared with cyb's cleared, integral path."""
    return (
        ref_leg_bracket(r, r, "12^13")
        + ref_leg_bracket(r, r, "12^23")
        + ref_leg_bracket(r, r, "13^23")
    )


_LEG_VARS = ({"u": "u1", "v": "u2"}, {"u": "u1", "v": "u3"}, {"u": "u2", "v": "u3"})


def _agrees_with_symbolic(res, r, legs=_LEG_VARS):
    """True iff the cleared residual res of r has the support of the
    symbolic residual, and RatFun.of(N_k, d12*d13*d23) / ref_k is one and
    the same nonzero constant for every entry (d from clear_denominators;
    `legs` selects the leg factors of the denominator).

    Both sides are reduced with a monic denominator, so the quotient is the
    constant c exactly when the denominators agree and one numerator is c
    times the other; that reads c off the leading coefficients, with no gcd.
    """
    ref = _symbolic_cyb(r).entries
    if set(res.entries) != set(ref):
        return False
    d = clear_denominators(r)[0]
    den = Poly.const(1)
    for mapping in legs:
        den = den * d.rename(mapping)
    ratios = set()
    for key, n in res.entries.items():
        got, want = RatFun.of(n, den), ref[key]
        c = F(got.num.leading()[1]) / want.num.leading()[1]
        if got.den != want.den or got.num != want.num * c:
            return False
        ratios.add(c)
    return len(ratios) <= 1


def _constant_skew(t, x, y, c):
    return Tensor2.make(t, {(t.index[x], t.index[y]): c, (t.index[y], t.index[x]): -c})


def _mixed_denominators(t, gamma2):
    """gamma2 + e(x)f*(u/(u-v) + v) + h(x)h*(u+v)^-2: d = (u-v)(u+v)^2."""
    return gamma2 + Tensor2.make(
        t, {(t.index["e"], t.index["f"]): U / (U - V) + V,
            (t.index["h"], t.index["h"]): (U + V) ** -2}
    )


def _nonlinear(t, a=2):
    """e(x)f/(a*u^2 + v) - f(x)e/(a*v^2 + u): skew, not a solution, and for
    a > 1 the monic denominator u^2 + v/a puts Fractions into the cleared
    form."""
    half = Tensor2.single(t, "e", "f", (a * U ** 2 + V) ** -1)
    return half - swap(half)


def test_clear_denominators():
    t, om = _sl2()
    cat = catalog(t, om)
    r = _mixed_denominators(t, cat["gamma2"])
    d, p = clear_denominators(r)
    assert d == ((U - V) * (U + V) ** 2).num
    for key, f in r.entries.items():
        assert RatFun.of(p.entries[key], d) == f
    d, p = clear_denominators(cat["q1"] - cat["q0"])
    assert d.is_const() and d.const_value() == 1
    assert clear_denominators(Tensor2.zero(t))[1].is_zero()


def test_cyb_matches_symbolic_on_sl3_sl4_catalogs_and_open_pairs():
    # The reference costs seconds per sl(4) tensor, so sl(4) runs the
    # convention-carrying gamma3 and one open pair.  A constant skew part on a
    # non-closed pair breaks Yang-Baxter; on the closed {H(1), E(1,3)} it
    # keeps it.
    cases = {
        3: (["gamma1", "gamma2", "gamma3", "gamma4"],
            [("gamma4", "E(1,2)", "E(2,1)", False), ("gamma2", "E(1,2)", "E(2,3)", False),
             ("gamma4", "H(1)", "E(1,3)", True)]),
        4: (["gamma3"], [("gamma2", "E(1,2)", "E(2,3)", False)]),
    }
    for n, (names, pairs) in cases.items():
        t = make_sl(n)
        cat = catalog(t, casimir(t, 2 * n))
        for name in names:
            res = cyb(cat[name])
            assert _agrees_with_symbolic(res, cat[name]), (n, name)
            assert res.is_zero(), (n, name)
        for base, x, y, solves in pairs:
            r = cat[base] + _constant_skew(t, x, y, F(3, 2))
            res = cyb(r)
            assert _agrees_with_symbolic(res, r), (n, base, x, y)
            assert res.is_zero() == solves, (n, base, x, y)


def test_cyb_matches_symbolic_on_mixed_denominators_and_zero():
    t, om = _sl2()
    cat = catalog(t, om)
    mixed = _mixed_denominators(t, cat["gamma2"])
    res = cyb(mixed)
    assert not res.is_zero()
    assert _agrees_with_symbolic(res, mixed)
    poly = Tensor2.single(t, "e", "f", U) + Tensor2.single(t, "h", "h", 1)
    assert _agrees_with_symbolic(cyb(poly), poly) and not cyb(poly).is_zero()
    zero = Tensor2.zero(t)
    assert _agrees_with_symbolic(cyb(zero), zero) and cyb(zero).is_zero()


def test_cyb_matches_symbolic_on_sl2_gauge_images():
    t, om = _sl2()
    cat = catalog(t, om)
    # gamma4 + 2(e(x)h - h(x)e) + e(x)f: not a solution, not quasi-rational.
    control = cat["gamma4"] + _constant_skew(t, "e", "h", 2) + Tensor2.single(t, "e", "f", 1)
    bases = dict(cat, control=control)
    rng = random.Random(23)
    for name, r in bases.items():
        image = gauge_transform(random_unipotent(t, rng), r, check=False)
        res = cyb(image)
        assert _agrees_with_symbolic(res, image), name
        assert res.is_zero() == (name != "control"), name


# q0 = gamma4 is the leading term over the calibrated sl(2) scale 4.  Nothing
# at import computes a residual (catalog_entry checks gamma3's, so the
# catalogs are built on first use): a faulty cyb fails the tests, not their
# collection.
_SL2 = make_sl(2)
_SL2_OMEGA = casimir(_SL2, 4)
_Q0 = _SL2_OMEGA.leading
_MIXED = _mixed_denominators(_SL2, catalog_entry(_SL2, _SL2_OMEGA, "gamma2"))
# gamma4 + 2(e(x)h - h(x)e) + e(x)f: linear denominators, not a solution.
_CONTROL = _Q0 + _constant_skew(_SL2, "e", "h", 2) + Tensor2.single(_SL2, "e", "f", 1)


@functools.cache
def _sl2_cat():
    return catalog(_SL2, _SL2_OMEGA)


_TERMS = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 2),  # basis indices a, b
        st.integers(0, 1), st.integers(0, 1),  # exponents of u and v
        st.integers(-3, 3).filter(bool),       # coefficient
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(terms=_TERMS, seed=st.integers(0, 2**16))
def test_cyb_matches_symbolic_on_gauged_skew_perturbations(terms, seed):
    t = _SL2
    half = Tensor2.zero(t)
    for a, b, i, j, c in terms:
        half = half + Tensor2.single(t, a, b, U ** i * V ** j * c)
    r = _Q0 + half - swap(half)  # a skew polynomial perturbation of q0
    p = random_unipotent(t, random.Random(seed), total_degree=1)
    image = gauge_transform(p, r, check=False)
    res = cyb(image)
    assert _agrees_with_symbolic(res, image)
    assert is_quasi_rational(image, _SL2_OMEGA) == _ref_quasi_rational(image, _SL2_OMEGA)


def test_pole_error_exactly_when_reference_cobracket_has_a_pole():
    # The cleared co-bracket divides by d*(u*v)^s once per entry; the pole
    # verdict must be the one the entrywise expansion gives, in both ways.
    for n in (2, 3):
        t, kernels = _kernels(n)
        for name, gamma in kernels.items():
            for a in range(t.dim):
                for d in (-1, 0, 2):
                    p = GPoly.monomial(t.basis_element(a), d)
                    ref = _ref_ad2_action(p, gamma).scale(-1)
                    if is_polynomial(ref):
                        assert cobracket(gamma, p) == ref, (n, name, a, d)
                    else:
                        with pytest.raises(PoleCancellationError):
                            cobracket(gamma, p)
    # Negative control: the bad kernel keeps its pole on e and f monomials.
    t, kernels = _kernels(2)
    assert not is_polynomial(_ref_ad2_action(GPoly.monomial(t.basis_element("e"), 1),
                                             kernels["bad"]))


def test_cobracket_entry_matches_sympy_matrices():
    # An independent oracle: [Gamma, p(u)(x)1 + 1(x)p(v)] as a 4x4 matrix,
    # built from the 2x2 defining matrices in sympy and cancelled there.
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    t, om = _sl2()
    cat = catalog(t, om)
    mats = {"e": sympy.Matrix([[0, 1], [0, 0]]), "f": sympy.Matrix([[0, 0], [1, 0]]),
            "h": sympy.Matrix([[1, 0], [0, -1]])}
    by_index = {t.index[k]: m for k, m in mats.items()}
    one = sympy.eye(2)

    def coeff(f):
        return sympy.sympify(str(f).replace("^", "**"), locals={"u": u, "v": v})

    def as_matrix(r):
        out = sympy.zeros(4, 4)
        for (a, b), f in r.entries.items():
            out += coeff(f) * sympy.kronecker_product(by_index[a], by_index[b])
        return out

    for name, lbl, d in (("gamma3", "e", 3), ("gamma2", "h", 2), ("rational_eh", "f", 1)):
        gamma = as_matrix(cat[name])
        x = mats[lbl]
        p = u ** d * sympy.kronecker_product(x, one) + v ** d * sympy.kronecker_product(one, x)
        expected = (gamma * p - p * gamma).applyfunc(sympy.cancel)
        got = as_matrix(cobracket(cat[name], GPoly.monomial(t.basis_element(lbl), d)))
        assert (got - expected).applyfunc(sympy.cancel) == sympy.zeros(4, 4), name
        assert all(sympy.fraction(c)[1].is_number for c in expected), name
        # Negative control: the oracle tells the next degree's co-bracket apart.
        shifted = as_matrix(cobracket(cat[name], GPoly.monomial(t.basis_element(lbl), d + 1)))
        assert (shifted - expected).applyfunc(sympy.cancel) != sympy.zeros(4, 4), name


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), degree=st.integers(0, 1), a=st.integers(2, 5))
def test_cyb_equals_symbolic_reference_on_gauge_images_and_controls(seed, degree, a):
    # Gauge images of the sl(2) solutions and of a non-solution control, and
    # mixed and non-linear denominators as they are (a gauge image would
    # spread their non-linear factors over every entry, and the RatFun
    # reference then takes minutes); the non-solutions are negative controls.
    p = random_unipotent(_SL2, random.Random(seed), total_degree=degree)
    names = ("q0", "q1", "q2", "rational_eh", "gamma2", "gamma3")
    cases = [(gauge_transform(p, _sl2_cat()[name], check=False), True) for name in names]
    cases += [(gauge_transform(p, _CONTROL, check=False), False),
              (_MIXED, False), (_nonlinear(_SL2, a), False)]
    for r, solves in cases:
        res = cyb(r)
        assert _agrees_with_symbolic(res, r), str(r)
        assert res.is_zero() == solves, str(r)


def test_cleared_residual_comparison_has_negative_controls():
    # The comparison must reject a perturbed numerator and a denominator
    # that leaves out one leg factor; d is nonconstant for both tensors.
    for r in (_CONTROL, _MIXED):
        res = cyb(r)
        assert _agrees_with_symbolic(res, r) and len(res.entries) > 1
        key, n = next(iter(res.entries.items()))
        perturbed = Tensor3(_SL2, {**res.entries, key: n * 2})
        assert not _agrees_with_symbolic(perturbed, r)
        assert not _agrees_with_symbolic(res, r, legs=_LEG_VARS[:2])


def test_cyb_of_gauged_mixed_denominators_is_fast():
    # The gauge spreads (u+v)^2 over every entry; dividing the residual back
    # by d12*d13*d23 through the general gcd took over a minute.
    p = random_unipotent(_SL2, random.Random(0), total_degree=0)
    start = time.perf_counter()
    res = cyb(gauge_transform(p, _MIXED))
    elapsed = time.perf_counter() - start
    assert len(res.entries) == 16
    assert elapsed < 2, elapsed


def _fresh(r):
    """An equal tensor that has not computed its residual."""
    return Tensor2(r.table, dict(r.entries))


def test_cyb_feeds_leg_bracket_int_coefficients(monkeypatch):
    # Fresh copies: a module-level tensor may already hold its residual, and
    # then cyb brackets nothing and the spy would see nothing.
    seen = set()
    pairs = []

    def spy(r, s, pair):
        seen.update(type(c) for t in (r, s) for f in t.entries.values() for c in f.terms.values())
        pairs.append(pair)
        return leg_bracket(r, s, pair)

    monkeypatch.setattr(cybe_module, "leg_bracket", spy)
    cases = [_fresh(r) for r in (_sl2_cat()["q2"], _CONTROL, _MIXED)] + [_nonlinear(_SL2)]
    for r in cases:
        # Not vacuous: the monic cleared form holds Fractions.
        d, p = clear_denominators(r)
        assert any(type(c) is F for f in (d, *p.entries.values()) for c in f.terms.values())
        cyb(r)
    assert len(pairs) == 3 * len(cases)
    assert seen == {int}


def _ref_quasi_rational(r, omega):
    """is_quasi_rational from the reference residual, with no scale: the
    difference and its skewness are formed by RatFun products."""
    minus_one = RatFun.from_frac(-1)
    lead = Tensor2(r.table, {k: f * minus_one for k, f in omega.leading.entries.items()})
    diff = r + lead
    return (is_polynomial(diff) and (swap(diff) + diff).is_zero()
            and _symbolic_cyb(r).is_zero())


def test_cyb_computes_each_residual_once(monkeypatch):
    calls = []

    def counting(r, s, pair):
        calls.append(pair)
        return leg_bracket(r, s, pair)

    monkeypatch.setattr(cybe_module, "leg_bracket", counting)
    r = _fresh(_sl2_cat()["q2"])
    assert cyb(r) is cyb(r)
    assert len(calls) == 3
    calls.clear()
    r = _fresh(_sl2_cat()["q1"])
    assert cyb(r).is_zero() and is_quasi_rational(r, _SL2_OMEGA)
    assert len(calls) == 3
    # An equal but distinct tensor computes its own residual, and the two
    # residuals are equal but not one object.
    calls.clear()
    twin = _fresh(r)
    assert twin == r and cyb(twin) == cyb(r) and cyb(twin) is not cyb(r)
    assert len(calls) == 3
    # The stored residual belongs to its tensor: an operation builds a new
    # tensor with none.
    assert getattr(r - twin, "_residual", None) is None


def test_memoized_verdicts_match_the_reference():
    # The catalog, the non-skew gamma4 control (not a solution), the mixed
    # and non-linear denominators, and q0 + e(x)f + f(x)e, whose difference
    # from the leading term is polynomial but symmetric: the negative control
    # of the skew test.  Each verdict is read twice, the second time from the
    # stored residual.
    sym = _sl2_cat()["q0"] + Tensor2.single(_SL2, "e", "f", 1) + Tensor2.single(_SL2, "f", "e", 1)
    cases = dict(_sl2_cat(), control=_CONTROL, mixed=_MIXED, nonlinear=_nonlinear(_SL2), sym=sym)
    verdicts = {}
    for name, r in cases.items():
        r = _fresh(r)
        ref_zero = _symbolic_cyb(r).is_zero()
        ref_qr = _ref_quasi_rational(r, _SL2_OMEGA)
        for _ in range(2):
            assert cyb(r).is_zero() == ref_zero, name
            assert is_quasi_rational(r, _SL2_OMEGA) == ref_qr, name
        verdicts[name] = (ref_zero, ref_qr)
    assert verdicts["control"] == (False, False)
    assert verdicts["q2"] == (True, True) and verdicts["rational_eh"] == (True, False)
    assert not is_skew(sym - _SL2_OMEGA.leading) and not verdicts["sym"][1]


# The weighted sum with d12 and d13 swapped: a reference that must disagree.
_SWAPPED_WEIGHTS = dict(CYB_WEIGHTS, **{"12^23": "12", "13^23": "13"})
# Linear, repeated and non-linear denominators; 2*u^2 + v and u*v + 3 put
# Fractions into the monic cleared form.
_DENOMINATORS = (1, U - V, U + V, U, V, (U - V) ** 2, 2 * U ** 2 + V, U * V + 3)
_SL3 = make_sl(3)


@functools.cache
def _sl3_cat():
    return catalog(_SL3, casimir(_SL3, 6))


@st.composite
def _cleared_inputs(draw):
    """A fresh sl(2) or sl(3) tensor: up to four terms c*u^i*v^j/den on
    random basis pairs, over a catalog entry or over zero."""
    table, cat = draw(st.sampled_from(((_SL2, _sl2_cat), (_SL3, _sl3_cat))))
    cat = cat()
    base = draw(st.sampled_from((None, "q0", "gamma2", "gamma3")))
    r = Tensor2.zero(table) if base is None else cat[base]
    for _ in range(draw(st.integers(1, 4))):
        a, b = (draw(st.integers(0, table.dim - 1)) for _ in range(2))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        c = draw(st.integers(-3, 3).filter(bool))
        den = draw(st.sampled_from(_DENOMINATORS))
        r = r + Tensor2.single(table, a, b, U ** i * V ** j * c / den)
    return _fresh(r)


def test_cyb_equals_the_weighted_sum_reference_exactly():
    # One sparse accumulation per key against one Poly product and one sum
    # per commutator entry: the same Tensor3, numerator for numerator.  The
    # controls of this module come first; a reference with d12 and d13
    # swapped must disagree somewhere, or the comparison is vacuous.
    sym = _sl2_cat()["q0"] + Tensor2.single(_SL2, "e", "f", 1) + Tensor2.single(_SL2, "f", "e", 1)
    controls = [_CONTROL, _MIXED, _nonlinear(_SL2), _nonlinear(_SL2, 5), sym,
                _sl2_cat()["q2"], _sl2_cat()["rational_eh"], _sl3_cat()["gamma3"]]
    differs = []

    def check(r):
        res = cyb(_fresh(r))
        assert res == ref_weighted_cyb(r), str(r)
        differs.append(ref_weighted_cyb(r, _SWAPPED_WEIGHTS) != res)

    for r in controls:
        check(r)
    assert not cyb(_fresh(_CONTROL)).is_zero() and cyb(_fresh(_sl2_cat()["q2"])).is_zero()
    assert any(differs)
    differs.clear()
    settings(max_examples=25, deadline=None, derandomize=True, database=None)(
        given(r=_cleared_inputs())(check)
    )()
    assert any(differs)


def test_cyb_raises_when_only_the_weight_product_overflows():
    # P = v^600*Omega brackets to exponents of at most 1200, but d = u^1500
    # renamed to d23 and d13 meets u2^600 and u3^600 past the field.
    r = _SL2_OMEGA.tensor().scale(V ** 600 / U ** 1500)
    d, p = clear_denominators(r)
    assert d == Poly.var("u", 1500)
    for pair in CYB_WEIGHTS:
        assert not leg_bracket(p, p, pair).is_zero()
    with pytest.raises(ExponentOverflow):
        cyb(r)


def test_clear_denominators_equals_the_division_reference():
    # Kept cofactors against d/den by long division: the same d and the same
    # cleared tensor.  Mixed, repeated ((u-v) after and before (u-v)^2) and
    # non-linear denominators first, each with at least two distinct ones
    # so that a cofactor grows; then the drawn tensors.
    cases = [
        [(U - V) ** 2, U - V], [U - V, (U - V) ** 2, U + V], [2 * U ** 2 + V, U - V, U],
        [U * V + 3, (U - V) ** 2, V, U * V + 3], [(U + V) ** 2, U + V, (U - V) ** 2, U],
    ]
    for dens in cases:
        r = Tensor2.zero(_SL2)
        for i, den in enumerate(dens):
            r = r + Tensor2.single(_SL2, i % 3, (i + 1) % 3, (U - 2 * V + i) / den)
        assert len({f.den for f in r.entries.values()}) >= 2
        assert clear_denominators(r) == ref_clear_denominators(r), str(r)
    assert clear_denominators(_MIXED) == ref_clear_denominators(_MIXED)

    def check(r):
        assert clear_denominators(r) == ref_clear_denominators(r), str(r)

    settings(max_examples=25, deadline=None, derandomize=True, database=None)(
        given(r=_cleared_inputs())(check)
    )()
