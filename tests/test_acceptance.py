"""Acceptance gate: twelve exact, zero-tolerance criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every check is exact rational arithmetic — no tolerances."""

import json
import random
import time
from fractions import Fraction as F

from yangbaxter.cli import (
    RMatrixDocument,
    calibrated_omega,
    main,
    parse_rmatrix,
    print_rmatrix,
)
from yangbaxter.cybe import (
    catalog,
    cobracket,
    cocycle_check,
    cojacobi_check,
    cyb,
    is_quasi_rational,
)
from yangbaxter.doubles import (
    Window,
    check_transversality,
    diagonal_twist_space,
    dual_basis_check,
    dual_sum_projection,
    embed_polynomial,
    embedded_polynomials,
    invariant_form,
    loop_part,
    orth_complement_truncated,
    quotient_image_of_polynomials,
    standard_complement,
)
from yangbaxter.frobenius import (
    TwoCocycle,
    check_parabolic_pair,
    quasi_rational_lift,
)
from yangbaxter.gauge import gauge_transform, random_unipotent
from yangbaxter.lie import (
    GPoly,
    Subspace,
    calibrate_casimir,
    make_sl,
)
from yangbaxter.tensors import is_polynomial, is_skew


def max_degree(p):
    """Largest u-degree among the entries of a PolyGroupElement."""
    return max(
        (e.degree_in("u") for row in p.mat for e in row if not e.is_zero()), default=0
    )


def test_c01_catalog_yang_baxter_suite():
    t2 = make_sl(2)
    om2 = calibrate_casimir(t2)
    cat2 = catalog(t2, om2)
    named = ("gamma2", "gamma3", "gamma4", "q0", "q1", "q2", "rational_eh")
    for name in named:
        start = time.monotonic()
        assert cyb(cat2[name]).is_zero(), name
        assert time.monotonic() - start < 5.0, name
    t3 = make_sl(3)
    cat3 = catalog(t3, calibrated_omega(t3))
    for name in ("gamma2", "gamma3", "gamma4", "q0"):
        assert cyb(cat3[name]).is_zero(), f"sl(3) {name}"
    print(
        "criterion 1: PASS — Yang-Baxter residual identically zero for "
        "gamma2..gamma4, q0..q2, rational_eh over sl(2) and the sl(3) catalog"
    )


def test_c02_quasi_rationality_classification():
    t = make_sl(2)
    om = calibrate_casimir(t)
    cat = catalog(t, om)
    for name in ("q0", "q1", "q2"):
        assert is_quasi_rational(cat[name], om), name
        tail = cat[name] - om.leading
        assert is_polynomial(tail) and is_skew(tail), name
    assert not is_quasi_rational(cat["rational_eh"], om)
    print(
        "criterion 2: PASS — q0/q1/q2 quasi-rational with skew polynomial "
        "parts; rational_eh excluded"
    )


def test_c03_embedded_polynomials_isotropic_exhaustive():
    for n in (2, 3):
        t = make_sl(n)
        w = Window(-16, 8)
        els = [
            embed_polynomial(GPoly.monomial(x, a), w)
            for a in range(9)
            for x in t.basis()
        ]
        for x in els:
            for y in els:
                assert invariant_form(x, y) == 0
    print(
        "criterion 3: PASS — invariant form vanishes on all embedded "
        "monomial pairs, degrees 0..8, sl(2) and sl(3)"
    )


def test_c04_dual_basis_identity_order_12():
    t = make_sl(2)
    start = time.monotonic()
    assert dual_basis_check(t, 12)
    result = dual_sum_projection(t, 12)
    elapsed = time.monotonic() - start
    assert result, "projection produced no terms"
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 4: PASS — dual pairing is the identity matrix at order "
        f"12 and the dual sum matches the series expansion ({elapsed:.2f}s)"
    )


def test_c05_twist_space_complements_at_truncation():
    w = Window(-8, 4)
    for n in (2, 3):
        t = make_sl(n)
        for k in range(n):
            wk = diagonal_twist_space(t, k, w)
            comp = orth_complement_truncated(wk, w)
            assert comp.equals(loop_part(wk)), (n, k)
            assert wk.dim - comp.dim == 2 * (n * n - 1), (n, k)
    print(
        "criterion 5: PASS — twist-space complements equal their loop parts "
        "at window [-8, 4] with quotient dimension 2(n^2-1), n in {2, 3}"
    )


def test_c06_quotient_image_matches_parabolic():
    w = Window(-8, 4)
    for n in (2, 3):
        t = make_sl(n)
        for k in range(1, n):
            image = quotient_image_of_polynomials(t, k, w)  # raises on mismatch
            assert len(image) == t.dim, (n, k)
    print(
        "criterion 6: PASS — jet image of the polynomial part equals "
        "parabolic(k) + eps*complement for n in {2, 3}, all k"
    )


def test_c07_transversality_conditions():
    t = make_sl(2)
    w = Window(-8, 4)
    rep = check_transversality(standard_complement(t, w), w)
    assert rep["trivial_intersection"]
    assert rep["spans_with_polynomials"]
    assert rep["contains_tail"]
    rep_bad = check_transversality(embedded_polynomials(t, w), w)
    assert not rep_bad["trivial_intersection"]
    print(
        "criterion 7: PASS — the dual-side model passes all three "
        "transversality conditions at [-8, 4]; the polynomial part fails "
        "condition 1"
    )


def test_c08_bialgebra_axioms_exhaustive():
    t = make_sl(2)
    om = calibrate_casimir(t)
    cat = catalog(t, om)
    monos = [GPoly.monomial(x, d) for d in range(6) for x in t.basis()]
    start = time.monotonic()
    for name in ("gamma2", "gamma3", "gamma4"):
        g = cat[name]
        for p in monos:
            assert cojacobi_check(g, p), (name, str(p))
        for i, p in enumerate(monos):
            for q in monos[i:]:
                assert cocycle_check(g, p, q), (name, str(p), str(q))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 8: PASS — cocycle and co-Jacobi identities hold for "
        f"gamma2/gamma3/gamma4 on all basis monomials with degree <= 5 "
        f"({elapsed:.1f}s)"
    )


def test_c09_gauge_preservation_sweep():
    t = make_sl(2)
    om = calibrate_casimir(t)
    cat = catalog(t, om)
    rng = random.Random(2025)
    gauges = [random_unipotent(t, rng, total_degree=2) for _ in range(20)]
    for p in gauges:
        assert max_degree(p) <= 2
        for name in ("q0", "q1", "q2"):
            image = gauge_transform(p, cat[name], check=False)
            assert cyb(image).is_zero(), name
            assert is_quasi_rational(image, om), name
    print(
        "criterion 9: PASS — 20 seeded unipotent gauges of degree <= 2 "
        "preserve the Yang-Baxter property and quasi-rationality of q0/q1/q2"
    )


def test_c10_frobenius_pairs():
    t = make_sl(2)
    om = calibrate_casimir(t)
    e = t.basis_element("e")
    f = t.basis_element("f")
    h = t.basis_element("h")
    sub = Subspace(t, [e, h])
    coc = TwoCocycle.from_pairs(sub, {(0, 1): 1})
    assert quasi_rational_lift(coc, om) == catalog(t, om)["q1"]
    basis = [e, f, h]
    matrix = [
        [f.killing(basis[i].bracket(basis[j])) for j in range(3)]
        for i in range(3)
    ]
    assert matrix[0][2] == F(-8)  # B(e, h) = K(f, [e, h]) from the ad-trace form
    rep = check_parabolic_pair(t, Subspace(t, basis), matrix, 1)
    assert rep["subalgebra"]
    assert rep["spans_with_parabolic"]
    assert rep["cocycle"]
    assert rep["nondegenerate_on_intersection"]
    print(
        "criterion 10: PASS — (span{e,h}, B(e,h)=1) lifts to q1 exactly; "
        "(sl(2), K(f,[.,.]), k=1) passes the parabolic pair check with "
        "B(e,h) = -8"
    )


def test_c11_calibration_determinism():
    om = calibrate_casimir(make_sl(2))  # raises unless exactly one scale survives
    assert om.scale == F(4)
    cat = catalog(make_sl(2), om)
    for name, r in cat.items():
        assert cyb(r).is_zero(), name
    print(
        "criterion 11: PASS — calibration singles out one Casimir scale (4) "
        "and that scale validates the whole catalog"
    )


def test_c12_cli_contract(capsys, tmp_path):
    t = make_sl(2)
    om = calibrated_omega(t)
    for name, r in catalog(t, om).items():
        text = print_rmatrix(RMatrixDocument(t, om, r))
        assert parse_rmatrix(text).tensor == r, name
    t3 = make_sl(3)
    om3 = calibrated_omega(t3)
    for name, r in catalog(t3, om3).items():
        text = print_rmatrix(RMatrixDocument(t3, om3, r))
        assert parse_rmatrix(text).tensor == r, name
    rng = random.Random(424242)
    pool = [
        "2",
        "-1/3",
        "u",
        "v^2",
        "u*v",
        "(u + v)/(u - v)",
        "1/(u - v)",
        "(u^2*v - 3)",
        "(1 - u*v)/(v - u)",
        "-u/(2*v - 2*u)",
    ]
    labels = ["e", "f", "h", "E(1,2)", "E(2,1)", "H(1)"]
    for _ in range(50):
        terms = []
        for _ in range(rng.randint(1, 5)):
            terms.append(
                f"{rng.choice(pool)}*{rng.choice(labels)}(x){rng.choice(labels)}"
            )
        text = "algebra sl(2); " + " + ".join(terms)
        doc = parse_rmatrix(text)
        assert parse_rmatrix(print_rmatrix(doc)).tensor == doc.tensor, text
    # Exit codes: 0 verified, 1 mathematical failure, 2 usage/parse error.
    assert main(["verify", "--builtin", "q1"]) == 0
    assert (
        main(["double", "--check", "transversal", "--subspace", "embedded-p"])
        == 1
    )
    bad = tmp_path / "bad.rmx"
    bad.write_text("algebra sl(2); e(x)")
    assert main(["verify", "--input", str(bad)]) == 2
    capsys.readouterr()
    print(
        "criterion 12: PASS — catalog and 50 seeded documents round-trip "
        "through print/parse; exit codes 0/1/2 observed"
    )
