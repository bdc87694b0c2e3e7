"""Tests for the command-line layer: the document grammar, round-trip
printing, element parsing, gauge expressions, exit-code discipline, and the
JSON report schema."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import yangbaxter
from yangbaxter.cli import (
    MAX_DEGREE,
    MAX_DOCUMENT_CHARS,
    MAX_EXPONENT,
    MAX_RANK,
    ParseError,
    UsageError,
    _parse_gauge_expr,
    calibrated_omega,
    main,
    parse_element,
    parse_rmatrix,
    print_rmatrix,
    RMatrixDocument,
)
from yangbaxter.cybe import catalog
from yangbaxter.gauge import PolyGroupElement
from yangbaxter.lie import make_sl
from yangbaxter.ratfun import RatFun
from yangbaxter.tensors import Tensor2

U = RatFun.var("u")
V = RatFun.var("v")


def test_parse_q1_document():
    t = make_sl(2)
    om = calibrated_omega(t)
    doc = parse_rmatrix(
        "algebra sl(2); u*v/(v - u)*Omega + e(x)h - h(x)e"
    )
    assert doc.table is t
    assert doc.tensor == catalog(t, om)["q1"]


def test_parse_coefficient_forms():
    t = make_sl(2)
    doc = parse_rmatrix("algebra sl(2); (1/2)*h(x)e")
    assert doc.tensor.coeff("h", "e") * 2 == 1
    doc = parse_rmatrix("algebra sl(2); -3*e(x)f + f(x)e")
    assert doc.tensor.coeff("e", "f") == RatFun.from_frac(-3)
    assert doc.tensor.coeff("f", "e") == RatFun.from_frac(1)
    doc = parse_rmatrix("algebra sl(2); (u^2*v - 3)*e(x)e")
    assert doc.tensor.coeff("e", "e") == U ** 2 * V - 3
    doc = parse_rmatrix("algebra sl(2); u/(2*v - 2*u)*h(x)h")
    assert doc.tensor.coeff("h", "h") == U / (2 * V - 2 * U)


def test_bare_omega_expands_to_calibrated_casimir():
    t = make_sl(2)
    doc = parse_rmatrix("algebra sl(2); Omega")
    assert doc.tensor == calibrated_omega(t).tensor()
    t3 = make_sl(3)
    doc3 = parse_rmatrix("algebra sl(3); Omega")
    assert doc3.tensor == calibrated_omega(t3).tensor()


def test_explicit_basis_labels():
    doc = parse_rmatrix("algebra sl(3); 2*E(1,3)(x)E(3,1) + H(2)(x)H(1)")
    t = doc.table
    assert doc.tensor.coeff("E(1,3)", "E(3,1)") == RatFun.from_frac(2)
    assert doc.tensor.coeff("H(2)", "H(1)") == RatFun.from_frac(1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_rmatrix("algebra sl(2); e(x)")
    assert "line 1, column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_rmatrix("sl(2); e(x)f")  # missing header keyword
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(1); e(x)f")  # unsupported rank
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(2); e(x)f + ")  # trailing operator
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(2); u*e(x)f)")  # unbalanced paren
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(2); e(x)f (x) h")  # two tensor tokens
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(3); e(x)f")  # aliases need sl(2)
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(2); 1/0*e(x)f")  # division by zero
    with pytest.raises(ParseError):
        parse_rmatrix("algebra sl(2); u v*e(x)f")  # missing operator


def test_alias_and_explicit_labels_agree():
    a = parse_rmatrix("algebra sl(2); e(x)f")
    b = parse_rmatrix("algebra sl(2); E(1,2)(x)E(2,1)")
    assert a.tensor == b.tensor


def test_catalog_round_trips():
    t = make_sl(2)
    om = calibrated_omega(t)
    for name, r in catalog(t, om).items():
        text = print_rmatrix(RMatrixDocument(t, om, r))
        back = parse_rmatrix(text)
        assert back.tensor == r, name
    t3 = make_sl(3)
    om3 = calibrated_omega(t3)
    for name, r in catalog(t3, om3).items():
        text = print_rmatrix(RMatrixDocument(t3, om3, r))
        assert parse_rmatrix(text).tensor == r, name


def test_seeded_document_round_trips():
    rng = random.Random(97)
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
    t = make_sl(2)
    labels = ["e", "f", "h", "E(1,2)", "H(1)"]
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 4)):
            c = rng.choice(pool)
            a = rng.choice(labels)
            b = rng.choice(labels)
            terms.append(f"{c}*{a}(x){b}")
        text = "algebra sl(2); " + " + ".join(terms)
        doc = parse_rmatrix(text)
        printed = print_rmatrix(doc)
        assert parse_rmatrix(printed).tensor == doc.tensor, text


def test_zero_tensor_prints_parseable():
    t = make_sl(2)
    om = calibrated_omega(t)
    text = print_rmatrix(RMatrixDocument(t, om, Tensor2.zero(t)))
    assert parse_rmatrix(text).tensor.is_zero()


def test_parse_element():
    t = make_sl(2)
    x = parse_element(t, "e + 2*f - 1/2*h")
    assert x == (
        t.basis_element("e")
        + t.basis_element("f").scale(2)
        + t.basis_element("h").scale(F(-1, 2))
    )
    assert parse_element(t, "-e") == t.basis_element("e").scale(-1)
    t3 = make_sl(3)
    y = parse_element(t3, "E(1,3) - 3*H(2)")
    assert y == t3.basis_element("E(1,3)") + t3.basis_element("H(2)").scale(-3)
    with pytest.raises(ParseError):
        parse_element(t, "u*e")  # non-constant coefficient
    with pytest.raises(ParseError):
        parse_element(t, "q")  # unknown basis symbol
    with pytest.raises(ParseError):
        parse_element(t, "")


def test_parse_gauge_expr():
    t = make_sl(2)
    p = _parse_gauge_expr(t, "unip(E(2,1),1,3)*unip(e,0,-2)")
    manual = PolyGroupElement.unip(t, (2, 1), 1, 3) * PolyGroupElement.unip(
        t, (1, 2), 0, -2
    )
    assert p.mat == manual.mat
    with pytest.raises(UsageError):
        _parse_gauge_expr(t, "rot(e,0,1)")
    with pytest.raises(UsageError):
        _parse_gauge_expr(t, "unip(e,-1,1)")
    with pytest.raises(UsageError):
        _parse_gauge_expr(t, "unip(h,0,1)")
    with pytest.raises(UsageError):
        _parse_gauge_expr(make_sl(3), "unip(e,0,1)")
    with pytest.raises(UsageError):
        _parse_gauge_expr(t, "unip(E(1,3),0,1)")


def test_main_exit_codes(capsys, tmp_path):
    assert main(["verify", "--builtin", "q1"]) == 0
    assert main(["verify", "--builtin", "no-such-entry"]) == 2
    assert (
        main(["double", "--check", "transversal", "--subspace", "embedded-p"])
        == 1
    )
    bad = tmp_path / "bad.rmx"
    bad.write_text("algebra sl(2); e(x)")
    assert main(["verify", "--input", str(bad)]) == 2
    good = tmp_path / "good.rmx"
    good.write_text("algebra sl(2); u*v/(v - u)*Omega")
    assert main(["verify", "--input", str(good)]) == 0
    assert main(["verify", "--builtin", "q1", "--input", str(good)]) == 2
    capsys.readouterr()


def test_main_rational_eh_verifies_but_is_not_quasi_rational(capsys):
    assert main(["verify", "--builtin", "rational_eh"]) == 0
    out = capsys.readouterr().out
    assert "quasi-rational: false" in out
    assert "cyb residual terms: 0" in out


def test_json_report_schema(capsys):
    assert main(["verify", "--builtin", "q0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == [
        "command",
        "inputs",
        "residual_terms",
        "seed",
        "verdicts",
        "window",
    ]
    assert report["command"] == "verify"
    assert report["residual_terms"] == 0
    assert report["verdicts"] == [{"name": "cyb_zero", "pass": True}]


def test_calibrate_command(capsys):
    assert main(["calibrate", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["scale"] == "4"
    assert report["inputs"]["constant_part"] == {
        "sign": -1,
        "orientation": "ef",
    }
    names = [v["name"] for v in report["verdicts"]]
    assert names == ["unique_scale", "catalog_validates"]
    assert all(v["pass"] for v in report["verdicts"])


def test_cobracket_command(capsys):
    assert main(["cobracket", "--gamma", "gamma4", "--element", "e:u^1"]) == 0
    out = capsys.readouterr().out
    assert "cobracket of e:u^1 under gamma4" in out
    assert main(["cobracket", "--gamma", "gamma4", "--element", "e"]) == 2
    capsys.readouterr()


def test_double_complement_and_wk_commands(capsys):
    assert main(["double", "--check", "complement", "--trunc", "2"]) == 0
    assert main(["double", "--check", "wk", "--k", "1", "--trunc", "2"]) == 0
    assert main(["double", "--check", "lagrangian", "--k", "5"]) == 2
    capsys.readouterr()


def test_frobenius_rejects_open_pair_under_optimisation(tmp_path):
    # span{e, f} is not bracket-closed; the verdict must not rest on assert,
    # so `python -O` reports the same invalid cocycle.
    pair = tmp_path / "open.json"
    pair.write_text(json.dumps(
        {"algebra": 2, "basis": ["e", "f"], "matrix": [[0, 1], [-1, 0]]}
    ))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "yangbaxter.cli",
             "frobenius", "--pair", str(pair), "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, (flags, proc.stderr)
        report = json.loads(proc.stdout)
        assert report["verdicts"] == [{"name": "valid_cocycle", "pass": False}]


def test_pair_file_with_dependent_basis_exits_2(tmp_path):
    # The pair file's subspace is built inside its own error handling, so a
    # dependent basis is a usage error in every command that reads the file.
    pair = tmp_path / "dependent.json"
    pair.write_text(json.dumps(
        {"algebra": 2, "basis": ["e", "e"], "matrix": [[0, 1], [-1, 0]], "k": 0}
    ))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (
        ["double", "--check", "lagrangian", "--pair", str(pair)],
        ["frobenius", "--pair", str(pair)],
        ["frobenius", "--check-pair", "--pair", str(pair)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "yangbaxter.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: malformed pair file"), (argv, proc.stderr)
        assert "dependent" in proc.stderr, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


def test_each_residual_is_computed_once(monkeypatch, capsys):
    # 14 of the calls are the sl(2) Casimir calibration probes and the rest
    # build the catalog (gamma3's convention search); the command itself
    # needs one residual per tensor it judges.
    from yangbaxter import cli, cybe

    real_cyb = cybe.cyb
    calls = []

    def counting_cyb(r):
        calls.append(r)
        return real_cyb(r)

    monkeypatch.setattr(cybe, "cyb", counting_cyb)
    cases = (
        (["verify", "--builtin", "q2", "--json"], 18,
         {"inputs": {"source": "q2", "algebra": 2, "quasi_rational": True, "skew": True},
          "verdicts": [{"name": "cyb_zero", "pass": True}], "residual_terms": 0}),
        (["gauge", "--builtin", "q1", "--p", "unip(E(1,2),1,2)", "--json"], 19,
         {"inputs": {"builtin": "q1", "algebra": 2, "p": "unip(E(1,2),1,2)"},
          "verdicts": [{"name": "cyb_preserved", "pass": True},
                       {"name": "quasi_rationality_preserved", "pass": True}],
          "residual_terms": 0}),
        # The lift checks its own quasi-rationality; the command reuses that
        # verdict instead of computing the lift's residual again.
        (["frobenius", "--builtin", "q1", "--json"], 19,
         {"inputs": {"mode": "lift", "pair": "q1", "algebra": 2},
          "verdicts": [{"name": "lift_quasi_rational", "pass": True},
                       {"name": "matches_catalog", "pass": True}],
          "residual_terms": None}),
    )
    for argv, expected_calls, expected_report in cases:
        monkeypatch.setattr(cli, "_OMEGA_CACHE", {})
        calls.clear()
        capsys.readouterr()
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == expected_calls, argv
        for key, value in expected_report.items():
            assert report[key] == value, (argv, key)


def test_oversized_input_exits_2_quickly(capsys, tmp_path):
    # Each bound is checked before the work it limits starts, so an input
    # past it is refused at once; before the bounds the power alone ran on
    # for more than 20 s.
    docs = {
        "power": "algebra sl(2); ((u+v)^4000)*Omega",
        "rank": "algebra sl(1000000); Omega",
        "nested": "algebra sl(2); (((u+v)^4)^5)*Omega",
        "product": "algebra sl(2); ((u+v)^9*(u-v)^9)*Omega",
        "sum": "algebra sl(2); " + " + ".join(f"1/(u-{k})*e(x)f" for k in range(1, 40)),
        "length": "algebra sl(2); " + " + ".join(["e(x)f"] * 4000),
        "digits": "algebra sl(2); " + "9" * 5000 + "*e(x)f",
    }
    runs = [["verify", "--builtin", "gamma2", "--n", "1000000"],
            ["double", "--check", "wk", "--n", str(MAX_RANK + 1)],
            ["cobracket", "--gamma", "gamma2", "--element", "e:u^100000"]]
    for name, text in docs.items():
        path = tmp_path / f"{name}.rmx"
        path.write_text(text)
        runs.append(["verify", "--input", str(path)])
    calibrated_omega(make_sl(2))  # the cached calibration is not the timed work
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_input_bounds_admit_their_limit():
    top = f"algebra sl(2); ((u+v)^{MAX_DEGREE})*e(x)f"
    assert parse_rmatrix(top).tensor.coeff("e", "f") == (U + V) ** MAX_DEGREE
    with pytest.raises(ParseError):
        parse_rmatrix(f"algebra sl(2); ((u+v)^{MAX_DEGREE + 1})*e(x)f")
    with pytest.raises(ParseError):
        parse_rmatrix(f"algebra sl(2); (u^{MAX_DEGREE}*v)*e(x)f")
    head = "algebra sl(2); e(x)f"
    exact = head + " " * (MAX_DOCUMENT_CHARS - len(head))
    assert parse_rmatrix(exact).tensor == Tensor2.single(make_sl(2), "e", "f")
    with pytest.raises(ParseError):
        parse_rmatrix(exact + " ")
    assert parse_rmatrix(f"algebra sl({MAX_RANK}); Omega").table.n == MAX_RANK
    with pytest.raises(ParseError):
        parse_rmatrix(f"algebra sl({MAX_RANK + 1}); Omega")


def test_negative_exponent_at_top_level(capsys, tmp_path):
    # The '-' of '^-' is the exponent's sign, not a split between terms.
    table = make_sl(2)
    bare = parse_rmatrix("algebra sl(2); (u-v)^-2*e(x)f")
    paren = parse_rmatrix("algebra sl(2); ((u-v)^-2)*e(x)f")
    assert bare.tensor == paren.tensor
    assert bare.tensor.coeff("e", "f") == (U - V) ** -2
    mixed = parse_rmatrix("algebra sl(2); u^-1*e(x)f - v*f(x)e")
    assert mixed.tensor.coeff("e", "f") == U ** -1
    assert mixed.tensor.coeff("f", "e") == -V
    # negative control: a depth-0 '-' between terms still splits
    two = parse_rmatrix("algebra sl(2); e(x)f - f(x)e")
    assert two.tensor == Tensor2.single(table, "e", "f") - Tensor2.single(table, "f", "e")
    # the bare form is still bounded
    path = tmp_path / "past.rmx"
    path.write_text(f"algebra sl(2); (u-v)^-{MAX_EXPONENT + 1}*e(x)f")
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
