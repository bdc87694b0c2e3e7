"""Tests for the command-line layer: the document grammar, round-trip
printing, element parsing, gauge expressions, exit-code discipline, the
JSON report schema, the README examples, and a differential test of the
parser against the one it replaced."""

import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import yangbaxter
from yangbaxter.cli import (
    MAX_CLEARED_COST,
    MAX_DEGREE,
    MAX_DOCUMENT_CHARS,
    MAX_EXPONENT,
    MAX_JSON_CHARS,
    MAX_NESTING,
    MAX_RANK,
    MAX_SWEEP,
    MAX_TRUNC,
    ParseError,
    UsageError,
    _check_degree,
    _parse_gauge_expr,
    _tokenize,
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


def max_degree(p):
    """Largest u-degree among the entries of a PolyGroupElement."""
    return max(
        (e.degree_in("u") for row in p.mat for e in row if not e.is_zero()), default=0
    )


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
    with pytest.raises(UsageError):
        _parse_gauge_expr(t, "unip(e,0,0.5)")  # t is a coefficient, not a Fraction() literal


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
    # The k a pair file carries is range-checked like --k.
    capsys.readouterr()
    for k in (7, -1):
        pair = tmp_path / f"pair-k{k}.json"
        pair.write_text(json.dumps(
            {"algebra": 2, "basis": ["e", "h"], "matrix": [[0, 1], [-1, 0]], "k": k}
        ))
        assert main(["double", "--check", "lagrangian", "--pair", str(pair)]) == 2
        assert capsys.readouterr().err == f"error: k must be in 0..1, got {k}\n"
    capsys.readouterr()


def test_explicit_k_wins_over_the_pair_file_k(capsys, tmp_path):
    # double --check lagrangian and frobenius --check-pair follow one rule:
    # an explicit --k replaces the file's k, and the k used is the one
    # range-checked and reported.
    pair = tmp_path / "pair-k0.json"
    pair.write_text(json.dumps(
        {"algebra": 2, "basis": ["e", "h"], "matrix": [[0, 1], [-1, 0]], "k": 0}
    ))
    capsys.readouterr()
    commands = (["double", "--check", "lagrangian"], ["frobenius", "--check-pair"])
    for cmd in commands:
        main([*cmd, "--k", "1", "--pair", str(pair), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["k"] == 1, (cmd, report["inputs"])
    main(["double", "--check", "lagrangian", "--k", "1", "--pair", str(pair)])
    assert capsys.readouterr().out.startswith("pair Lagrangian (k=1)")
    # A file k outside the range is not checked once --k replaces it.
    pair.write_text(json.dumps(
        {"algebra": 2, "basis": ["e", "h"], "matrix": [[0, 1], [-1, 0]], "k": 7}
    ))
    for cmd in commands:
        assert main([*cmd, "--k", "1", "--pair", str(pair)]) in (0, 1), cmd
        assert "k=1" in capsys.readouterr().out, cmd
        assert main([*cmd, "--k", "5", "--pair", str(pair)]) == 2, cmd
        assert "got 5" in capsys.readouterr().err, cmd


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


def test_calibrate_reports_only_a_calibration_failure(monkeypatch, capsys):
    # A search without a unique survivor is the failed verdict; any other
    # exception is a fault and propagates.
    from yangbaxter import cli
    from yangbaxter.lie import CalibrationError

    def no_survivor(table):
        raise CalibrationError({F(1): (3, 0), F(4): (0, 0), F(8): (0, 0)})

    monkeypatch.setattr(cli, "calibrate_casimir", no_survivor)
    assert main(["calibrate", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == [{"name": "unique_scale", "pass": False}]
    assert main(["calibrate"]) == 1
    assert capsys.readouterr().out.startswith("Casimir calibration did not single out")

    def broken(table):
        raise TypeError("a fault in the search")

    monkeypatch.setattr(cli, "calibrate_casimir", broken)
    with pytest.raises(TypeError):
        main(["calibrate"])


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


def _run_cli(flags, argv, timeout=120):
    """Run `python [flags] -m yangbaxter.cli argv` on this checkout's package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "yangbaxter.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_verify_non_linear_denominator_is_fast(tmp_path):
    # The residual verdict reads the cleared numerators; dividing them back
    # by (u1^2+u2^2+1)^8 and its two leg images through the general gcd ran
    # for minutes.  The timeout makes a regression fail instead of hang.
    doc = tmp_path / "k8.rmx"
    doc.write_text("algebra sl(2); (1/(u^2+v^2+1)^8)*Omega + u*e(x)h\n")
    start = time.perf_counter()
    proc = _run_cli([], ["verify", "--input", str(doc)], timeout=20)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert "cyb residual terms: 12" in proc.stdout
    assert elapsed < 2, elapsed


def test_frobenius_rejects_open_pair_under_optimisation(tmp_path):
    # span{e, f} is not bracket-closed; the verdict must not rest on assert,
    # so `python -O` reports the same invalid cocycle.
    pair = tmp_path / "open.json"
    pair.write_text(json.dumps(
        {"algebra": 2, "basis": ["e", "f"], "matrix": [[0, 1], [-1, 0]]}
    ))
    for flags in ([], ["-O"]):
        proc = _run_cli(flags, ["frobenius", "--pair", str(pair), "--json"])
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
    for argv in (
        ["double", "--check", "lagrangian", "--pair", str(pair)],
        ["frobenius", "--pair", str(pair)],
        ["frobenius", "--check-pair", "--pair", str(pair)],
    ):
        proc = _run_cli([], argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: malformed pair file"), (argv, proc.stderr)
        assert "dependent" in proc.stderr, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


def test_malformed_input_exits_2_with_and_without_optimisation(tmp_path):
    # Each file's shape is checked, and each object built, inside the
    # loader's error handling, and a gauge expression is read and bounded in
    # full before any matrix is built; no verdict here may rest on assert.
    files = {
        "shape": {"algebra": 2, "basis": ["e", "h"], "matrix": [[0]], "k": 0},
        "top": [1, 2],
        "labels": {"algebra": 2, "basis": ["e", 1], "matrix": [[0, 1], [-1, 0]]},
        "dependent": {"elements": [{"a1": "e"}, {"a1": "e"}]},
        "window": {"elements": [{"loop": {"99": "e"}}]},
        "entry": {"elements": ["e"]},
        "fixture-top": [1],
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    pair_commands = (["double", "--check", "lagrangian"],
                     ["frobenius", "--check-pair", "--k", "1"], ["frobenius"])
    runs = [[*cmd, "--pair", str(tmp_path / f"{name}.json")]
            for name in ("shape", "top", "labels") for cmd in pair_commands]
    runs += [["double", "--check", "transversal", "--trunc", "1",
              "--fixture", str(tmp_path / f"{name}.json")]
             for name in ("dependent", "window", "entry", "fixture-top")]
    runs += [["gauge", "--builtin", "q1", "--p", p]
             for p in ("unip(e,99999999,1)", "unip(e,0,1/0)")]
    for flags in ([], ["-O"]):
        for argv in runs:
            proc = _run_cli(flags, argv)
            assert proc.returncode == 2, (flags, argv, proc.stderr)
            assert proc.stderr.startswith("error: "), (flags, argv, proc.stderr)
            assert "Traceback" not in proc.stderr, (flags, argv, proc.stderr)


def test_deep_nesting_exits_2_fast_with_and_without_optimisation(tmp_path):
    # The parser descends once per '(' and per unary sign, and json.loads once
    # per bracket: past MAX_NESTING, or past the interpreter's recursion
    # limit for JSON, the command exits 2 at once instead of crashing.
    docs = {
        "parens250": "(" * 250 + "1" + ")" * 250 + "*e(x)f",
        "parens1000": "(" * 1000 + "1" + ")" * 1000 + "*e(x)f",
        "minus5000": "2*" + "-" * 5000 + "1*e(x)f",
    }
    runs = []
    for name, body in docs.items():
        (tmp_path / f"{name}.rmx").write_text(f"algebra sl(2); {body}\n")
        runs.append(["verify", "--input", str(tmp_path / f"{name}.rmx")])
    runs.append(["gauge", "--builtin", "q1", "--p", "unip(e,0," + "(" * 400 + "1" + ")" * 400 + ")"])
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 49_999 + "]" * 49_999)
    assert len(deep.read_text()) < MAX_JSON_CHARS
    runs += [["double", "--check", "transversal", "--fixture", str(deep)],
             ["frobenius", "--check-pair", "--pair", str(deep)]]
    for flags in ([], ["-O"]):
        for argv in runs:
            start = time.perf_counter()
            proc = _run_cli(flags, argv, timeout=60)
            elapsed = time.perf_counter() - start
            assert proc.returncode == 2, (flags, argv[:3], proc.stderr[-300:])
            assert proc.stderr.startswith("error: "), (flags, argv[:3], proc.stderr[-300:])
            assert "Traceback" not in proc.stderr, (flags, argv[:3])
            assert elapsed < 1, (flags, argv[:3], elapsed)


def test_nesting_bound_admits_exactly_max_nesting():
    # Parentheses and unary signs share one depth counter.
    for opens, signs in ((MAX_NESTING, 0), (0, MAX_NESTING), (MAX_NESTING // 2, MAX_NESTING // 2)):
        coeff = "(" * opens + "-" * signs + "2" + ")" * opens
        doc = parse_rmatrix(f"algebra sl(2); 3*{coeff}*e(x)f")
        assert doc.tensor.coeff("e", "f") == RatFun.from_frac(3 * 2 * (-1) ** signs)
        for deeper in ("(" + coeff + ")", "-" + coeff):
            with pytest.raises(ParseError, match=f"nesting deeper than the bound {MAX_NESTING}"):
                parse_rmatrix(f"algebra sl(2); 3*{deeper}*e(x)f")
    # Sibling parentheses do not add up, and leading term signs are no nesting.
    siblings = "*".join(["(1)"] * (2 * MAX_NESTING))
    assert parse_rmatrix(f"algebra sl(2); {siblings}*e(x)f").tensor.coeff("e", "f") == RatFun.from_frac(1)
    assert parse_rmatrix("algebra sl(2); " + "-" * (2 * MAX_NESTING) + "e(x)f").tensor.coeff(
        "e", "f") == RatFun.from_frac(1)


def test_fixture_file_matches_builtin_subspace(tmp_path, capsys):
    # pstar at --trunc 1 (window [-2, 1]): the loops of degree -2..0 and g*eps,
    # spelled with aliases and explicit labels alike.
    loops = [{"loop": {str(d): x}} for d in (-2, -1, 0) for x in ("e", "E(2,1)", "h")]
    eps = [{"a1": x} for x in ("E(1,2)", "f", "2*H(1) - H(1)")]
    fixture = tmp_path / "pstar.json"
    fixture.write_text(json.dumps({"elements": loops + eps}))
    base = ["double", "--check", "transversal", "--trunc", "1", "--json"]
    assert main(base + ["--subspace", "pstar"]) == 0
    builtin = json.loads(capsys.readouterr().out)
    assert main(base + ["--fixture", str(fixture)]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert len(builtin["verdicts"]) == 3
    assert from_file["verdicts"] == builtin["verdicts"]
    assert from_file["window"] == builtin["window"] == [-2, 1]


def test_pair_files_and_fixtures_refuse_non_integers(tmp_path, capsys):
    # algebra and k are JSON integers, not bools, a matrix entry is a JSON
    # integer or a string p or p/q with q nonzero, and a loop key is an
    # integer in canonical form: "0", or an optional minus and ASCII digits
    # with no leading zero.  Read by int(), each file below ran to a
    # verdict: 2.9 as sl(2), "3" as sl(3), true as k = 1, 0.7 as k = 0,
    # "1_0" as degree 10, " 0 " as degree 0, and "01" beside "1" dropped
    # the element's e term.  Read by Fraction(str(c)), the entry "1/0" ended
    # in a ZeroDivisionError traceback, 0.10000000000000001 ran as 1/10 and
    # "1e3" as 1000.
    borel = {"algebra": 2, "basis": ["e", "h"], "matrix": [[0, 1], [-1, 0]], "k": 1}
    pairs = {
        "float": {**borel, "algebra": 2.9},
        "half": {**borel, "algebra": 2.5},
        "string": {"algebra": "3", "basis": ["H(1)", "H(2)"], "matrix": [[0, 1], [-1, 0]], "k": 1},
        "bool-k": {**borel, "k": True},
        "float-k": {**borel, "k": 0.7},
        "bool-algebra": {**borel, "algebra": True},
        "zero-denominator": {**borel, "matrix": [[0, "1/0"], [-1, 0]]},
        "float-entry": '{"algebra": 2, "basis": ["e", "h"], "k": 1, '
                       '"matrix": [[0, 0.10000000000000001], [-0.1, 0]]}',
        "exponent-entry": {**borel, "matrix": [[0, "1e3"], ["-1e3", 0]]},
        "bool-entry": {**borel, "matrix": [[False, True], [-1, 0]]},
    }
    runs = []
    for name, data in pairs.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (tmp_path / f"{name}.json").write_text(text)
        runs += [[*cmd, "--pair", str(tmp_path / f"{name}.json")]
                 for cmd in (["double", "--check", "lagrangian"],
                             ["frobenius", "--check-pair"], ["frobenius"])]
    for i, key in enumerate(("1_0", " 0 ", "+1", "\u0661", "1.0", "", "01", "-0")):
        (tmp_path / f"key{i}.json").write_text(json.dumps({"elements": [{"loop": {"1": "e", key: "f"}}]}))
        runs.append(["double", "--check", "transversal", "--trunc", "12",
                     "--fixture", str(tmp_path / f"key{i}.json")])
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and "integer" in err, (argv, err)
    # Integers, rational strings, a negative loop key and an omitted k are
    # still read.
    (tmp_path / "ints.json").write_text(json.dumps({**borel, "k": 0}))
    (tmp_path / "strings.json").write_text(
        json.dumps({**borel, "matrix": [[0, "1/2"], ["-1/2", "0"]]}))
    (tmp_path / "nok.json").write_text(json.dumps({k: v for k, v in borel.items() if k != "k"}))
    (tmp_path / "keys.json").write_text(json.dumps({"elements": [{"loop": {"-2": "e", "0": "f", "10": "h"}}]}))
    for argv in (["double", "--check", "lagrangian", "--pair", str(tmp_path / "ints.json")],
                 ["frobenius", "--pair", str(tmp_path / "strings.json")],
                 ["frobenius", "--check-pair", "--pair", str(tmp_path / "nok.json"), "--k", "1"],
                 ["double", "--check", "transversal", "--trunc", "12",
                  "--fixture", str(tmp_path / "keys.json")]):
        assert main(argv) in (0, 1), (argv, capsys.readouterr().err)
        assert capsys.readouterr().err == "", argv


def _distinct_denominators(keys):
    """sl(3): 1/(u^2 + c*v + 1)*x(x)y over the first `keys` basis pairs,
    with c = 1, 2, ... one per pair, so no two denominators share a factor."""
    t = make_sl(3)
    pairs = [(a, b) for a in t.labels for b in t.labels][:keys]
    return "algebra sl(3); " + " + ".join(
        f"1/(u^2 + {c}*v + 1)*{a}(x){b}" for c, (a, b) in enumerate(pairs, 1)) + "\n"


def _monomials_times_omega(n, count=40):
    """sl(n): the first `count` monomials u^a*v^b, by degree, times Omega."""
    monomials = [f"u^{a}*v^{deg - a}" for deg in range(9) for a in range(deg + 1)]
    return f"algebra sl({n}); (" + " + ".join(monomials[:count]) + ")*Omega\n"


class _ReachedResidual(Exception):
    pass


def test_verify_refuses_a_costly_cleared_form(monkeypatch, tmp_path, capsys):
    # The residual costs (3 + terms(d)) * W, W the term products of its
    # brackets counted by structure entries.  Over sl(3), 9 distinct
    # denominators cost 1.2e7 (0.6 s of cyb) and are admitted; 10 cost
    # 2.5e7 and 16 cost 1.0e9 (26 s).  Forty monomials times Omega cost 1.3e6
    # over sl(3), but 2.3e7 over sl(6), whose Casimir keys E(i,j)(x)E(j,i)
    # bracket into up to five Cartan entries: unweighted, terms(d) *
    # terms(d*r)^2 would be 4.8e6 there, for about 2 s of cyb.  Each refusal
    # exits 2 before any residual is computed.
    from yangbaxter import cybe

    def reached(r):
        raise _ReachedResidual

    monkeypatch.setattr(cybe, "cyb", reached)
    cases = [(_distinct_denominators(9), True), (_distinct_denominators(10), False),
             (_distinct_denominators(16), False), (_monomials_times_omega(3), True),
             (_monomials_times_omega(6), False)]
    for i, (text, admitted) in enumerate(cases):
        doc = tmp_path / f"doc{i}.rmx"
        doc.write_text(text)
        argv = ["verify", "--input", str(doc)]
        if admitted:
            with pytest.raises(_ReachedResidual):
                main(argv)
            continue
        start = time.perf_counter()
        assert main(argv) == 2, text
        assert time.perf_counter() - start < 1, text
        err = capsys.readouterr().err
        assert f"beyond the bound {MAX_CLEARED_COST}" in err and "Traceback" not in err, err
    # The builtins are not parsed, and no bound stands in their way.
    with pytest.raises(_ReachedResidual):
        main(["verify", "--builtin", "q2"])


def test_each_residual_is_computed_once(monkeypatch, capsys):
    # A residual computation is three leg_bracket calls; a later cyb of the
    # same tensor returns the stored residual and brackets nothing.  14 of
    # the computations are the sl(2) Casimir calibration probes, and a
    # builtin is built alone.  gamma3 is checked once as it is built, and
    # that residual is the one its verdicts read; the command itself needs
    # one residual per tensor it judges.
    from yangbaxter import cli, cybe

    real_leg_bracket = cybe.leg_bracket
    calls = []

    def counting_leg_bracket(r, s, pair):
        calls.append(pair)
        return real_leg_bracket(r, s, pair)

    monkeypatch.setattr(cybe, "leg_bracket", counting_leg_bracket)
    cases = (
        (["verify", "--builtin", "q2", "--json"], 15,
         {"inputs": {"source": "q2", "algebra": 2, "quasi_rational": True, "skew": True},
          "verdicts": [{"name": "cyb_zero", "pass": True}], "residual_terms": 0}),
        (["gauge", "--builtin", "q1", "--p", "unip(E(1,2),1,2)", "--json"], 16,
         {"inputs": {"builtin": "q1", "algebra": 2, "p": "unip(E(1,2),1,2)"},
          "verdicts": [{"name": "cyb_preserved", "pass": True},
                       {"name": "quasi_rationality_preserved", "pass": True}],
          "residual_terms": 0}),
        # The lift checks its own quasi-rationality; the command reuses that
        # verdict instead of computing the lift's residual again.
        (["frobenius", "--builtin", "q1", "--json"], 16,
         {"inputs": {"mode": "lift", "pair": "q1", "algebra": 2},
          "verdicts": [{"name": "lift_quasi_rational", "pass": True},
                       {"name": "matches_catalog", "pass": True}],
          "residual_terms": None}),
        (["verify", "--builtin", "gamma3", "--json"], 15,
         {"inputs": {"source": "gamma3", "algebra": 2, "quasi_rational": False, "skew": True},
          "verdicts": [{"name": "cyb_zero", "pass": True}], "residual_terms": 0}),
        # The calibration, then one residual per catalog tensor: q0 is
        # gamma4, and gamma3 is not checked again.
        (["calibrate", "--json"], 21,
         {"inputs": {"algebra": 2, "scale": "4",
                     "constant_part": {"sign": -1, "orientation": "ef"}},
          "verdicts": [{"name": "unique_scale", "pass": True},
                       {"name": "catalog_validates", "pass": True}]}),
    )
    for argv, computations, expected_report in cases:
        monkeypatch.setattr(cli, "_OMEGA_CACHE", {})
        calls.clear()
        capsys.readouterr()
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 3 * computations, argv
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
            ["cobracket", "--gamma", "gamma2", "--element", "e:u^100000"],
            ["gauge", "--builtin", "q1", "--p", "unip(e,99999999,1)"],
            ["gauge", "--builtin", "q1", "--p", "unip(e,0,1/0)"],
            ["gauge", "--builtin", "q1", "--p", "*".join(["unip(e,0,1)", "unip(f,0,1)"] * 950)]]
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


def test_gauge_sweep_is_bounded_and_exclusive(capsys):
    # Exactly one of --p and --sweep, and a sweep of 1..MAX_SWEEP gauges;
    # a sweep of -3 checked no gauge and passed, and --p next to --sweep was
    # ignored.
    runs = [["gauge", "--sweep", "-3"],
            ["gauge", "--sweep", "0"],
            ["gauge", "--sweep", str(MAX_SWEEP + 1)],
            ["gauge", "--sweep", "10000000000"],
            ["gauge", "--sweep", "2", "--p", "unip(e,1,1)"],
            ["gauge", "--builtin", "q1"]]
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    assert main(["gauge", "--sweep", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == [{"name": "sweep_preserves_solutions", "pass": True}]


def test_gauge_image_past_the_cost_bound_exits_2_fast_with_and_without_optimisation(capsys):
    # 16 alternating degree-1 factors reach MAX_DEGREE in 271 characters.
    # Over sl(2) the image of q0 costs 2.1e8 (14 s of cyb) and is refused
    # between gauge_transform and the image's residual; 8 factors cost
    # 1.3e7 (1.0 s of cyb) and are refused, and 6 cost 4.0e6 and pass.
    def alternating(k):
        return "*".join(["unip(E(1,2),1,1)", "unip(E(2,1),1,1)"] * (k // 2))

    for flags in ([], ["-O"]):
        start = time.perf_counter()
        proc = _run_cli(flags, ["gauge", "--builtin", "q0", "--p", alternating(16)], timeout=5)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, (flags, proc.stderr)
        assert proc.stderr.startswith("error: the image of q0 under --p: the residual of the "
                                      "cleared form costs 210891600, beyond the bound "
                                      f"{MAX_CLEARED_COST}"), (flags, proc.stderr)
        assert elapsed < 1, (flags, elapsed)
    assert main(["gauge", "--builtin", "q0", "--p", alternating(8)]) == 2
    assert main(["gauge", "--builtin", "q0", "--p", alternating(6)]) == 0
    assert "beyond the bound" in capsys.readouterr().err


def test_long_gauge_product_on_sl6_is_quick(capsys):
    # 60 unipotent factors over sl(6): each element carries its inverse, so
    # no determinant or adjugate is expanded; by cofactors this took 8.7 s.
    expr = "*".join(["unip(E(1,2),0,1)", "unip(E(2,1),0,1)"] * 30)
    calibrated_omega(make_sl(6))  # the cached calibration is not the timed work
    start = time.perf_counter()
    assert main(["gauge", "--n", "6", "--builtin", "q0", "--p", expr]) == 0
    assert time.perf_counter() - start < 3.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["  still a Yang-Baxter solution: ok",
                         "  still quasi-rational: true (input: true)"]


def test_double_window_bounds_exit_2_quickly(capsys):
    # Past MAX_TRUNC the window or the dual-basis order is refused before it
    # is built; both runs below went on past 15 s before the bound.  A tail
    # depth outside the window [-2T, T]'s 0..2T either checked no element and
    # passed (9) or checked elements outside the window and failed (-5).
    runs = [["double", "--check", "transversal", "--trunc", "2000"],
            ["double", "--check", "dualbasis", "--trunc", "100000"],
            ["double", "--check", "transversal", "--tail", "9"],
            ["double", "--check", "transversal", "--tail", "-5"],
            ["double", "--check", "wk", "--trunc", str(MAX_TRUNC + 1)],
            ["double", "--check", "dualbasis", "--trunc", "1"]]
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # the ends of the tail range are accepted
    for tail in ("0", "8"):
        assert main(["double", "--check", "transversal", "--tail", tail]) == 0, tail
    assert "contains_tail: ok" in capsys.readouterr().out


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
    # gauge degrees are bounded by their sum
    t = make_sl(2)
    assert max_degree(_parse_gauge_expr(t, f"unip(e,{MAX_DEGREE},1)")) == MAX_DEGREE
    with pytest.raises(ParseError):
        _parse_gauge_expr(t, "unip(e,9,1)*unip(f,8,1)")
    assert main(["double", "--check", "dualbasis", "--trunc", str(MAX_TRUNC)]) == 0


class _StubDocument:
    """A stub file holding `text`, then, if endless, blanks forever like
    /dev/zero; an unbounded read() of an endless one raises MemoryError."""

    def __init__(self, text, endless):
        self.text, self.endless = text, endless

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self, size=-1):
        if size is None or size < 0:
            if self.endless:
                raise MemoryError("unbounded read of an endless document")
            return self.text
        return (self.text + " " * size if self.endless else self.text)[:size]


def test_verify_input_reads_at_most_one_char_past_the_bound(capsys, monkeypatch):
    from yangbaxter import cli

    head = "algebra sl(2); e(x)f"
    monkeypatch.setattr(cli, "open", lambda *a, **k: _StubDocument(head, True), raising=False)
    assert main(["verify", "--input", "endless"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"longer than {MAX_DOCUMENT_CHARS}" in err, err
    # A document of exactly the bound is read whole: e(x)f is no solution.
    exact = head + " " * (MAX_DOCUMENT_CHARS - len(head))
    monkeypatch.setattr(cli, "open", lambda *a, **k: _StubDocument(exact, False), raising=False)
    assert main(["verify", "--input", "exact"]) == 1
    assert "cyb residual terms: 1" in capsys.readouterr().out


def test_json_files_read_at_most_one_char_past_the_bound(capsys, monkeypatch, tmp_path):
    # A pair file or fixture past MAX_JSON_CHARS is refused after one
    # character more; one of exactly the bound reads as the same file unpadded.
    from yangbaxter import cli

    monkeypatch.chdir(tmp_path)
    pair = json.dumps({"algebra": 2, "basis": ["e", "h"], "matrix": [[0, 1], [-1, 0]]})
    fixture = json.dumps({"elements": [{"loop": {"-1": "e"}}, {"a1": "h"}]})
    for argv, head in (
        (["frobenius", "--check-pair", "--k", "1", "--pair", "file.json"], pair),
        (["double", "--check", "transversal", "--fixture", "file.json"], fixture),
    ):
        (tmp_path / "file.json").write_text(head)
        code = main(argv)
        expected = capsys.readouterr()
        assert code in (0, 1) and not expected.err, (argv, expected.err)
        monkeypatch.setattr(cli, "open", lambda *a, **k: _StubDocument(head, True), raising=False)
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"longer than {MAX_JSON_CHARS}" in err, err
        exact = head + " " * (MAX_JSON_CHARS - len(head))
        monkeypatch.setattr(cli, "open", lambda *a, **k: _StubDocument(exact, False), raising=False)
        assert main(argv) == code, argv
        assert capsys.readouterr() == expected, argv
        monkeypatch.undo()
        monkeypatch.chdir(tmp_path)


def test_largest_fixture_fits_the_json_bound(capsys, tmp_path):
    # Every unit vector of the sl(6) ambient at --trunc 12, indented: the
    # largest fixture a command can use holds 1365 independent elements.
    t = make_sl(MAX_RANK)
    lo, hi = -2 * MAX_TRUNC, MAX_TRUNC
    els = [{"loop": {str(d): x}} for d in range(lo, hi + 1) for x in t.labels]
    els += [{part: x} for part in ("a0", "a1") for x in t.labels]
    assert len(els) == 1365
    fixture = tmp_path / "ambient.json"
    fixture.write_text(json.dumps({"elements": els}, indent=2))
    assert len(fixture.read_text()) <= MAX_JSON_CHARS
    argv = ["double", "--n", str(MAX_RANK), "--trunc", str(MAX_TRUNC), "--check",
            "transversal", "--fixture", str(fixture), "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == [
        {"name": "trivial_intersection", "pass": False},
        {"name": "spans_with_polynomials", "pass": True},
        {"name": "contains_tail", "pass": True},
    ]


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


def test_readme_examples_replay(capsys):
    # Every `$ ybx ...` example in the README, run through main(), prints
    # exactly the lines the README shows under it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^\$ ybx (.*)\n((?:(?!```).+\n)*)", readme, re.M)
    assert len(examples) == 5
    capsys.readouterr()
    for argv, expected in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_reports_match_recorded_output(capsys, tmp_path):
    # cli_reports.json holds main() runs over every subcommand and verdict
    # branch, in text and --json, with the stdout, stderr and exit code of
    # each as first recorded; the input files it names are written to
    # {dir}, and paths in the output read {dir}.  Commands whose behaviour
    # changed on purpose since the recording are tested on their own.
    recorded = json.loads((Path(__file__).parent / "cli_reports.json").read_text())
    for name, text in recorded["files"].items():
        (tmp_path / name).write_text(text)
    assert len(recorded["runs"]) >= 100
    capsys.readouterr()
    for run in recorded["runs"]:
        code = main([arg.replace("{dir}", str(tmp_path)) for arg in run["argv"]])
        out, err = capsys.readouterr()
        assert code == run["code"], run["argv"]
        assert out.replace(str(tmp_path), "{dir}") == run["stdout"], run["argv"]
        assert err.replace(str(tmp_path), "{dir}") == run["stderr"], run["argv"]


# ---------------------------------------------------------------------------
# Differential test against the parser the forward parser replaced.  Inputs
# are seeded texts over the grammar's alphabet; both parsers must give the
# same value wherever both accept, and every other difference must be one of
# the intended language changes:
#   - elements: repeated signs multiply, and a trailing operator is an error;
#   - documents: signs before a factor, and sign runs between or inside terms,
#     are read by the grammar instead of cut by a splitter;
#   - gauge t: a constant coefficient in the grammar's notation, not a
#     Fraction() literal; and gauge degrees are bounded by their sum.


def _outcome(parse, *args):
    """("ok", value), ("error", None) on a UsageError, or ("crash", exc)."""
    try:
        return "ok", parse(*args)
    except UsageError:
        return "error", None
    except Exception as exc:  # the reference's unguarded failures
        return "crash", exc


def _is_sign(tok):
    return tok[0] == "SYM" and tok[1] in "+-"


def _sign_repaired(text):
    """text with every sign run spelled the way the old splitters read it:
    a run becomes one sign (the product of its signs); a run before a factor
    gets an explicit 1*; a run after '*' or '/' becomes a (+1) or (-1) factor
    of its own; a power with '^-' is parenthesized, since the old element
    splitter cut at its '-'.  Only called on text the new parser accepts."""
    toks = _tokenize(text)
    out = []
    i = 0
    while i < len(toks):
        if not _is_sign(toks[i]):
            out.append(str(toks[i][1]))
            i += 1
            continue
        if out and out[-1] == "^":
            j, depth = len(out) - 2, 0
            while True:  # back to the start of the power's base
                depth += {")": 1, "(": -1}.get(out[j], 0)
                if depth == 0:
                    break
                j -= 1
            out.insert(j, "(")
            out += [str(tok[1]) for tok in toks[i:i + 2]] + [")"]
            i += 2
            continue
        sign = "+"
        while i < len(toks) and _is_sign(toks[i]):
            sign = "-" if (sign == "-") != (toks[i][1] == "-") else "+"
            i += 1
        if out and out[-1] in ("*", "/"):
            out += [f"({sign}1)", out[-1]]
        elif i < len(toks) and toks[i][0] == "NAME" and toks[i][1] not in ("u", "v"):
            out += [sign, "1", "*"]
        else:
            out.append(sign)
    return " ".join(out)


def _sum_difference(new_parse, ref_parse, text, zero):
    """Which intended change separates the parsers on text; asserts it is one."""
    new, ref = _outcome(new_parse, text), _outcome(ref_parse, text)
    assert new[0] != "crash", (text, new[1])
    if new[0] == "error" and ref[0] != "ok":
        return "both reject"
    if new[0] == ref[0] == "ok" and new[1] == ref[1]:
        return "same value"
    if new[0] == "ok":
        # the reference reads the same value once the signs are respelled
        assert _outcome(ref_parse, _sign_repaired(text)) == ("ok", new[1]), text
        return "signs"
    # only the reference accepts: it dropped a trailing run of signs from a
    # text the new parser reads, maybe with signs of its own
    toks = _tokenize(text)
    k = len(toks)
    while k and _is_sign(toks[k - 1]):
        k -= 1
    assert k < len(toks), text
    head = text[: toks[k][2]]
    if k:
        assert _outcome(ref_parse, head) == ref, text
        assert _sum_difference(new_parse, ref_parse, head, zero) in ("same value", "signs"), text
    else:
        assert ref[1] == zero, text
    return "trailing operator"


# Each pool ends with entries that are malformed or out of range (E(1,3)
# only over sl(2)); `_pick` draws them a tenth of the time.
_COEFFS = ["2", "1/2", "-3", "+4", "u", "v^2", "u*v", "(u + v)", "(u-v)^-2", "u^-1",
           "2*-3", "-u*-v", "u/-v", "((1 - u)/(v + 2))", "(-(2))", "2^-1", "--2",
           "u/u", "0", "1/0", "(2", "2)"]
_CONST_COEFFS = ["2", "1/2", "-3", "+4", "2*-3", "3/-4", "(-(2))", "2^-1", "--2",
                 "u/u", "0", "1/0", "(2", "u"]
_SIGN_RUNS = ["+", "-", "--", "-+", "+ -", "- + -"]
_LABELS = {2: ["e", "f", "h", "E(1,2)", "E(2,1)", "H(1)", "E(1,3)", "H(2)"],
           3: ["E(1,3)", "E(3,2)", "E(2,1)", "H(1)", "H(2)", "E(2,2)", "e"]}


def _pick(rng, pool, bad):
    """Mostly one of pool's good entries, sometimes one of its last `bad`."""
    return rng.choice(pool[:-bad] if rng.random() < 0.9 else pool[-bad:])


def _random_sum(rng, factor, coeffs):
    terms = []
    for k in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            signs = rng.choice(_SIGN_RUNS)
        else:
            signs = rng.choice("+-") if k else ""
        coeff = _pick(rng, coeffs, 3) + "*" if rng.random() < 0.6 else ""
        terms.append(f"{signs} {coeff}{factor()}")
    text = " ".join(terms)
    if rng.random() < 0.2:
        i = rng.randrange(len(text) + 1)
        text = rng.choice([
            text + " " + rng.choice(["+", "-", "- -"]),
            text[:i] + text[i + 1:],
            text[:i] + rng.choice("+-*/^()") + text[i:],
        ])
    return text


def test_parser_matches_reference_on_seeded_sums():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(1500):
        n = rng.choice((2, 3))
        table = make_sl(n)
        labels = _LABELS[n]
        element = _random_sum(rng, lambda: _pick(rng, labels, 2), _CONST_COEFFS)
        kind = _sum_difference(
            lambda s: parse_element(table, s), lambda s: _ref_parse_element(table, s),
            element, table.zero(),
        )
        seen["element " + kind] += 1
        document = f"algebra sl({n}); " + _random_sum(
            rng,
            lambda: rng.choice(["Omega", f"{_pick(rng, labels, 2)}(x){_pick(rng, labels, 2)}"]),
            _COEFFS,
        )
        kind = _sum_difference(
            lambda s: parse_rmatrix(s).tensor, lambda s: _ref_parse_rmatrix(s).tensor,
            document, None,
        )
        assert kind != "trailing operator", document
        seen["document " + kind] += 1
    # every class occurs, and most inputs parse the same either way
    for kind in ("same value", "both reject", "signs"):
        assert seen["element " + kind] and seen["document " + kind], seen
    assert seen["element trailing operator"], seen
    assert seen["element same value"] + seen["document same value"] > 750, seen


_ROOTS = ["e", "f", "E(1,2)", "E(2,1)", "E( 1 , 2 )", "h", "E(1,3)", "H(1)"]
_DEGREES = ["0", "1", "3", "8", "9", "-1"]
_T_BOTH = ["1", "-2", "1/2", "-3/4", "0", " 3 "]
_T_FRACTION_ONLY = ["0.5", "1e3"]  # Fraction() literals the grammar does not have
_T_GRAMMAR_ONLY = ["(1/2)", "2*3", "2^-1", "--1"]  # coefficients Fraction() rejects


def test_parser_matches_reference_on_seeded_gauge_expressions():
    rng = random.Random(11)
    ts = _T_BOTH * 3 + _T_FRACTION_ONLY + _T_GRAMMAR_ONLY + ["1/0"]
    seen = Counter()
    for _ in range(600):
        table = make_sl(rng.choice((2, 2, 2, 3)))
        factors = [(_pick(rng, _ROOTS, 3), _pick(rng, _DEGREES, 1), rng.choice(ts))
                   for _ in range(rng.randint(1, 3))]
        text = rng.choice(["*", " * "]).join(f"unip({r},{d},{t})" for r, d, t in factors)
        if rng.random() < 0.1:
            text += "*"
        new = _outcome(lambda: _parse_gauge_expr(table, text).mat)
        ref = _outcome(lambda: _ref_parse_gauge_expr(table, text).mat)
        assert new[0] != "crash", (text, new[1])
        t_texts = {t for _, _, t in factors}
        if ref[0] == "crash":
            # the reference divided by zero; the new parser refuses the input
            assert new[0] == "error" and "1/0" in t_texts, text
            kind = "reference crash"
        elif new[0] == ref[0]:
            assert new[1] == ref[1], text
            kind = "same value" if new[0] == "ok" else "both reject"
        elif new[0] == "ok":
            assert t_texts & set(_T_GRAMMAR_ONLY), text
            kind = "grammar t"
        elif t_texts & set(_T_FRACTION_ONLY):
            kind = "Fraction t"
        else:
            assert sum(int(d) for _, d, _ in factors) > MAX_DEGREE, text
            kind = "degree bound"
        seen[kind] += 1
    assert len(seen) == 6 and seen["same value"] > 150, seen


def test_parser_language_changes_are_the_intended_ones():
    # One case per class, each also read by the reference parser.
    t = make_sl(2)
    e, f = t.basis_element("e"), t.basis_element("f")
    # elements: repeated signs multiply; the old splitter kept the last one
    assert parse_element(t, "e - + f") == e + f.scale(-1)
    assert _ref_parse_element(t, "e - + f") == e + f
    # elements: a trailing operator is an error; the old splitter dropped it
    with pytest.raises(ParseError):
        parse_element(t, "e +")
    assert _ref_parse_element(t, "e +") == e
    # documents: a sign before a factor, and a sign after '*'
    ef = Tensor2.single(t, "e", "f")
    for body, value in (("-e(x)f", ef.scale(-1)), ("e(x)f - -e(x)f", ef.scale(2)),
                        ("2*-3*e(x)f", ef.scale(-6))):
        assert parse_rmatrix("algebra sl(2); " + body).tensor == value, body
        with pytest.raises(ParseError):
            _ref_parse_rmatrix("algebra sl(2); " + body)
    # gauge t: a coefficient in the grammar's notation, not a Fraction() literal
    with pytest.raises(ParseError):
        _parse_gauge_expr(t, "unip(e,0,0.5)")
    half = _parse_gauge_expr(t, "unip(e,0,1/2)").mat
    assert _ref_parse_gauge_expr(t, "unip(e,0,0.5)").mat == half
    assert _parse_gauge_expr(t, "unip(e,0,(1/2))").mat == half
    with pytest.raises(UsageError):
        _ref_parse_gauge_expr(t, "unip(e,0,(1/2))")


# ---------------------------------------------------------------------------
# Grammar-based robustness.  Documents and gauge expressions are drawn from
# the grammar in the `cli` docstring, pair files and fixtures from the
# README's formats, and then mutated: truncated, nested deeply, given runs of
# signs, exponents at and past MAX_EXPONENT, many distinct denominators, and
# JSON values of the wrong type.  Whatever the input, `main` returns 0, 1 or
# 2 within the budget, and no exception escapes it.

_FUZZ_BUDGET_S = 2.0
# Coefficients at and past the nesting and exponent bounds.
_STRESS = (["(" * d + "2" + ")" * d for d in (MAX_NESTING, MAX_NESTING + 1, 400)]
           + ["3*" + "-" * k + "2" for k in (MAX_NESTING, MAX_NESTING + 1, 5000)]
           + [f"{base}^{sign}{e}" for base in ("u", "(u + v)", "(1 - u)", "2")
              for sign in ("", "-") for e in (MAX_EXPONENT, MAX_EXPONENT + 1, 10 ** 30)])
_FUZZ_DEGREES = _DEGREES + [str(MAX_DEGREE), str(MAX_DEGREE + 1), "99999999"]
_WRONG_JSON = [0.5, 0.10000000000000001, 2.0, True, False, None, "1/0", "1e3", " 1", "x",
               [1], [[0]], {}, -1, 10 ** 30, "9" * 5000]


def _truncated(rng, text):
    return text[: rng.randrange(len(text) + 1)] if rng.random() < 0.1 else text


def _fuzz_document(rng):
    if rng.random() < 0.05:
        return _distinct_denominators(rng.choice((4, 10, 16)))
    n = rng.choice((2, 2, 3))
    labels = _LABELS[n]
    coeffs = _COEFFS if rng.random() < 0.75 else _STRESS
    factor = lambda: rng.choice(["Omega", f"{_pick(rng, labels, 2)}(x){_pick(rng, labels, 2)}"])
    return _truncated(rng, f"algebra sl({n}); " + _random_sum(rng, factor, coeffs))


def _fuzz_gauge(rng):
    def factor():
        if rng.random() < 0.7:
            return f"unip({_pick(rng, _ROOTS, 3)},{rng.randint(0, 3)},{rng.choice(_T_BOTH)})"
        ts = _CONST_COEFFS + _STRESS
        return f"unip({_pick(rng, _ROOTS, 3)},{rng.choice(_FUZZ_DEGREES)},{rng.choice(ts)})"

    if rng.random() < 0.1:
        # 8 to MAX_DEGREE alternating degree-1 factors: each image is past the
        # cleared-form cost bound, and refused before its residual.
        factors = ["unip(E(1,2),1,1)", "unip(E(2,1),1,1)"] * MAX_DEGREE
        return _truncated(rng, "*".join(factors[:rng.randint(8, MAX_DEGREE)]))
    return _truncated(rng, "*".join(factor() for _ in range(rng.randint(1, 3))))


def _fuzz_json(rng, data):
    """data as JSON text, with one value anywhere in it replaced by one of
    the wrong type or its key dropped, and maybe truncated or nested."""
    if rng.random() < 0.5:
        parent, key, node = None, None, data
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.8):
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            parent, node = node, node[key]
        if parent is None:
            data = rng.choice(_WRONG_JSON)
        elif isinstance(parent, dict) and rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = rng.choice(_WRONG_JSON)
    text = _truncated(rng, json.dumps(data))
    if rng.random() < 0.05:
        depth = rng.choice((50, 5000))
        text = "[" * depth + text + "]" * depth
    return text


def _fuzz_element(rng, n):
    """Mostly a good basis symbol of sl(n), sometimes a signed sum."""
    if rng.random() < 0.85:
        return rng.choice(_LABELS[n][:-2])
    return _random_sum(rng, lambda: _pick(rng, _LABELS[n], 2), _CONST_COEFFS)


def _fuzz_pair(rng):
    n = rng.choice((2, 2, 3))
    basis = list(dict.fromkeys(_fuzz_element(rng, n) for _ in range(rng.randint(0, 3))))
    matrix = [[0] * len(basis) for _ in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = rng.choice([0, 1, -1, 2, "1/2", "-3/4"])
            matrix[i][j], matrix[j][i] = c, (-c if isinstance(c, int) else "-" + c)
    if basis and rng.random() < 0.2:
        matrix[rng.randrange(len(basis))][rng.randrange(len(basis))] = rng.choice(_WRONG_JSON)
    data = {"algebra": n, "basis": basis, "matrix": matrix, "k": rng.randint(1, n - 1)}
    return n, _fuzz_json(rng, data)


def _fuzz_fixture(rng):
    # Loop degrees in the window [-2, 1] of --trunc 1, and four that are not.
    degrees = ["-2", "-1", "0", "1", "3", "01", " 0", "x"]
    elements = []
    for _ in range(rng.randint(0, 4)):
        entry = {jet: _fuzz_element(rng, 2) for jet in ("a0", "a1") if rng.random() < 0.4}
        if not entry or rng.random() < 0.5:
            entry["loop"] = {_pick(rng, degrees, 4): _fuzz_element(rng, 2)}
        elements.append(entry)
    return _fuzz_json(rng, {"elements": elements})


def _fuzz_runs(rng, tmp, tag):
    """One argv per input kind, with the files they read written to tmp."""
    doc, pair, fixture = (tmp / f"{tag}.{ext}" for ext in ("rmx", "pair.json", "fixture.json"))
    doc.write_text(_fuzz_document(rng))
    n, text = _fuzz_pair(rng)
    pair.write_text(text)
    fixture.write_text(_fuzz_fixture(rng))
    pair_command = rng.choice([["frobenius"], ["frobenius", "--check-pair"],
                               ["double", "--check", "lagrangian", "--trunc", "1"]])
    return [["verify", "--input", str(doc)],
            ["gauge", "--builtin", "q1", "--p=" + _fuzz_gauge(rng)],
            [*pair_command, "--n", str(n), "--pair", str(pair)],
            ["double", "--check", "transversal", "--trunc", "1", "--fixture", str(fixture)]]


def _run_main(argv):
    """[exit code, seconds] of cli.main on argv, its output discarded."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return [code, time.perf_counter() - start]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_grammar_fuzz_ends_in_an_exit_code_within_budget(tmp_path_factory, rng):
    tmp = tmp_path_factory.mktemp("fuzz")
    for argv in _fuzz_runs(rng, tmp, "input"):
        try:
            code, elapsed = _run_main(argv)
        except Exception as exc:
            inputs = {p.name: p.read_text()[:300] for p in tmp.iterdir()}
            raise AssertionError(f"{argv} raised on {inputs}") from exc
        assert code in (0, 1, 2) and elapsed < _FUZZ_BUDGET_S, (argv, code, elapsed)


def test_grammar_fuzz_subset_under_optimisation(tmp_path):
    # A fixed subset of the same inputs, in one `python -O` process: no
    # verdict or refusal may rest on an assert.
    rng = random.Random(29)
    argvs = [argv for i in range(12) for argv in _fuzz_runs(rng, tmp_path, f"input{i}")]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(yangbaxter.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                                      env.get("PYTHONPATH")]))
    driver = ("import json, sys; from test_cli import _run_main; "
              "print(json.dumps([_run_main(argv) for argv in json.load(sys.stdin)]))")
    proc = subprocess.run([sys.executable, "-O", "-c", driver], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    for argv, (code, elapsed) in zip(argvs, results):
        assert code in (0, 1, 2) and elapsed < _FUZZ_BUDGET_S, (argv, code, elapsed)
    assert {code for code, _ in results} == {0, 1, 2}, results


# The reference: the parser of the previous release, verbatim but renamed.
# It scanned basis symbols backwards from the (x) token, split documents and
# elements into terms at depth-0 signs, and split gauge expressions as strings.

class _RefCoeffParser:
    """Recursive-descent parser for rational coefficient expressions."""

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError(
                "unexpected end of coefficient", self.text, len(self.text)
            )
        self.pos += 1
        return tok

    def _expect_sym(self, s):
        tok = self._next()
        if tok[0] != "SYM" or tok[1] != s:
            raise ParseError(f"expected {s!r}", self.text, tok[2])

    def parse(self):
        out = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError("trailing tokens in coefficient", self.text, tok[2])
        return out

    def expr(self):
        out = self.product()
        while True:
            tok = self._peek()
            if tok and tok[0] == "SYM" and tok[1] in "+-":
                self.pos += 1
                rhs = self.product()
                _check_degree(tok[1], out, rhs, self.text, tok[2])
                out = out + rhs if tok[1] == "+" else out - rhs
            else:
                return out

    def product(self):
        out = self.unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "SYM" and tok[1] in "*/":
                self.pos += 1
                rhs = self.unary()
                _check_degree(tok[1], out, rhs, self.text, tok[2])
                if tok[1] == "*":
                    out = out * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError(
                            "division by zero in coefficient", self.text, tok[2]
                        )
                    out = out / rhs
            else:
                return out

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "SYM" and tok[1] in "+-":
            self.pos += 1
            out = self.unary()
            return out if tok[1] == "+" else -out
        return self.power()

    def power(self):
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "SYM" and tok[1] == "^":
            self.pos += 1
            etok = self._next()
            neg = False
            if etok[0] == "SYM" and etok[1] == "-":
                neg = True
                etok = self._next()
            if etok[0] != "INT":
                raise ParseError("exponent must be an integer", self.text, etok[2])
            e = -etok[1] if neg else etok[1]
            if e < 0 and base.is_zero():
                raise ParseError("negative power of zero", self.text, etok[2])
            if abs(e) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {e} is beyond the bound {MAX_EXPONENT}", self.text, etok[2]
                )
            if max(base.num.total_degree(), base.den.total_degree()) * abs(e) > MAX_DEGREE:
                raise ParseError(
                    f"power has degree beyond the bound {MAX_DEGREE}", self.text, etok[2]
                )
            return base ** e
        return base

    def atom(self):
        tok = self._next()
        if tok[0] == "INT":
            return RatFun.from_frac(F(tok[1]))
        if tok[0] == "NAME" and tok[1] in ("u", "v"):
            return RatFun.var(tok[1])
        if tok[0] == "SYM" and tok[1] == "(":
            out = self.expr()
            self._expect_sym(")")
            return out
        raise ParseError(f"unexpected token {tok[1]!r} in coefficient", self.text, tok[2])


def _ref_basis_backwards(tokens, end, table, text):
    """Parse one basis token group ending at index end-1; returns (index, start)."""
    if end < 1:
        raise ParseError("missing basis symbol", text, 0)
    tok = tokens[end - 1]
    if tok[0] == "NAME" and tok[1] in ("e", "f", "h"):
        if table.n != 2:
            raise ParseError(
                f"alias {tok[1]!r} is only defined over sl(2)", text, tok[2]
            )
        return table.index[tok[1]], end - 1
    if tok[0] == "SYM" and tok[1] == ")":
        # E ( i , j )  or  H ( i )
        if end >= 4 and tokens[end - 3][0] == "SYM" and tokens[end - 3][1] == "(":
            name_tok, i_tok = tokens[end - 4], tokens[end - 2]
            if name_tok[0] == "NAME" and name_tok[1] == "H" and i_tok[0] == "INT":
                label = f"H({i_tok[1]})"
                if label not in table.index:
                    raise ParseError(
                        f"unknown basis symbol {label}", text, name_tok[2]
                    )
                return table.index[label], end - 4
        if (
            end >= 6
            and tokens[end - 5][0] == "SYM"
            and tokens[end - 5][1] == "("
            and tokens[end - 3][1] == ","
        ):
            name_tok = tokens[end - 6]
            i_tok, j_tok = tokens[end - 4], tokens[end - 2]
            if (
                name_tok[0] == "NAME"
                and name_tok[1] == "E"
                and i_tok[0] == "INT"
                and j_tok[0] == "INT"
            ):
                label = f"E({i_tok[1]},{j_tok[1]})"
                if label not in table.index:
                    raise ParseError(
                        f"unknown basis symbol {label}", text, name_tok[2]
                    )
                return table.index[label], end - 6
    raise ParseError("expected a basis symbol", text, tok[2])


def _ref_basis_forwards(tokens, start, table, text):
    if start >= len(tokens):
        raise ParseError("missing basis symbol after (x)", text, len(text))
    tok = tokens[start]
    if tok[0] == "NAME" and tok[1] in ("e", "f", "h"):
        if table.n != 2:
            raise ParseError(
                f"alias {tok[1]!r} is only defined over sl(2)", text, tok[2]
            )
        return table.index[tok[1]], start + 1
    if tok[0] == "NAME" and tok[1] in ("E", "H"):
        # scan to the matching ')'
        for end in range(start + 1, len(tokens) + 1):
            if tokens[end - 1][0] == "SYM" and tokens[end - 1][1] == ")":
                idx, s = _ref_basis_backwards(tokens, end, table, text)
                if s == start:
                    return idx, end
                break
        raise ParseError("malformed basis symbol", text, tok[2])
    raise ParseError("expected a basis symbol", text, tok[2])


def _ref_parse_rmatrix(text, omega=None):
    """Parse a document to an exact tensor; raises ParseError on bad input."""
    if len(text) > MAX_DOCUMENT_CHARS:
        raise ParseError(
            f"document longer than {MAX_DOCUMENT_CHARS} characters", text, MAX_DOCUMENT_CHARS
        )
    tokens = _tokenize(text)
    # header: algebra sl ( INT ) ;
    if not (
        len(tokens) >= 6
        and tokens[0][:2] == ("NAME", "algebra")
        and tokens[1][:2] == ("NAME", "sl")
        and tokens[2][1] == "("
        and tokens[3][0] == "INT"
        and tokens[4][1] == ")"
        and tokens[5][1] == ";"
    ):
        pos = tokens[0][2] if tokens else 0
        raise ParseError("expected header 'algebra sl(N);'", text, pos)
    n = tokens[3][1]
    if not 2 <= n <= MAX_RANK:
        raise ParseError(
            f"sl({n}) is not supported: N must be in 2..{MAX_RANK}", text, tokens[3][2]
        )
    table = make_sl(n)
    if omega is None:
        omega = calibrated_omega(table)
    body = tokens[6:]
    if not body:
        raise ParseError("document has no terms", text, len(text))
    # split into terms at depth-0 +/- signs, except the sign of an exponent
    terms = []
    depth = 0
    cur = []
    start_sign = F(1)
    for tok in body:
        if tok[0] == "SYM" and tok[1] == "(":
            depth += 1
        elif tok[0] == "SYM" and tok[1] == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", text, tok[2])
        if depth == 0 and tok[0] == "SYM" and tok[1] in "+-" and cur and cur[-1][1] != "^":
            terms.append((start_sign, cur))
            start_sign = F(1 if tok[1] == "+" else -1)
            cur = []
            continue
        cur.append(tok)
    if depth != 0:
        raise ParseError("unbalanced '('", text, len(text))
    if not cur:
        raise ParseError("trailing operator without a term", text, len(text))
    terms.append((start_sign, cur))

    total = Tensor2.zero(table)
    for tsign, toks in terms:
        term = _ref_parse_term(toks, table, omega, text).scale(RatFun.from_frac(tsign))
        for key, c in term.entries.items():
            if key in total.entries:
                _check_degree("+", total.entries[key], c, text, toks[0][2])
        total = total + term
    return RMatrixDocument(table, omega, total)


def _ref_parse_term(tokens, table, omega, text):
    tensor_idx = [i for i, t in enumerate(tokens) if t[0] == "TENSOR"]
    if len(tensor_idx) > 1:
        raise ParseError("more than one (x) in a term", text, tokens[tensor_idx[1]][2])
    if tensor_idx:
        i = tensor_idx[0]
        a, astart = _ref_basis_backwards(tokens, i, table, text)
        b, bend = _ref_basis_forwards(tokens, i + 1, table, text)
        if bend != len(tokens):
            raise ParseError(
                "trailing tokens after basis factor", text, tokens[bend][2]
            )
        coeff_toks = tokens[:astart]
        factor = Tensor2.single(table, a, b)
    else:
        last = tokens[-1]
        if not (last[0] == "NAME" and last[1] == "Omega"):
            raise ParseError(
                "term must end in 'Omega' or 'basis (x) basis'", text, last[2]
            )
        coeff_toks = tokens[:-1]
        factor = omega.tensor()
    if coeff_toks:
        if not (coeff_toks[-1][0] == "SYM" and coeff_toks[-1][1] == "*"):
            raise ParseError(
                "expected '*' between coefficient and factor",
                text,
                coeff_toks[-1][2],
            )
        coeff = _RefCoeffParser(coeff_toks[:-1], text).parse()
    else:
        coeff = RatFun.from_frac(1)
    return factor.scale(coeff)


def _ref_parse_element(table, text):
    """Linear combination of basis symbols: [RAT '*'] basis (('+'|'-') ...)*."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element expression", text, 0)
    out = table.zero()
    i = 0
    sign = F(1)
    while i < len(tokens):
        tok = tokens[i]
        if tok[0] == "SYM" and tok[1] in "+-":
            sign = F(1 if tok[1] == "+" else -1)
            i += 1
            continue
        # collect tokens up to the next depth-0 +/- into one addend
        j = i
        depth = 0
        while j < len(tokens):
            t = tokens[j]
            if t[0] == "SYM" and t[1] == "(":
                depth += 1
            elif t[0] == "SYM" and t[1] == ")":
                depth -= 1
            elif t[0] == "SYM" and t[1] in "+-" and depth == 0:
                break
            j += 1
        part = tokens[i:j]
        idx, start = _ref_basis_backwards(part, len(part), table, text)
        coeff_toks = part[:start]
        if coeff_toks:
            if not (coeff_toks[-1][0] == "SYM" and coeff_toks[-1][1] == "*"):
                raise ParseError(
                    "expected '*' between coefficient and basis symbol",
                    text,
                    coeff_toks[-1][2],
                )
            c = _RefCoeffParser(coeff_toks[:-1], text).parse()
            if not c.is_const():
                raise ParseError(
                    "element coefficients must be constant rationals", text, tok[2]
                )
            c = c.const_value()
        else:
            c = F(1)
        out = out + table.basis_element(idx).scale(c * sign)
        sign = F(1)
        i = j
    return out


def _ref_parse_gauge_expr(table, text):
    factors = [f.strip() for f in text.split("*")]
    out = PolyGroupElement.identity(table)
    for fac in factors:
        if not (fac.startswith("unip(") and fac.endswith(")")):
            raise UsageError(f"bad gauge factor {fac!r}; expected unip(root,deg,t)")
        body = fac[5:-1]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) == 3:
            root_text, deg_text, t_text = parts
        elif len(parts) == 4 and parts[0].startswith("E("):
            root_text = parts[0] + "," + parts[1]
            deg_text, t_text = parts[2], parts[3]
        else:
            raise UsageError(f"bad gauge factor {fac!r}")
        if root_text in ("e", "f"):
            if table.n != 2:
                raise UsageError("aliases e/f in unip() need sl(2)")
            root = (1, 2) if root_text == "e" else (2, 1)
        elif root_text.startswith("E(") and root_text.endswith(")"):
            i, j = root_text[2:-1].split(",")
            root = (int(i), int(j))
        else:
            raise UsageError(f"bad root {root_text!r} in unip()")
        try:
            deg = int(deg_text)
            t = F(t_text)
        except ValueError as exc:
            raise UsageError(f"bad unip() arguments: {exc}")
        if deg < 0:
            raise UsageError("unip() degree must be >= 0")
        if root[0] == root[1] or not (
            1 <= root[0] <= table.n and 1 <= root[1] <= table.n
        ):
            raise UsageError(f"bad root {root} for sl({table.n})")
        out = out * PolyGroupElement.unip(table, root, deg, t)
    return out
