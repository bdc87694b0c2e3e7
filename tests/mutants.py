"""Mutation check: every listed mutant of the package must fail a named test.

Run from the repository root:

    python tests/mutants.py

Each mutant names a file under src/, an exact old text that must occur there
exactly once, the new text, and the tests that must catch it.  For each
mutant the script copies src/ to a temporary directory, applies the mutant,
and runs its tests with `pytest -x` in a subprocess, with the copy first on
PYTHONPATH.  Only a test failure (pytest's exit code 1) kills a mutant: a
collection error, an import error or a timeout does not.  First, every named
test must pass on an unchanged copy.

The script exits 1 when an old text is missing or repeated, when a named
test fails unmutated, or when a mutant survives.  A change that moves the
mutated code updates its entry here.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300

Mutant = namedtuple("Mutant", "name path old new tests")

DOUBLES = "yangbaxter/doubles.py"
LINALG = "yangbaxter/linalg.py"
RATFUN = "yangbaxter/ratfun.py"

MUTANTS = [
    Mutant("double_bracket drops [A1,B0]", DOUBLES,
           '("a0", "a1"): ("a1",), ("a1", "a0"): ("a1",)}',
           '("a0", "a1"): ("a1",)}',
           ["tests/test_doubles.py::test_row_elements_match_parent_triples"]),
    Mutant("invariant_form pairs the jets with a plus sign", DOUBLES,
           'return (("a1",) if head[0] == "a0" else ("a0",)), -1',
           'return (("a1",) if head[0] == "a0" else ("a0",)), 1',
           ["tests/test_doubles.py::test_invariant_form_values"]),
    Mutant("invariant_form pairs loop degree d with 2 - d", DOUBLES,
           'return ("loop", 1 - head[1]), 1',
           'return ("loop", 2 - head[1]), 1',
           ["tests/test_doubles.py::test_invariant_form_values"]),
    Mutant("is_isotropic grades a1 as a0", DOUBLES,
           "heads = [_by_head(row) for row in sub.rows]",
           'heads = [{("a0",) if h == ("a1",) else h for h in _by_head(row)} for row in sub.rows]',
           ["tests/test_doubles.py::test_graded_isotropy_negative_controls"]),
    Mutant("Span admits a dependent row", LINALG,
           "if not self._ech.add(row):",
           "if self._ech.add(row) and False:",
           ["tests/test_lie.py::test_subspace_validation",
            "tests/test_doubles.py::test_subspace_holds_rows_and_reads_elements_back"]),
    Mutant("closure skips a pair", LINALG,
           "for y in rows[i + 1:]:",
           "for y in rows[i + 2:]:",
           ["tests/test_lie.py::test_subalgebra_unordered_pairs_match_ordered_reference",
            "tests/test_doubles.py::test_subalgebra_unordered_pairs_match_ordered_reference"]),
    Mutant("coords skips the window check", DOUBLES,
           'if key[0] == "loop" and key[1] not in window:',
           "if False:",
           ["tests/test_doubles.py::test_coords_round_trip"]),
    Mutant("calibration probes with gamma4 in place of q2", "yangbaxter/lie.py",
           'cybe.catalog_entry(table, spec, "q2")',
           'cybe.catalog_entry(table, spec, "gamma4")',
           ["tests/test_lie.py::test_calibrated_casimir_sl2"]),
    Mutant("verify drops the cleared-form cost bound", "yangbaxter/cli.py",
           "if cost > MAX_CLEARED_COST:",
           "if False:",
           ["tests/test_cli.py::test_verify_refuses_a_costly_cleared_form"]),
    Mutant("pair files admit bools as integers", "yangbaxter/cli.py",
           "if type(value) is not int:",
           "if not isinstance(value, int):",
           ["tests/test_cli.py::test_pair_files_and_fixtures_refuse_non_integers"]),
    Mutant("fixture loop keys admit what int() reads", "yangbaxter/cli.py",
           'if not re.fullmatch(r"0|-?[1-9][0-9]*", key):',
           "if not key.strip():",
           ["tests/test_cli.py::test_pair_files_and_fixtures_refuse_non_integers"]),
    Mutant("pair files admit a zero denominator", "yangbaxter/cli.py",
           'r"-?[0-9]+(/0*[1-9][0-9]*)?"',
           'r"-?[0-9]+(/[0-9]+)?"',
           ["tests/test_cli.py::test_pair_files_and_fixtures_refuse_non_integers"]),
    Mutant("r_DJ with sign +1", "yangbaxter/lie.py",
           "return -Tensor2.make(table, entries)",
           "return Tensor2.make(table, entries)",
           ["tests/test_lie.py::test_dj_constant_rmatrix"]),
    Mutant("r_DJ with the whole Cartan block", "yangbaxter/lie.py",
           "m[a][b] / 2 for a in cartan",
           "m[a][b] for a in cartan",
           ["tests/test_lie.py::test_dj_constant_rmatrix"]),
    # f(x)e solves too: only the search it replaced tells the two apart.
    Mutant("r_DJ oriented f(x)e", "yangbaxter/lie.py",
           "entries[p, q] = m[p][q]",
           "entries[q, p] = m[p][q]",
           ["tests/test_lie.py::test_dj_rmatrix_matches_the_convention_search"]),
    Mutant("catalog_entry skips gamma3's check", "yangbaxter/cybe.py",
           "if not residual.is_zero():",
           "if False:",
           ["tests/test_cybe.py::test_catalog_entry_refuses_a_gamma3_that_fails_yang_baxter"]),
    Mutant("TwoCocycle reports an escaping bracket as an identity failure",
           "yangbaxter/frobenius.py",
           '"the subspace is not bracket-closed" if bad[2] is None',
           '"the subspace is not bracket-closed" if bad is None',
           ["tests/test_cli.py::test_reports_match_recorded_output"]),
    Mutant("cocycle_residual skips its skew check", "yangbaxter/frobenius.py",
           'raise InvalidCocycle(f"form is not skew at {bad}")',
           "pass",
           ["tests/test_frobenius.py::test_two_cocycle_rejects_bad_input"]),
    Mutant("check_parabolic_pair reads a failing triple as an open pair",
           "yangbaxter/frobenius.py",
           "closed = (bad is None or bad[2] is not None) if skew",
           "closed = (bad is None) if skew",
           ["tests/test_frobenius.py::test_check_parabolic_pair_brackets_each_pair_once"]),
    Mutant("the reciprocal skips _monic_den", RATFUN,
           "return _monic_den(self.den, self.num) ** -n",
           "return RatFun(self.den, self.num) ** -n",
           ["tests/test_ratfun.py::test_kept_reductions_match_reduction_from_scratch"]),
    Mutant("a product with a constant keeps the numerator unscaled", RATFUN,
           "return RatFun(f.num * c.num, f.den)",
           "return RatFun(f.num, f.den)",
           ["tests/test_ratfun.py::test_kept_reductions_match_reduction_from_scratch"]),
    Mutant("a power keeps the denominator", RATFUN,
           "return RatFun(self.num ** n, self.den ** n)",
           "return RatFun(self.num ** n, self.den)",
           ["tests/test_ratfun.py::test_kept_reductions_match_reduction_from_scratch"]),
    Mutant("transversality: rank >= dim W for a trivial intersection", DOUBLES,
           '"trivial_intersection": w.dim + ip.dim == rank,',
           '"trivial_intersection": rank >= w.dim,',
           ["tests/test_doubles.py::test_transversality_matches_joint_rank_on_builtin_spaces"]),
    Mutant("transversality: a span test one short", DOUBLES,
           '"spans_with_polynomials": rank == ambient_dim(table, window),',
           '"spans_with_polynomials": rank >= ambient_dim(table, window) - 1,',
           ["tests/test_doubles.py::test_transversality_matches_joint_rank_on_builtin_spaces"]),
    Mutant("quotient image drops the first nullspace vector", DOUBLES,
           "for coeffs in linalg.nullspace(off.values(), range(len(ip))):",
           "for coeffs in linalg.nullspace(off.values(), range(len(ip)))[1:]:",
           ["tests/test_doubles.py::test_quotient_image_of_polynomials"]),
    Mutant("quotient image drops the (loop, 1) constraints", DOUBLES,
           'if key[0] == "loop" and key not in keys:',
           'if key[0] == "loop" and key not in keys and key[1] != 1:',
           ["tests/test_doubles.py::test_quotient_image_of_polynomials"]),
    Mutant("transversality rank without dim W", DOUBLES,
           "rank = w.dim + linalg.echelon_of(map(w.reduce, ip.rows)).rank",
           "rank = linalg.echelon_of(map(w.reduce, ip.rows)).rank",
           ["tests/test_doubles.py::"
            "test_transversality_rank_off_w_matches_zassenhaus_on_meeting_and_short_spaces"]),
    Mutant("W_k's loop keys one degree too high", DOUBLES,
           "min(window.hi, line_shift(table, a, k)) + 1)",
           "min(window.hi, line_shift(table, a, k) + 1) + 1)",
           ["tests/test_doubles.py::test_lagrangian_rows_match_element_built_twist_space"]),
    Mutant("gauge skips the cleared-form cost bound", "yangbaxter/cli.py",
           '_bound_cleared_cost(image, f"the image of {args.builtin} under --p")',
           "pass",
           ["tests/test_cli.py::"
            "test_gauge_image_past_the_cost_bound_exits_2_fast_with_and_without_optimisation"]),
]


def _copy_src(tmp):
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _pytest(src, tests):
    """pytest's exit code on `tests` against the package in `src`, or None
    on a timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=_env(src), capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def main():
    problems = []
    for m in MUTANTS:
        count = (ROOT / "src" / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in src/{m.path}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        probe = subprocess.run([sys.executable, "-c", "import yangbaxter; print(yangbaxter.__file__)"],
                               env=_env(src), capture_output=True, text=True)
        if not probe.stdout.startswith(str(src)):
            print(f"the copy is not imported first: {probe.stdout or probe.stderr}", file=sys.stderr)
            return 1
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = _pytest(src, tests)
        if code != 0:
            print(f"named tests do not pass unmutated (pytest exit {code})", file=sys.stderr)
            return 1
    survivors = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            target = src / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            code = _pytest(src, m.tests)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{verdict}: {m.name}")
        if code != 1:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
