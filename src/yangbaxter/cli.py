"""Command-line front end: parse r-matrix documents and run the exact checks.

One forward parser reads documents, elements (pair files, fixtures,
--element) and gauge expressions (--p); ASCII, `(x)` the tensor token:

    document := 'algebra' 'sl' '(' INT ')' ';' sum(factor)
    factor   := 'Omega' | basis '(x)' basis
    element  := sum(basis)                    -- constant coefficients only
    gauge    := unip ('*' unip)*
    unip     := 'unip' '(' basis ',' INT ',' expr ')'  -- root E(i,j), constant t
    sum(F)   := term(F) (('+'|'-') term(F))*
    term(F)  := ('+'|'-')* [product '*'] F    -- repeated signs multiply
    basis    := 'e' | 'f' | 'h' | 'E' '(' INT ',' INT ')' | 'H' '(' INT ')'
    expr     := product (('+'|'-') product)*
    product  := unary (('*'|'/') unary)*      -- any name but u, v starts F
    unary    := ('+'|'-') unary | power
    power    := atom ['^' ['-'] INT]
    atom     := INT | 'u' | 'v' | '(' expr ')'

`Omega` expands through the calibrated Casimir; the aliases e/f/h are only
legal over sl(2).  Exit codes: 0 = verified, 1 = a mathematical check
failed, 2 = usage or parse error.  All rationals print exactly as p/q.

Input is bounded so that no document or argument runs without bound: the
rank N (header or --n) is at most MAX_RANK, a document or a gauge expression
at most MAX_DOCUMENT_CHARS long, with parentheses and unary signs nested
at most MAX_NESTING deep, a JSON pair file or fixture at most
MAX_JSON_CHARS long and nested no deeper than the interpreter's recursion
limit, an exponent at most MAX_EXPONENT in size, a verified document's
cleared form (d, P = d*r), and that of a `gauge --p` image before its
residual, costs at most MAX_CLEARED_COST, (3 + terms(d)) * W
with W the structure-weighted term pairs of the brackets of P in `cyb`,
the unip degrees of a gauge expression sum to at most MAX_DEGREE, a gauge
sweep checks 1..MAX_SWEEP seeded gauges, and every
coefficient operation is refused before it is computed when its unreduced
numerator or denominator would pass total degree MAX_DEGREE.  The window top
and the dual-basis order of `double --trunc` are at most MAX_TRUNC, and a
transversality tail depth lies in the window, 0..2T.  Past a bound the
command exits 2.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from collections import Counter, namedtuple
from fractions import Fraction

from .lie import DJ_CONVENTION, CalibrationError, Subspace, calibrate_casimir, casimir, make_sl
from .ratfun import RatFun
from .tensors import Tensor2, accumulate, clear_denominators, is_skew
from . import cybe, doubles, frobenius, gauge


MAX_RANK = 6
MAX_DOCUMENT_CHARS = 20_000
MAX_JSON_CHARS = 100_000
MAX_NESTING = 100
MAX_EXPONENT = 16
MAX_DEGREE = 16
MAX_TRUNC = 12
MAX_SWEEP = 100
# A bracket product counts 3: it costs about three products of weighting by d.
# On 2 shared cores under Python 3.11, the costliest admitted documents of six
# families over sl(2)-sl(6) (distinct quadratic denominators, Omega times them,
# many monomials per key) run 0.5-1.1 s of `cyb`.  Over sl(3), 9 keys
# 1/(u^2 + c*v + 1)*x(x)y with distinct c cost 1.2e7 (0.6 s); 10 cost 2.5e7.
MAX_CLEARED_COST = 12_000_000


class UsageError(Exception):
    """Bad input or arguments: maps to exit code 2."""


class ParseError(UsageError):
    def __init__(self, message, text, pos):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: {message}")


# ---------------------------------------------------------------------------
# Tokenizer and parsers

_SYMBOLS = "+-*/^(),;"


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("(x)", i):
            tokens.append(("TENSOR", "(x)", i))
            i += 3
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(("INT", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal too long", text, i) from None
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append(("SYM", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", text, i)
    return tokens


class _Parser:
    """Forward recursive-descent parser over the tokens of one text.

    Documents, elements and gauge expressions share its coefficient rules
    (`expr` down to `atom`), `basis`, and the signed sum `terms`."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _enter(self, tok):
        """One more open '(' or unary sign; past MAX_NESTING the descent
        would outgrow the interpreter's recursion limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than the bound {MAX_NESTING}", self.text, tok[2])

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def where(self):
        """Text position of the next token, or the end of the text."""
        tok = self._peek()
        return tok[2] if tok else len(self.text)

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.pos += 1
        return tok

    def accept(self, kind, value):
        tok = self._peek()
        if tok and tok[0] == kind and tok[1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, kind, value):
        if not self.accept(kind, value):
            raise ParseError(f"expected {value!r}", self.text, self.where())

    def integer(self):
        tok = self._next()
        if tok[0] != "INT":
            raise ParseError("expected an integer", self.text, tok[2])
        return tok[1]

    def end(self):
        if self._peek() is not None:
            raise ParseError("unexpected trailing tokens", self.text, self.where())

    def _sign(self):
        """+1 or -1 if the next token is '+' or '-', else None."""
        tok = self._peek()
        if tok and tok[0] == "SYM" and tok[1] in "+-":
            return 1 if tok[1] == "+" else -1
        return None

    def _starts_factor(self, i):
        """Any name but u and v starts a factor, never a coefficient."""
        return i < len(self.tokens) and self.tokens[i][0] == "NAME" and (
            self.tokens[i][1] not in ("u", "v")
        )

    def terms(self, factor):
        """Yield (coeff, factor(), pos) for each term of a signed sum, where a
        term is ('+'|'-')* [product '*'] factor and terms after the first
        start with a sign; repeated signs multiply."""
        while True:
            sign = 1
            while self._sign() is not None:
                sign *= self._sign()
                self.pos += 1
            pos = self.where()
            if self._starts_factor(self.pos):
                coeff = RatFun.from_frac(sign)
            else:
                coeff = self.product()
                if not self.accept("SYM", "*"):
                    raise ParseError(
                        "expected '*' between coefficient and factor", self.text, self.where()
                    )
                coeff = coeff if sign > 0 else -coeff
            yield coeff, factor(), pos
            if self._sign() is None:
                break
        self.end()

    def basis(self, table):
        """e | f | h | E(i,j) | H(i), as an index of table's basis."""
        tok = self._next()
        if tok[0] == "NAME" and tok[1] in ("e", "f", "h"):
            if table.n != 2:
                raise ParseError(
                    f"alias {tok[1]!r} is only defined over sl(2)", self.text, tok[2]
                )
            return table.index[tok[1]]
        if tok[0] == "NAME" and tok[1] in ("E", "H"):
            self.expect("SYM", "(")
            args = [self.integer()]
            if tok[1] == "E":
                self.expect("SYM", ",")
                args.append(self.integer())
            self.expect("SYM", ")")
            label = f"{tok[1]}({','.join(map(str, args))})"
            if label not in table.index:
                raise ParseError(f"unknown basis symbol {label}", self.text, tok[2])
            return table.index[label]
        raise ParseError("expected a basis symbol", self.text, tok[2])

    def expr(self):
        out = self.product()
        while self._sign() is not None:
            tok = self._next()
            rhs = self.product()
            _check_degree(tok[1], out, rhs, self.text, tok[2])
            out = out + rhs if tok[1] == "+" else out - rhs
        return out

    def product(self):
        out = self.unary()
        while True:
            tok = self._peek()
            if not (tok and tok[0] == "SYM" and tok[1] in "*/"):
                return out
            if tok[1] == "*" and self._starts_factor(self.pos + 1):
                return out  # the '*' between a coefficient and its factor
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

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "SYM" and tok[1] in "+-":
            self.pos += 1
            self._enter(tok)
            out = self.unary()
            self.depth -= 1
            return out if tok[1] == "+" else -out
        return self.power()

    def power(self):
        base = self.atom()
        if not self.accept("SYM", "^"):
            return base
        neg = self.accept("SYM", "-")
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

    def atom(self):
        tok = self._next()
        if tok[0] == "INT":
            return RatFun.from_frac(Fraction(tok[1]))
        if tok[0] == "NAME" and tok[1] in ("u", "v"):
            return RatFun.var(tok[1])
        if tok[0] == "SYM" and tok[1] == "(":
            self._enter(tok)
            out = self.expr()
            self.expect("SYM", ")")
            self.depth -= 1
            return out
        raise ParseError(f"unexpected token {tok[1]!r} in coefficient", self.text, tok[2])


def _check_degree(op, a, b, text, pos):
    """Refuse a op b (op in + - * /) when its unreduced numerator or
    denominator would pass total degree MAX_DEGREE."""
    an, ad = a.num.total_degree(), a.den.total_degree()
    bn, bd = b.num.total_degree(), b.den.total_degree()
    if op in "+-":
        deg = max(an + bd, bn + ad, ad + bd)
    elif op == "*":
        deg = max(an + bn, ad + bd)
    else:
        deg = max(an + bd, ad + bn)
    if deg > MAX_DEGREE:
        raise ParseError(f"coefficient degree beyond the bound {MAX_DEGREE}", text, pos)


def _sl(n):
    """make_sl(n) for a rank the commands accept, 2 <= n <= MAX_RANK."""
    if not 2 <= n <= MAX_RANK:
        raise UsageError(f"sl({n}) is not supported: N must be in 2..{MAX_RANK}")
    return make_sl(n)


class RMatrixDocument:
    """Parsed document: the algebra, the tensor, and its Casimir."""

    def __init__(self, table, omega, tensor):
        self.table = table
        self.omega = omega
        self.tensor = tensor


_OMEGA_CACHE = {}


def calibrated_omega(table):
    """The catalog Casimir: calibrated over sl(2), scale 2n in general.

    Calibration is deterministic, so the result is cached per rank."""
    if table.n not in _OMEGA_CACHE:
        if table.n == 2:
            _OMEGA_CACHE[table.n] = calibrate_casimir(table)
        else:
            _OMEGA_CACHE[table.n] = casimir(table, 2 * table.n)
    return _OMEGA_CACHE[table.n]


def _check_length(text, what):
    """Refuse a text past MAX_DOCUMENT_CHARS before it is read."""
    if len(text) > MAX_DOCUMENT_CHARS:
        raise ParseError(
            f"{what} longer than {MAX_DOCUMENT_CHARS} characters", text, MAX_DOCUMENT_CHARS
        )


def parse_rmatrix(text):
    """Parse a document to an exact tensor; raises ParseError on bad input."""
    _check_length(text, "document")
    p = _Parser(text)
    for kind, value in (("NAME", "algebra"), ("NAME", "sl"), ("SYM", "(")):
        p.expect(kind, value)
    pos = p.where()
    n = p.integer()
    if not 2 <= n <= MAX_RANK:
        raise ParseError(f"sl({n}) is not supported: N must be in 2..{MAX_RANK}", text, pos)
    p.expect("SYM", ")")
    p.expect("SYM", ";")
    table = make_sl(n)
    omega = calibrated_omega(table)
    one = RatFun.from_frac(1)

    def factor():
        if p.accept("NAME", "Omega"):
            return omega.tensor().entries
        a = p.basis(table)
        p.expect("TENSOR", "(x)")
        return {(a, p.basis(table)): one}

    entries = {}
    for coeff, fac, pos in p.terms(factor):
        for key, c in fac.items():
            c = c * coeff
            if key in entries:
                _check_degree("+", entries[key], c, text, pos)
            accumulate(entries, key, c)
    return RMatrixDocument(table, omega, Tensor2(table, entries))


def print_rmatrix(doc):
    """Canonical grammar-valid text: entrywise, no Omega token."""
    table = doc.table
    parts = []
    for (a, b) in sorted(doc.tensor.entries):
        c = doc.tensor.entries[(a, b)]
        cs = str(c)
        term = f"({cs})*{table.labels[a]}(x){table.labels[b]}"
        parts.append(term)
    body = " + ".join(parts) if parts else "0*e(x)e" if table.n == 2 else (
        "0*E(1,2)(x)E(1,2)"
    )
    return f"algebra sl({table.n}); {body}"


def parse_element(table, text):
    """Linear combination of basis symbols with constant coefficients."""
    p = _Parser(text)
    out = table.zero()
    for coeff, idx, pos in p.terms(lambda: p.basis(table)):
        if not coeff.is_const():
            raise ParseError("element coefficients must be constant rationals", text, pos)
        out = out + table.basis_element(idx).scale(coeff.const_value())
    return out


# ---------------------------------------------------------------------------
# Reports


_OK = {True: "ok", False: "FAILED"}

# The verdicts of a transversality report and of a parabolic pair check.
_TRANSVERSAL_KEYS = ("trivial_intersection", "spans_with_polynomials", "contains_tail")
_PAIR_KEYS = ("subalgebra", "spans_with_parabolic", "cocycle", "nondegenerate_on_intersection")


# One exact verdict: its JSON name, whether it holds, and the text label it
# prints under (no label: the verdict shows only in the JSON report).
Verdict = namedtuple("Verdict", "name ok label", defaults=[None])


def _emit(args, command, inputs, body, window=None, residual_terms=None, seed=None):
    """Print one report and return its exit code, 0 exactly when every
    verdict passes.  body mixes text lines and Verdicts: --json lists each
    Verdict by its name and pass, and text prints each line as it is and
    each labelled Verdict as `label: ok|FAILED` in its place."""
    verdicts = [item for item in body if isinstance(item, Verdict)]
    if getattr(args, "json", False):
        report = {
            "command": command,
            "inputs": inputs,
            "window": [window.lo, window.hi] if window is not None else None,
            "verdicts": [{"name": v.name, "pass": v.ok} for v in verdicts],
            "residual_terms": residual_terms,
            "seed": seed,
        }
        print(json.dumps(report, indent=2, default=str))
    else:
        for item in body:
            if isinstance(item, str):
                print(item)
            elif item.label is not None:
                print(f"{item.label}: {_OK[item.ok]}")
    return 0 if all(v.ok for v in verdicts) else 1


def _window(args):
    hi = args.trunc if args.trunc is not None else 4
    if not 0 <= hi <= MAX_TRUNC:
        raise UsageError(f"--trunc must be in 0..{MAX_TRUNC}")
    return doubles.Window(-2 * hi, hi)


def _load_builtin(name, n):
    table = _sl(n)
    omega = calibrated_omega(table)
    names = cybe.catalog_names(table)
    if name not in names:
        raise UsageError(
            f"unknown builtin {name!r} over sl({n}); have: {', '.join(sorted(names))}"
        )
    return table, omega, cybe.catalog_entry(table, omega, name)


def _bound_cleared_cost(r, source):
    """Refuse r before its residual when the cleared form (d, P = d*r) costs
    more than MAX_CLEARED_COST: (3 + terms(d)) * W, with W the term products
    of the brackets [P12,P13], [P12,P23] and [P13,P23] counted by structure
    entries."""
    d, p = clear_denominators(r)
    legs = (Counter(), Counter())
    for key, f in p.entries.items():
        legs[0][key[0]] += len(f.terms)
        legs[1][key[1]] += len(f.terms)
    cost = (3 + len(d.terms)) * sum(len(ks) * legs[i][x] * legs[j][y]
                                    for i, j in ((0, 0), (1, 0), (1, 1))
                                    for (x, y), ks in r.table.structure.items())
    if cost > MAX_CLEARED_COST:
        raise UsageError(f"{source}: the residual of the cleared form costs {cost}, "
                         f"beyond the bound {MAX_CLEARED_COST}")


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(args):
    if bool(args.builtin) == bool(args.input):
        raise UsageError("verify needs exactly one of --builtin or --input")
    if args.builtin:
        table, omega, r = _load_builtin(args.builtin, args.n)
        source = args.builtin
    else:
        try:
            with open(args.input) as fh:
                # One character past the bound is enough to refuse the document.
                text = fh.read(MAX_DOCUMENT_CHARS + 1)
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}")
        doc = parse_rmatrix(text)
        table, omega, r = doc.table, doc.omega, doc.tensor
        source = args.input
        _bound_cleared_cost(r, source)
    residual = cybe.cyb(r)
    qr = cybe.is_quasi_rational(r, omega)
    skew = is_skew(r)
    inputs = {"source": source, "algebra": table.n, "quasi_rational": qr, "skew": skew}
    body = [
        Verdict("cyb_zero", residual.is_zero()),
        f"matrix: {source} over sl({table.n})",
        f"cyb residual terms: {len(residual.entries)}",
        f"quasi-rational: {str(qr).lower()}",
        f"skew (unitarity): {str(skew).lower()}",
    ]
    return _emit(args, "verify", inputs, body, residual_terms=len(residual.entries))


_BUILTIN_PAIRS = {
    # (L basis labels, {(i, j): B value}) by twist index k, over sl(2)
    0: (["e", "h"], {(0, 1): 1}),
    1: (["e", "f", "h"], None),  # None -> coboundary of K(f, .)
}


def _builtin_pair(table, k):
    if table.n != 2 or k not in _BUILTIN_PAIRS:
        raise UsageError(
            f"no builtin pair for sl({table.n}), k={k}; supply --pair FILE"
        )
    labels, pairs = _BUILTIN_PAIRS[k]
    sub = Subspace(table, [table.basis_element(s) for s in labels])
    if pairs is None:
        f = table.basis_element("f")
        coc = frobenius.TwoCocycle.coboundary(sub, lambda w: f.killing(w))
    else:
        coc = frobenius.TwoCocycle.from_pairs(sub, pairs)
    return sub, coc


def _load_json_object(path, what):
    try:
        with open(path) as fh:
            # One character past the bound is enough to refuse the file.
            text = fh.read(MAX_JSON_CHARS + 1)
        if len(text) > MAX_JSON_CHARS:
            raise UsageError(f"{what} {path} is longer than {MAX_JSON_CHARS} characters")
        data = json.loads(text)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load {what} {path}: {exc}")
    except RecursionError:
        raise UsageError(f"cannot load {what} {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise UsageError(f"malformed {what} {path}: the top level must be a JSON object")
    return data


def _json_integer(value, name):
    """A JSON integer; a float, a string or a bool is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _json_rational(value):
    """A matrix entry: a JSON integer, or a string p or p/q of ASCII digits
    with q nonzero; a float, a bool, p/0 or another literal is refused."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", value):
        return Fraction(value)
    raise ValueError(f"a matrix entry must be an integer or a string p or p/q with q nonzero, "
                     f"not {value!r}")


def _pair_from_file(path):
    data = _load_json_object(path, "pair file")
    try:
        n = _json_integer(data["algebra"], "algebra")
        table = _sl(n)
        labels, rows = data["basis"], data["matrix"]
        if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
            raise ValueError("basis must be a list of strings")
        d = len(labels)
        if not (isinstance(rows, list) and len(rows) == d and all(
            isinstance(row, list) and len(row) == d for row in rows
        )):
            raise ValueError(f"matrix must be {d} lists of {d} entries each")
        basis = [parse_element(table, s) for s in labels]
        matrix = [[_json_rational(c) for c in row] for row in rows]
        k = _json_integer(data.get("k", 0), "k")
        sub = Subspace(table, basis)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed pair file {path}: {exc}")
    return table, sub, matrix, k


def cmd_double(args):
    n = args.n
    table = _sl(n)
    check = args.check

    def twist_index(k):
        if not 0 <= k <= n - 1:
            raise UsageError(f"k must be in 0..{n - 1}, got {k}")
        return k

    if check == "dualbasis":
        order = args.trunc if args.trunc is not None else 12
        if not 2 <= order <= MAX_TRUNC:
            raise UsageError(f"--trunc must be in 2..{MAX_TRUNC} for dualbasis")
        ok_pairing = doubles.dual_basis_check(table, order)
        mismatch = None
        try:
            doubles.dual_sum_projection(table, order)
            ok_sum = True
        except doubles.DualSumMismatch as exc:
            ok_sum = False
            mismatch = str(exc)
        body = [
            Verdict("dual_pairings_identity", ok_pairing,
                    f"dual-basis pairing at order {order}"),
            Verdict("dual_sum_matches_series", ok_sum, "dual-sum projection vs series"),
        ]
        if mismatch:
            body.append(mismatch)
        return _emit(args, "double", {"check": check, "algebra": n, "order": order}, body)

    window = _window(args)
    if check == "lagrangian":
        # An explicit --k wins over the pair file's k, as in frobenius --check-pair.
        if args.pair:
            table, sub, matrix, k = _pair_from_file(args.pair)
            if table.n != n:
                raise UsageError("pair file algebra differs from --n")
            k = twist_index(args.k if args.k is not None else k)
            form = lambda i, j: matrix[i][j]
        else:
            k = twist_index(args.k if args.k is not None else 0)
            sub, coc = _builtin_pair(table, k)
            form = lambda i, j: coc.matrix[i][j]
        w = doubles.lagrangian_from_pair(
            table, k, sub.elements, form, window
        )
        body = [
            f"pair Lagrangian (k={k}) at window [{window.lo}, {window.hi}]: dim {w.dim}",
            Verdict("lagrangian_at_window", doubles.is_lagrangian_truncated(w, window),
                    "isotropic and maximal"),
            Verdict("bracket_closed", doubles.is_subalgebra(w), "closed under the bracket"),
        ]
        inputs = {"check": check, "algebra": n, "k": k, "dim": w.dim}
        return _emit(args, "double", inputs, body, window=window)

    if check == "wk":
        k = twist_index(args.k if args.k is not None else 0)
        wk = doubles.diagonal_twist_space(table, k, window)
        body = [
            f"twist space k={k} at window [{window.lo}, {window.hi}]: dim {wk.dim}",
            Verdict("bracket_closed", doubles.is_subalgebra(wk), "closed under the bracket"),
        ]
        inputs = {"check": check, "algebra": n, "k": k, "dim": wk.dim}
        return _emit(args, "double", inputs, body, window=window)

    if check == "complement":
        ks = [twist_index(args.k)] if args.k is not None else list(range(n))
        body = []
        for k in ks:
            wk = doubles.diagonal_twist_space(table, k, window)
            comp = doubles.orth_complement_truncated(wk, window)
            eq = comp.equals(doubles.loop_part(wk))
            body += [
                Verdict(f"complement_is_loop_part_k{k}", eq),
                Verdict(
                    f"quotient_dim_k{k}", wk.dim - comp.dim == 2 * table.dim,
                    f"k={k}: complement = loop part: {_OK[eq]}; "
                    f"quotient dim {wk.dim - comp.dim} (expected {2 * table.dim})",
                ),
            ]
        inputs = {"check": check, "algebra": n, "k_values": ks}
        return _emit(args, "double", inputs, body, window=window)

    if check == "quotient":
        k = args.k
        if k is None or not (1 <= k <= n - 1):
            raise UsageError(f"--k must be in 1..{n - 1} for quotient, got {k}")
        try:
            image = doubles.quotient_image_of_polynomials(table, k, window)
            body = [Verdict("image_is_parabolic_plus_eps_complement", True),
                    f"image dim {len(image)}:"] + [f"  {el}" for el in image]
        except doubles.QuotientMismatch as exc:
            body = [Verdict("image_is_parabolic_plus_eps_complement", False), str(exc)]
        inputs = {"check": check, "algebra": n, "k": k}
        return _emit(args, "double", inputs, body, window=window)

    if check == "transversal":
        if not 0 <= args.tail <= -window.lo:
            raise UsageError(
                f"--tail must be in 0..{-window.lo} for the window [{window.lo}, {window.hi}]"
            )
        if args.fixture:
            w = _subspace_from_file(table, args.fixture, window)
            source = args.fixture
        else:
            name = args.subspace or "pstar"
            if name == "pstar":
                w = doubles.standard_complement(table, window)
            elif name == "embedded-p":
                w = doubles.embedded_polynomials(table, window)
            else:
                raise UsageError(f"unknown --subspace {name!r}")
            source = name
        rep = doubles.check_transversality(w, window, tail_depth=args.tail)
        body = [
            f"subspace {source} at window [{window.lo}, {window.hi}], "
            f"tail depth {rep['tail_depth']}:"
        ] + [Verdict(key, rep[key], f"  {key}") for key in _TRANSVERSAL_KEYS]
        inputs = {"check": check, "algebra": n, "subspace": source}
        return _emit(args, "double", inputs, body, window=window)

    raise UsageError(f"unknown --check {check!r}")


def _subspace_from_file(table, path, window):
    from .lie import GPoly

    def element(text):
        if not isinstance(text, str):
            raise ValueError(f"element {text!r} is not a string")
        return parse_element(table, text)

    def degree(key):
        # One spelling per integer, so that no two keys name one degree.
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ValueError(f"loop key {key!r} is not an integer in canonical form")
        return int(key)

    data = _load_json_object(path, "fixture")
    els = []
    try:
        for entry in data["elements"]:
            loop = entry.get("loop", {}) if isinstance(entry, dict) else None
            if not isinstance(loop, dict):
                raise ValueError(f"element {entry!r} must be an object, and its loop an object")
            loop = GPoly(table, {degree(deg): element(x) for deg, x in loop.items()})
            a0 = element(entry["a0"]) if "a0" in entry else table.zero()
            a1 = element(entry["a1"]) if "a1" in entry else table.zero()
            els.append(doubles.DoubleElement.of(table, loop, a0, a1))
        # DependentElement and WindowOverflow are ValueErrors too
        return doubles.DoubleSubspace.of(table, window, els)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed fixture {path}: {exc}")


def cmd_cobracket(args):
    from .lie import GPoly

    spec = args.element
    if ":" not in spec:
        raise UsageError("--element must look like 'e:u^3'")
    elem_text, mono = spec.split(":", 1)
    mono = mono.strip()
    try:
        deg = int(mono[2:]) if mono.startswith("u^") else -1
    except ValueError:
        deg = -1
    if not 0 <= deg <= MAX_DEGREE:
        raise UsageError(f"bad monomial {mono!r}; expected u^D with 0 <= D <= {MAX_DEGREE}")
    table, omega, gamma = _load_builtin(args.gamma, args.n)
    x = parse_element(table, elem_text)
    p = GPoly.monomial(x, deg)
    inputs = {"gamma": args.gamma, "algebra": table.n, "element": spec}
    try:
        delta = cybe.cobracket(gamma, p)
    except cybe.PoleCancellationError as exc:
        body = [Verdict("polynomial_cobracket", False), f"pole does not cancel: {exc}"]
        return _emit(args, "cobracket", inputs, body)
    inputs["terms"] = len(delta.entries)
    body = [Verdict("polynomial_cobracket", True),
            f"cobracket of {spec} under {args.gamma}:", f"  {delta}"]
    return _emit(args, "cobracket", inputs, body)


def cmd_calibrate(args):
    table = make_sl(2)
    try:
        omega = calibrate_casimir(table)
    except CalibrationError as exc:  # carries the residual table
        body = [Verdict("unique_scale", False), str(exc)]
        return _emit(args, "calibrate", {"algebra": 2}, body)
    cat = cybe.catalog(table, omega)
    body = [
        Verdict("unique_scale", True),
        f"Casimir scale: {omega.scale}",
        f"constant r-matrix convention: sign {DJ_CONVENTION['sign']}, "
        f"orientation {DJ_CONVENTION['orientation']}",
        Verdict("catalog_validates", all(cybe.cyb(m).is_zero() for m in cat.values()),
                "catalog residuals all zero"),
    ]
    inputs = {"algebra": 2, "scale": str(omega.scale), "constant_part": DJ_CONVENTION}
    return _emit(args, "calibrate", inputs, body)


def _parse_gauge_expr(table, text):
    """unip(root,deg,t) ('*' unip(...))*, read in full and bounded in length
    and total degree before any matrix is built."""
    _check_length(text, "gauge expression")
    p = _Parser(text)
    factors = []
    total = 0
    while not factors or p.accept("SYM", "*"):
        p.expect("NAME", "unip")
        p.expect("SYM", "(")
        pos = p.where()
        root = table.labels[p.basis(table)]
        if not root.startswith("E("):
            raise ParseError(f"unip() needs a root vector E(i,j), not {root}", text, pos)
        p.expect("SYM", ",")
        pos = p.where()
        deg = p.integer()
        total += deg
        if total > MAX_DEGREE:
            raise ParseError(f"gauge degree beyond the bound {MAX_DEGREE}", text, pos)
        p.expect("SYM", ",")
        pos = p.where()
        t = p.expr()
        if not t.is_const():
            raise ParseError("unip() t must be a constant rational", text, pos)
        p.expect("SYM", ")")
        factors.append((root, deg, t.const_value()))
    p.end()
    out = gauge.PolyGroupElement.identity(table)
    for root, deg, t in factors:
        out = out * gauge.PolyGroupElement.unip(table, root, deg, t)
    return out


def cmd_gauge(args):
    if (args.p is None) == (args.sweep is None):
        raise UsageError("gauge needs exactly one of --p EXPR or --sweep N")
    if args.sweep is not None and not 1 <= args.sweep <= MAX_SWEEP:
        raise UsageError(f"--sweep must be in 1..{MAX_SWEEP}, got {args.sweep}")
    table, omega, r = _load_builtin(args.builtin, args.n)
    p = None if args.sweep else _parse_gauge_expr(table, args.p)
    was_solution = cybe.cyb(r).is_zero()
    was_qr = cybe.is_quasi_rational(r, omega)
    if args.sweep:
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        oks = []
        for _ in range(args.sweep):
            p = gauge.random_unipotent(table, rng)
            image = gauge.gauge_transform(p, r, check=False)
            # is_quasi_rational already requires a zero residual.
            oks.append(
                cybe.is_quasi_rational(image, omega) if was_qr
                else cybe.cyb(image).is_zero()
            )
        body = [
            Verdict("sweep_preserves_solutions", all(oks)),
            f"sweep of {args.sweep} seeded gauges on {args.builtin} (seed {seed}):",
        ] + [f"  gauge {idx}: {_OK[ok]}" for idx, ok in enumerate(oks)]
        inputs = {"builtin": args.builtin, "algebra": table.n, "sweep": args.sweep}
        return _emit(args, "gauge", inputs, body, seed=seed)
    image = gauge.gauge_transform(p, r, check=False)
    _bound_cleared_cost(image, f"the image of {args.builtin} under --p")
    now_solution = cybe.cyb(image).is_zero()
    now_qr = cybe.is_quasi_rational(image, omega)
    body = [
        f"gauge {args.p} on {args.builtin}:",
        # Every builtin is a solution, so this verdict is now_solution.
        Verdict("cyb_preserved", (not was_solution) or now_solution,
                "  still a Yang-Baxter solution"),
        Verdict("quasi_rationality_preserved", (not was_qr) or now_qr),
        f"  still quasi-rational: {str(now_qr).lower()} (input: {str(was_qr).lower()})",
    ]
    inputs = {"builtin": args.builtin, "algebra": table.n, "p": args.p}
    return _emit(args, "gauge", inputs, body, residual_terms=0 if now_solution else None)


def cmd_frobenius(args):
    n = args.n
    table = _sl(n)
    if args.check_pair:
        if args.pair:
            table, sub, matrix, k = _pair_from_file(args.pair)
            if args.k is not None:
                k = args.k
        else:
            k = args.k if args.k is not None else 1
            if table.n != 2:
                raise UsageError("builtin pair check needs sl(2) or --pair FILE")
            sub, coc = _builtin_pair(table, 1)
            matrix = coc.matrix
        if not (1 <= k <= table.n - 1):
            raise UsageError(f"--k must be in 1..{table.n - 1}, got {k}")
        rep = frobenius.check_parabolic_pair(table, sub, matrix, k)
        body = [f"pair conditions against parabolic k={k}:"] + [
            Verdict(key, rep[key], f"  {key}") for key in _PAIR_KEYS
        ]
        inputs = {"mode": "check-pair", "algebra": table.n, "k": k,
                  "intersection_dim": rep["intersection_dim"]}
        return _emit(args, "frobenius", inputs, body)

    if args.pair:
        table, sub, matrix, _ = _pair_from_file(args.pair)
        try:
            coc = frobenius.TwoCocycle(sub, matrix)
        except frobenius.InvalidCocycle as exc:
            body = [Verdict("valid_cocycle", False), f"pair rejected: {exc}"]
            return _emit(args, "frobenius", {"mode": "lift", "pair": args.pair}, body)
        source = args.pair
    else:
        if args.builtin not in ("q0", "q1"):
            raise UsageError("builtin lifts: q0 (empty pair) or q1 (span{e,h})")
        if table.n != 2:
            raise UsageError("builtin pairs are defined over sl(2)")
        if args.builtin == "q0":
            sub = Subspace(table, [])
            coc = frobenius.TwoCocycle(sub, [])
        else:
            sub, coc = _builtin_pair(table, 0)
        source = args.builtin
    omega = calibrated_omega(table)
    expect = None if args.pair else cybe.catalog_entry(table, omega, args.builtin)
    # The lift checks its own quasi-rationality: LiftError is that verdict
    # failing, any other ValueError a degenerate form.
    try:
        lifted = frobenius.quasi_rational_lift(coc, omega)
    except frobenius.LiftError as exc:
        body = [Verdict("lift_quasi_rational", False), f"lift of pair {source}: {exc}"]
        return _emit(args, "frobenius", {"mode": "lift", "pair": source}, body)
    except ValueError as exc:
        body = [Verdict("nondegenerate", False), str(exc)]
        return _emit(args, "frobenius", {"mode": "lift", "pair": source}, body)
    body = [Verdict("lift_quasi_rational", True, f"lift of pair {source}: quasi-rational")]
    if expect is not None:
        body.append(Verdict("matches_catalog", lifted == expect,
                            f"matches catalog {args.builtin}"))
    inputs = {"mode": "lift", "pair": source, "algebra": table.n}
    return _emit(args, "frobenius", inputs, body)


# ---------------------------------------------------------------------------
# Entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Exact verification of classical Yang-Baxter structures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=2, help="rank of sl(n) (default 2)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="Yang-Baxter residual of a matrix")
    common(p)
    p.add_argument("--builtin", help="catalog name (gamma1..gamma4, q0..q2, ...)")
    p.add_argument("--input", help="document file to parse")

    p = sub.add_parser("double", help="double/Lagrangian/duality checks")
    common(p)
    p.add_argument(
        "--check",
        required=True,
        choices=[
            "lagrangian",
            "dualbasis",
            "wk",
            "complement",
            "quotient",
            "transversal",
        ],
    )
    p.add_argument("--k", type=int, help="twist/parabolic index")
    p.add_argument("--trunc", type=int, help="window top (window is [-2T, T]) or order")
    p.add_argument("--tail", type=int, default=1, help="tail depth for transversal")
    p.add_argument("--subspace", help="builtin subspace: pstar | embedded-p")
    p.add_argument("--fixture", help="subspace fixture file (JSON)")
    p.add_argument("--pair", help="pair file (JSON) for --check lagrangian")

    p = sub.add_parser("cobracket", help="co-bracket of a monomial element")
    common(p)
    p.add_argument("--gamma", required=True, help="kernel name (gamma1..gamma4, ...)")
    p.add_argument("--element", required=True, help="element spec, e.g. 'e:u^3'")

    p = sub.add_parser("calibrate", help="fix the Casimir scale and conventions")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gauge", help="gauge-transform a builtin matrix")
    common(p)
    p.add_argument("--builtin", default="q0")
    p.add_argument("--p", help="gauge element: unip(root,deg,t)[*unip(...)...]")
    p.add_argument("--sweep", type=int, help="number of seeded random gauges")
    p.add_argument("--seed", type=int, help="seed for --sweep")

    p = sub.add_parser("frobenius", help="pair checks and quasi-rational lifts")
    common(p)
    p.add_argument("--builtin", default="q1", help="builtin lift: q0 | q1")
    p.add_argument("--check-pair", action="store_true", dest="check_pair")
    p.add_argument("--k", type=int, help="parabolic index for --check-pair")
    p.add_argument("--pair", help="pair file (JSON)")

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "double": cmd_double,
    "cobracket": cmd_cobracket,
    "calibrate": cmd_calibrate,
    "gauge": cmd_gauge,
    "frobenius": cmd_frobenius,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
