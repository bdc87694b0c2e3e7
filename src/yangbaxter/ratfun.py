"""Exact multivariate rational-function arithmetic over the rationals.

Polynomials are sparse tables from exponent vectors to Fraction
coefficients, kept in a canonical form, so equality (in particular
equality to zero) is a structural check.  Rational functions are fully
reduced num/den pairs whose denominator is normalized to leading
coefficient 1 under graded-lexicographic order; equal values therefore
have identical representations.

Reduction splits a denominator into powers of variables, variable
differences x - y and a remaining core.  The linear factors are divided
out on the exponent tables directly: a power by an exponent shift, a
difference by synthetic division.  Only the non-linear core meets the
general gcd.

The global variable order is u, v, u1, u2, u3 first, then any other
names alphabetically.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_GLOBAL_VARS = {"u": 0, "v": 1, "u1": 2, "u2": 3, "u3": 4}


def _var_key(name):
    """Sort key realizing the global variable order."""
    return (_GLOBAL_VARS.get(name, len(_GLOBAL_VARS)), name)


def _merge_vars(a, b):
    """Merge two sorted variable tuples into one sorted tuple."""
    if a == b:
        return a
    out = list(a)
    for name in b:
        if name not in out:
            out.append(name)
    out.sort(key=_var_key)
    return tuple(out)


def _embed_terms(terms, oldvars, newvars):
    """Re-key exponent tuples from oldvars positions to newvars positions."""
    if oldvars == newvars:
        return dict(terms)
    pos = [newvars.index(name) for name in oldvars]
    width = len(newvars)
    out = {}
    for exps, c in terms.items():
        e = [0] * width
        for i, x in enumerate(exps):
            e[pos[i]] = x
        out[tuple(e)] = c
    return out


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    `vars` lists exactly the variables that occur, sorted by the global
    order; `terms` maps exponent tuples (aligned with `vars`) to nonzero
    coefficients.  Instances are immutable and always canonical.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        # raw constructor; use make/const/var to stay canonical
        self.vars = vars
        self.terms = terms

    @staticmethod
    def make(vars, terms):
        """Canonicalize: drop zero coefficients and unused variables."""
        terms = {e: c for e, c in terms.items() if c != 0}
        if not terms:
            return _P_ZERO
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        return Poly(vars, terms)

    @staticmethod
    def const(c):
        c = Fraction(c)
        if c == 0:
            return _P_ZERO
        return Poly((), {(): c})

    @staticmethod
    def var(name, exp=1):
        assert isinstance(name, str) and exp >= 0, (name, exp)
        if exp == 0:
            return Poly.const(1)
        return Poly((name,), {(exp,): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.vars

    def const_value(self):
        assert self.is_const(), self
        return self.terms.get((), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if self.vars == other.vars:
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, Fraction(0)) + c
            return Poly.make(self.vars, terms)
        vars = _merge_vars(self.vars, other.vars)
        terms = _embed_terms(self.terms, self.vars, vars)
        for e, c in _embed_terms(other.terms, other.vars, vars).items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly.make(vars, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return _P_ZERO
            return Poly(self.vars, {e: k * c for e, k in self.terms.items()})
        if self.is_zero() or other.is_zero():
            return _P_ZERO
        vars = _merge_vars(self.vars, other.vars)
        a = _embed_terms(self.terms, self.vars, vars)
        b = _embed_terms(other.terms, other.vars, vars)
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
        return Poly.make(vars, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0, n
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def leading(self):
        """(exponent-tuple key, coefficient) of the graded-lex leading term."""
        assert not self.is_zero(), "zero polynomial has no leading term"
        key = max(self.terms, key=lambda e: (sum(e), e))
        return key, self.terms[key]

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms) if self.terms else 0

    def as_univariate(self, name):
        """Write the poly as {deg in name: Poly in the remaining vars}."""
        if name not in self.vars:
            return {0: self} if not self.is_zero() else {}
        i = self.vars.index(name)
        rest = tuple(n for n in self.vars if n != name)
        buckets = {}
        for e, c in self.terms.items():
            d = e[i]
            re = tuple(x for j, x in enumerate(e) if j != i)
            buckets.setdefault(d, {})[re] = c
        return {d: Poly.make(rest, t) for d, t in buckets.items()}

    @staticmethod
    def from_univariate(name, coeffs):
        """Inverse of as_univariate."""
        out = _P_ZERO
        for d, p in coeffs.items():
            out = out + p * Poly.var(name, d)
        return out

    def rename(self, mapping):
        """Rename variables (injective on this poly's variables)."""
        newnames = tuple(mapping.get(n, n) for n in self.vars)
        assert len(set(newnames)) == len(newnames), (self.vars, mapping)
        order = sorted(range(len(newnames)), key=lambda i: _var_key(newnames[i]))
        vars = tuple(newnames[i] for i in order)
        terms = {tuple(e[i] for i in order): c for e, c in self.terms.items()}
        return Poly(vars, terms)

    def __str__(self):
        if self.is_zero():
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        chunks = []
        for e in keys:
            c = self.terms[e]
            mono = "*".join(
                n if x == 1 else f"{n}^{x}"
                for n, x in zip(self.vars, e)
                if x
            )
            if not mono:
                body = _frac_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_frac_str(abs(c))}*{mono}"
            chunks.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(chunks)
        if s.startswith("+ "):
            s = s[2:]
        elif s.startswith("- "):
            s = "-" + s[2:]
        return s

    def __repr__(self):
        return f"Poly({self})"


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


_P_ZERO = Poly((), {})
P_ONE = Poly.const(1)


def _poly_divexact(p, d):
    """Exact polynomial division p / d; ArithmeticError if it is not exact."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if d.is_const():
        inv = 1 / d.const_value()
        return p * inv
    if p.is_zero():
        return _P_ZERO
    name = d.vars[0]
    dcoe = d.as_univariate(name)
    dd = max(dcoe)
    dlead = dcoe[dd]
    q = {}
    rem = p
    while not rem.is_zero():
        rcoe = rem.as_univariate(name)
        rd = max(rcoe)
        if rd < dd:
            raise ArithmeticError(f"{d} does not divide {p}")
        t = _poly_divexact(rcoe[rd], dlead)
        q[rd - dd] = q.get(rd - dd, _P_ZERO) + t
        sub = Poly.from_univariate(name, {rd - dd: t}) * d
        rem = rem - sub
    return Poly.from_univariate(name, q)


def _gcd_list(polys):
    g = _P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            return P_ONE
    return g


def _pseudo_rem(a, b, name):
    """Pseudo-remainder of a by b, both univariate in `name` with Poly coeffs."""
    acoe = a.as_univariate(name)
    bcoe = b.as_univariate(name)
    db = max(bcoe)
    lb = bcoe[db]
    rem = a
    while not rem.is_zero():
        rcoe = rem.as_univariate(name)
        dr = max(rcoe)
        if dr < db:
            break
        # rem <- lb*rem - lead(rem)*x^(dr-db)*b
        rem = lb * rem - Poly.from_univariate(name, {dr - db: rcoe[dr]}) * b
    return rem


def poly_gcd(p, q):
    """Monic gcd (graded-lex leading coefficient 1); gcd(0,0) = 0.

    Content-and-primitive-part recursion on the top variable: adequate
    for the small products of linear forms this package produces.  Each
    remainder's primitive part is made monic, which keeps its rational
    coefficients from swelling along the sequence.
    """
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_const() or q.is_const():
        return P_ONE
    vars = _merge_vars(p.vars, q.vars)
    name = vars[0]
    pc = p.as_univariate(name)
    qc = q.as_univariate(name)
    if max(pc) == 0 or max(qc) == 0:
        # one of them does not involve the top variable
        cont_p = _gcd_list(pc.values())
        cont_q = _gcd_list(qc.values())
        return _monic(poly_gcd(cont_p, cont_q))
    cont_p = _gcd_list(pc.values())
    cont_q = _gcd_list(qc.values())
    cont = poly_gcd(cont_p, cont_q)
    a = _poly_divexact(p, cont_p)
    b = _poly_divexact(q, cont_q)
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, name)
        if r.is_zero():
            a, b = b, r
            break
        rc = _gcd_list(r.as_univariate(name).values())
        a, b = b, _monic(_poly_divexact(r, rc))
    return _monic(cont * a)


def _monic(p):
    if p.is_zero():
        return p
    _, lc = p.leading()
    if lc == 1:
        return p
    return p * (1 / lc)


def _min_exps(p):
    """Smallest exponent of each of p's variables over its monomials."""
    return [min(col) for col in zip(*p.terms)]


def _divide_monomial(p, powers):
    """p divided by the monomial prod(x^powers[x]): an exponent shift."""
    shift = tuple(powers.get(x, 0) for x in p.vars)
    if not any(shift):
        return p
    terms = {tuple(a - b for a, b in zip(e, shift)): c for e, c in p.terms.items()}
    return Poly.make(p.vars, terms)


def _vanishes_on_diagonal(p, x, y):
    """Does x - y divide p, i.e. does p vanish at x = y?

    One pass: each term's exponent of x moves onto y, and every folded
    coefficient must sum to zero.  A nonzero p that lacks x or y does not
    vanish there.
    """
    if x not in p.vars or y not in p.vars:
        return p.is_zero()
    i, j = p.vars.index(x), p.vars.index(y)
    folded = {}
    for e, c in p.terms.items():
        f = list(e)
        f[j] += f[i]
        f[i] = 0
        f = tuple(f)
        folded[f] = folded.get(f, 0) + c
    return not any(folded.values())


def _divide_difference(p, x, y):
    """Exact quotient p / (x - y) by synthetic (Ruffini) division in x.

    From x's top degree down, each term c*x^k*m gives c*x^(k-1)*m to the
    quotient and adds c*x^(k-1)*y*m back to the dividend.  Whatever is
    left at x^0 is the remainder; a nonzero one raises ArithmeticError.
    """
    if p.is_zero():
        return p
    if x not in p.vars or y not in p.vars:
        raise ArithmeticError(f"{x} - {y} does not divide {p}")
    i, j = p.vars.index(x), p.vars.index(y)
    rows = {}
    for e, c in p.terms.items():
        rows.setdefault(e[i], {})[e] = c
    quotient = {}
    for k in range(max(rows), 0, -1):
        lower = rows.setdefault(k - 1, {})
        for e, c in rows.pop(k, {}).items():
            if c:
                f = list(e)
                f[i] -= 1
                quotient[tuple(f)] = c
                f[j] += 1
                f = tuple(f)
                lower[f] = lower.get(f, 0) + c
    if any(rows[0].values()):
        raise ArithmeticError(f"{x} - {y} does not divide {p}")
    return Poly.make(p.vars, quotient)


def _reduce_fraction(num, den):
    """Cancel common factors of num/den without coefficient swell.

    The denominator is split into single-variable powers, variable
    differences, and a residual core.  A power x^m leaves by an exponent
    shift; a difference x - y is found by folding x's exponent onto y and
    leaves by synthetic division in x.  Only the core ever meets the
    general pseudo-remainder gcd; in this package the denominators that
    arise internally are products of variables and variable differences,
    so the core is constant and the reduction never calls `poly_gcd`.
    """
    powers = {x: m for x, m in zip(den.vars, _min_exps(den)) if m}
    den = _divide_monomial(den, powers)
    differences = []
    dvars = den.vars
    for i in range(len(dvars)):
        for j in range(i + 1, len(dvars)):
            x, y = dvars[i], dvars[j]
            m = 0
            while not den.is_const() and _vanishes_on_diagonal(den, x, y):
                den = _divide_difference(den, x, y)
                m += 1
            if m:
                differences.append((x, y, m))
    if not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = _poly_divexact(num, g)
            den = _poly_divexact(den, g)
    shared = {x: min(powers[x], e) for x, e in zip(num.vars, _min_exps(num)) if x in powers}
    num = _divide_monomial(num, shared)
    rest = {x: m - shared.get(x, 0) for x, m in powers.items() if m > shared.get(x, 0)}
    if rest:
        den = den * Poly(tuple(rest), {tuple(rest.values()): Fraction(1)})
    for x, y, m in differences:
        while m and _vanishes_on_diagonal(num, x, y):
            num = _divide_difference(num, x, y)
            m -= 1
        if m:
            den = den * (Poly.var(x) - Poly.var(y)) ** m
    return num, den


class RatFun:
    """Reduced rational function num/den in canonical form.

    Invariants: den != 0; gcd(num, den) = 1; the graded-lex leading
    coefficient of den is 1.  Immutable; all operations are pure.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # raw constructor; use RatFun.of for reduction
        self.num = num
        self.den = den

    @staticmethod
    def of(num, den):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RF_ZERO
        if den.is_const():
            c = den.const_value()
            if c == 1:
                return RatFun(num, P_ONE)
            return RatFun(num * (1 / c), P_ONE)
        num, den = _reduce_fraction(num, den)
        if den.is_const():
            return RatFun.of(num, den)
        _, lc = den.leading()
        if lc != 1:
            inv = 1 / lc
            num = num * inv
            den = den * inv
        return RatFun(num, den)

    @staticmethod
    def from_poly(p):
        if p.is_zero():
            return RF_ZERO
        return RatFun(p, P_ONE)

    @staticmethod
    def from_frac(c):
        return RatFun.from_poly(Poly.const(c))

    @staticmethod
    def var(name):
        return RatFun.from_poly(Poly.var(name))

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        """True iff the reduced denominator is constant (hence 1)."""
        return self.den.is_const()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        assert self.is_const(), self
        return self.num.const_value()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.from_frac(Fraction(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.from_frac(Fraction(other))
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            if self.den.is_const():
                return RatFun.from_poly(self.num + other.num)
            return RatFun.of(self.num + other.num, self.den)
        return RatFun.of(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.from_frac(Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return RF_ZERO
            return RatFun(self.num * c, self.den)
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        if self.den.is_const() and other.den.is_const():
            return RatFun.from_poly(self.num * other.num)
        # cross-reduce before multiplying to keep intermediates small
        a, d2 = _cross(self.num, other.den)
        b, d1 = _cross(other.num, self.den)
        return RatFun.of(a * b, d1 * d2)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return RatFun(self.num * (1 / c), self.den)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFun.of(other.den, other.num)

    def __pow__(self, n):
        assert isinstance(n, int), n
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFun.of(self.den, self.num) ** (-n)
        return RatFun.of(self.num ** n, self.den ** n) if n != 1 else self

    def rename(self, mapping):
        """Cheap variable renaming (no arithmetic)."""
        num = self.num.rename(mapping)
        den = self.den.rename(mapping)
        # renaming can change which term is leading; re-normalize
        if den.is_const():
            return RatFun.of(num, den)
        _, lc = den.leading()
        if lc != 1:
            inv = 1 / lc
            num, den = num * inv, den * inv
        return RatFun(num, den)

    def __str__(self):
        if self.den.is_const():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _cross(num, den):
    """Divide a common factor out of an unrelated num/den pair."""
    if den.is_const() or num.is_zero():
        return num, den
    g = poly_gcd(num, den)
    if g.is_const():
        return num, den
    return _poly_divexact(num, g), _poly_divexact(den, g)


RF_ZERO = RatFun(_P_ZERO, P_ONE)
RF_ONE = RatFun(P_ONE, P_ONE)


class LaurentPoly:
    """Laurent polynomial in one distinguished variable.

    `coeffs` maps integer exponents of `var` to nonzero RatFun
    coefficients in the remaining variables.  `floor`, when not None,
    records the truncation level: exponents below `floor` have been
    dropped by construction.
    """

    __slots__ = ("var", "coeffs", "floor")

    def __init__(self, var, coeffs, floor=None):
        self.var = var
        self.coeffs = {
            k: (v if isinstance(v, RatFun) else RatFun.from_frac(Fraction(v)))
            for k, v in coeffs.items()
        }
        self.coeffs = {k: v for k, v in self.coeffs.items() if not v.is_zero()}
        self.floor = floor

    def coeff(self, k):
        return self.coeffs.get(k, RF_ZERO)

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __add__(self, other):
        assert isinstance(other, LaurentPoly) and other.var == self.var
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, RF_ZERO) + v
        floors = [f for f in (self.floor, other.floor) if f is not None]
        floor = max(floors) if floors else None
        if floor is not None:
            coeffs = {k: v for k, v in coeffs.items() if k >= floor}
        return LaurentPoly(self.var, coeffs, floor)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                parts.append(f"({v})")
            else:
                parts.append(f"({v})*{self.var}^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def expand_at_infinity(a, var, order):
    """Laurent expansion of `a` in descending powers of `var`.

    Returns the truncation keeping all terms with var-exponent >= -order,
    as a LaurentPoly with floor -order.  Exact: coefficients are RatFuns
    in the remaining variables.
    """
    assert isinstance(a, RatFun), a
    assert order >= 0, order
    num_by = a.num.as_univariate(var)
    den_by = a.den.as_univariate(var)
    if not num_by:
        return LaurentPoly(var, {}, floor=-order)
    dd = max(den_by)
    lead = den_by[dd]
    if len(den_by) == 1:
        # denominator is lead * var^dd: direct division
        coeffs = {}
        for i, p in num_by.items():
            k = i - dd
            if k >= -order:
                coeffs[k] = RatFun.from_poly(p) / RatFun.from_poly(lead)
        return LaurentPoly(var, coeffs, floor=-order)
    # reciprocal series: 1/den = var^-dd * (1/lead) * sum c_t var^-t
    nmax = max(num_by)
    tmax = nmax - dd + order
    if tmax < 0:
        return LaurentPoly(var, {}, floor=-order)
    beta = {}
    lead_rf = RatFun.from_poly(lead)
    for s in range(1, tmax + 1):
        b = den_by.get(dd - s)
        if b is not None and dd - s >= 0:
            beta[s] = RatFun.from_poly(b) / lead_rf
    c = {0: RF_ONE}
    for t in range(1, tmax + 1):
        acc = RF_ZERO
        for s, bs in beta.items():
            if s <= t:
                acc = acc + bs * c[t - s]
        c[t] = -acc
    coeffs = {}
    for i, p in num_by.items():
        prf = RatFun.from_poly(p) / lead_rf
        for t in range(0, i - dd + order + 1):
            k = i - dd - t
            coeffs[k] = coeffs.get(k, RF_ZERO) + prf * c[t]
    coeffs = {k: v for k, v in coeffs.items() if k >= -order}
    return LaurentPoly(var, coeffs, floor=-order)
