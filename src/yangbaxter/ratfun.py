"""Exact multivariate rational-function arithmetic over the rationals.

Polynomials live in Q[u, v, u1, u2, u3], the only variables the package
uses.  A monomial is one packed int with a fixed-width exponent field per
variable, u highest, so integer order is lexicographic order, a monomial
product is one addition and a division by a monomial one subtraction
(Monagan & Pearce, CASC 2007).  An exponent that reaches the top (guard)
bit of its field raises ExponentOverflow; it never carries into the next.
Coefficients are ints where integral and Fractions otherwise, and zero
terms are dropped, so equality is a structural check.  Rational functions
are fully reduced num/den pairs whose denominator has graded-lex leading
coefficient 1; equal values therefore have identical representations.

Only a sum, and a product of two non-constant factors with a denominator
between them, reduce: there a common factor can appear.  A product with a
constant, a reciprocal and a power keep the reduced form by theorem, with
no gcd (Geddes, Czapor & Labahn 1992): a nonzero constant leaves
gcd(num, den) unchanged, den/num of a coprime pair is coprime and needs
only the monic scaling, and gcd(a^n, b^n) = 1 when gcd(a, b) = 1, by
unique factorisation, with lc(b^n) = lc(b)^n = 1 in a monomial order.

Reduction splits a denominator into a monomial, variable differences x - y
and a remaining core.  The monomial leaves by a subtraction, a difference
by synthetic division; only the core meets the general gcd.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

_NAMES = ("u", "v", "u1", "u2", "u3")
_WIDTH = 12
_SHIFT = {name: _WIDTH * i for i, name in enumerate(reversed(_NAMES))}
_FIELD = (1 << _WIDTH) - 1
_GUARD = sum(1 << (s + _WIDTH - 1) for s in _SHIFT.values())
MAX_POLY_EXPONENT = (1 << (_WIDTH - 1)) - 1


class ExponentOverflow(OverflowError):
    """An exponent passed MAX_POLY_EXPONENT, the width of its packed field."""


def _shift(name):
    if name not in _SHIFT:
        raise ValueError(f"unknown variable {name!r}; the variables are {', '.join(_NAMES)}")
    return _SHIFT[name]


def _monomial(name, exp):
    """The packed monomial name^exp."""
    if exp < 0:
        raise ValueError(f"negative exponent {name}^{exp}")
    if exp > MAX_POLY_EXPONENT:
        raise ExponentOverflow(f"exponent {name}^{exp} passes {MAX_POLY_EXPONENT}")
    return exp << _shift(name)


def _exponents(mono):
    """The exponents of a packed monomial, in the order of _NAMES."""
    return tuple((mono >> _SHIFT[x]) & _FIELD for x in _NAMES)


def _grlex(mono):
    """Graded-lex sort key of a packed monomial."""
    return sum(_exponents(mono)), mono


def _poly(terms, check=False):
    """The Poly of {monomial: coefficient}: zeros dropped, integral Fractions
    made ints.  With check, an exponent that reached its field's guard bit (a
    sum of two exponents does not carry past it) raises ExponentOverflow."""
    if check and reduce(or_, terms, 0) & _GUARD:
        raise ExponentOverflow(f"an exponent passes {MAX_POLY_EXPONENT}")
    return Poly({
        m: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        for m, c in terms.items() if c
    })


def _addmul(terms, a, b):
    """terms += a*b for iterables of (monomial, coefficient) pairs: the
    sparse product step of Poly products, the weighted Yang-Baxter sum and
    the gauge image.  Exponents are not checked here; the caller builds its
    Poly with _poly(terms, check=True)."""
    get = terms.get
    for ma, ca in a:
        for mb, cb in b:
            m = ma + mb
            terms[m] = get(m, 0) + ca * cb


def _polys(sums):
    """{key: Poly} of {key: {monomial: coefficient}}: each Poly built once
    with its exponents checked, and the zero ones dropped."""
    polys = ((key, _poly(terms, check=True)) for key, terms in sums.items())
    return {key: p for key, p in polys if p.terms}


class Poly:
    """Sparse polynomial in u, v, u1, u2, u3 with rational coefficients.

    `terms` maps packed monomials to nonzero int or Fraction coefficients;
    `vars` lists the variables that occur.  Instances are immutable and
    always canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        # raw constructor; use make/const/var to stay canonical
        self.terms = terms

    @staticmethod
    def make(vars, terms):
        """The Poly of {exponent tuple aligned with vars: coefficient}."""
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in {vars}")
        packed = {}
        for exps, c in terms.items():
            m = sum(_monomial(x, e) for x, e in zip(vars, exps))
            packed[m] = packed.get(m, 0) + c
        return _poly(packed)

    @staticmethod
    def const(c):
        return _poly({0: Fraction(c)})

    @staticmethod
    def var(name, exp=1):
        return Poly({_monomial(name, exp): 1})

    @property
    def vars(self):
        """The variables that occur, in the order u, v, u1, u2, u3."""
        used = reduce(or_, self.terms, 0)
        return tuple(x for x in _NAMES if (used >> _SHIFT[x]) & _FIELD)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self):
        return not any(self.terms)

    def const_value(self):
        if any(self.terms):
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get(0, 0))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        terms = dict(a)
        get = terms.get
        for m, c in b.items():
            terms[m] = get(m, 0) + c
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other.__class__ is Fraction and other.denominator == 1:
                other = other.numerator
            return _poly({m: c * other for m, c in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return _P_ZERO
        if len(b) == 1:
            (mb, cb), = b.items()
            return _poly({ma + mb: ca * cb for ma, ca in a.items()}, check=True)
        terms = {}
        _addmul(terms, a.items(), b.items())
        return _poly(terms, check=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"Poly power {n!r} is not a non-negative int")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the top bit: u^1024 must not build u^2048
                base = base * base
        return out

    def leading(self):
        """(packed monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

    def total_degree(self):
        return max((sum(_exponents(m)) for m in self.terms), default=-1)

    def degree_in(self, name):
        s = _shift(name)
        return max(((m >> s) & _FIELD for m in self.terms), default=0)

    def as_univariate(self, name):
        """Write the poly as {deg in name: Poly in the remaining vars}."""
        s = _shift(name)
        buckets = {}
        for m, c in self.terms.items():
            d = (m >> s) & _FIELD
            buckets.setdefault(d, {})[m - (d << s)] = c
        return {d: Poly(t) for d, t in buckets.items()}

    @staticmethod
    def from_univariate(name, coeffs):
        """Inverse of as_univariate: sum of p * name^d over {d: p}."""
        terms = {}
        get = terms.get
        for d, p in coeffs.items():
            mono = _monomial(name, d)
            for m, c in p.terms.items():
                m += mono
                terms[m] = get(m, 0) + c
        return _poly(terms, check=True)

    def rename(self, mapping):
        """Rename variables (injective on this poly's variables)."""
        old = self.vars
        new = [mapping.get(x, x) for x in old]
        if len(set(new)) != len(new):
            raise ValueError(f"renaming {mapping} is not injective on {old}")
        moves = [(_SHIFT[x], _shift(y)) for x, y in zip(old, new) if x != y]
        if not moves:
            return self
        terms = {}
        for m, c in self.terms.items():
            out = m
            for a, b in moves:
                e = (m >> a) & _FIELD
                out += (e << b) - (e << a)
            terms[out] = c
        return Poly(terms)

    def __str__(self):
        if self.is_zero():
            return "0"
        chunks = []
        for m in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[m]
            mono = "*".join(n if x == 1 else f"{n}^{x}"
                            for n, x in zip(_NAMES, _exponents(m)) if x)
            if mono and abs(c) == 1:
                body = mono
            else:
                body = "*".join(filter(None, (str(abs(c)), mono)))
            chunks.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(chunks)
        return s[2:] if s[0] == "+" else "-" + s[2:]

    def __repr__(self):
        return f"Poly({self})"


_P_ZERO = Poly({})
P_ONE = Poly.const(1)


def _poly_divexact(p, d):
    """Exact polynomial division p / d; ArithmeticError if it is not exact."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if d.is_const():
        return p * (Fraction(1) / d.terms[0])
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
        rem = rem - Poly.from_univariate(name, {rd - dd: t}) * d
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
    name = min(p.vars[0], q.vars[0], key=_NAMES.index)
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
    return p * (Fraction(1) / lc)


def _monomial_gcd(monos):
    """The field-wise minimum of packed monomials: their gcd."""
    return sum(min(((m >> s) & _FIELD for m in monos), default=0) << s for s in _SHIFT.values())


def _divide_monomial(p, mono):
    """p divided by a packed monomial: one subtraction per term, after a
    field-wise check that mono divides it (a borrow clears a guard bit)."""
    if not mono:
        return p
    if any(((m | _GUARD) - mono) & _GUARD != _GUARD for m in p.terms):
        raise ArithmeticError(f"monomial does not divide {p}")
    return Poly({m - mono: c for m, c in p.terms.items()})


def _uses(p, *names):
    """Does every one of the names occur in p?"""
    used = reduce(or_, p.terms, 0)
    return all((used >> _shift(x)) & _FIELD for x in names)


def _vanishes_on_diagonal(p, x, y):
    """Does x - y divide p, i.e. does p vanish at x = y?

    One pass: each term's exponent of x moves onto y, and every folded
    coefficient must sum to zero.  A nonzero p that lacks x or y does not
    vanish there.  A folded exponent may reach the guard bit but never
    carries out of its field, so distinct monomials stay distinct.
    """
    if not _uses(p, x, y):
        return p.is_zero()
    sx, sy = _SHIFT[x], _SHIFT[y]
    folded = {}
    for m, c in p.terms.items():
        e = (m >> sx) & _FIELD
        f = m + (e << sy) - (e << sx)
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
    if not _uses(p, x, y):
        raise ArithmeticError(f"{x} - {y} does not divide {p}")
    sx, sy = _SHIFT[x], _SHIFT[y]
    rows = {}
    for m, c in p.terms.items():
        rows.setdefault((m >> sx) & _FIELD, {})[m] = c
    step = (1 << sy) - (1 << sx)
    quotient = {}
    for k in range(max(rows), 0, -1):
        lower = rows.setdefault(k - 1, {})
        for m, c in rows.pop(k, {}).items():
            if c:
                quotient[m - (1 << sx)] = c
                m += step
                lower[m] = lower.get(m, 0) + c
    if any(rows[0].values()):
        raise ArithmeticError(f"{x} - {y} does not divide {p}")
    return _poly(quotient, check=True)


def _reduce_fraction(num, den):
    """Cancel common factors of num/den without coefficient swell.

    The denominator is split into a monomial, variable differences, and a
    residual core.  The monomial leaves by a subtraction on the packed
    exponents; a difference x - y is found by folding x's exponent onto y
    and leaves by synthetic division in x.  Only the core ever meets the
    general pseudo-remainder gcd; in this package the denominators that
    arise internally are products of variables and variable differences,
    so the core is constant and the reduction never calls `poly_gcd`.
    """
    powers = _monomial_gcd(den.terms)
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
    shared = _monomial_gcd((powers, _monomial_gcd(num.terms)))
    num = _divide_monomial(num, shared)
    if powers != shared:
        den = den * Poly({powers - shared: 1})
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

    `of`, `+` and a product of two non-constant factors with a denominator
    between them reduce; a product with a constant, `/` (a product with the
    reciprocal) and `**` keep the invariants by theorem, with no gcd (see
    the module docstring).
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
            return RatFun(num * (Fraction(1) / c), P_ONE)
        num, den = _reduce_fraction(num, den)
        if den.is_const():
            return RatFun.of(num, den)
        return _monic_den(num, den)

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
        if not self.is_const():
            raise ValueError(f"{self} is not constant")
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

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
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
        c, f = (other, self) if other.is_const() else (self, other)
        if c.is_const():  # a nonzero constant leaves gcd(num, den) = 1
            return RatFun(f.num * c.num, f.den)
        if self.den.is_const() and other.den.is_const():
            return RatFun.from_poly(self.num * other.num)
        return RatFun.of(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return RatFun(self.num * (Fraction(1) / c), self.den)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * other ** -1

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"RatFun power {n!r} is not an int")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            # den/num of a coprime pair is coprime: only made monic
            return _monic_den(self.den, self.num) ** -n
        if n == 0:
            return RatFun(P_ONE, P_ONE)
        if n == 1:
            return self
        return RatFun(self.num ** n, self.den ** n)  # coprime, den monic

    def rename(self, mapping):
        """Cheap variable renaming (no arithmetic)."""
        num = self.num.rename(mapping)
        if self.den.is_const():
            return RatFun(num, P_ONE)
        # renaming can change which term is leading; re-normalize
        return _monic_den(num, self.den.rename(mapping))

    def __str__(self):
        if self.den.is_const():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _monic_den(num, den):
    """RatFun num/den, both scaled so den's leading coefficient is 1."""
    _, lc = den.leading()
    if lc == 1:
        return RatFun(num, den)
    inv = Fraction(1) / lc
    return RatFun(num * inv, den * inv)


RF_ZERO = RatFun(_P_ZERO, P_ONE)
