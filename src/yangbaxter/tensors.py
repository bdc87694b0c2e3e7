"""Sparse tensors in g(x)g and g(x)g(x)g with exact coefficients.

Leg conventions: two-leg tensors carry variables (u, v) — leg 1 is always u,
leg 2 is always v.  Three-leg tensors carry (u1, u2, u3).  `swap` exchanges
legs AND variables, so r is skew iff swap(r) = -r; this is the convention
under which u*v*Omega/(v-u) is itself skew.

Both kinds share one sparse core: a coefficient table keyed by basis-index
tuples in which zero coefficients are never stored.  `accumulate` is the
single add-and-drop-zeros step behind tensor addition.

Tensors are immutable: nothing assigns into `entries` once a tensor is
built.  So a Tensor2 owns its residual: `cybe.cyb` stores it in the
`_residual` slot (unset until then).  Scaling by a constant keeps each
reduced denominator and needs no gcd.

Coefficients are RatFun, or Poly for a tensor whose denominators have been
cleared: `clear_denominators(r)` gives (d, d*r) with d the lcm of r's
denominators.  The sparse core uses only `rename`, `*`, `+` and `is_zero`
on coefficients, so it runs unchanged in the polynomial ring; `make` and
`scale` build RatFun tensors.  `leg_bracket`, the public leg commutator
r12, r13 or r23, takes cleared (Poly) tensors only: it sums the monomial
products of each output entry into one {monomial: coefficient} dict and
builds one Poly per entry (the sparse accumulation of Monagan & Pearce).
`cybe.cyb`, `gauge.gauge_transform` and `ad2_action` extend it past one
product: the weights and the three pair sums of the residual, the two
adjoint factors of the gauge image, and the adjoint terms times their leg
monomials accumulate into one dict per output key, through the product
step `ratfun._addmul` that `Poly.__mul__` uses too.
`leg_bracket` keeps its own loop, which scales each outer term by the
structure constant; routed through the shared step it ran slower.

`ad2_action(p, t)` works on the cleared form too.  With (d, P) =
clear_denominators(t) and s = max(0, -min degree of p), p's term x*u^k acts
on P through the monomial u^(k+s)*v^s on leg 1 and u^s*v^(k+s) on leg 2, so
a Laurent p needs no negative powers; each nonzero entry is then divided by
d*(u*v)^s once, which gives the reduced RatFun of the entrywise expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfun import P_ONE, Poly, RatFun, _addmul, _monomial, _poly_divexact, _polys, poly_gcd

_SWAP_UV = {"u": "v", "v": "u"}
_ROTATE = {"u1": "u2", "u2": "u3", "u3": "u1"}


def _as_rf(c):
    if isinstance(c, RatFun):
        return c
    return RatFun.from_frac(Fraction(c))


def accumulate(entries, key, val):
    """entries[key] += val in a sparse coefficient dict, dropping a zero sum."""
    cur = entries.get(key)
    if cur is not None:
        val = cur + val
    if val.is_zero():
        entries.pop(key, None)
    else:
        entries[key] = val


class _SparseTensor:
    """Sparse arithmetic shared by Tensor2 and Tensor3; `legs` is the key length."""

    __slots__ = ("table", "entries")

    def __init__(self, table, entries):
        self.table = table
        self.entries = entries  # canonical: no zero values; use make() to build

    @classmethod
    def make(cls, table, entries):
        clean = {}
        for key, c in entries.items():
            if len(key) != cls.legs or not all(0 <= i < table.dim for i in key):
                raise ValueError(f"bad {cls.__name__} key {key} for a {table.dim}-dim algebra")
            c = _as_rf(c)
            if not c.is_zero():
                clean[key] = c
        return cls(table, clean)

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.table is other.table and self.entries == other.entries

    def __add__(self, other):
        if type(other) is not type(self) or self.table is not other.table:
            raise ValueError("adding tensors of another kind or algebra")
        out = dict(self.entries)
        for key, c in other.entries.items():
            accumulate(out, key, c)
        return type(self)(self.table, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        # A constant c scales each numerator by a Fraction, with no RatFun.of.
        c = _as_rf(c)
        if c.is_const():
            c = c.const_value()
        if not c:
            return type(self)(self.table, {})
        return type(self)(self.table, {k: f * c for k, f in self.entries.items()})

    def __str__(self):
        if not self.entries:
            return "0"
        lbl = self.table.labels
        return " + ".join(
            f"({self.entries[key]}) * " + "(x)".join(lbl[i] for i in key)
            for key in sorted(self.entries)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Tensor2(_SparseTensor):
    """Element of g(x)g with RatFun(u, v) coefficients, sparse over basis pairs."""

    __slots__ = ("_residual",)
    legs = 2

    @staticmethod
    def single(table, a, b, coeff=1):
        """coeff * x_a (x) x_b, with labels or indices."""
        if isinstance(a, str):
            a = table.index[a]
        if isinstance(b, str):
            b = table.index[b]
        return Tensor2.make(table, {(a, b): coeff})

    def coeff(self, a, b):
        if isinstance(a, str):
            a = self.table.index[a]
        if isinstance(b, str):
            b = self.table.index[b]
        return self.entries.get((a, b), RatFun.from_frac(0))


class Tensor3(_SparseTensor):
    """Element of g(x)g(x)g with RatFun(u1, u2, u3) coefficients (Poly ones
    for the cleared residual that cybe.cyb returns)."""

    __slots__ = ()
    legs = 3

    def rotate(self):
        """Cyclic slot rotation: x(x)y(x)z . f(u1,u2,u3) -> z(x)x(x)y . f(u2,u3,u1)."""
        out = {}
        for (a, b, c), f in self.entries.items():
            out[(c, a, b)] = f.rename(_ROTATE)
        return Tensor3(self.table, out)


def swap(r):
    """Exchange legs and variables: (x(x)y) f(u,v) -> (y(x)x) f(v,u)."""
    if not isinstance(r, Tensor2):
        raise ValueError(f"swap needs a Tensor2, not {type(r).__name__}")
    out = {}
    for (a, b), f in r.entries.items():
        out[(b, a)] = f.rename(_SWAP_UV)
    return Tensor2(r.table, out)


def clear_denominators(r):
    """(d, P) with d the monic lcm of r's denominators and P = d*r.

    P is a tensor of r's kind with Poly coefficients; d = 1 when r is
    polynomial, and then P's entries are r's numerators as they are.  The
    lcm costs one gcd g per distinct denominator, and each cofactor d/den
    grows with it (times den/g), with no division by den.
    """
    dens = dict.fromkeys(f.den for f in r.entries.values() if not f.den.is_const())
    if not dens:
        return P_ONE, type(r)(r.table, {key: f.num for key, f in r.entries.items()})
    d, cofactor = P_ONE, {}
    for den in dens:
        g = poly_gcd(d, den)
        m = _poly_divexact(den, g)
        cofactor = {key: c * m for key, c in cofactor.items()}
        cofactor[den], d = _poly_divexact(d, g), d * m
    return d, type(r)(r.table, {
        key: f.num * cofactor.get(f.den, d) for key, f in r.entries.items()
    })


def is_polynomial(t):
    """True iff every coefficient has constant reduced denominator."""
    return all(f.is_poly() for f in t.entries.values())


def is_skew(r):
    """True iff swap(r) = -r."""
    return swap(r) == r.scale(-1)


_PAIR_PLANS = {
    # pair -> (r renaming, s renaming, bracketed leg of r, bracketed leg of s,
    # output slot of the bracket); the free legs of r and s fill the other two
    # slots in that order.
    "12^13": ({"u": "u1", "v": "u2"}, {"u": "u1", "v": "u3"}, 0, 0, 0),
    "12^23": ({"u": "u1", "v": "u2"}, {"u": "u2", "v": "u3"}, 1, 0, 1),
    "13^23": ({"u": "u1", "v": "u3"}, {"u": "u2", "v": "u3"}, 1, 1, 2),
}


def leg_bracket(r, s, pair):
    """One commutator of leg embeddings, e.g. [r12, s13] for pair "12^13".

    [r12, s13] = sum r_ab(u1,u2) s_cd(u1,u3) [x_a,x_c] (x) x_b (x) x_d,
    [r12, s23] = sum r_ab(u1,u2) s_cd(u2,u3) x_a (x) [x_b,x_c] (x) x_d,
    [r13, s23] = sum r_ab(u1,u3) s_cd(u2,u3) x_a (x) x_c (x) [x_b,x_d].

    r and s carry Poly coefficients (a cleared form).  An exponent past
    MAX_POLY_EXPONENT raises ExponentOverflow.
    """
    if not (isinstance(r, Tensor2) and isinstance(s, Tensor2)) or r.table is not s.table:
        raise ValueError("leg_bracket needs two Tensor2s over one algebra")
    table = r.table
    ren_r, ren_s, r_leg, s_leg, slot = _PAIR_PLANS[pair]
    # Each term as (bracketed index, free index, renamed monomial terms).
    r_terms = [(k[r_leg], k[1 - r_leg], f.rename(ren_r).terms.items())
               for k, f in r.entries.items()]
    s_terms = [(k[s_leg], k[1 - s_leg], g.rename(ren_s).terms.items())
               for k, g in s.entries.items()]
    sums = {}
    for x, a, f in r_terms:
        for y, b, g in s_terms:
            free = (a, b)
            for k, sc in table.structure.get((x, y), ()):
                terms = sums.setdefault(free[:slot] + (k,) + free[slot:], {})
                get = terms.get
                for ma, ca in f:
                    c = ca * sc
                    for mb, cb in g:
                        m = ma + mb
                        terms[m] = get(m, 0) + c * cb
    return Tensor3(table, _polys(sums))


def ad2_action(p, t):
    """[p(u) (x) 1 + 1 (x) p(v), t] for a g-valued (Laurent) polynomial p.

    Leg 1 sees p evaluated at u, leg 2 at v; expanded exactly by structure
    constants.  Computed with t's denominators cleared once: with
    (d, P) = clear_denominators(t) and s = max(0, -min degree of p), the
    action of x*u^deg on P is taken in the polynomial ring with the factor
    u^(deg+s)*v^s on leg 1 and u^s*v^(deg+s) on leg 2, one dict per output
    key, and each nonzero entry is divided by d*(u*v)^s once.  The entries
    are reduced RatFuns, equal to the entrywise expansion.
    """
    if not isinstance(t, Tensor2) or p.table is not t.table:
        raise ValueError("ad2_action needs a Tensor2 over p's algebra")
    table = t.table
    d, cleared = clear_denominators(t)
    s = max(0, -min(p.terms, default=0))
    sums = {}
    for deg, x in p.terms.items():
        u_pow = _monomial("u", deg + s) + _monomial("v", s)
        v_pow = _monomial("u", s) + _monomial("v", deg + s)
        for (a, b), f in cleared.entries.items():
            for k, c in table.ad_on_basis(x.terms, a):
                _addmul(sums.setdefault((k, b), {}), f.terms.items(), ((u_pow, c),))
            for k, c in table.ad_on_basis(x.terms, b):
                _addmul(sums.setdefault((a, k), {}), f.terms.items(), ((v_pow, c),))
    if s:
        d = d * Poly.make(("u", "v"), {(s, s): Fraction(1)})
    return Tensor2(table, {key: RatFun.of(c, d) for key, c in _polys(sums).items()})
