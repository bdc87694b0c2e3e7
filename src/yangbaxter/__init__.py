"""Exact symbolic verification of classical Yang-Baxter structures.

The package computes with r-matrices r(u,v) valued in sl(n) x sl(n)
whose coefficients are rational functions over the rationals.  All
arithmetic is exact, so every verification (Yang-Baxter residuals,
bialgebra axioms, isotropy and transversality in truncated doubles,
quasi-Frobenius lifts, gauge moves) reports literal zero, never an
approximation.
"""

from .ratfun import Poly, RatFun
from .lie import LieTable, GElement, GPoly, CasimirSpec, make_sl, casimir
