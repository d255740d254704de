"""V-sets, their spans and irreducibility: test-side helpers for the
span lemmas the independence tests check.

Irreducibility delegates to sympy's exact factorization over the rationals,
a standard method, so sympy is a test dependency only.
"""

from dataclasses import dataclass
from typing import List, Sequence

import sympy

from vlab.errors import DegreeOverflow
from vlab.polyalg import rank_of_polys
from vlab.polynomials import IntPolynomial


@dataclass(frozen=True)
class VSet:
    """The polynomials {P, T*P, ..., T^(n-2)*P} inside the degree-(2n-2)
    space; all share the height of the base polynomial."""

    base: IntPolynomial
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("VSet needs n >= 2")
        if self.base.degree > self.n:
            raise DegreeOverflow("base degree exceeds n")

    @property
    def elements(self) -> List[IntPolynomial]:
        return [self.base.shift_degree(i) for i in range(self.n - 1)]


def v_set(poly: IntPolynomial, n: int) -> VSet:
    return VSet(poly, n)


def span_dim_union(vsets: Sequence[VSet]) -> int:
    """Exact dimension of the span of the union inside the space of
    polynomials of degree <= 2n-2 (dimension 2n-1)."""
    if not vsets:
        return 0
    n = vsets[0].n
    if any(v.n != n for v in vsets):
        raise ValueError("mixed n across VSets")
    polys = [p for v in vsets for p in v.elements]
    return rank_of_polys(polys, 2 * n - 2)


def is_irreducible_deg_n(poly: IntPolynomial, n: int) -> bool:
    """True iff deg P == n exactly and P is irreducible over the rationals
    (content removed first)."""
    if poly.is_zero:
        raise ValueError("zero polynomial")
    if poly.degree != n:
        return False
    prim = poly.primitive()
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(prim.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x))
    nontrivial = [f for f, mult in factors if f.degree() > 0 or mult > 1]
    if len(nontrivial) != 1:
        return False
    f, mult = [(f, m) for f, m in factors if f.degree() > 0][0]
    return mult == 1 and f.degree() == n
