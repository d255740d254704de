"""Exact real root counting and refinement for integer polynomials.

A root is certified by "count, then refine": a Sturm count says how many
distinct real roots lie in an open rational interval, and ``refine_root``
bisects an interval whose ends carry opposite nonzero signs down to a ball.
Every sign (the Sturm counts, the end signs, the bisection) is decided by
one integer homogeneous Horner pass, ``IntPolynomial.sign_at_ratio``, at a
numerator over a positive denominator: a Sturm count reads its two ends over
one denominator, and ``refine_root`` bisects integer numerators over one
common denominator.
The chain is built fraction-free (primitive pseudo-remainders), once per
polynomial (a caller counting in several intervals passes it on), each
member a positive multiple of the rational Sturm polynomial, so the sign
sequences and root counts are those of the classical method.  With the
strict Cauchy bound B of ``cauchy_root_bound``, the count on (-B, B) is the
number of distinct real roots.  No floating-point filter is used anywhere,
so the counts and the refined balls are certified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .enclosure import RealEnclosure
from .errors import NoSignChange, ZeroPolynomial
from .polynomials import IntPolynomial


def _remainder_sequence(f: IntPolynomial) -> List[IntPolynomial]:
    """f, f', then negated remainders, to a constant or to gcd(f, f')."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-chain[-2].rem(chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def sturm_chain(poly: IntPolynomial) -> List[IntPolynomial]:
    """Sturm sequence of the squarefree part of ``poly``: the remainder
    sequence of (poly, poly') when it ends in a constant (poly is then
    squarefree), else that of ``squarefree_part``."""
    chain = _remainder_sequence(poly)
    return chain if chain[-1].degree <= 0 else _remainder_sequence(poly.squarefree_part())


def _sign_variations(signs) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _over_one_denominator(x: Fraction, y: Fraction) -> Tuple[int, int, int]:
    """Integers a, b and den > 0 with x = a/den and y = b/den."""
    den = math.lcm(x.denominator, y.denominator)
    return x.numerator * (den // x.denominator), y.numerator * (den // y.denominator), den


def count_roots_open(chain: List[IntPolynomial], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi)."""
    a, b, den = _over_one_denominator(Fraction(lo), Fraction(hi))
    at_hi = [p.sign_at_ratio(b, den) for p in chain]
    # Sturm counts roots in (lo, hi]; remove hi if it is a root
    return (_sign_variations([p.sign_at_ratio(a, den) for p in chain])
            - _sign_variations(at_hi) - (at_hi[0] == 0))


def cauchy_root_bound(poly: IntPolynomial) -> Fraction:
    """All real roots lie in (-B, B)."""
    if poly.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    lc = abs(poly.coeffs[-1])
    return 1 + Fraction(max((abs(c) for c in poly.coeffs[:-1]), default=0), lc)


def refine_root(poly: IntPolynomial, bracket, tol) -> RealEnclosure:
    """Shrink a bracket (a, b) whose ends carry opposite nonzero signs
    (else NoSignChange) to an enclosure of radius <= tol of a root inside
    it, by bisection on exact signs.  The ends are integer numerators lo,
    hi over one denominator; a step doubles it and tests lo + hi, so
    hi - lo stays fixed and the midpoints are those of halving in
    ``Fraction``."""
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    sa, sb = poly.sign_at(a), poly.sign_at(b)
    if sa == 0 or sb == 0 or sa == sb:
        raise NoSignChange(f"no strict sign change across ({a}, {b})")
    lo, hi, den = _over_one_denominator(a, b)
    # b - a > 2 tol, as (hi - lo) tol.den > 2 tol.num den
    width, bar = (hi - lo) * tol.denominator, 2 * tol.numerator * den
    while width > bar:
        mid = lo + hi
        den *= 2
        bar *= 2
        sm = poly.sign_at_ratio(mid, den)
        if sm == 0:
            return RealEnclosure.exact(Fraction(mid, den))
        if sm == sa:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
    return RealEnclosure.from_endpoints(Fraction(lo, den), Fraction(hi, den))


def poly_eval_enclosure(poly: IntPolynomial, x: RealEnclosure) -> RealEnclosure:
    """Certified Horner evaluation of an integer polynomial at a ball."""
    acc = RealEnclosure.exact(0, x.precision_bits)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc.compress()
