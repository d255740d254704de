"""Exact real root isolation and refinement for integer polynomials.

Sturm sequences with exact signs: every sign (the Sturm counts, the
endpoint-root tests, the bisection) is decided by one integer homogeneous
Horner pass, ``IntPolynomial.sign_at_ratio``, at a numerator over a positive
denominator: a Sturm count reads each end's pair once for the whole chain,
and ``refine_root`` bisects integer numerators over one common denominator.
The chain is built fraction-free (primitive pseudo-remainders), once per
polynomial (a caller isolating in several intervals passes it on), each
member a positive multiple of the rational Sturm polynomial, so the sign
sequences and root counts are those of the classical method.  No
floating-point filter is used anywhere, so the returned isolating intervals
and root counts are certified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .enclosure import RealEnclosure
from .errors import NotIsolating, ZeroPolynomial
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


def _chain_signs(chain: List[IntPolynomial], x: Fraction) -> List[int]:
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return [p.sign_at_ratio(a, b) for p in chain]


def count_roots_open(chain: List[IntPolynomial], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi)."""
    at_hi = _chain_signs(chain, hi)
    # Sturm counts roots in (lo, hi]; remove hi if it is a root
    return (_sign_variations(_chain_signs(chain, lo)) - _sign_variations(at_hi)
            - (at_hi[0] == 0))


def cauchy_root_bound(poly: IntPolynomial) -> Fraction:
    """All real roots lie in (-B, B)."""
    if poly.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    lc = abs(poly.coeffs[-1])
    return 1 + Fraction(max((abs(c) for c in poly.coeffs[:-1]), default=0), lc)


def isolate_roots(poly: IntPolynomial, lo, hi,
                  chain: Optional[List[IntPolynomial]] = None) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals inside (lo, hi), each holding exactly one
    real root of ``poly``, jointly covering all roots in (lo, hi).  ``chain``
    is ``sturm_chain(poly)`` when the caller already holds it.

    Degenerate pairs (r, r) mark exact rational roots.
    """
    if poly.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if chain is None:
        chain = sturm_chain(poly)
    f = chain[0]

    out: List[Tuple[Fraction, Fraction]] = []

    def emit(a: Fraction, b: Fraction):
        # shrink until neither endpoint is a root, so the interval brackets
        # a sign change (subdivision points may themselves be roots)
        while f.sign_at(a) == 0 or f.sign_at(b) == 0:
            m = (a + b) / 2
            if f.sign_at(m) == 0:
                out.append((m, m))
                return
            if count_roots_open(chain, a, m) == 1:
                b = m
            else:
                a = m
        out.append((a, b))

    def recurse(a: Fraction, b: Fraction, count: int):
        if count == 0:
            return
        if count == 1:
            emit(a, b)
            return
        m = (a + b) / 2
        if f.sign_at(m) == 0:
            out.append((m, m))
            recurse(a, m, count_roots_open(chain, a, m))
            recurse(m, b, count_roots_open(chain, m, b))
        else:
            cl = count_roots_open(chain, a, m)
            recurse(a, m, cl)
            recurse(m, b, count - cl)

    recurse(lo, hi, count_roots_open(chain, lo, hi))
    out.sort()
    return out


def isolate_all_real_roots(poly: IntPolynomial, chain: Optional[List[IntPolynomial]] = None
                           ) -> List[Tuple[Fraction, Fraction]]:
    bound = cauchy_root_bound(poly)
    return isolate_roots(poly, -bound, bound, chain)


def refine_root(poly: IntPolynomial, isolating, tol) -> RealEnclosure:
    """Shrink an isolating interval to an enclosure of radius <= tol by
    bisection on exact signs.  The ends are integer numerators lo, hi over
    one denominator; a step doubles it and tests lo + hi, so hi - lo stays
    fixed and the midpoints are those of halving in ``Fraction``."""
    a, b = Fraction(isolating[0]), Fraction(isolating[1])
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        if poly.sign_at(a) != 0:
            raise NotIsolating("degenerate interval is not a root")
        return RealEnclosure.exact(a)
    sa, sb = poly.sign_at(a), poly.sign_at(b)
    if sa == 0:
        return RealEnclosure.exact(a)
    if sb == 0:
        return RealEnclosure.exact(b)
    if sa == sb:
        # a root of even multiplicity keeps the sign; the squarefree part,
        # which has the same roots, changes sign across it
        poly = poly.squarefree_part()
        sa, sb = poly.sign_at(a), poly.sign_at(b)
        if sa == sb:
            raise NotIsolating("no sign change across the isolating interval")
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
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
