"""Exact real root isolation and refinement for integer polynomials.

Sturm sequences with exact signs: every sign (the Sturm counts, the
endpoint-root tests, the bisection) is decided by ``IntPolynomial.sign_at``,
one integer homogeneous Horner pass at the rational point.  The chain is
built fraction-free (primitive pseudo-remainders), each member a positive
multiple of the rational Sturm polynomial, so the sign sequences and root
counts are those of the classical method.  No floating-point filter is used
anywhere, so the returned isolating intervals and root counts are certified.
The degrees in play (bound polynomials of degree <= 10) make the classical
method comfortably fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .enclosure import RealEnclosure
from .errors import NotIsolating, ZeroPolynomial
from .polynomials import IntPolynomial


def sturm_chain(poly: IntPolynomial) -> List[IntPolynomial]:
    """Sturm sequence of the squarefree part of ``poly``."""
    f = poly.squarefree_part()
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-chain[-2].rem(chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


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


def count_roots_open(chain: List[IntPolynomial], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi)."""
    f = chain[0]
    v = (_sign_variations([p.sign_at(lo) for p in chain])
         - _sign_variations([p.sign_at(hi) for p in chain]))
    # Sturm counts roots in (lo, hi]; remove hi if it is a root
    if f.sign_at(hi) == 0:
        v -= 1
    return v


def cauchy_root_bound(poly: IntPolynomial) -> Fraction:
    """All real roots lie in (-B, B)."""
    if poly.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    lc = abs(poly.coeffs[-1])
    return 1 + Fraction(max((abs(c) for c in poly.coeffs[:-1]), default=0), lc)


def isolate_roots(poly: IntPolynomial, lo, hi) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals inside (lo, hi), each holding exactly one
    real root of ``poly``, jointly covering all roots in (lo, hi).

    Degenerate pairs (r, r) mark exact rational roots.
    """
    if poly.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
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


def isolate_all_real_roots(poly: IntPolynomial) -> List[Tuple[Fraction, Fraction]]:
    bound = cauchy_root_bound(poly)
    return isolate_roots(poly, -bound, bound)


def refine_root(poly: IntPolynomial, isolating, tol) -> RealEnclosure:
    """Shrink an isolating interval to an enclosure of radius <= tol by
    bisection on exact signs."""
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
    while b - a > 2 * tol:
        m = (a + b) / 2
        sm = poly.sign_at(m)
        if sm == 0:
            return RealEnclosure.exact(m)
        if sm == sa:
            a = m
        else:
            b = m
    return RealEnclosure.from_endpoints(a, b)


def poly_eval_enclosure(poly: IntPolynomial, x: RealEnclosure) -> RealEnclosure:
    """Certified Horner evaluation of an integer polynomial at a ball."""
    acc = RealEnclosure.exact(0, x.precision_bits)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc.compress()
