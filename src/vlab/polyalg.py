"""Exact integer linear algebra over coefficient vectors of polynomials.

Rank computations run fraction-free over arbitrary-size integers: one
incremental echelon of primitive integer rows (``IntegerEchelon``) serves
``bareiss_rank`` and the greedy basis selection of ``paramgeom``, which
reduces each new candidate against the rows it already holds instead of
recomputing a rank.  A floating-point rank would silently falsify every
downstream independence claim.

The independence notions computed here: an index k is *good* when the triple
(P_{k-1}, P_k, P_{k+1}) is linearly independent, and ell(k) >= k+1 is the
maximal index such that P_{k-1}, ..., P_{ell-1} stay inside the plane
spanned by P_{k-1}, P_k; k is good iff ell(k) = k+1.  Finite data cannot
witness maximality when the sequence ends inside a rank-2 run, so ell_of_k
reports an explicit truncation flag.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .errors import DegreeOverflow, DependentBase, IndexOutOfRange
from .polynomials import IntPolynomial
from .bestapprox.records import SequenceData


class IntegerEchelon:
    """Fraction-free row echelon form of integer vectors, grown one row at a time.

    Each stored row is primitive and owns one pivot column, where every row
    stored after it is zero.  ``add`` clears those columns of a vector, row by
    row, by integer cross-multiplication (fraction-free elimination: Bareiss
    1968; H. Cohen, GTM 138, section 2.2).  The rows stay independent, so the
    remainder is zero exactly when the vector lies in their span; otherwise it
    is divided by its content and stored.
    """

    def __init__(self):
        self._rows: List[Tuple[int, List[int]]] = []  # (pivot column, primitive row)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence[int]) -> bool:
        """Store ``vec`` if it is independent of the rows; return whether it was."""
        v = vec
        for col, row in self._rows:
            c = v[col]
            if c:
                p = row[col]
                v = [p * x - c * y for x, y in zip(v, row)]
        for pivot, x in enumerate(v):
            if x:
                g = math.gcd(*v)
                self._rows.append((pivot, [y // g for y in v]))
                return True
        return False


def bareiss_rank(rows: List[List[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    echelon = IntegerEchelon()
    for row in rows:
        echelon.add(row)
    return len(echelon)


def rank_of_polys(polys: Sequence[IntPolynomial], ambient_degree: int) -> int:
    """Rank over the rationals of the coefficient vectors inside the space of
    polynomials of degree <= ambient_degree."""
    for p in polys:
        if p.degree > ambient_degree:
            raise DegreeOverflow(
                f"degree {p.degree} exceeds ambient degree {ambient_degree}")
    return bareiss_rank([list(p.vector(ambient_degree)) for p in polys])


def is_good(seq: SequenceData, k: int) -> bool:
    """Whether the triple (P_{k-1}, P_k, P_{k+1}) is linearly independent."""
    if k < 2 or k + 1 > len(seq.records):
        raise IndexOutOfRange(f"records {k - 1}, {k}, {k + 1} are not all available")
    triple = [seq.record(k - 1).poly, seq.record(k).poly, seq.record(k + 1).poly]
    return rank_of_polys(triple, seq.n) == 3


def ell_of_k(seq: SequenceData, k: int) -> Tuple[int, bool]:
    """(ell, truncated): the maximal ell with P_{k-1}, ..., P_{ell-1} of rank
    2, scanned over the computed range.  ``truncated`` means the sequence
    ended before independence was witnessed, so the true ell may be larger.
    """
    if k < 2 or k + 1 > len(seq.records):
        raise IndexOutOfRange(f"need records {k - 1} through {k + 1}")
    base = [seq.record(k - 1).poly, seq.record(k).poly]
    if rank_of_polys(base, seq.n) != 2:
        raise DependentBase(
            f"records {k - 1} and {k} are proportional; sequence data corrupt")
    ell = k + 1
    while ell <= len(seq.records):
        window = [seq.record(j).poly for j in range(k - 1, ell + 1)]
        if rank_of_polys(window, seq.n) > 2:
            return ell, False
        ell += 1
    return ell, True


def enrich_independence(seq: SequenceData) -> SequenceData:
    """Fill the good/ell fields on every record where they are decidable."""
    for k in range(2, len(seq.records)):
        rec = seq.record(k)
        rec.good = is_good(seq, k)
        ell, truncated = ell_of_k(seq, k)
        rec.ell = None if truncated else ell
    return seq
