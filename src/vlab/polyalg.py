"""Exact integer linear algebra over coefficient vectors of polynomials.

Rank computations run fraction-free (Bareiss) over arbitrary-size integers;
a floating-point rank would silently falsify every downstream independence
claim.

The independence notions computed here: an index k is *good* when the triple
(P_{k-1}, P_k, P_{k+1}) is linearly independent, and ell(k) >= k+1 is the
maximal index such that P_{k-1}, ..., P_{ell-1} stay inside the plane
spanned by P_{k-1}, P_k; k is good iff ell(k) = k+1.  Finite data cannot
witness maximality when the sequence ends inside a rank-2 run, so ell_of_k
reports an explicit truncation flag.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import DegreeOverflow, DependentBase, IndexOutOfRange
from .polynomials import IntPolynomial
from .bestapprox.records import SequenceData


def bareiss_rank(rows: List[List[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    m = [list(map(int, row)) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[row][c]) // prev_pivot
            m[r][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


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
