"""Exact integer linear algebra over coefficient vectors of polynomials.

Rank computations run fraction-free over arbitrary-size integers: one
integer basis of the complement of a growing span (``IntegerComplement``)
serves ``bareiss_rank`` and the greedy basis selection of ``paramgeom``.
A vector lies in the span iff it annihilates that basis, so the greedy
tests a whole block of candidates with one integer matrix product and never
reduces a candidate its picks already span.  That product and its zero
test are ``IntegerMap.zeros``, which also decides the record search's exact
zeros P(xi) = 0.  A floating-point rank would silently falsify every
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
import operator
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .errors import DegreeOverflow, DependentBase, IndexOutOfRange
from .polynomials import IntPolynomial

if TYPE_CHECKING:  # annotations only: the record search imports this module
    from .bestapprox.records import SequenceData


class IntegerMap:
    """An integer matrix N of any entry size, given as its rows; ``zeros``
    tests integer rows r for r . N = 0."""

    def __init__(self, table: Sequence[Sequence[int]]):
        top = max(abs(x) for row in table for x in row)
        self.matrix = np.array(table, dtype=np.int64 if top < 2**63 else object)
        self.bound = top * len(table)  # max|N| * width

    def zeros(self, rows) -> np.ndarray:
        """Mask of the integer rows (a 2-d array or sequence) with r . N = 0.
        The product is taken in int64 when max|N| * width * max|rows| < 2^63
        rules out overflow, and in Python ints otherwise (always for an
        object array)."""
        array = np.asarray(rows)
        if array.dtype.kind not in "iuO":  # a sequence mixing negatives and ints >= 2^63
            array = np.array(rows, dtype=object)  # becomes floats, not ints, in asarray
        if array.dtype != object and self.bound * int(np.abs(array).max(initial=0)) < 2**63:
            products = array.astype(np.int64) @ self.matrix
        else:
            products = array.astype(object) @ self.matrix.astype(object)
        return ~(products != 0).any(axis=1)


class IntegerComplement:
    """Integer basis N of the complement of a span of integer vectors, grown
    one vector at a time: a vector v of the given width lies in the span iff
    v . N = 0.

    N starts as the identity.  ``add(v)`` takes w = v . N; if w != 0 it drops
    one column i with w_i != 0 and replaces every other column N_j by
    w_j N_i - w_i N_j, which v annihilates, divided by its content.  The new
    columns are independent and one fewer, so they span the complement of the
    grown span (fraction-free elimination: Bareiss 1968; H. Cohen, GTM 138,
    section 2.2).  A column stays supported on the dropped columns' indices
    and its own, where the rank-r span leaves a one-dimensional complement:
    it is that line's primitive vector, so its entries are r x r minors of
    the added vectors (Cramer), within Hadamard's bound.
    """

    def __init__(self, width: int):
        self._width = width
        self._cols: List[List[int]] = [[0] * width for _ in range(width)]
        for j, col in enumerate(self._cols):
            col[j] = 1
        self._matrix = None  # N as an IntegerMap, made on demand

    def __len__(self) -> int:
        """The rank of the span."""
        return self._width - len(self._cols)

    def add(self, vec: Sequence[int]) -> bool:
        """Grow the span by ``vec``; return whether that raised its rank."""
        w = [sum(map(operator.mul, vec, col)) for col in self._cols]
        for i, wi in enumerate(w):
            if wi:
                break
        else:
            return False
        ni = self._cols.pop(i)
        del w[i]
        for j, wj in enumerate(w):
            if wj:  # with w_j = 0, N_j itself is the primitive column
                nj = [wj * a - wi * b for a, b in zip(ni, self._cols[j])]
                g = math.gcd(*nj)
                self._cols[j] = [x // g for x in nj] if g != 1 else nj
        self._matrix = None
        return True

    def spanned(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows of the 2-d integer array ``rows`` that lie in the
        span, by one product rows . N (``IntegerMap.zeros``)."""
        if not self._cols:
            return np.ones(len(rows), dtype=bool)
        if self._matrix is None:
            self._matrix = IntegerMap(list(zip(*self._cols)))
        return self._matrix.zeros(rows)


def bareiss_rank(rows: List[List[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    The rank of a matrix is that of its transpose; the complement is taken
    in the smaller of the two dimensions, where it has fewer columns."""
    if not rows:
        return 0
    if len(rows) < len(rows[0]):
        rows = list(zip(*rows))
    complement = IntegerComplement(len(rows[0]))
    for row in rows:
        complement.add(row)
    return len(complement)


def rank_of_polys(polys: Sequence[IntPolynomial], ambient_degree: int) -> int:
    """Rank over the rationals of the coefficient vectors inside the space of
    polynomials of degree <= ambient_degree."""
    for p in polys:
        if p.degree > ambient_degree:
            raise DegreeOverflow(
                f"degree {p.degree} exceeds ambient degree {ambient_degree}")
    return bareiss_rank([list(p.vector(ambient_degree)) for p in polys])


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
    """Fill the good/ell fields on every record where they are decidable;
    k is good iff ell(k) = k+1, its triple already of rank 3."""
    for k in range(2, len(seq.records)):
        rec = seq.record(k)
        ell, truncated = ell_of_k(seq, k)
        rec.good = (ell, truncated) == (k + 1, False)
        rec.ell = None if truncated else ell
    return seq
