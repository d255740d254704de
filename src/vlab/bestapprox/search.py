"""Verified search for best approximation polynomials.

Two independent routes compute the same objects:

* ``min_poly_at_height`` is the brute-force oracle: one full coefficient box
  at a single height cap, minimum taken with certified comparisons.
* ``best_approx_sequence`` is the incremental engine: a ladder of height
  rungs, each ending at a top 1, 2, 4, ..., h_max.  Each rung scans its
  coefficient box for the candidates of the new heights that could beat the
  running record (seeded with P = 1, value 1), and a record sweep continues
  the running records through them, so every rung is pruned by the best
  record found below it.  A rung reaches the largest top whose expected
  hits, about 2 min(thr, 1) (2 top + 1)^n at the record's threshold thr,
  fit a quarter of ``_SCAN_CHUNK_CELLS``, and never past a top over the box
  budget; it always reaches at least the next top.  Any schedule gives the
  same records (``_prefilter_candidates``).
  Within a rung only the candidates that can be the minimum at their height
  reach the exact arithmetic: one whose float value exceeds, by more than
  the float error, the least value at its height or below (or the record)
  provably neither is that minimum nor sets a record (see
  ``_prefilter_candidates``); a cell whose completions all lie beyond the
  height cap is dropped in the scan, which keeps a large xi's rungs lean.
  A ladder with a top over the box budget is refused before its first
  rung, naming that top, unless xi is algebraic of degree <= n: then an
  exact zero met below it is the answer, and the ladder stops at that top.

Three callers draw their candidates from one streamed scanner,
``_scan_box``: both routes and the successive-minima windows of
``paramgeom`` (the seed box is its window with no value cut).  Each asks
for the cells whose float value s (P(xi) without its constant term) is
within a tolerance of a constant term of the box: the record rungs at
their threshold, the windows at their value cut, the oracle once, at a
pigeonhole bound that counts the constant term (see
``min_poly_at_height``).  The scanner checks the box's cell count against a
budget before allocating.  For a narrow tolerance it finds those cells by
binary search in the sorted fractional parts of the trailing axes' sums,
without visiting the others; otherwise it walks the box in chunks of
bounded size.  Either way it yields the same cells in the box's C order,
and the one rigorous error bound of their values is ``_box_dot_error``, so
a cell left out provably holds no wanted candidate (the covering step of
``_scan_box``).  All three complete a yielded cell
by one rule, ``_completions``, the only place a constant term is chosen:
the constant terms of the box that can bring its value within the
caller's bound (a rung's threshold, the oracle's tolerance), each scored
in numpy, and the completions a caller picks come back as canonical
integer rows, each polynomial once (the twin rule for u and -u).
``_min_candidate`` takes a group of rows to its certified minimum:
distinct rows in lexicographic order, the first exact zero, then pairwise
comparisons in exact integer fixed-point arithmetic.
Comparisons whose enclosures overlap escalate precision (doubling, up to a
cap); for algebraic specs an exact tie/zero decision takes over at the
cap, for presumed-transcendental specs PrecisionExhausted propagates.
Each exact zero decision is one integer product (``exact_zeros``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..enclosure import RealEnclosure, fixed_point, ln, DEFAULT_PRECISION_CAP
from ..errors import BudgetExceeded, ExactZeroDetected, InsufficientDigits, PrecisionExhausted
from ..polynomials import IntPolynomial
from ..realspec import RealSpec, real_from_spec
from .records import BestApproxRecord, SequenceData

#: incremental search defaults per degree, then the largest height <= 10 in budget
DEFAULT_HEIGHT_LIMITS = {1: 10**4, 2: 500, 3: 60, 4: 25}

_BASE_BITS = 128

#: most cells one coefficient-box scan may cover
_BOX_BUDGET = 3 * 10**8
#: cells per scan chunk; bounds the scan's float work arrays (8 bytes a cell)
_SCAN_CHUNK_CELLS = 1 << 16
#: round-gap windows narrower than this go to the sorted-fraction scan: its
#: hits are about 2 width of the box's cells, and on the benchmark's boxes
#: the two walks cost the same near width 0.045 (at 1/32 the sorted one
#: takes about 3/4 of the dense one's time)
_SORTED_WIDTH = 1 / 32


class _FixedPointXi:
    """Integer fixed-point view of the powers of xi.

    ``pows[i] / 2^bits`` approximates xi^i with certified error
    ``errs[i] / 2^bits``; dot products with integer coefficient vectors give
    certified enclosures of P(xi) scaled by 2^bits.
    """

    def __init__(self, xi: RealEnclosure, n: int, bits: int):
        self.bits = bits
        self.scale = 1 << bits
        self.pows: List[int] = []
        self.errs: List[int] = []
        power = RealEnclosure.exact(1, xi.precision_bits)
        for i in range(n + 1):
            q, err = fixed_point(power, bits)
            self.pows.append(q)
            self.errs.append(err + 1)
            power = (power * xi).compress((xi.precision_bits or bits) + 8)

    def raw(self, coeffs: Sequence[int]) -> Tuple[int, int]:
        """(S, E) with |P(xi) * 2^bits - S| <= E."""
        s = 0
        e = 0
        for c, p, pe in zip(coeffs, self.pows, self.errs):
            if c:
                s += c * p
                e += abs(c) * pe
        return s, e

    def abs_interval(self, coeffs: Sequence[int]) -> Tuple[int, int]:
        """Integer interval [lo, hi] with |P(xi)| * 2^bits inside it."""
        s, e = self.raw(coeffs)
        s = abs(s)
        return max(0, s - e), s + e

    def value_ball(self, coeffs: Sequence[int]) -> RealEnclosure:
        s, e = self.raw(coeffs)
        return RealEnclosure.from_scaled(s, e, self.scale, self.bits)

    def float_powers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(float powers, rigorous per-power float error bounds)."""
        mids = np.array([p / self.scale for p in self.pows], dtype=np.float64)
        # conversion int/2^bits -> float is within 1 ulp; add the fixed-point error
        errs = np.array(
            [e / self.scale + abs(m) * 2.3e-16 + 5e-300 for e, m in zip(self.errs, mids)],
            dtype=np.float64,
        )
        return mids, errs


def _box_dot_error(mids: np.ndarray, merrs: np.ndarray, height: int) -> float:
    """The search's one float error bound e: each P of the box of ``height``
    has its float value |s - k| (``_completions``) within e of |P(xi)|.
    height * sum(merrs[1:]) covers the float powers' errors, and
    (terms + 2) 2.3e-16 (magnitude + 1) the roundings, by the gamma_n bound
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  The
    magnitude is the scan's value at the corner c_i = height*sign(mids[i]),
    summed in the scan's order (float ``+`` and ``*`` are monotone under
    round-to-nearest, so that is the box's largest |s|, bit for bit), plus
    height max|mids| for the constant term."""
    corner = 0.0
    for m in mids[1:]:
        corner += (height if m >= 0 else -height) * m
    magnitude = corner + height * float(np.max(np.abs(mids)))
    return height * float(np.sum(merrs[1:])) + (len(mids) + 2) * 2.3e-16 * (magnitude + 1.0)


def _check_box(axes: int, height: int, budget: int, task: str, at: str) -> None:
    """Raise BudgetExceeded, naming ``task`` and ``at``, when the box
    [-height, height]^axes has more than ``budget`` cells."""
    cells = (2 * height + 1) ** axes
    if cells > budget:
        raise BudgetExceeded(
            f"{task} needs a coefficient box of {cells:.2e} "
            f"cells at {at}, above the box budget {budget:.0e}")


def _scan_box(mids: np.ndarray, height: int, tol: float, budget: int, task: str, at: str):
    """Stream the cells of the box [-height, height]^axes, axes = len(mids) - 1,
    whose clipped gap |s - clip(rint s, -height, height)| (``_completion_gap``)
    is <= ``tol``: every cell when ``tol`` is infinite.

    s = c_1 mids[1] + c_2 mids[2] + ... is P(xi) without its constant
    term, each product rounded and the sum taken left to right, axis by
    axis; a cell's s is the same bit for bit however the box is walked.  A
    box above ``budget`` cells raises BudgetExceeded (``_check_box``) before
    anything is allocated.

    Covering: a cell left out has every completion by a constant term -k,
    k in [-height, height], at float value |s - k| > ``tol``, since
    clip(rint s) is the integer of [-height, height] nearest s and float
    ``-`` is monotone.  Callers scan at their value bound plus the box's
    float error (``_box_dot_error``), so such a cell provably holds no
    wanted polynomial.  The clipped gap is >= the round gap |s - rint s|,
    which the walks test first.

    The cells come in the box's C order, as (int array of shape (k,
    axes), their s values) pairs, k >= 1; how they are split into pairs is
    the walk's own business, so a caller must not read the split.  Two
    walks give the same cells, order and s bytes: the sorted-fraction walk
    (``_scan_sorted``) when ``_sorted_width`` gives a window (two axes or
    more and a narrow ``tol``), which finds the cells of round gap <= ``tol``
    by binary search and computes s for those only, and the dense walk
    (``_scan_dense``) otherwise.
    """
    _check_box(len(mids) - 1, height, budget, task, at)
    width = _sorted_width(mids, height, tol)
    if width is None:
        return _scan_dense(mids, height, tol)
    return _scan_sorted(mids, height, tol, width)


def _scan_dense(mids: np.ndarray, height: int, tol: float):
    """The dense walk of ``_scan_box``: the box in chunks of about
    ``_SCAN_CHUNK_CELLS`` cells and never less than one line along the last
    axis, which bounds its float work arrays.  A chunk fixes the first
    ``split`` axes, takes a run of ``rows`` rows along the next one (made
    for the chunk, so a box of one axis is never held whole) and the whole
    of the axes after it (``split`` is 0 unless one leading-axis row is over
    the chunk size), so the chunks cut the box's C order into consecutive
    runs; each chunk with a kept cell is one pair.  Its s is built in numpy,
    and the clipped gap tested where the round gap is <= ``tol`` (everywhere
    from 1/2)."""
    axes = len(mids) - 1
    side = 2 * height + 1
    split = 0
    while split < axes - 2 and side ** (axes - 1 - split) > _SCAN_CHUNK_CELLS:
        split += 1
    whole = axes - 1 - split  # axes a chunk covers whole
    rows = min(side, max(1, _SCAN_CHUNK_CELLS // side ** whole))
    coord = np.arange(-height, height + 1, dtype=np.float64) if axes > 1 else None
    # c_i mids[i] of the whole axes along their chunk dimensions, once a box
    terms = [coord.reshape((side,) + (1,) * (axes - i)) * mids[i]
             for i in range(split + 2, axes + 1)]
    work = np.empty((1,) * split + (rows,) + (side,) * whole)  # the full-size sums, reused
    for lead in itertools.product(range(side), repeat=split):
        # the fixed axes' share of s, a scalar summed in the same order
        fixed = None
        for i, j in enumerate(lead, start=1):
            fixed = coord[j] * mids[i] if fixed is None else fixed + coord[j] * mids[i]
        for start in range(0, side, rows):
            s = np.arange(start - height, min(start + rows, side) - height, dtype=np.float64)
            s = s.reshape((1,) * split + (-1,) + (1,) * whole)
            s = s * mids[split + 1] if fixed is None else fixed + s * mids[split + 1]
            for i, term in enumerate(terms, start=split + 2):
                last = work[(slice(None),) * split + (slice(s.shape[split]),)]
                s = np.add(s, term, out=last if i == axes else None)
            v = s.ravel()
            if tol >= 0.5:  # every round gap passes
                flat = (np.arange(v.size) if tol == np.inf
                        else np.flatnonzero(_completion_gap(v, height) <= tol))
            else:  # the clipped gap only where the round gap passes
                flat = np.flatnonzero(_round_gap(v) <= tol)
                flat = flat[_completion_gap(v[flat], height) <= tol]
            if flat.size:
                coeffs = np.stack(np.unravel_index(flat, s.shape), axis=1)
                coeffs += np.array(lead + (start,) + (0,) * whole) - height
                yield coeffs, v[flat]


def _sorted_width(mids: np.ndarray, height: int, tol: float) -> Optional[float]:
    """The window half-width tol + margin of the sorted-fraction walk of
    ``_scan_box`` at ``tol`` (the margin is proved in ``_scan_sorted``), or
    None when the scan walks every cell: one axis, or a window of
    ``_SORTED_WIDTH`` or wider."""
    if len(mids) < 3 or not tol < _SORTED_WIDTH:
        return None
    width = tol + 4 * (len(mids) + 1) * 2.3e-16 * (
        height * float(np.sum(np.abs(mids[1:]))) + 1.0)
    return width if width < _SORTED_WIDTH else None


def _axis_sums(coord: np.ndarray, mids: np.ndarray, first: int, last: int) -> np.ndarray:
    """The float sums c_first mids[first] + ... + c_last mids[last] over the
    box of those axes, summed left to right, flat in C order."""
    s = coord * mids[first]
    for i in range(first + 1, last + 1):
        s = (s[:, None] + coord * mids[i]).ravel()
    return s


def _scan_sorted(mids: np.ndarray, height: int, tol: float, width: float):
    """The sorted-fraction walk of ``_scan_box``: the same cells, found by
    binary search instead of by visiting every cell.

    The axes split into a leading part A (the first axes // 2) and a
    trailing part B.  With s_A and s_B the float sums of their shares of s
    (each left to right) and f = x - floor(x) the fractional part, a cell is
    near an integer when f(s_A) + f(s_B) is near k in {0, 1, 2}.  So f(s_A)
    and f(s_B) are sorted (this is the one place the B side is built), and
    the A values get the B values with f(s_B) in the windows
    [k - f(s_A) - w, k - f(s_A) + w], w = ``width`` = tol + margin
    (``_sorted_width``), by ``np.searchsorted``: the k = 1 window for every
    A value, the k = 0 window for those with f(s_A) <= w, the k = 2 window
    for those with f(s_A) >= fl(1 - 2w).  One search for each end of all
    those windows takes their keys k by k, each k in increasing f(s_A),
    which lets each key's search narrow from the last; the results go back
    to A order.  Only the hits get their s, in the
    scan's own order (on from s_A, which is its partial sum over A), and
    the exact clipped-gap test.
    The A values are taken in A order, in blocks of about
    ``_SCAN_CHUNK_CELLS`` hits; a block's hits are sorted into C order and
    yielded at once, so the cells come in the box's C order.

    Covering: every cell with |s - K| <= tol, K an integer, is a hit, and
    with it every cell of clipped gap <= tol.  Let
    u = 2^-53, p_i = fl(c_i mids[i]), M = height sum |mids[i]| and n the
    number of axes, so sum |p_i| <= (1 + u) M.  s is the left-to-right sum
    of s_A, p_(a+1), ..., p_n (s_A is the scan's own partial sum), and s_B
    that of p_(a+1), ..., p_n; by the bound gamma_(k-1) sum |x_i| on
    recursive summation of k terms (gamma_j = j u / (1 - j u)),
    |s - (s_A + s_B)| <= d = 2 gamma_n (1 + gamma_n)(1 + u) M <= 2.1 n u M.
    The exact fractional parts F_A, F_B lie in [0, 1), and the floats f(s_A),
    f(s_B) are within u of them (one rounding of a value <= 1).  With
    k = K - floor(s_A) - floor(s_B), |F_A + F_B - k| <= tol + d < w < 1/2,
    so k is in {0, 1, 2}, and |f(s_B) - (k - f(s_A))| <= tol + d + 2u.  The
    window ends fl(fl(k - f(s_A)) -+ w) take two roundings of values of
    size <= 5/2, at most 2u each, and w = fl(tol + margin) is at most u
    below tol + margin; so the window holds f(s_B) whenever
    margin >= d + 7u, which 4 (n + 2) 2.3e-16 (M + 1) >= 4 n u M + 8u is.
    The windows of the three k are disjoint, as w < ``_SORTED_WIDTH`` <= 1/4,
    so no cell is a hit twice.

    The skipped (A value, k) windows are empty, as 0 <= f(s_B) <= 1.  For
    k = 0 and f(s_A) > w, the upper end fl(w - f(s_A)) is < 0, since a
    float difference of unequal floats is never 0 and keeps its sign.  For
    k = 2 and f(s_A) < fl(1 - 2w) <= 1 - 2w + u, fl(2 - f(s_A)) >
    1 + 2w - 2u (one rounding of a value in [1, 2], at most u), so the
    lower end fl(fl(2 - f(s_A)) - w) > 1 + w - 3u > 1, as w > 3u.  So the
    searches skipped would each count no hit, and the hits are those of
    searching all three windows for every A value.
    """
    axes = len(mids) - 1
    coord = np.arange(-height, height + 1, dtype=np.float64)
    side = len(coord)
    lead = axes // 2
    s_a = _axis_sums(coord, mids, 1, lead)
    f_a = s_a - np.floor(s_a)
    a_order = np.argsort(f_a)
    f_a = f_a[a_order]
    f_b = _axis_sums(coord, mids, lead + 1, axes)
    f_b -= np.floor(f_b)
    b_order = np.argsort(f_b)
    f_b = f_b[b_order]
    n_a = len(f_a)
    # the A values (in f_a's order) whose k = 0 and k = 2 windows can hold
    # an f(s_B): f_a[:low] <= w and f_a[high:] >= fl(1 - 2w)
    low = int(np.searchsorted(f_a, width, side="right"))
    high = int(np.searchsorted(f_a, 1 - 2 * width, side="left"))
    # k - f(s_A) of the windows searched, k by k, each k in increasing f(s_A)
    base = np.concatenate((0 - f_a[:low], 1 - f_a, 2 - f_a[high:]))
    start = np.searchsorted(f_b, base - width, side="left")
    found = np.searchsorted(f_b, base + width, side="right") - start
    # (A value, k) in A order; a window not searched holds no hit
    lo, count = np.zeros((2, 3 * n_a), dtype=np.intp)
    searched = np.concatenate((a_order[:low], n_a + a_order, 2 * n_a + a_order[high:]))
    lo[searched] = start
    count[searched] = found
    lo, count = lo.reshape(3, n_a).T, count.reshape(3, n_a).T
    per_a = count.sum(axis=1)
    # blocks of A values of about _SCAN_CHUNK_CELLS hits, at least one value
    block = (np.cumsum(per_a) - per_a) // _SCAN_CHUNK_CELLS
    cuts = np.flatnonzero(np.diff(block)) + 1
    for a0, a1 in zip([0] + cuts.tolist(), cuts.tolist() + [len(per_a)]):
        c = count[a0:a1].ravel()
        total = int(c.sum())
        if not total:
            continue
        pos = np.repeat(lo[a0:a1].ravel() - (np.cumsum(c) - c), c) + np.arange(total)
        flat = np.repeat(np.arange(a0, a1) * len(f_b), per_a[a0:a1]) + b_order[pos]
        flat.sort()
        # s_A is the scan's own partial sum: go on from it, axis by axis
        at_a, at_b = np.divmod(flat, len(f_b))
        s = s_a[at_a]
        for i, j in enumerate(np.unravel_index(at_b, (side,) * (axes - lead)), start=lead + 1):
            s += coord[j] * mids[i]
        near = _completion_gap(s, height) <= tol
        if near.any():
            coeffs = np.stack(np.unravel_index(flat[near], (side,) * axes), axis=1) - height
            yield coeffs, s[near]


def _round_gap(s: np.ndarray) -> np.ndarray:
    """|s - rint s| in a new array; the subtraction is exact."""
    d = np.rint(s)
    return np.abs(np.subtract(s, d, out=d), out=d)


def _completion_gap(s: np.ndarray, height: int) -> np.ndarray:
    """|s - clip(rint s, -height, height)| bit for bit, as max(|s - rint s|,
    |s| - height): the max is the first term unless |rint s| > height, where
    |s| - height >= 1/2 is the clipped gap (float ``-`` is monotone)."""
    beyond = np.abs(s)
    beyond -= height
    return np.maximum(_round_gap(s), beyond, out=beyond)


@dataclass
class _SearchContext:
    """Escalating family of fixed-point views plus exact decision helpers."""

    xi_ball: RealEnclosure
    n: int
    spec: Optional[RealSpec] = None

    def __post_init__(self):
        self._views: Dict[int, _FixedPointXi] = {}
        self._balls: Dict[int, RealEnclosure] = {int(self.xi_ball.precision_bits or 0): self.xi_ball}
        # xi's algebraic form (``RealSpec.algebraic_form``), None if unknown
        if self.xi_ball.is_exact:
            form = ("rational", self.xi_ball.mid)
        else:
            form = self.spec.algebraic_form() if self.spec is not None else None
        # whether some P of degree <= n may have P(xi) = 0, decidably: xi is
        # rational or a root of T^k - base with k <= n
        self.zeros_possible = form is not None and (form[0] == "rational" or form[2] <= self.n)
        self._zero_map = None  # (max |entry|, xi's exact evaluation map)
        if form is not None:
            if form[0] == "rational":
                a, b = form[1].numerator, form[1].denominator
                table = [[a ** i * b ** (self.n - i)] for i in range(self.n + 1)]
            else:  # the residue columns of T^k - base
                _, base, k = form
                table = [[base ** (i // k) * (i % k == r) for r in range(min(k, self.n + 1))]
                         for i in range(self.n + 1)]
            top = max(abs(x) for row in table for x in row)
            self._zero_map = (top, np.array(table, dtype=np.int64 if top < 2**63 else object))

    def _ball_at(self, bits: int) -> RealEnclosure:
        # the working ball needs radius well below 2^-bits (exact balls serve
        # any precision)
        need = bits + 64
        usable = [b for b in self._balls.values()
                  if b.rad == 0 or b.rad * (1 << need) <= max(Fraction(1), abs(b.mid))]
        if usable:
            return min(usable, key=lambda b: b.rad)
        if self.spec is None:
            raise PrecisionExhausted(
                f"xi enclosure too coarse for {bits}-bit comparisons and no spec to refine from")
        try:
            ball = real_from_spec(self.spec, need + 4)
        except InsufficientDigits as exc:
            raise PrecisionExhausted(
                f"decimal spec ran out of digits refining to {need} bits") from exc
        self._balls[need] = ball
        return ball

    def view(self, bits: int) -> _FixedPointXi:
        if bits not in self._views:
            self._views[bits] = _FixedPointXi(self._ball_at(bits), self.n, bits)
        return self._views[bits]

    def escalation_bits(self):
        bits = _BASE_BITS
        while True:
            yield bits
            if bits >= DEFAULT_PRECISION_CAP:
                return
            bits = min(2 * bits, DEFAULT_PRECISION_CAP)

    # -- exact decisions for algebraic specs ---------------------------------

    def exact_zeros(self, rows) -> Optional[np.ndarray]:
        """Mask of the integer rows (c_0, ..., c_n) with P(xi) = 0, when
        decidable (xi rational or a root of T^k - base), else None: one
        product of the rows with xi's exact evaluation map.  For xi = a/b
        that is the column a^i b^(n-i), giving b^n P(a/b).  T^k - base is
        irreducible, so 1, xi, ..., xi^(k-1) are independent over the
        rationals and P(xi) = 0 exactly when every residue
        sum_j c_(jk+r) base^j is 0: one column per r.  The product is taken
        in int64 when max|map| * width * max|rows| < 2^63 rules out
        overflow, and in Python ints otherwise (always for object rows)."""
        if self._zero_map is None:
            return None
        top, matrix = self._zero_map
        rows = np.asarray(rows)
        if rows.dtype != object and top * rows.shape[1] * int(np.abs(rows).max(initial=0)) < 2**63:
            products = rows.astype(np.int64) @ matrix
        else:
            products = rows.astype(object) @ matrix.astype(object)
        return ~(products != 0).any(axis=1)


def _compare_candidates(ctx: _SearchContext, a: tuple, b: tuple) -> int:
    """-1 / 0 / +1 comparing |A(xi)| against |B(xi)| with certified arithmetic."""
    for bits in ctx.escalation_bits():
        view = ctx.view(bits)
        lo_a, hi_a = view.abs_interval(a)
        lo_b, hi_b = view.abs_interval(b)
        if hi_a < lo_b:
            return -1
        if hi_b < lo_a:
            return 1
    # at the cap: equal exactly when A - B or A + B vanishes at xi
    ties = ctx.exact_zeros([np.subtract(a, b), np.add(a, b)])
    if ties is not None and ties.any():
        return 0
    raise PrecisionExhausted(
        f"cannot separate |P(xi)| for {a} and {b} at {DEFAULT_PRECISION_CAP} bits")


def _certify_nonzero(ctx: _SearchContext, coeffs: tuple) -> Tuple[int, int, int]:
    """(bits, lo, hi) certifying 0 < lo <= |P(xi)|*2^bits <= hi.

    Raises ExactZeroDetected when P(xi) == 0 exactly.
    """
    for bits in ctx.escalation_bits():
        lo, hi = ctx.view(bits).abs_interval(coeffs)
        if lo > 0:
            return bits, lo, hi
        zero = ctx.exact_zeros([coeffs])
        if zero is not None and zero[0]:
            raise ExactZeroDetected(f"P(xi) = 0 for P with coefficients {coeffs}: "
                                    "xi is algebraic of degree <= n", IntPolynomial(coeffs))
        # provably nonzero or undecidable: escalate for a positive lower bound
    raise PrecisionExhausted(
        f"cannot certify P(xi) != 0 for coefficients {coeffs} at {DEFAULT_PRECISION_CAP} bits")


def _min_candidate(ctx: _SearchContext, rows) -> tuple:
    """Certified minimum of |P(xi)| over the canonical-sign integer rows
    ``rows`` (duplicates allowed), with lexicographic tie-break.

    The distinct rows are taken in lexicographic order.  Where P(xi) = 0 is
    possible and decidable (``ctx.zeros_possible``), the first exact zero
    (``exact_zeros``) is returned: the lexicographically smallest zero, the
    minimum the comparisons would reach; else the rows are compared
    pairwise.  No float stage comes first: both callers hand over only rows
    within 2e + 1e-12 of their least float value (e = ``_box_dot_error``).
    """
    rows = np.asarray(rows, dtype=np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    if ctx.zeros_possible:
        zeros = ctx.exact_zeros(rows)
        if zeros.any():
            return tuple(rows[np.argmax(zeros)].tolist())
    cands = list(map(tuple, rows.tolist()))
    best = cands[0]
    for c in cands[1:]:
        # the rows are sorted and distinct, so a tie keeps the earlier best
        if _compare_candidates(ctx, c, best) < 0:
            best = c
    return best


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _completions(coeffs: np.ndarray, s: np.ndarray, height: int, bound: float,
                 dot_err: float, pick):
    """The completions of scanned cells by a constant term, as rows.

    A cell of ``_scan_box`` at ``height`` (upper coefficients ``coeffs``,
    float value ``s``, error bound ``dot_err`` = e) completes to the
    polynomials with constant term -k for the k = r + j inside the box,
    r = clip(rint s, -height, height) and |j| <= reach =
    min(floor(bound + e + 1/2), 2 height); the zero cell completes to the
    nonzero constants, each once (k < 0).  A completion has float value
    |s - k| and height max(h_u, |k|), h_u the cell's own height;
    ``pick(values, heights)`` (arrays, one entry a completion) marks the
    completions to keep.  They come back as (int64 rows (c_0, c_1, ...) of
    canonical sign, that is first nonzero coefficient positive, their
    values, their heights), cell by cell and k ascending within a cell.

    Covering: every polynomial P of the box with |P(xi)| <= ``bound`` is a
    completion of its cell.  Its -c_0 = k is within ``bound`` of the true
    s, which is within e of the float s, which is within 1/2 of rint s; so
    the integer |k - rint s| is at most floor(bound + e + 1/2) (a float sum
    reaching an integer does not round below it), clipping rint s to the
    box, where k lies, only brings it closer, and no two points of the box
    are more than 2 height apart.  A completion's float value is within e
    of |P(xi)|: ``_box_dot_error`` counts the constant term among its terms
    and ``height`` in its magnitude, so e covers the rounding of s - k too.

    Twin rule: of the cells u and -u only the first in scan order (first
    nonzero coefficient negative; the zero cell is its own twin) is
    completed, so each polynomial comes back once.  This is exact because
    the scan's s of -u is -s(u) bit for bit (coord is symmetric, and under
    round-to-nearest every product and left-to-right sum is sign-symmetric):
    the scan yields -u exactly when it yields u, and -u completes to the
    negated rows of u, with the same float values and heights.
    """
    first = coeffs[np.arange(len(coeffs)), np.argmax(coeffs != 0, axis=1)] <= 0
    coeffs, s = coeffs[first], s[first]
    h_u = np.abs(coeffs).max(axis=1)
    reach = int(min(bound + dot_err + 0.5, 2 * height))
    k = np.clip(np.rint(s), -height, height)[:, None] + np.arange(-reach, reach + 1)
    cell, j = np.nonzero((np.abs(k) <= height) & ((h_u > 0)[:, None] | (k < 0)))
    k = k[cell, j].astype(np.int64)
    values = np.abs(s[cell] - k)
    heights = np.maximum(h_u[cell], np.abs(k))
    picked = pick(values, heights)
    rows = np.column_stack([-k[picked], coeffs[cell[picked]]])
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows *= np.where(lead < 0, -1, 1)[:, None]
    return rows, values[picked], heights[picked]


def _prefilter_candidates(ctx: _SearchContext, h_max: int, h_from: int,
                          threshold: float) -> Dict[int, np.ndarray]:
    """Vectorized scan of the upper-coefficient box of ``h_max``; returns, by
    height, the canonical-sign integer rows of the candidates of height in
    (h_from, h_max] that can be the minimum of |P(xi)| at their height and
    beat ``threshold``, a certified upper bound of the running record's
    value.  On the first rung (threshold >= 1) the zero row completes to
    the constant P = 1, a candidate at height 1.

    Scan mask.  The scan keeps the cells whose clipped gap is within the
    threshold plus e = ``_box_dot_error(h_max)``; by the covering step of
    ``_scan_box`` every other cell has all its completions above the
    threshold, true values included, so none of them beats the record.
    Once the threshold is >= 1/2 (large xi) that drops only the cells whose
    completions all lie beyond the height cap.

    Per-height rule.  Each kept cell completes as ``_completions`` says,
    within the threshold, each completion with its float value and height
    (one left out has a true value above the threshold, so it can neither
    set M(h) nor be a T of the proof below).  M(h) is the prefix minimum of
    those values over the heights in (h_from, h], started at the
    threshold.  A completion is kept when its height h lies in
    (h_from, h_max] and its value is <= M(h) + 2e + 1e-12; a running prefix
    prunes each chunk, and the final one re-tests what it kept.  M is taken
    over the (height, value) pairs of the rows kept so far and the chunk's
    own, not over every height: a row dropped had a value above M at its
    own height, and M only falls, so it never sets M at that height or
    above, and the keep decisions are those of M over every completion.

    Proof that the sweep's records do not change.  At a height h the sweep
    appends the least kept value if it beats the running record R (the
    certified minimum over the heights below h; none before the first
    record).  Kept values at h are values of real polynomials of height h,
    so when the least value mu(h) at h is >= R the sweep appends nothing,
    as it should.  Otherwise every T of height h with |T| = mu(h) < R must
    be kept, so the lexicographic tie-break sees them all.  Such a T has
    |T| <= threshold: R <= threshold, and before the first record (the rung
    of height 1, threshold >= 1) |T| <= 1 as P = 1 is a candidate.  So T
    is a completion of its cell (the covering step of ``_completions`` at
    the threshold), and |T| is at most the value of every polynomial of
    height <= h in the rung and below the threshold.  A float value is
    within e of the true |P(xi)|, up to one rounding of 2^-53 of itself,
    which the pad 1e-12 covers since M <= threshold <= ~1.  So each value
    that set M(h) is >= |T| - e, as is the threshold, while T's own value
    is <= |T| + e <= M(h) + 2e: T passes the scan mask and the per-height
    rule, and is kept.  The proof holds for any rung (h_from, h_max] with
    the record below h_from, so any ladder of rungs gives the same records.
    """
    mids, merrs = ctx.view(_BASE_BITS).float_powers()
    dot_err = _box_dot_error(mids, merrs, h_max)
    thr = threshold + dot_err + 1e-12
    slack = 2 * dot_err + 1e-12
    # the (height, value) pairs that set M, sorted by height: the kept rows,
    # led by the threshold at h_from, where the prefix minimum starts
    floor_h, floor_v = np.array([h_from]), np.array([threshold])

    def prefix(heights):  # M at each of ``heights``, all above h_from
        at = np.searchsorted(floor_h, heights, side="right") - 1
        return np.minimum.accumulate(floor_v)[at]

    def pick(values, heights):
        nonlocal floor_h, floor_v
        new = np.flatnonzero(heights > h_from)  # not of a lower rung, nor the zero polynomial
        order = np.argsort(np.concatenate((floor_h, heights[new])))
        floor_h = np.concatenate((floor_h, heights[new]))[order]
        floor_v = np.concatenate((floor_v, values[new]))[order]
        keep = np.zeros(len(values), dtype=bool)
        keep[new] = values[new] <= prefix(heights[new]) + slack
        # a row not kept lies above M at its own height, so it never sets M
        stays = np.concatenate((np.ones(len(order) - len(new), dtype=bool), keep[new]))[order]
        floor_h, floor_v = floor_h[stays], floor_v[stays]
        return keep

    # the zero row (clipped gap 0) is always yielded, so there is at least one chunk
    kept = [_completions(coeffs, s, h_max, threshold, dot_err, pick)
            for coeffs, s in _scan_box(mids, h_max, thr, _BOX_BUDGET,
                                       "the record search", f"height {h_max}")]
    rows, values, heights = (np.concatenate(part) for part in zip(*kept))
    # the prefix minimum only fell during the scan: test the kept rows again
    final = values <= prefix(heights) + slack
    rows, heights = rows[final], heights[final]
    return {h: rows[heights == h] for h in sorted(set(heights.tolist()))}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _pigeonhole_bins(view: _FixedPointXi, height: int) -> int:
    """M of the oracle's start bound, K from certified upper bounds of |xi^i|."""
    upper = sum(abs(p) + e for p, e in zip(view.pows[1:], view.errs[1:]))
    return ((height + 1) ** (len(view.pows) - 1) - 1) // (upper // view.scale + 1)


def min_poly_at_height(xi: RealEnclosure, n: int, height: int,
                       spec: Optional[RealSpec] = None,
                       ) -> Tuple[IntPolynomial, RealEnclosure]:
    """Brute-force minimizer of |P(xi)| over the whole coefficient box of the
    given height: the oracle the incremental search is checked against.

    Returns the canonical-sign minimizer and a certified enclosure of
    |P(xi)|.  Raises ExactZeroDetected when the minimum is exactly zero
    (xi algebraic of degree <= n) and PrecisionExhausted when candidates
    cannot be separated at the precision cap.

    The box is scanned once (``_scan_box``) for the cells of clipped gap
    <= tol, each completed in the same pass (``_completions`` within tol).
    With m the least completion value (infinite if none) and
    e = ``_box_dot_error``, let thr = m + 2e + 1e-12.  The minimizer and
    its ties have true value <= m + e, so float value <= thr: when
    thr <= tol, the covering steps of ``_scan_box`` and ``_completions``
    give them all.  The zero cell completes to the constants within reach,
    so P = 1 is a completion whenever it can be the minimum (thr >= 1
    makes tol and the reach >= 1).  Completions above the running least
    value plus 2e + 1e-12 are dropped as the scan goes.

    The start counts the constant term.  Take K = floor(sum_(i>=1) |xi^i|)
    + 1 and M = floor(((h+1)^n - 1) / K) (``_pigeonhole_bins``).  The
    (h+1)^n > KM sums s(c) = sum c_i xi^i, c in [0, h]^n, lie in an
    interval of length < hK, so two share one of K buckets of length h and
    one of M bins of length 1/M of their fractional parts.  Their
    difference d is a nonzero cell with |s(d)| < h and s(d) within 1/M of
    an integer k, so |k| < h + 1/M <= h + 1 when M >= 1: P = sum d_i T^i - k
    is in the box, |P(xi)| < 1/M, and d's float gap is < 1/M + e.  So at
    tol = min(1/M + e, 1) + 2e + 1e-12 (1 + 2e + 1e-12 when M = 0),
    m < 1/M + e (P is a completion within tol) or m <= 1 (P = 1 is), and
    thr <= tol: one scan holds every minimizer and tie.  K = 1 is
    Dirichlet's bound, whose cell may need a constant term outside the box
    when xi > 1.  Should rounding ever give thr > tol, the box is scanned
    once more at min(thr, 1 + 2e + 1e-12).
    """
    if height < 1 or n < 1:
        raise ValueError("need height >= 1 and n >= 1")
    ctx = _SearchContext(xi, n, spec=spec)
    mids, merrs = ctx.view(_BASE_BITS).float_powers()
    dot_err = _box_dot_error(mids, merrs, height)
    slack = 2 * dot_err + 1e-12
    bins = _pigeonhole_bins(ctx.view(_BASE_BITS), height)
    tol = (min(1 / bins + dot_err, 1.0) if bins else 1.0) + slack

    def pick(values, heights):
        nonlocal least
        least = min(least, float(np.min(values, initial=np.inf)))
        return values <= least + slack

    while True:
        least = np.inf  # the least completion value so far
        # the zero cell (clipped gap 0) is always yielded, so there is at least one part
        kept = [_completions(coeffs, s, height, tol, dot_err, pick)[:2]
                for coeffs, s in _scan_box(mids, height, tol, _BOX_BUDGET, "the oracle",
                                           f"height {height}")]
        thr = least + slack
        if thr <= tol:
            break
        # ruled out by the start bound; P = 1 caps the minimum at 1
        tol = min(thr, 1.0 + slack)
    rows, values = (np.concatenate(part) for part in zip(*kept))
    # an exact zero comes back as the minimizer, and certifying it raises
    best = _min_candidate(ctx, rows[values <= thr])
    bits, lo, hi = _certify_nonzero(ctx, best)
    ball = RealEnclosure.from_scaled(lo + hi, hi - lo, 2 << bits, bits)
    return IntPolynomial(best), abs(ball)


def _record_sweep(ctx: _SearchContext, cands: Dict[int, np.ndarray], records: List[tuple]):
    """Continue the running ``records`` through ``cands``, rows by height
    (all higher than the last record), heights ascending, with certified
    strict improvements."""
    for h in sorted(cands):
        best = _min_candidate(ctx, cands[h])
        if not records or _compare_candidates(ctx, best, records[-1]) < 0:
            records.append(best)


def _record_threshold(ctx: _SearchContext, coeffs: tuple) -> float:
    """The float threshold a rung is pruned with: the record's certified
    value, padded."""
    bits, lo, hi = _certify_nonzero(ctx, coeffs)
    return float(Fraction(hi, 1 << bits)) * (1 + 1e-9) + 1e-15


def best_approx_sequence(spec: RealSpec, n: int, h_max: Optional[int] = None,
                         precision_bits: int = 192) -> SequenceData:
    """The sequence of record-setting approximants up to the height limit.

    A record is kept iff it strictly improves the minimum of |P(xi)| over
    all smaller-or-equal heights; the result agrees exactly with
    ``min_poly_at_height`` at every recorded height.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if h_max is None:
        h_max = DEFAULT_HEIGHT_LIMITS.get(n) or max(
            [1] + [h for h in range(1, 11) if (2 * h + 1) ** n <= _BOX_BUDGET])
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    xi = real_from_spec(spec, max(precision_bits, _BASE_BITS) + 64)
    ctx = _SearchContext(xi, n, spec=spec)

    tops = [1]
    while tops[-1] < h_max:
        tops.append(min(2 * tops[-1], h_max))
    if not ctx.zeros_possible:
        # a rung over the box budget is refused before the first is scanned;
        # an algebraic xi of degree <= n is left to its ladder, since an
        # exact zero on the way is the answer
        for top in tops:
            _check_box(n, top, _BOX_BUDGET, "the record search", f"height {top}")
    # the tops before the first one over the box budget
    fits = list(itertools.takewhile(lambda t: (2 * t + 1) ** n <= _BOX_BUDGET, tops))
    records: List[tuple] = []
    rung = 0
    while rung < h_max:
        # the running record prunes the next rung; P = 1 (value 1) stands in
        # for it below the first
        thr = _record_threshold(ctx, records[-1] if records else (1,) + (0,) * n)
        # the largest top in budget whose expected hits, about
        # 2 min(thr, 1) (2 top + 1)^n, fit a quarter chunk; at least the next top
        top = max([t for t in fits if 2 * min(thr, 1.0) * (2 * t + 1) ** n
                   <= _SCAN_CHUNK_CELLS // 4] + [next(t for t in tops if t > rung)])
        _record_sweep(ctx, _prefilter_candidates(ctx, top, rung, thr), records)
        rung = top

    out_records: List[BestApproxRecord] = []
    for i, coeffs in enumerate(records):
        bits, lo, hi = _certify_nonzero(ctx, coeffs)
        value = RealEnclosure.from_scaled(lo + hi, hi - lo, 2 << bits, precision_bits)
        poly = IntPolynomial(coeffs)
        out_records.append(BestApproxRecord(
            k=i + 1,
            poly=poly,
            height=poly.height(),
            log_abs_value=ln(value, precision_bits),
        ))
    return SequenceData(spec, n, out_records, h_max, precision_bits)
