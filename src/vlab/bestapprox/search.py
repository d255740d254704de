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
  fit a quarter of ``boxscan.SCAN_CHUNK_CELLS``, and never past a top over
  the box budget; it always reaches at least the next top.  Any schedule
  gives the same records (``_prefilter_candidates``).
  Within a rung only the candidates that can be the minimum at their height
  reach the exact arithmetic: one whose float value exceeds, by more than
  the float error, the least value at its height or below (or the record)
  provably neither is that minimum nor sets a record (see
  ``_prefilter_candidates``); a cell whose completions all lie beyond the
  height cap is dropped in the scan, which keeps a large xi's rungs lean.
  A ladder with a top over the box budget is refused before its first
  rung, naming that top, unless xi is algebraic of degree <= n: then an
  exact zero met below it is the answer, and the ladder stops at that top.

Both routes draw their candidates from the box scan of ``boxscan``, the
kernel they share with the successive minima of ``paramgeom``.
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import boxscan
# under its old name: perfbench/tracing.py's kernels() imports it from here
from ..boxscan import FixedPointXi as _FixedPointXi
from ..enclosure import RealEnclosure, ln, DEFAULT_PRECISION_CAP
from ..errors import ExactZeroDetected, InsufficientDigits, PrecisionExhausted
from ..polyalg import IntegerMap
from ..polynomials import IntPolynomial
from ..realspec import RealSpec, real_from_spec
from .records import BestApproxRecord, SequenceData

#: incremental search defaults per degree, then the largest height <= 10 in budget
DEFAULT_HEIGHT_LIMITS = {1: 10**4, 2: 500, 3: 60, 4: 25}

_BASE_BITS = 128


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
        self._zero_map = None  # xi's exact evaluation map
        if form is not None:
            if form[0] == "rational":
                a, b = form[1].numerator, form[1].denominator
                table = [[a ** i * b ** (self.n - i)] for i in range(self.n + 1)]
            else:  # the residue columns of T^k - base
                _, base, k = form
                table = [[base ** (i // k) * (i % k == r) for r in range(min(k, self.n + 1))]
                         for i in range(self.n + 1)]
            self._zero_map = IntegerMap(table)

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
        sum_j c_(jk+r) base^j is 0: one column per r.  The product and its
        overflow guard are ``IntegerMap.zeros``."""
        return None if self._zero_map is None else self._zero_map.zeros(rows)


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
    within 2e + 1e-12 of their least float value (e = ``boxscan.box_dot_error``).
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

def _prefilter_candidates(ctx: _SearchContext, h_max: int, h_from: int,
                          threshold: float) -> Dict[int, np.ndarray]:
    """Vectorized scan of the upper-coefficient box of ``h_max``; returns, by
    height, the canonical-sign integer rows of the candidates of height in
    (h_from, h_max] that can be the minimum of |P(xi)| at their height and
    beat ``threshold``, a certified upper bound of the running record's
    value.  On the first rung (threshold >= 1) the zero row completes to
    the constant P = 1, a candidate at height 1.

    Scan mask.  The scan keeps the cells whose clipped gap is within the
    threshold plus e = ``box_dot_error(h_max)``; by the covering step of
    ``scan_box`` every other cell has all its completions above the
    threshold, true values included, so none of them beats the record.
    Once the threshold is >= 1/2 (large xi) that drops only the cells whose
    completions all lie beyond the height cap.

    Per-height rule.  Each kept cell completes as ``completions`` says,
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
    is a completion of its cell (the covering step of ``completions`` at
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
    dot_err = boxscan.box_dot_error(mids, merrs, h_max)
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
    kept = [boxscan.completions(coeffs, s, h_max, threshold, dot_err, pick)
            for coeffs, s in boxscan.scan_box(mids, h_max, thr, "the record search",
                                              f"height {h_max}")]
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

    The box is scanned once (``boxscan.scan_box``) for the cells of clipped
    gap <= tol, each completed in the same pass (``completions`` within tol).
    With m the least completion value (infinite if none) and
    e = ``box_dot_error``, let thr = m + 2e + 1e-12.  The minimizer and
    its ties have true value <= m + e, so float value <= thr: when
    thr <= tol, the covering steps of ``scan_box`` and ``completions``
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
    dot_err = boxscan.box_dot_error(mids, merrs, height)
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
        kept = [boxscan.completions(coeffs, s, height, tol, dot_err, pick)[:2]
                for coeffs, s in boxscan.scan_box(mids, height, tol, "the oracle",
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
            [1] + [h for h in range(1, 11) if boxscan.in_budget(n, h)])
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    xi = real_from_spec(spec, max(precision_bits, _BASE_BITS) + 64)
    ctx = _SearchContext(xi, n, spec=spec)

    tops = [1]
    while tops[-1] < h_max:
        tops.append(min(2 * tops[-1], h_max))
    # the tops before the first one over the box budget
    fits = list(itertools.takewhile(lambda t: boxscan.in_budget(n, t), tops))
    if fits != tops and not ctx.zeros_possible:
        # a rung over the box budget is refused before the first is scanned;
        # an algebraic xi of degree <= n is left to its ladder, since an
        # exact zero on the way is the answer
        boxscan.check_box(n, tops[len(fits)], "the record search", f"height {tops[len(fits)]}")
    records: List[tuple] = []
    rung = 0
    while rung < h_max:
        # the running record prunes the next rung; P = 1 (value 1) stands in
        # for it below the first
        thr = _record_threshold(ctx, records[-1] if records else (1,) + (0,) * n)
        # the largest top in budget whose expected hits, about
        # 2 min(thr, 1) (2 top + 1)^n, fit a quarter chunk; at least the next top
        top = max([t for t in fits if 2 * min(thr, 1.0) * (2 * t + 1) ** n
                   <= boxscan.SCAN_CHUNK_CELLS // 4] + [next(t for t in tops if t > rung)])
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
