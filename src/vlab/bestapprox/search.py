"""Verified search for best approximation polynomials.

Two independent routes compute the same objects:

* ``min_poly_at_height`` is the brute-force oracle: one full coefficient box
  at a single height cap, minimum taken with certified comparisons.
* ``best_approx_sequence`` is the incremental engine: a ladder of height
  rungs 1, 2, 4, ..., h_max.  Each rung scans its coefficient box for the
  candidates of the new heights that could beat the running record (seeded
  with P = 1, value 1), and a record sweep continues the running records
  through them, so every rung is pruned by the best record found below it.
  Within a rung only the candidates that can be the minimum at their height
  reach the exact arithmetic: one whose float value exceeds, by more than
  the float error, the least value at its height or below (or the record)
  provably neither is that minimum nor sets a record (see
  ``_prefilter_candidates``); a cell whose completions all lie beyond the
  height cap is dropped in the scan, which keeps a large xi's rungs lean.
  A ladder with a rung over the box budget is refused before its first
  rung, naming that rung, unless xi is algebraic of degree <= n: then an
  exact zero met on the way is the answer.

Three callers draw their candidates from one streamed scanner,
``_scan_box``: both routes and the successive-minima windows of
``paramgeom`` (the seed box is its window with no value cut).  The scanner
checks the box's cell count against a budget before allocating, walks the
box in chunks of bounded size, and keeps the cells a caller's mask picks
from a chunk's float values and corner alone; the one rigorous error bound
of those values is ``_box_dot_error``, so a pruned cell provably holds no
wanted candidate.  All three complete a kept cell by one rule,
``_completions``, the only place a constant term is chosen: the constant
terms of the box that can bring its value within the caller's bound (1
for the routes), each scored in numpy, and the completions a caller picks
come back as canonical integer rows.  ``_min_candidate`` takes a group of
rows to its certified minimum: distinct rows in lexicographic order, a
float prescreen over all of them at once, the only exact-zero shortcut,
then pairwise comparisons in exact integer fixed-point arithmetic.
Comparisons whose enclosures overlap escalate precision (doubling, up to a
cap); for algebraic specs an exact tie/zero decision takes over at the
cap, for presumed-transcendental specs PrecisionExhausted propagates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..enclosure import RealEnclosure, dyadic_round, ln, DEFAULT_PRECISION_CAP
from ..errors import BudgetExceeded, ExactZeroDetected, InsufficientDigits, PrecisionExhausted
from ..polynomials import IntPolynomial
from ..realspec import RealSpec, real_from_spec
from .records import BestApproxRecord, SequenceData

#: incremental search defaults per degree, a desk-scale knob
DEFAULT_HEIGHT_LIMITS = {1: 10**4, 2: 500, 3: 60, 4: 25}

_BASE_BITS = 128

#: most cells one coefficient-box scan may cover
_BOX_BUDGET = 3 * 10**8
#: cells per scan chunk; bounds the scan's float work arrays (8 bytes a cell)
_SCAN_CHUNK_CELLS = 1 << 16


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
            mid = dyadic_round(power.mid, bits)
            err = power.rad + abs(power.mid - mid)
            self.pows.append(int(mid * self.scale))
            self.errs.append(int(-((-err.numerator * self.scale) // err.denominator)) + 1)
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
        return RealEnclosure(Fraction(s, self.scale), Fraction(e, self.scale), self.bits)

    def float_powers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(float powers, rigorous per-power float error bounds)."""
        mids = np.array([p / self.scale for p in self.pows], dtype=np.float64)
        # conversion int/2^bits -> float is within 1 ulp; add the fixed-point error
        errs = np.array(
            [e / self.scale + abs(m) * 2.3e-16 + 5e-300 for e, m in zip(self.errs, mids)],
            dtype=np.float64,
        )
        return mids, errs


def _float_dot_error(height: int, err_sum: float, terms: int, magnitude: float) -> float:
    """Rigorous error of a float dot product of ``terms`` integers of size
    <= ``height`` with float powers whose errors sum to ``err_sum``, when the
    absolute products sum to at most ``magnitude``."""
    return height * err_sum + (terms + 2) * 2.3e-16 * (magnitude + 1.0)


def _box_dot_error(mids: np.ndarray, merrs: np.ndarray, height: int) -> float:
    """``_float_dot_error`` for every cell ``_scan_box`` visits at ``height``.

    The magnitude is the scan's value at the corner c_i = height*sign(mids[i]),
    summed in the scan's order: float ``+`` and ``*`` are monotone under
    round-to-nearest, so that is the box's largest |s|, bit for bit."""
    corner = 0.0
    for m in mids[1:]:
        corner += (height if m >= 0 else -height) * m
    return _float_dot_error(height, float(np.sum(merrs[1:])), len(mids),
                            corner + height * float(np.max(np.abs(mids))))


def _check_box(axes: int, height: int, budget: int, task: str, at: str) -> None:
    """Raise BudgetExceeded, naming ``task`` and ``at``, when the box
    [-height, height]^axes has more than ``budget`` cells."""
    cells = (2 * height + 1) ** axes
    if cells > budget:
        raise BudgetExceeded(
            f"{task} needs a coefficient box of {cells:.2e} "
            f"cells at {at}, above the box budget {budget:.0e}")


def _scan_box(mids: np.ndarray, height: int, keep, budget: int, task: str, at: str):
    """Stream the kept cells of the box [-height, height]^axes, axes = len(mids) - 1.

    The box is walked in chunks of about ``_SCAN_CHUNK_CELLS`` cells, and
    never less than one line along the last axis: a chunk fixes the first
    ``split`` axes, takes a run of rows along the next one and the whole of
    the axes after it (``split`` is 0 unless one leading-axis row is over
    the chunk size).  ``keep(s, corner)`` gets a chunk as
    s = c_1 mids[1] + ... (P(xi) without its constant term, summed in axis
    order), an array with one dimension per axis, s[j] being the cell
    c = j + corner - height, and returns a mask.  s is reused for the next
    chunk, so ``keep`` must neither change it nor hold on to it.
    Each chunk yields its kept cells as (int array of shape (k, axes), their
    s values), in C order.  A box above ``budget`` cells raises
    BudgetExceeded (``_check_box``) before anything is allocated.
    """
    axes = len(mids) - 1
    side = 2 * height + 1
    _check_box(axes, height, budget, task, at)
    coord = np.arange(-height, height + 1, dtype=np.float64)
    split = 0
    while split < axes - 2 and side ** (axes - 1 - split) > _SCAN_CHUNK_CELLS:
        split += 1
    whole = axes - 1 - split  # axes a chunk covers whole
    rows = min(side, max(1, _SCAN_CHUNK_CELLS // side ** whole))
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
            s = coord[start:start + rows].reshape((1,) * split + (-1,) + (1,) * whole)
            s = s * mids[split + 1] if fixed is None else fixed + s * mids[split + 1]
            for i, term in enumerate(terms, start=split + 2):
                last = work[(slice(None),) * split + (slice(s.shape[split]),)]
                s = np.add(s, term, out=last if i == axes else None)
            corner = lead + (start,) + (0,) * whole
            flat = np.flatnonzero(keep(s, corner))
            if flat.size:
                coeffs = np.stack(np.unravel_index(flat, s.shape), axis=1)
                coeffs += np.array(corner) - height
                yield coeffs, s.ravel()[flat]


def _zero_cell(s: np.ndarray, corner: tuple, height: int) -> Optional[tuple]:
    """Index of the zero tuple c = 0 in the chunk s of ``_scan_box`` at
    ``corner``, or None when the chunk does not hold it."""
    at = tuple(height - c for c in corner)
    return at if all(0 <= a < m for a, m in zip(at, s.shape)) else None


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
        # whether some P of degree <= n may have P(xi) = 0, decidably: xi is
        # exact, rational, or a root of T^k - base with k <= n
        form = self.spec.algebraic_form() if self.spec is not None else None
        self.zeros_possible = self.xi_ball.is_exact or (
            form is not None and (form[0] == "rational" or form[2] <= self.n))

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

    def exact_sign(self, poly: IntPolynomial) -> Optional[int]:
        """Exact sign of P(xi) when decidable, else None."""
        if self.xi_ball.is_exact:
            form = ("rational", self.xi_ball.mid)
        else:
            form = self.spec.algebraic_form() if self.spec is not None else None
        if form is None:
            return None
        if form[0] == "rational":
            return poly.sign_at(form[1])
        _, base, k = form
        residues = [0] * k
        for i, c in enumerate(poly.coeffs):
            residues[i % k] += c * base ** (i // k)
        if all(r == 0 for r in residues):
            return 0
        # provably nonzero; the ball sign resolves at finite precision
        from ..enclosure import nth_root

        bits = 128
        while True:
            root = nth_root(Fraction(base), k, bits)
            ball = RealEnclosure.exact(0, bits)
            for r in range(k - 1, -1, -1):
                ball = ball * root + residues[r]
            s = ball.sign()
            if s is not None:
                return s
            bits *= 2

    def is_exact_zero(self, poly: IntPolynomial) -> Optional[bool]:
        s = self.exact_sign(poly)
        return None if s is None else (s == 0)

    def values_exactly_equal(self, p1: IntPolynomial, p2: IntPolynomial) -> Optional[bool]:
        """Whether |P1(xi)| == |P2(xi)| exactly, when decidable."""
        for q in (p1 - p2, p1 + p2):
            z = self.is_exact_zero(q)
            if z is None:
                return None
            if z:
                return True
        return False


def _canonical(coeffs: Sequence[int]) -> tuple:
    for c in coeffs:
        if c:
            return tuple(coeffs) if c > 0 else tuple(-x for x in coeffs)
    return tuple(coeffs)


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
    eq = ctx.values_exactly_equal(IntPolynomial(a), IntPolynomial(b))
    if eq is True:
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
        z = ctx.is_exact_zero(IntPolynomial(coeffs))
        if z is True:
            raise ExactZeroDetected(f"P(xi) = 0 for P with coefficients {coeffs}: "
                                    "xi is algebraic of degree <= n", IntPolynomial(coeffs))
        if z is False:
            continue  # provably nonzero, keep escalating for a positive lower bound
    raise PrecisionExhausted(
        f"cannot certify P(xi) != 0 for coefficients {coeffs} at {DEFAULT_PRECISION_CAP} bits")


def _min_candidate(ctx: _SearchContext, rows) -> tuple:
    """Certified minimum of |P(xi)| over the canonical-sign integer rows
    ``rows`` (duplicates allowed), with lexicographic tie-break.

    The distinct rows are taken in lexicographic order.  Large groups get a
    rigorous float prescreen first: a row whose float value minus its
    certified error bound exceeds the best float value plus that bound
    provably is not the minimum.

    Where P(xi) = 0 is possible and decidable (``ctx.zeros_possible``), the
    rows whose float value cannot be told from 0 are tested exactly in
    order, and the first exact zero is returned: it is the lexicographically
    smallest zero, the minimum the comparisons would reach.  Every exact
    zero is among them, since the float error bound contains it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    if len(rows) > 32 or ctx.zeros_possible:
        mids, merrs = ctx.view(_BASE_BITS).float_powers()
        value = np.abs(rows @ mids)
        height = np.abs(rows).max(axis=1)
        terms = rows.shape[1]
        err = _float_dot_error(height, float(np.sum(merrs)), terms,
                               terms * height * float(np.max(np.abs(mids))))
        if ctx.zeros_possible:
            for c in map(tuple, rows[value <= err].tolist()):
                if ctx.is_exact_zero(IntPolynomial(c)):
                    return c
        if len(rows) > 32:
            rows = rows[value - err <= np.min(value + err)]
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
    """
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
    value (a row may come twice).  The zero row completes to the constant
    P = 1, a candidate at height 1.

    Scan mask.  The scan keeps the cells whose clipped gap
    |s - clip(rint s, -h_max, h_max)| (``_completion_gap``) is within the
    threshold plus e = ``_box_dot_error(h_max)``; every other cell has all
    its completions above the threshold, true values included, so none of
    them beats the record.  Every completion inside the box has float value
    >= the clipped gap: the clipped rint is the integer of [-h_max, h_max]
    nearest s, and float ``-`` is monotone.  The clipped gap is >= the round
    gap |s - rint s|, so the mask tests the round gap first and the clipped
    gap only on the cells that pass; once the threshold is >= 1/2 (large xi)
    the round gap passes every cell, and the clipped gap drops the cells
    whose completions all lie beyond the height cap.

    Per-height rule.  Each kept cell completes as ``_completions`` says
    (three constant terms when e < 1/2), each completion with its float
    value and height.  M(h) is the prefix minimum of those values over the
    heights in (h_from, h], started at the threshold.  A completion is kept
    when its height h lies in (h_from, h_max] and its value is
    <= M(h) + 2e + 1e-12; a running prefix prunes each chunk, and the final
    one re-tests what it kept.

    Proof that the sweep's records do not change.  At a height h the sweep
    appends the least kept value if it beats the running record R (the
    certified minimum over the heights below h; none before the first
    record).  Kept values at h are values of real polynomials of height h,
    so when the least value mu(h) at h is >= R the sweep appends nothing,
    as it should.  Otherwise every T of height h with |T| = mu(h) < R must
    be kept, so the lexicographic tie-break sees them all.  Such a T has
    |T| <= 1 (P = 1 is a candidate at height 1), so it is a completion of
    its cell (the covering step of ``_completions``), and |T| is at most
    the value of every polynomial of height <= h in the rung and below the
    threshold.  A float value is within e of the true |P(xi)|, up to one
    rounding of 2^-53 of itself, which the pad 1e-12 covers since
    M <= threshold <= ~1.  So each value that set M(h) is >= |T| - e, as
    is the threshold, while T's own value is <= |T| + e <= M(h) + 2e: T
    passes the scan mask and the per-height rule, and is kept.
    """
    mids, merrs = ctx.view(_BASE_BITS).float_powers()
    dot_err = _box_dot_error(mids, merrs, h_max)
    thr = threshold + dot_err + 1e-12
    slack = 2 * dot_err + 1e-12
    # the least completion value seen at each height; the threshold stands
    # at h_from, where the prefix minimum starts
    best = np.full(h_max + 1, np.inf)
    best[h_from] = threshold

    def keep(s, corner):
        near = _round_gap(s) <= thr
        near[near] = _completion_gap(s[near], h_max) <= thr
        return near

    def pick(values, heights):
        new = heights > h_from  # not of a lower rung, nor the zero polynomial
        np.minimum.at(best, heights[new], values[new])
        return new & (values <= np.minimum.accumulate(best)[heights] + slack)

    # the zero row passes the mask, so the scan yields at least one chunk
    kept = [_completions(coeffs, s, h_max, 1.0, dot_err, pick)
            for coeffs, s in _scan_box(mids, h_max, keep, _BOX_BUDGET,
                                       "the record search", f"height {h_max}")]
    rows, values, heights = (np.concatenate(part) for part in zip(*kept))
    # the prefix minimum only fell during the scan: test the kept rows again
    final = values <= (np.minimum.accumulate(best) + slack)[heights]
    rows, heights = rows[final], heights[final]
    return {h: rows[heights == h] for h in np.flatnonzero(np.bincount(heights)).tolist()}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def naive_min_poly(xi: RealEnclosure, n: int, height: int) -> Tuple[IntPolynomial, RealEnclosure]:
    """Reference oracle: literal enumeration of the whole box with plain ball
    Horner evaluation, sharing nothing with the production engines.  Only
    viable for tiny boxes; used to validate the real paths in tests."""
    from ..rootisolation import poly_eval_enclosure

    best: Optional[tuple] = None
    best_ball: Optional[RealEnclosure] = None
    seen = set()
    for coeffs in itertools.product(range(-height, height + 1), repeat=n + 1):
        if not any(coeffs):
            continue
        c = _canonical(coeffs)
        if c in seen:
            continue
        seen.add(c)
        ball = abs(poly_eval_enclosure(IntPolynomial(c), xi))
        if best is None:
            best, best_ball = c, ball
            continue
        less = ball.strictly_less(best_ball)
        if less is True:
            best, best_ball = c, ball
        elif less is None:
            raise PrecisionExhausted(
                f"naive oracle cannot separate {c} from {best}; pass a finer xi")
    return IntPolynomial(best), best_ball


def min_poly_at_height(xi: RealEnclosure, n: int, height: int,
                       spec: Optional[RealSpec] = None,
                       ) -> Tuple[IntPolynomial, RealEnclosure]:
    """Brute-force minimizer of |P(xi)| over the whole coefficient box of the
    given height: the oracle the incremental search is checked against.

    Returns the canonical-sign minimizer and a certified enclosure of
    |P(xi)|.  Raises ExactZeroDetected when the minimum is exactly zero
    (xi algebraic of degree <= n) and PrecisionExhausted when candidates
    cannot be separated at the precision cap.
    """
    if height < 1 or n < 1:
        raise ValueError("need height >= 1 and n >= 1")
    ctx = _SearchContext(xi, n, spec=spec)
    mids, merrs = ctx.view(_BASE_BITS).float_powers()
    dot_err = _box_dot_error(mids, merrs, height)
    slack = 2 * dot_err + 1e-12
    m = np.inf  # running minimum of the gap over the cells scanned so far

    def keep(s, corner):
        nonlocal m
        # the gap is >= |s - rint s|: no other cell can lower m or be kept
        near = _round_gap(s) <= m + slack
        zero = _zero_cell(s, corner, height)
        if zero is not None:  # constants handled explicitly
            near[zero] = False
        d = _completion_gap(s[near], height)
        if d.size:
            m = min(m, float(np.min(d)))
        # m only falls, so this keeps every cell the final threshold keeps
        near[near] = d <= m + slack
        return near

    chunks = list(_scan_box(mids, height, keep, _BOX_BUDGET,
                            "the oracle", f"height {height}"))
    # P = 1 caps the minimum at 1, so the minimizer and its ties are
    # completions of their cells (``_completions``) with float value within
    # e of a value <= min(m + e, 1); the slack keeps them
    thr = min(m, 1.0) + slack
    rows = [np.eye(1, n + 1, dtype=np.int64)]  # P = 1, the constant fallback
    for coeffs, s in chunks:
        rows.append(_completions(coeffs, s, height, 1.0, dot_err,
                                 lambda values, heights: values <= thr)[0])
    # an exact zero comes back as the minimizer, and certifying it raises
    best = _min_candidate(ctx, np.concatenate(rows))
    bits, lo, hi = _certify_nonzero(ctx, best)
    ball = RealEnclosure(Fraction(lo + hi, 2 << bits), Fraction(hi - lo, 2 << bits), bits)
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
        h_max = DEFAULT_HEIGHT_LIMITS.get(n, 10)
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
    records: List[tuple] = []
    rung = 0
    for top in tops:
        # the running record prunes the next rung; P = 1 (value 1) stands in
        # for it below the first
        thr = _record_threshold(ctx, records[-1] if records else (1,) + (0,) * n)
        _record_sweep(ctx, _prefilter_candidates(ctx, top, rung, thr), records)
        rung = top

    out_records: List[BestApproxRecord] = []
    for i, coeffs in enumerate(records):
        bits, lo, hi = _certify_nonzero(ctx, coeffs)
        value = RealEnclosure(Fraction(lo + hi, 2 << bits), Fraction(hi - lo, 2 << bits),
                              precision_bits)
        poly = IntPolynomial(coeffs)
        out_records.append(BestApproxRecord(
            k=i + 1,
            poly=poly,
            height=poly.height(),
            log_abs_value=ln(value, precision_bits),
        ))
    return SequenceData(spec, n, out_records, h_max, precision_bits)
