"""Parametric geometry of numbers over the degree-(2n-2) ambient space.

The lattice is the unimodular image of Z^(2n-1) under (a_1, ..., a_{2n-2},
a_0 + a_1 xi + ... + a_{2n-2} xi^(2n-2)); the parametric convex bodies are
boxes with semi-axes Q^(1/(2n-2)) (coefficient directions) and Q^(-1) (value
direction).  Their volume is (2 Q^(1/(2n-2)))^(2n-2) * (2/Q) = 2^(2n-1),
independent of Q, and the lattice determinant is 1, so Minkowski's second
theorem pins the successive minima product lambda_1 ... lambda_{2n-1} inside
[2^(2n-1)/(2n-1)!, 2^(2n-1)] / vol = [1/(2n-1)!, 1]; in log coordinates
|sum_j L_j(q)| <= log((2n-1)!) + (2n-1) log 2 =: C_n with room to spare.

A polynomial P of height H contributes the trajectory
L_P(q) = max(log H - q/(2n-2), log|P(xi)| + q), a two-segment piecewise
linear function with slopes -1/(2n-2) and +1.

The exact minima at many q of one (xi, n), the meeting points of
``verify`` or the grid of ``graph``, share a ``_MinimaSweep``: windows are
enumerated without q, the |P(xi)| balls and logs are made once, and
``_MinimaSweep.window`` alone charges a window, kept or fresh, to the
budgets of a q and scores it there.  A sweep lives for one command.

Pool-mode minima bounds use the shifted frame xi -> xi - floor(xi): the
shift is a unimodular coefficient map that preserves |P(xi)| but changes
heights, so only the shifted-frame outputs are comparable to each other.
A frame makes the pool's q-free terms once, so a pool call at each q only
takes the maximum of the two branches and runs the greedy.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .enclosure import RealEnclosure, exp_fraction, ln, ln2_constant, ln_fraction
from .errors import BudgetExceeded, DegenerateRecords, PrecisionExhausted
from .polynomials import taylor_shift
from .polyalg import IntegerComplement
from .bestapprox.records import BestApproxRecord, SequenceData
from .bestapprox.search import (_BOX_BUDGET, _FixedPointXi, _box_dot_error, _check_box,
                                _completions, _float_dot_error, _scan_box)

#: working precision of the successive-minima scores (fixed-point view and logs)
_MINIMA_BITS = 160
#: most polynomials one successive-minima computation may score
_CANDIDATE_BUDGET = 10**7


@dataclass(frozen=True)
class GraphPoint:
    """Meeting data of consecutive trajectories: the crossing q_k, the
    minimum point s_k of the earlier trajectory, and the normalized value
    omega_k = L(q_k)/q_k.  omega < 0 characterizes the hypothetical regime
    the bounds are fought in; genuine desk-scale data usually has omega >= 0,
    so nothing here asserts a sign: ``omega.sign()`` reads it when certain."""

    k: int
    q: RealEnclosure
    s: RealEnclosure
    omega: RealEnclosure


def meeting_point(rec_prev: BestApproxRecord, rec: BestApproxRecord, n: int,
                  bits: int = 96) -> GraphPoint:
    """Solve L_{P_{k-1}}(q_k) = L_{P_k}(q_k) for consecutive records."""
    if n < 2:
        raise ValueError("meeting points need n >= 2 (the ambient slope degenerates)")
    if rec.height <= rec_prev.height:
        raise DegenerateRecords("heights must strictly increase")
    if not (rec.log_abs_value.strictly_less(rec_prev.log_abs_value) is True):
        raise DegenerateRecords("values must strictly decrease")
    m = 2 * n - 2
    log_h_cur = ln_fraction(Fraction(rec.height), bits)
    log_h_prev = ln_fraction(Fraction(rec_prev.height), bits)
    log_v_prev = rec_prev.log_abs_value
    q_k = (log_h_cur - log_v_prev) * Fraction(m, m + 1)
    s_k = (log_h_prev - log_v_prev) * Fraction(m, m + 1)
    level = log_v_prev + q_k
    omega = (level / q_k).compress(bits)
    return GraphPoint(rec.k, q_k.compress(bits), s_k.compress(bits), omega)


def omega_identity_check(mu: RealEnclosure, omega: RealEnclosure, n: int) -> RealEnclosure:
    """Residual omega - (2n-2-mu)/((2n-2)(1+mu)); vanishes identically on
    genuine meeting data."""
    m = 2 * n - 2
    predicted = (m - mu) / ((1 + mu) * m)
    return omega - predicted


# ---------------------------------------------------------------------------
# Successive minima
# ---------------------------------------------------------------------------


def minkowski_constant(n: int, bits: int = 96) -> RealEnclosure:
    """C_n = log((2n-1)!) + (2n-1) log 2."""
    d = 2 * n - 1
    return (ln_fraction(Fraction(math.factorial(d)), bits)
            + ln2_constant(bits) * d).compress(bits)


def minkowski_margin(values: Sequence[RealEnclosure], n: int) -> RealEnclosure:
    """|sum of the 2n-1 minima| minus C_n; negative means inside the envelope."""
    if len(values) != 2 * n - 1:
        raise ValueError(f"need exactly {2 * n - 1} values")
    total = values[0]
    for v in values[1:]:
        total = total + v
    return abs(total) - minkowski_constant(n, total.precision_bits or 96)


@dataclass(frozen=True, eq=False)
class _Candidates:
    """Scored integer rows (c_0, ..., c_m) for ``_greedy_independent``.

    ``lows[i]`` is a rigorous float lower bound on the midpoint of row i's
    L ball, NaN where ``balls`` holds that row's certified ball instead."""

    rows: np.ndarray
    lows: np.ndarray
    balls: dict

    def __len__(self) -> int:
        return len(self.rows)

    def __add__(self, other: "_Candidates") -> "_Candidates":
        shift = len(self)
        return _Candidates(np.concatenate([self.rows, other.rows]),
                           np.concatenate([self.lows, other.lows]),
                           {**self.balls, **{i + shift: b for i, b in other.balls.items()}})

    @staticmethod
    def of_balls(scored: Sequence[Tuple[RealEnclosure, tuple]], width: int) -> "_Candidates":
        """(ball, coeffs) pairs, the coefficients padded to ``width``."""
        coeffs = [tuple(c) + (0,) * (width - len(c)) for _, c in scored]
        height = max((abs(x) for c in coeffs for x in c), default=0)
        rows = np.array(coeffs, dtype=_row_dtype(height)).reshape(len(coeffs), width)
        return _Candidates(rows, np.full(len(coeffs), np.nan),
                           {i: b for i, (b, _) in enumerate(scored)})


def _row_dtype(height: int) -> np.dtype:
    """The smallest integer dtype that holds +-height (object past int64)."""
    return np.min_scalar_type(-height - 1)


def _row_heights(rows: np.ndarray) -> np.ndarray:
    """The height max |c_i| of each integer row, taken column by column (a
    reduction along the short axis is several times slower)."""
    height = np.abs(rows[:, 0])
    for c in rows.T[1:]:
        np.maximum(height, np.abs(c), out=height)
    return height


#: waiting rows tested against the picks' complement at a time
_SIEVE_BLOCK = 256


def _greedy_independent(cands: _Candidates, dim: int, ambient_degree: int,
                        certify=None) -> List[Tuple[RealEnclosure, tuple]]:
    """Greedy selection of independent coefficient vectors by increasing
    trajectory value: the rows kept by sorting every candidate's ball by
    (midpoint, coefficients, index) and keeping each row outside the span
    of the rows kept before it, up to ``dim`` of them.  Returns the kept
    (ball, coeffs) pairs in that order.

    The rows with a ball are ready from the start.  The float-scored rows
    wait, ordered once by (lower bound, coefficients, index).  With
    ``certify``, a float is a rigorous lower bound on the midpoint of the
    ball ``certify(coeffs)``, made only once the row's bound key reaches the
    smallest ready key: every row still waiting then has a larger key, so
    the picks are those of sorting all the balls.  Without it, a float row
    counts as the exact ball of its bound.

    An ``IntegerComplement`` of the picks decides independence.  After each
    pick the waiting rows are tested against it a block at a time, before
    any is certified, and the ready rows once more than a block wait there;
    a row found spanned is dropped unseen.  The picks only grow, so such a
    row could never be picked: the output does not change.
    """
    rows, lows, balls = cands.rows, cands.lows, cands.balls
    ready = [(b.mid, tuple(rows[i].tolist()), i, b) for i, b in balls.items()]
    heapq.heapify(ready)
    waiting = np.flatnonzero(~np.isnan(lows))
    waiting = waiting[np.lexsort((*rows[waiting].T[::-1], lows[waiting]))]
    dead = np.zeros(len(waiting), dtype=bool)
    complement = IntegerComplement(ambient_degree + 1)
    picks: list = []
    pos = sieved = 0
    stale = False  # the ready rows have not been tested against the latest pick
    top = None  # the smallest ready entry, and floats below and above its key
    while len(picks) < dim:
        while pos < len(waiting):
            if pos == sieved:
                block = waiting[pos:pos + _SIEVE_BLOCK]
                dead[pos:pos + len(block)] = complement.spanned(rows[block])
                sieved = pos + len(block)
            if dead[pos]:
                pos += 1
                continue
            i = int(waiting[pos])
            low, coeffs = lows.item(i), tuple(rows[i].tolist())
            if ready:
                if ready[0] is not top:
                    top = ready[0]
                    below = math.nextafter(float(top[0]), -math.inf)
                    above = math.nextafter(float(top[0]), math.inf)
                # the floats around the key decide unless low is within an ulp
                if low > above or (low >= below and (low, coeffs, i) > top[:3]):
                    break
            ball = certify(coeffs) if certify is not None else RealEnclosure.exact(Fraction(low))
            heapq.heappush(ready, (ball.mid, coeffs, i, ball))
            pos += 1
        if stale and len(ready) > _SIEVE_BLOCK:
            keep = ~complement.spanned(rows[[entry[2] for entry in ready]])
            ready = [entry for entry, k in zip(ready, keep.tolist()) if k]
            heapq.heapify(ready)
        stale = False
        if not ready:
            break
        _, coeffs, _, ball = heapq.heappop(ready)
        if complement.add(coeffs):
            picks.append((ball, coeffs))
            sieved = pos
            stale = True
    return picks


@dataclass(frozen=True, eq=False)
class _FloorTerms:
    """Nonzero integer rows (c_0, ..., c_m) with the q-free part of their
    ``_LScores.floors``: ``log_value`` = log(|s| - err), NaN where
    |s| <= 2 err, s the float dot product and err its ``_float_dot_error``."""

    rows: np.ndarray
    log_value: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


class _MinimaSweep:
    """What ``successive_minima_exact`` computes for one (xi, n) without q,
    kept for every q the minima are asked at: the fixed-point view of xi and
    its float powers, the ``ln_fraction`` values (heights, the seed height,
    box budgets), C_n/(2n-1), each |P(xi)| ball (certified nonzero) and its
    log, and each enumerated window by its key (h_from, h_cut, v_cut) as
    ``_FloorTerms``, while the kept rows stay within ``_CANDIDATE_BUDGET``
    (a window past it is walked again at each q).

    ``_enumerate_window`` is q-free, and ``window`` scores its terms at q,
    a kept window and a fresh one alike, so a sweep changes no result: each
    q gets the balls and the exceptions of a fresh computation.  A window
    whose walk raised is not kept.  A sweep lives as long as its caller
    holds it.
    """

    def __init__(self, xi: RealEnclosure, n: int):
        self.xi = xi
        self.n = n
        self.m = 2 * n - 2
        self.view = _FixedPointXi(xi, self.m, _MINIMA_BITS)
        self.mids, self.merrs = self.view.float_powers()
        self.err_sum = float(np.sum(self.merrs))
        self.minkowski_share = minkowski_constant(n) / (2 * n - 1)  # C_n/(2n-1)
        self._ln: dict = {}
        self._values: dict = {}
        self._windows: dict = {}
        self._kept_rows = 0

    def log_of(self, value: int, bits: int) -> RealEnclosure:
        """``ln_fraction(value, bits)``, made once."""
        key = (value, bits)
        if key not in self._ln:
            self._ln[key] = ln_fraction(value, bits)
        return self._ln[key]

    def value_ball(self, coeffs: tuple) -> RealEnclosure:
        """|P(xi)| as a ball of the view, certified nonzero; PrecisionExhausted
        where the view cannot keep P(xi) away from 0."""
        entry = self._values.get(coeffs)
        if entry is None:
            vball = abs(self.view.value_ball(coeffs))
            if vball.sign() != 1:
                raise PrecisionExhausted(
                    f"cannot certify P(xi) != 0 for {coeffs}; raise the working precision")
            entry = self._values[coeffs] = [vball, None]
        return entry[0]

    def log_value(self, coeffs: tuple) -> RealEnclosure:
        """ln |P(xi)| at ``_MINIMA_BITS``, after ``value_ball(coeffs)``."""
        entry = self._values[coeffs]
        if entry[1] is None:
            entry[1] = ln(entry[0], _MINIMA_BITS)
        return entry[1]

    def floor_terms(self, rows: np.ndarray) -> _FloorTerms:
        """The ``_FloorTerms`` of nonzero integer rows (c_0, ..., c_m).

        s is summed column by column, so a row's terms do not depend on the
        other rows (a matrix product's blocking would make them depend on
        their number)."""
        s = np.zeros(len(rows))
        magnitude = np.zeros(len(rows))
        for c, x in zip(rows.T, self.mids):
            t = c * x
            s += t
            magnitude += np.abs(t)
        s = np.abs(s, out=s)
        height = _row_heights(rows)
        err = _float_dot_error(height, self.err_sum, rows.shape[1], magnitude)
        near = s <= 2 * err
        s[near] = 2 * err[near]  # keeps the log finite; masked below
        log_value = np.log(s - err)
        log_value[near] = np.nan
        return _FloorTerms(rows, log_value)

    def window(self, scores: "_LScores", h_cut: int, v_cut: Optional[Fraction], h_from: int,
               remaining_budget: int, box_budget: int) -> _Candidates:
        """The window (h_from, h_cut, v_cut), enumerated once a key, charged
        to ``box_budget`` and ``remaining_budget`` as a walk is, and scored at
        ``scores``'s q: ``floors``, then ``l_ball`` on the NaN rows (the walk
        certified them nonzero)."""
        key = (h_from, h_cut, v_cut)
        terms = self._windows.get(key)
        if terms is None:
            terms = _enumerate_window(self, self.n, scores.q, h_cut, v_cut, remaining_budget,
                                      h_from=h_from, box_budget=box_budget)
            if self._kept_rows + len(terms) <= _CANDIDATE_BUDGET:
                self._kept_rows += len(terms)
                self._windows[key] = terms
        _check_box(self.m, h_cut, box_budget, "minima enumeration", f"q={float(scores.q)}")
        if len(terms) > remaining_budget:
            raise BudgetExceeded("minima enumeration exceeded the candidate budget")
        lows = scores.floors(terms)
        at = np.flatnonzero(np.isnan(lows))
        balls = {i: scores.l_ball(tuple(c)) for i, c in zip(at.tolist(), terms.rows[at].tolist())}
        return _Candidates(terms.rows, lows, balls)


class _LScores:
    """Values L_P(q) of integer polynomials P of degree <= m = 2n-2 at one q.

    ``l_ball`` certifies L_P(q) as a ball; it is the only place such a ball
    is made.  ``floors`` gives rigorous float lower bounds on those balls'
    midpoints for many polynomials at once.  The q-free work, the view and
    the value and height logs at ``_MINIMA_BITS`` among it, comes from
    ``sweep``, the ``_MinimaSweep`` of (xi, n); ``_MinimaSweep.window`` is
    where window rows meet these scores.
    """

    def __init__(self, sweep: _MinimaSweep, q: Fraction):
        self.q = q
        self._qf = float(q)
        self.m = sweep.m
        self._down = q * Fraction(1, self.m)  # the height branch falls by q/m
        self.sweep = sweep
        self._height_branch: dict = {}
        self._kink: dict = {}

    def height_branch(self, height: int) -> RealEnclosure:
        if height not in self._height_branch:
            self._height_branch[height] = (self.sweep.log_of(height, _MINIMA_BITS)
                                           - self._down).compress(96)
        return self._height_branch[height]

    def kink(self, height: int) -> RealEnclosure:
        # |P(xi)| below the lower end of this ball provably puts L_P on the
        # height branch (one exp per height, cached)
        if height not in self._kink:
            self._kink[height] = exp_fraction(self.height_branch(height).lo() - self.q, 48)
        return self._kink[height]

    def l_ball(self, coeffs: tuple) -> RealEnclosure:
        height = max(abs(c) for c in coeffs)
        vball = self.sweep.value_ball(coeffs)
        hb = self.height_branch(height)
        if vball.strictly_less(self.kink(height)) is True:
            return hb  # the value branch provably stays below; no log needed
        return hb.max(self.sweep.log_value(coeffs) + self.q).compress(96)

    def floors(self, terms: _FloorTerms) -> np.ndarray:
        """Rigorous float lower bounds on the ``l_ball`` midpoints of the
        rows of ``terms``: max(log(|s| - err) + q, log(height) - q/m) less a
        pad, s the float dot product over the view's float powers and err its
        ``_float_dot_error``; NaN where |s| <= 2 err, where floats cannot
        keep P(xi) away from 0 and only ``l_ball`` can decide."""
        log_height = np.log(_row_heights(terms.rows), dtype=np.float64)
        low = np.maximum(terms.log_value + self._qf, log_height - self._qf / self.m)
        # the pad dwarfs the float log, q and sum roundings and the 96-bit
        # ball's midpoint rounding
        low -= 1e-9 * (1.0 + np.abs(low) + self._qf)
        return low


def successive_minima_exact(xi: RealEnclosure, n: int, q,
                            box_budget: int = _BOX_BUDGET,
                            sweep: Optional[_MinimaSweep] = None) -> List[RealEnclosure]:
    """The exact minima L_1(q) <= ... <= L_{2n-1}(q) over all nonzero integer
    polynomials of degree <= 2n-2.

    Enumeration is certified complete: every polynomial outside the scanned
    height/value window provably has L_P(q) above the reported last minimum.
    ``_enumerate_window`` is the only source of candidates: first the whole
    seed box with no value cut, then a ladder of windows, each holding every
    polynomial of the new heights whose value can still matter.
    ``_CANDIDATE_BUDGET`` caps the polynomials scored over all stages,
    ``box_budget`` the cells scanned; BudgetExceeded otherwise.

    ``_MinimaSweep.window`` scores every candidate by ``_LScores.floors``, a
    rigorous float lower bound on its L ball's midpoint, or by the certified
    ball itself where floats cannot keep P(xi) away from 0.  ``l_ball`` runs
    only there, and in the greedy for candidates whose bound reaches the
    smallest certified midpoint still waiting.  The result equals that of
    certifying every candidate.

    Each ladder stage runs the greedy on the previous stage's 2n-1 picks,
    with their balls, and the new window only.  Every key is a ball midpoint
    with a total coefficient tie-break, so all stages share one order.  A
    row an earlier stage left out is spanned by picks that precede it, so
    it adds nothing to the span of the rows before any later row: the greedy
    on the whole pool picks the same rows (the matroid exchange property).

    When even the first window box of the ladder is over ``box_budget``
    (every n >= 4), only the seed box can answer.  The greedy on the float
    bounds alone then gives a lower bound on the exact last minimum (the
    bottleneck of a matroid basis); if it already needs heights beyond the
    seed box, the window's BudgetExceeded is raised without any exact log.

    Callers asking at several q pass one ``_MinimaSweep(xi, n)`` as
    ``sweep``: the views, logs, |P(xi)| balls and windows that do not
    depend on q are then made once for all of them.  The windows of
    different q often share their key (a last minimum on the value branch
    gives the same value cut u - q at every q), so a window is walked once
    and rescored at each q.  The results and exceptions are those of calls
    without a sweep.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("q must be >= 0")
    if sweep is None:
        sweep = _MinimaSweep(xi, n)
    elif sweep.xi != xi or sweep.n != n:
        raise ValueError("the sweep was made for another xi or n")
    m = 2 * n - 2
    dim = 2 * n - 1
    seed_h = 4 if m <= 2 else (2 if m <= 4 else 1)
    # Minkowski's second theorem puts L_{2n-1}(q) >= -C_n/(2n-1), so the
    # enumeration must cover heights up to h = e^(q/m - C_n/(2n-1)); past the
    # seed box that takes a window of more than (2h)^m cells.  Decide this in
    # log space, before the seed pool exponentiates -q.
    log_h = (q / m - sweep.minkowski_share).lo()
    log_cells = m * (log_h + ln2_constant(96).lo())
    if (log_h > sweep.log_of(Fraction(seed_h), 96).hi()
            and log_cells > sweep.log_of(Fraction(box_budget), 96).hi()):
        raise BudgetExceeded(
            f"minima enumeration needs a coefficient box of more than e^{float(log_cells):.1f} "
            f"cells at q={float(q)}, above the box budget {box_budget:.0e}")
    scores = _LScores(sweep, q)

    # seed from a small exact box (it contains the monomial flag, so the
    # greedy always completes); its cells count against the candidate budget
    # before it is walked
    if (2 * seed_h + 1) ** (m + 1) > _CANDIDATE_BUDGET:
        raise BudgetExceeded("minima enumeration exceeded the candidate budget")
    pool = sweep.window(scores, seed_h, None, 0, _CANDIDATE_BUDGET, _BOX_BUDGET)
    scored = len(pool)

    def required_height(u_bound: Fraction) -> int:
        return int(exp_fraction(q * Fraction(1, m) + u_bound, 48).hi().__ceil__())

    def next_window(h: int, h_req: int) -> int:
        return min(max(2 * h, 16), max(h_req, 16))

    # geometric enumeration ladder: the bound u only tightens, so earlier
    # (more generous) windows keep every polynomial later windows would
    covered = seed_h
    h = 8
    try:
        # every window is at least as large as the first
        _check_box(m, next_window(h, covered + 1), box_budget,
                   "minima enumeration", f"q={float(q)}")
    except BudgetExceeded:
        # only the seed box can answer: refuse when even the bottleneck of
        # the float lower bounds needs heights beyond it (the exact greedy's
        # required height is at least this one)
        low = _greedy_independent(pool, dim, m)[-1][0].mid
        if exp_fraction(q * Fraction(1, m) + low, 48).lo() > covered:
            raise
    picks = _greedy_independent(pool, dim, m, scores.l_ball)
    assert len(picks) == dim
    while True:
        u_bound = picks[-1][0].hi()
        h_req = required_height(u_bound)
        if covered >= h_req:
            return [ball for ball, _ in picks]
        h = next_window(h, h_req)
        # earlier stages already scanned heights <= covered with wider
        # windows, so each stage only needs its new shell
        shell = sweep.window(scores, h, exp_fraction(u_bound - q, 48).hi(), covered,
                             _CANDIDATE_BUDGET - scored, box_budget)
        scored += len(shell)
        picks = _greedy_independent(_Candidates.of_balls(picks, m + 1) + shell, dim, m,
                                    scores.l_ball)
        covered = h


# perfbench/tracing.py reads n (args[1]) and h_cut (args[3]) of each call for
# its paramgeom.window_cells metric: keep the name and those positions
def _enumerate_window(sweep: _MinimaSweep, n: int, q: Fraction, h_cut: int,
                      v_cut: Optional[Fraction], remaining_budget: int, h_from: int = 0,
                      box_budget: int = _BOX_BUDGET) -> _FloorTerms:
    """The nonzero polynomials of degree <= 2n-2 and height in (h_from,
    h_cut] with |P(xi)| within about ``v_cut`` (every one with
    |P(xi)| <= v_cut among them; None means no value cut, the whole box),
    each once and in canonical sign, as the ``_FloorTerms`` of ``sweep``
    with rows in the smallest integer dtype that holds +-h_cut.  Nothing
    here depends on q, which only names the call in a refusal; a window is
    scored at q by ``_MinimaSweep.window``.

    The upper coefficients come from ``_scan_box`` of the sweep's view under
    ``box_budget`` at tolerance v_cut + e, e the box's float error: by its
    covering step a cell left out holds no wanted polynomial.
    ``_completions`` (with bound v_cut) completes the yielded cells, each
    polynomial once, and keeps the completions of height > h_from; by its
    covering step they hold every wanted polynomial.

    The candidate budget is checked against each scan chunk's rows before
    they are kept.  A row floats cannot keep away from 0 (NaN
    ``log_value``) is certified by ``sweep.value_ball``, which raises
    PrecisionExhausted for a P vanishing at xi.  A window certifies such
    rows in scan order, so it names the first vanishing P in scan order; the
    seed (no value cut) certifies them after its walk in descending
    lexicographic order, so it names the largest canonical vanishing row.
    """
    dot_err = _box_dot_error(sweep.mids, sweep.merrs, h_cut)
    # the pad covers the rounding of v_cut to a float
    bound = math.inf if v_cut is None else float(v_cut) + 1e-12
    dtype = _row_dtype(h_cut)
    chunks = [np.zeros((0, 2 * n - 1), dtype=dtype)]
    logs = [np.zeros(0)]
    count = 0
    for coeffs, s in _scan_box(sweep.mids, h_cut, bound + dot_err, box_budget,
                               "minima enumeration", f"q={float(q)}"):
        rows = _completions(coeffs, s, h_cut, bound, dot_err,
                            lambda values, heights: heights > h_from)[0]
        if count + len(rows) > remaining_budget:
            raise BudgetExceeded("minima enumeration exceeded the candidate budget")
        terms = sweep.floor_terms(rows)
        if v_cut is not None:
            # in scan order: a vanishing P ends the walk at once
            for c in rows[np.isnan(terms.log_value)].tolist():
                sweep.value_ball(tuple(c))
        chunks.append(rows.astype(dtype))
        logs.append(terms.log_value)
        count += len(rows)
    rows, log_value = np.concatenate(chunks), np.concatenate(logs)
    if v_cut is None:
        for c in sorted(map(tuple, rows[np.isnan(log_value)].tolist()), reverse=True):
            sweep.value_ball(c)
    return _FloorTerms(rows, log_value)


# ---------------------------------------------------------------------------
# Shifted frame and pool-mode bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedFrame:
    """Records mapped by T -> T + shift so that xi - shift lies in (0, 1).

    |P'(xi')| = |P(xi)| is reused from the stored enclosures; heights are
    recomputed (they are not shift-invariant), so pool outputs live in this
    frame only."""

    shift: int
    xi: RealEnclosure
    polys: tuple
    heights: tuple
    log_values: tuple
    n: int

    @functools.cached_property
    def pool_terms(self) -> List[Tuple[RealEnclosure, RealEnclosure, tuple]]:
        """(log H, log|P(xi)| + i log xi, coefficients) of each pool member
        T^i * P'_k, 0 <= i <= n-2, of degree <= 2n-2: the q-free part of
        its trajectory, made on first use and kept for every q."""
        m = 2 * self.n - 2
        log_xi = ln(self.xi, 96) if self.xi.lo() > 0 else None
        terms = []
        for poly, height, log_v in zip(self.polys, self.heights, self.log_values):
            lh = ln_fraction(Fraction(height), 96)
            for i in range(max(1, self.n - 1)):
                shifted = poly.shift_degree(i)
                if shifted.degree > m:
                    continue
                if i and log_xi is None:
                    raise PrecisionExhausted("shifted xi touches zero; cannot take logs")
                terms.append((lh, log_v + log_xi * i if i else log_v, shifted.coeffs))
        return terms


def shifted_frame(seq: SequenceData, xi: RealEnclosure) -> ShiftedFrame:
    c = math.floor(xi.mid)
    if not (xi.lo() >= c and xi.hi() < c + 1):
        raise PrecisionExhausted("xi enclosure straddles an integer; refine it first")
    polys = tuple(taylor_shift(r.poly, c) for r in seq.records)
    return ShiftedFrame(
        shift=c,
        xi=xi - c,
        polys=polys,
        heights=tuple(p.height() for p in polys),
        log_values=tuple(r.log_abs_value for r in seq.records),
        n=seq.n,
    )


def successive_minima_pool(frame: ShiftedFrame, q) -> Tuple[List[RealEnclosure], bool]:
    """Upper bounds for the shifted-frame minima from the pool
    {T^i * P'_k : 0 <= i <= n-2}; greedy independent selection.

    Returns (values, incomplete): each value dominates the corresponding
    exact minimum; ``incomplete`` is set when the pool lacks 2n-1
    independent members."""
    q = Fraction(q)
    m = 2 * frame.n - 2
    slope = q * Fraction(1, m)
    scored = [((lh - slope).max(lv + q).compress(96), coeffs)
              for lh, lv, coeffs in frame.pool_terms]
    values = [ball for ball, _ in _greedy_independent(_Candidates.of_balls(scored, m + 1),
                                                       m + 1, m)]
    return values, len(values) < m + 1


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


def default_q_grid(q_max: Fraction, q0: Fraction = Fraction(1),
                   ratio: Fraction = Fraction(5, 4)) -> List[Fraction]:
    """Geometric grid q0, q0*r, ... up to q_max."""
    out = []
    q = q0
    while q <= q_max:
        out.append(q)
        q = q * ratio
    return out


def combined_graph_csv(qs: Sequence[Fraction], minima: Sequence[Sequence[RealEnclosure]],
                       n: int) -> str:
    dim = 2 * n - 1
    header = "q," + ",".join(f"L_{j}" for j in range(1, dim + 1)) + ",sum,margin"
    lines = [header]
    for q, values in zip(qs, minima):
        total = values[0]
        for v in values[1:]:
            total = total + v
        margin = minkowski_margin(values, n)
        cells = [f"{float(q):.6f}"] + [f"{float(v.mid):.9f}" for v in values]
        cells += [f"{float(total.mid):.9f}", f"{float(margin.mid):.9f}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def graph_svg(qs: Sequence[Fraction], minima: Sequence[Sequence[RealEnclosure]],
              n: int, width: int = 640, height: int = 420) -> str:
    """Minimal static rendering of the successive minima functions."""
    dim = 2 * n - 1
    xs = [float(q) for q in qs]
    series = [[float(minima[i][j].mid) for i in range(len(qs))] for j in range(dim)]
    all_y = [y for s in series for y in s]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 40

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
              "#8c564b", "#e377c2"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if y_lo < 0 < y_hi:
        parts.append(f'<line x1="{pad}" y1="{sy(0):.1f}" x2="{width - pad}" '
                     f'y2="{sy(0):.1f}" stroke="#cccccc"/>')
    for j, s in enumerate(series):
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, s))
        color = colors[j % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{sy(s[-1]):.1f}" '
                     f'font-size="10" fill="{color}">L_{j + 1}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
