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
linear function with slopes -1/(2n-2) and +1.  Every minimum, exact or
from the pool, is a pick of one greedy over ``_Candidates``: integer rows,
each with a rigorous float lower bound on its L ball's midpoint, the ball
made only once the greedy reaches that bound.

The exact minima at many q of one (xi, n), the meeting points of
``verify`` or the grid of ``graph``, share a ``MinimaSweep``: windows are
enumerated without q, each keeping the float values and heights of its own
scan, the |P(xi)| balls and logs are made once, and
``MinimaSweep.window`` alone charges a window, kept or fresh, to the
candidate budget of a q and scores it there.  Each q starts warm, from the
windows with which the last answered q stopped: one greedy over them, then
the ladder's own stopping rule, and the cold ladder from the seed box
wherever they provably cannot answer.  A whole ladder stage changes little
from one q to the next, so a rising q usually needs one greedy.  Every box
is scanned under the one box budget ``boxscan.BOX_BUDGET``, whichever
command asks.  A sweep lives for one command.

Pool-mode minima bounds use the shifted frame xi -> xi - floor(xi): the
shift is a unimodular coefficient map that preserves |P(xi)| but changes
heights, so only the shifted-frame outputs are comparable to each other.
A frame makes the pool's q-free terms once, so a pool call at each q only
bounds the two branches in floats and runs the greedy.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import boxscan
from .enclosure import RealEnclosure, exp_fraction, ln, ln2_constant, ln_fraction
from .errors import BudgetExceeded, DegenerateRecords, PrecisionExhausted, VlabError
from .polynomials import taylor_shift
from .polyalg import IntegerComplement
from .bestapprox.records import BestApproxRecord, SequenceData

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


@functools.cache
def minkowski_constant(n: int, bits: int = 96) -> RealEnclosure:
    """C_n = log((2n-1)!) + (2n-1) log 2, made once per (n, bits): the ball
    is immutable."""
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
    """Integer rows (c_0, ..., c_m) for ``_greedy_independent``: ``lows[i]``
    is a finite, rigorous float lower bound on the midpoint of row i's ball,
    the ball the greedy's ``certify`` makes for that row."""

    rows: np.ndarray
    lows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __add__(self, other: "_Candidates") -> "_Candidates":
        return _Candidates(np.concatenate([self.rows, other.rows]),
                           np.concatenate([self.lows, other.lows]))

    def at_most(self, bound: float) -> "_Candidates":
        """The rows whose float bound is not above ``bound``."""
        keep = self.lows <= bound
        return _Candidates(self.rows[keep], self.lows[keep])

    @staticmethod
    def of_coeffs(coeffs: Sequence[tuple], lows: Sequence[float], width: int) -> "_Candidates":
        """Coefficient tuples, padded to ``width``, with their bounds."""
        padded = [tuple(c) + (0,) * (width - len(c)) for c in coeffs]
        height = max((abs(x) for c in padded for x in c), default=0)
        rows = np.array(padded, dtype=_row_dtype(height)).reshape(len(padded), width)
        return _Candidates(rows, np.array(lows, dtype=np.float64))


def _row_dtype(height: int) -> np.dtype:
    """The smallest integer dtype that holds +-height (object past int64)."""
    return np.min_scalar_type(-height - 1)


#: waiting rows tested against the picks' complement at a time
_SIEVE_BLOCK = 256


def _greedy_independent(cands: _Candidates, ambient_degree: int,
                        certify) -> List[Tuple[RealEnclosure, tuple]]:
    """Greedy selection of independent coefficient vectors by increasing
    trajectory value: the rows kept by sorting every row's ball
    ``certify(i, coeffs)`` by (midpoint, coefficients, index) and keeping
    each row outside the span of the rows kept before it, up to
    ``ambient_degree + 1`` of them.  Returns the kept (ball, coeffs) pairs in
    that order.

    The rows wait, ordered once by (lower bound, coefficients, index), and a
    row is certified only once its bound key reaches the smallest certified
    key not yet picked: every row still waiting then has a larger key, so
    the picks are those of sorting all the balls.  A certified row's heap
    entry starts with its midpoint's float, which orders like the midpoint
    wherever the floats differ (int/int true division rounds correctly, so
    it is monotone); where they tie, the exact midpoint decides.

    An ``IntegerComplement`` of the picks decides independence.  After each
    pick the waiting rows are tested against it a block at a time, before
    any is certified, and the certified rows once more than a block of them
    wait to be picked; a row found spanned is dropped unseen.  The picks
    only grow, so such a row could never be picked: the output does not
    change.
    """
    rows, lows = cands.rows, cands.lows
    waiting = np.lexsort((*rows.T[::-1], lows))
    dead = np.zeros(len(waiting), dtype=bool)
    dim = ambient_degree + 1
    complement = IntegerComplement(dim)
    picks: list = []
    ready: list = []  # the certified rows not yet picked, a heap by key
    pos = sieved = 0
    stale = False  # the ready rows have not been tested against the latest pick
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
                # a float low other than the top midpoint's float is on the
                # same side of the midpoint itself
                top = ready[0]
                if low > top[0] or (low == top[0] and (low, coeffs, i) > top[1:4]):
                    break
            ball = certify(i, coeffs)
            heapq.heappush(ready, (float(ball), ball.mid, coeffs, i, ball))
            pos += 1
        if stale and len(ready) > _SIEVE_BLOCK:
            keep = ~complement.spanned(rows[[entry[3] for entry in ready]])
            ready = [entry for entry, k in zip(ready, keep.tolist()) if k]
            heapq.heapify(ready)
        stale = False
        if not ready:
            break
        _, _, coeffs, _, ball = heapq.heappop(ready)
        if complement.add(coeffs):
            picks.append((ball, coeffs))
            sieved = pos
            stale = True
    return picks


@dataclass(frozen=True, eq=False)
class _FloorTerms:
    """Nonzero integer rows (c_0, ..., c_m) with the q-free part of their
    ``_LScores.floors``, both kept from the window's scan: ``log_value`` =
    log(v - e), -inf where v <= 2e, v the row's float value from
    ``boxscan.completions`` and e the box's ``box_dot_error`` (v is within e
    of |P(xi)|), and ``heights``, each row's max |c_i| in the rows' dtype."""

    rows: np.ndarray
    log_value: np.ndarray
    heights: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


class MinimaSweep:
    """What ``successive_minima_exact`` computes for one (xi, n) without q,
    kept for every q the minima are asked at: the fixed-point view of xi and
    its float powers, the ``ln_fraction`` values (heights, the seed height,
    the box budget), C_n/(2n-1), each |P(xi)| ball (certified nonzero) and its
    log, and each enumerated window by its key (h_from, h_cut, v_cut) as
    ``_FloorTerms``, while the kept rows stay within ``_CANDIDATE_BUDGET``
    (a window past it is walked again at each q).  Every window is walked
    under the one box budget ``boxscan.BOX_BUDGET``, so a kept window needs
    no second box check.

    ``_enumerate_window`` is q-free, and ``window`` scores its terms at q,
    a kept window and a fresh one alike.  A window whose walk raised is not
    kept.  ``chain`` and ``picks`` are the window keys with which the last
    answered q stopped, seed box aside, and that q's picks (None before any
    answer): the next q starts its ladder from them (``_ladder``).  So a
    sweep changes no ball: each q gets the balls and the exceptions of a
    fresh computation, except that a q a fresh computation refuses for
    budget may be answered, with the balls of a fresh computation under a
    raised budget.  A sweep lives as long as its caller holds it.
    """

    def __init__(self, xi: RealEnclosure, n: int):
        self.n = n
        self.m = 2 * n - 2
        self.view = boxscan.FixedPointXi(xi, self.m, _MINIMA_BITS)
        self.mids, self.merrs = self.view.float_powers()
        self.minkowski_share = minkowski_constant(n) / (2 * n - 1)  # C_n/(2n-1)
        self._ln: dict = {}
        self._values: dict = {}
        self._windows: dict = {}
        self._kept_rows = 0
        self.chain: Optional[tuple] = None
        self.picks: Optional[tuple] = None

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

    def window(self, scores: "_LScores", h_cut: int, v_cut: Optional[Fraction], h_from: int,
               remaining_budget: int) -> _Candidates:
        """The window (h_from, h_cut, v_cut), enumerated once a key, charged
        to ``remaining_budget`` as a walk is, and bounded at ``scores``'s q
        by ``floors``."""
        key = (h_from, h_cut, v_cut)
        terms = self._windows.get(key)
        if terms is None:
            terms = _enumerate_window(self, self.n, scores.q, h_cut, v_cut, remaining_budget,
                                      h_from)
            if self._kept_rows + len(terms) <= _CANDIDATE_BUDGET:
                self._kept_rows += len(terms)
                self._windows[key] = terms
        if len(terms) > remaining_budget:
            raise BudgetExceeded("minima enumeration exceeded the candidate budget")
        return _Candidates(terms.rows, scores.floors(terms))


class _LScores:
    """Values L_P(q) of integer polynomials P of degree <= m = 2n-2 at one q.

    ``l_ball`` certifies L_P(q) as a ball, once a polynomial; it is the only
    place such a ball is made.  ``floors`` gives rigorous float lower bounds
    on those balls' midpoints for many polynomials at once.  The q-free
    work, the view and the value and height logs at ``_MINIMA_BITS`` among
    it, comes from ``sweep``, the ``MinimaSweep`` of (xi, n);
    ``MinimaSweep.window`` is where window rows meet these scores.
    """

    def __init__(self, sweep: MinimaSweep, q: Fraction):
        self.q = q
        self._qf = float(q)
        self.m = sweep.m
        self._down = q * Fraction(1, self.m)  # the height branch falls by q/m
        self.sweep = sweep
        self._height_branch: dict = {}
        self._balls: dict = {}

    def height_branch(self, height: int) -> RealEnclosure:
        if height not in self._height_branch:
            self._height_branch[height] = (self.sweep.log_of(height, _MINIMA_BITS)
                                           - self._down).compress(96)
        return self._height_branch[height]

    def l_ball(self, coeffs: tuple) -> RealEnclosure:
        ball = self._balls.get(coeffs)
        if ball is None:
            self.sweep.value_ball(coeffs)
            hb = self.height_branch(max(abs(c) for c in coeffs))
            ball = self._balls[coeffs] = hb.max(self.sweep.log_value(coeffs)
                                                + self.q).compress(96)
        return ball

    def floors(self, terms: _FloorTerms) -> np.ndarray:
        """Rigorous float lower bounds on the ``l_ball`` midpoints of the
        rows of ``terms``: max(log(v - e) + q, log(height) - q/m) less a
        pad, v - e a lower bound on |P(xi)| (``_FloorTerms``).  Where
        v <= 2e, floats cannot keep P(xi) away from 0 and log(v - e) is
        -inf, so the floor is the height branch's alone: still a lower
        bound, as the midpoint of a ball max(a, b) is at least a's."""
        log_height = np.log(terms.heights, dtype=np.float64)
        low = np.maximum(terms.log_value + self._qf, log_height - self._qf / self.m)
        # the pad dwarfs the float log, q and sum roundings and the 96-bit
        # ball's midpoint rounding
        low -= 1e-9 * (1.0 + np.abs(low) + self._qf)
        return low


def successive_minima_exact(sweep: MinimaSweep, q) -> List[RealEnclosure]:
    """The exact minima L_1(q) <= ... <= L_{2n-1}(q) over all nonzero integer
    polynomials of degree <= 2n-2, for the (xi, n) of ``sweep``.

    Enumeration is certified complete: every polynomial outside the scanned
    height/value window provably has L_P(q) above the reported last minimum.
    ``_enumerate_window`` is the only source of candidates: first the whole
    seed box with no value cut, then a ladder of windows, each holding every
    polynomial of the new heights whose value can still matter.
    ``_CANDIDATE_BUDGET`` caps the polynomials scored over all stages,
    ``boxscan.BOX_BUDGET`` the cells of each box scanned, the one box budget
    of every caller; BudgetExceeded otherwise.

    ``MinimaSweep.window`` scores every candidate by ``_LScores.floors``, a
    rigorous float lower bound on its L ball's midpoint.  ``l_ball`` runs
    only in the greedy, for candidates whose bound reaches the smallest
    certified midpoint still waiting.  The result equals that of certifying
    every candidate.

    Each ladder stage runs the greedy on the previous stage's 2n-1 picks,
    each bounded by the float just below its ball's midpoint (``l_ball``
    gives that ball back from its cache), and the new window only.  Every
    key is a ball midpoint with a total coefficient tie-break, so all
    stages share one order.  A row an earlier stage left out is spanned by
    picks that precede it, so it adds nothing to the span of the rows
    before any later row: the greedy on the whole pool picks the same rows
    (the matroid exchange property).
    The ladder stops when its windows hold every P with L_P(q) <= u, u the
    upper end of the last pick: heights up to e^(q/m + u) and, past the
    seed box, values up to e^(u - q).  The greedy on any pool that holds all
    of those picks the same rows, whatever windows led there, unless a row
    left out has its midpoint below the last pick's and its true value above
    u, a tie at the scale of the balls' radii that ordering by midpoints
    already leaves open.

    When even the first window box of the ladder is over the box budget
    (every n >= 4), only the seed box can answer.  The greedy on the float
    bounds alone, each taken as the exact ball of its bound, then gives a
    lower bound on the exact last minimum (the bottleneck of a matroid
    basis); if it already needs heights beyond the seed box, the window's
    BudgetExceeded is raised without any exact log.

    Callers asking at several q pass one ``MinimaSweep(xi, n)``: the
    views, logs, |P(xi)| balls and windows that do not depend on q are then
    made once for all of them, and each q starts its ladder warm, from the
    windows with which the sweep's last answered q stopped (``_ladder``).
    A warm start that cannot answer q, or raises, gives way to the cold
    ladder from the seed box, which decides the answer or the exception.
    So a shared sweep gives the balls of a fresh sweep per call, and its
    refusals and its exact-zero errors are those of the cold ladder.  The
    one difference is the budget: the warm start skips the windows that led
    the last q to its chain, so a shared sweep may answer a q that a fresh
    call refuses for budget, and it then gives the balls of a fresh call
    under a raised budget.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("q must be >= 0")
    m = sweep.m
    seed_h = 4 if m <= 2 else (2 if m <= 4 else 1)
    # Minkowski's second theorem puts L_{2n-1}(q) >= -C_n/(2n-1), so the
    # enumeration must cover heights up to h = e^(q/m - C_n/(2n-1)); past the
    # seed box that takes a window of more than (2h)^m cells.  Decide this in
    # log space, before the seed pool exponentiates -q.
    log_h = (q / m - sweep.minkowski_share).lo()
    log_cells = m * (log_h + ln2_constant(96).lo())
    if (log_h > sweep.log_of(Fraction(seed_h), 96).hi()
            and log_cells > sweep.log_of(Fraction(boxscan.BOX_BUDGET), 96).hi()):
        raise BudgetExceeded(
            f"minima enumeration needs a coefficient box of more than e^{float(log_cells):.1f} "
            f"cells at q={float(q)}, above the box budget {boxscan.BOX_BUDGET:.0e}")
    scores = _LScores(sweep, q)

    # seed from a small exact box (it contains the monomial flag, so the
    # greedy always completes); its cells count against the candidate budget
    # before it is walked
    if (2 * seed_h + 1) ** (m + 1) > _CANDIDATE_BUDGET:
        raise BudgetExceeded("minima enumeration exceeded the candidate budget")
    seed = sweep.window(scores, seed_h, None, 0, _CANDIDATE_BUDGET)
    picks = None
    if sweep.chain is not None:
        try:
            picks = _ladder(sweep, scores, seed, seed_h, warm=True)
        except VlabError:
            pass  # the cold ladder decides
    if picks is None:
        picks = _ladder(sweep, scores, seed, seed_h, warm=False)
    return [ball for ball, _ in picks]


def _ladder(sweep: MinimaSweep, scores: _LScores, seed: _Candidates, seed_h: int,
            warm: bool) -> Optional[List[Tuple[RealEnclosure, tuple]]]:
    """The picks of ``successive_minima_exact`` at ``scores.q``, from the
    seed box alone or, ``warm``, from the seed box and ``sweep.chain``, the
    window keys of the last answered q; None where a warm start cannot
    answer.  An answer leaves its own chain and picks in ``sweep``.

    A warm start runs one greedy over the seed box and the kept windows,
    then the ladder's own stopping rule.  Its pool holds the last q's picks,
    2n-1 independent rows, so its last pick's key is at most u0, the
    largest upper end of their balls at q: rows whose float floor is above
    u0 are dropped before the greedy sorts, as they cannot be reached.  The
    kept windows hold every P of their heights with |P(xi)| <= their value
    cut v_cut, so they answer once every v_cut is at least e^(u - q), u
    the upper end of the last pick: a v_cut below e^(u0 - q) (typical where
    q falls) gives up before any greedy, and so does a u above u0 after it.
    Where only the heights fall short, the ladder goes on from the kept top
    height.
    """
    q, m = scores.q, sweep.m
    covered, scored = seed_h, len(seed)
    chain = []
    u_cap = None  # the largest u whose polynomials the kept value cuts hold
    if warm:
        u0 = max(scores.l_ball(c).hi() for c in sweep.picks)
        chain = list(sweep.chain)
        if chain:
            if exp_fraction(u0 - q, 48).hi() > min(v_cut for _, _, v_cut in chain):
                return None
            u_cap = u0
        # the float just above u0 is >= u0
        reach = math.nextafter(float(u0), math.inf)
        pool = seed.at_most(reach)
        for h_from, h_cut, v_cut in chain:
            shell = sweep.window(scores, h_cut, v_cut, h_from, _CANDIDATE_BUDGET - scored)
            scored += len(shell)
            pool = pool + shell.at_most(reach)
            covered = h_cut
    else:
        pool = seed
        first = _next_window(covered, covered + 1)  # no later window is smaller
        if not boxscan.in_budget(m, first):
            # only the seed box can answer: refuse when even the bottleneck of
            # the float lower bounds needs heights beyond it (the exact greedy's
            # required height is at least this one)
            low = _greedy_independent(
                pool, m, lambda i, _: RealEnclosure.exact(Fraction(pool.lows.item(i))))[-1][0].mid
            if exp_fraction(q * Fraction(1, m) + low, 48).lo() > covered:
                boxscan.check_box(m, first, "minima enumeration", f"q={float(q)}")
    picks = _greedy_independent(pool, m, lambda _, coeffs: scores.l_ball(coeffs))
    assert len(picks) == m + 1
    # geometric enumeration ladder: the bound u only tightens, so earlier
    # (more generous) windows keep every polynomial later windows would
    while True:
        u_bound = picks[-1][0].hi()
        if u_cap is not None and u_bound > u_cap:
            return None  # only where a pick's radius outgrows u0's
        h_req = int(exp_fraction(q * Fraction(1, m) + u_bound, 48).hi().__ceil__())
        if covered >= h_req:
            sweep.chain, sweep.picks = tuple(chain), tuple(coeffs for _, coeffs in picks)
            return picks
        h = _next_window(covered, h_req)
        # earlier stages already scanned heights <= covered with wider
        # windows, so each stage only needs its new shell
        v_cut = exp_fraction(u_bound - q, 48).hi()
        shell = sweep.window(scores, h, v_cut, covered, _CANDIDATE_BUDGET - scored)
        chain.append((covered, h, v_cut))
        scored += len(shell)
        # each carried pick is bounded by the float just below its midpoint
        lows = [math.nextafter(float(ball), -math.inf) for ball, _ in picks]
        carried = _Candidates.of_coeffs([coeffs for _, coeffs in picks], lows, m + 1)
        picks = _greedy_independent(carried + shell, m,
                                    lambda _, coeffs: scores.l_ball(coeffs))
        covered = h


def _next_window(covered: int, h_req: int) -> int:
    """The top height of the ladder's next window: twice the covered
    height, or the required one where that is lower, and never below 16."""
    return min(max(2 * covered, 16), max(h_req, 16))


# perfbench/tracing.py reads n (args[1]) and h_cut (args[3]) of each call for
# its paramgeom.window_cells metric: keep the name and those positions
def _enumerate_window(sweep: MinimaSweep, n: int, q: Fraction, h_cut: int,
                      v_cut: Optional[Fraction], remaining_budget: int,
                      h_from: int) -> _FloorTerms:
    """The nonzero polynomials of degree <= 2n-2 and height in (h_from,
    h_cut] with |P(xi)| within about ``v_cut`` (every one with
    |P(xi)| <= v_cut among them; None means no value cut, the whole box),
    each once and in canonical sign, as the ``_FloorTerms`` of ``sweep``
    with rows and heights in the smallest integer dtype that holds
    +-h_cut.  Nothing here depends on q, which only names the call in a
    refusal; a window is scored at q by ``MinimaSweep.window``.

    The upper coefficients come from ``boxscan.scan_box`` of the sweep's
    view at tolerance v_cut + e, e the box's float error: by its covering
    step a cell left out holds no wanted polynomial.  ``completions`` (with
    bound v_cut) completes the yielded cells, each polynomial once, and
    keeps the completions of height > h_from; by its covering step they
    hold every wanted polynomial, and each one's float value v is within e
    of |P(xi)|.  The window keeps those values, as log(v - e), and the
    heights: one float pass per candidate.

    The candidate budget is checked against each yield's rows before they
    are kept.  A row floats cannot keep away from 0 (v <= 2e, -inf
    ``log_value``) is certified by ``sweep.value_ball``, which raises
    PrecisionExhausted for a P vanishing at xi.  A window certifies such
    rows in scan order, so it names the first vanishing P in scan order; the
    seed (no value cut) certifies them after its walk in descending
    lexicographic order, so it names the largest canonical vanishing row.
    """
    dot_err = boxscan.box_dot_error(sweep.mids, sweep.merrs, h_cut)
    # the pad covers the rounding of v_cut to a float
    bound = math.inf if v_cut is None else float(v_cut) + 1e-12
    dtype = _row_dtype(h_cut)
    chunks = [np.zeros((0, 2 * n - 1), dtype=dtype)]
    logs = [np.zeros(0)]
    heights = [np.zeros(0, dtype=dtype)]
    count = 0
    for coeffs, s in boxscan.scan_box(sweep.mids, h_cut, bound + dot_err, "minima enumeration",
                                      f"q={float(q)}"):
        rows, values, row_heights = boxscan.completions(coeffs, s, h_cut, bound, dot_err,
                                                        lambda values, heights: heights > h_from)
        if count + len(rows) > remaining_budget:
            raise BudgetExceeded("minima enumeration exceeded the candidate budget")
        near = values <= 2 * dot_err
        values -= dot_err
        log_value = np.log(values, out=values, where=~near)
        log_value[near] = -np.inf
        # narrowed at once: the int64 arrays would live through the next
        # yield's completions
        rows, row_heights = rows.astype(dtype), row_heights.astype(dtype)
        if v_cut is not None:
            # in scan order: a vanishing P ends the walk at once
            for c in rows[near].tolist():
                sweep.value_ball(tuple(c))
        chunks.append(rows)
        logs.append(log_value)
        heights.append(row_heights)
        count += len(rows)
    rows, log_value = np.concatenate(chunks), np.concatenate(logs)
    if v_cut is None:
        for c in sorted(map(tuple, rows[np.isneginf(log_value)].tolist()), reverse=True):
            sweep.value_ball(c)
    return _FloorTerms(rows, log_value, np.concatenate(heights))


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
        T^i * P'_k, 0 <= i <= n-2, of degree <= 2n-2 (a record has degree
        <= n, which the Taylor shift keeps): the q-free part of its
        trajectory, made on first use and kept for every q."""
        log_xi = ln(self.xi, 96) if self.xi.lo() > 0 else None
        terms = []
        for poly, height, log_v in zip(self.polys, self.heights, self.log_values):
            lh = ln_fraction(Fraction(height), 96)
            for i in range(max(1, self.n - 1)):
                shifted = poly.shift_degree(i)
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
    independent members.  Each member enters the greedy with a float lower
    bound on its ball's midpoint, and the greedy makes the ball, by the
    member's index, once it reaches that bound: the pool can hold equal rows
    with different balls (T^i P'_k = T^j P'_l where P_k = (T - c)^(j-i) P_l,
    c the frame's shift)."""
    q = Fraction(q)
    m = 2 * frame.n - 2
    qf, slope, terms = float(q), q * Fraction(1, m), frame.pool_terms
    lows = np.array([max(float(lh) - qf / m, float(lv) + qf) for lh, lv, _ in terms])
    lows -= 1e-9 * (1.0 + np.abs(lows) + qf)  # the pad of ``_LScores.floors``

    def certify(i: int, coeffs: tuple) -> RealEnclosure:
        lh, lv, _ = terms[i]
        return (lh - slope).max(lv + q).compress(96)

    cands = _Candidates.of_coeffs([coeffs for _, _, coeffs in terms], lows, m + 1)
    values = [ball for ball, _ in _greedy_independent(cands, m, certify)]
    return values, len(values) < m + 1


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


def default_q_grid(q_max: Fraction) -> List[Fraction]:
    """Geometric grid 1, 5/4, (5/4)^2, ... up to q_max."""
    out = []
    q = Fraction(1)
    while q <= q_max:
        out.append(q)
        q = q * Fraction(5, 4)
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
        cells = [f"{float(q):.6f}"] + [f"{float(v):.9f}" for v in values]
        cells += [f"{float(total):.9f}", f"{float(margin):.9f}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def graph_svg(qs: Sequence[Fraction], minima: Sequence[Sequence[RealEnclosure]],
              n: int) -> str:
    """Minimal static rendering of the successive minima functions, 640 by
    420 pixels."""
    width, height = 640, 420
    dim = 2 * n - 1
    xs = [float(q) for q in qs]
    series = [[float(minima[i][j]) for i in range(len(qs))] for j in range(dim)]
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
