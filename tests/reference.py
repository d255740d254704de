"""Test-only references for the bound forms, trajectories, the oracle and
rational evaluation.

The tests compare production results against these: the equilibrium
substitution of the cubic form and its largest root in w (``bounds``),
single-polynomial trajectories (``paramgeom``), a brute-force oracle that
shares nothing with the scan and the dense per-height prefix minimum of the
record rungs (``bestapprox.search``), the continued-fraction convergents
that the records at n = 1 must be, exact ``Fraction``
evaluation of an integer polynomial, the refinement of
``rootisolation.refine_root`` by bisection in ``Fraction``, and root
isolation by Sturm counts and bisection in ``Fraction``
(``fraction_isolate_roots``), for tests that need an isolating interval of
every root: the commands certify each root by counting in a known window and
refining it, and isolate none.  No command uses these, so they live here,
beside ``vspan.py`` and ``rank_reference.py``.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from vlab import boxscan
from vlab.bestapprox import search
from vlab.bounds import Real, theta
from vlab.enclosure import RealEnclosure, ln_fraction
from vlab.errors import NoRootInRange, NoSignChange, PrecisionExhausted, ZeroPolynomial
from vlab.polynomials import IntPolynomial
from vlab.rootisolation import count_roots_open, poly_eval_enclosure, refine_root, sturm_chain


def _ball(x) -> RealEnclosure:
    return x if isinstance(x, RealEnclosure) else RealEnclosure.exact(Fraction(x))


# ---------------------------------------------------------------------------
# The cubic form: references for ``vlab.bounds``
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaCoeffs:
    """Coefficients d3..d0 of the cubic-in-w form, exact rationals."""

    d3: Fraction
    d2: Fraction
    d1: Fraction
    d0: Fraction

    def __post_init__(self):
        if self.d3 <= 0:
            raise ValueError("d3 = tau_k must be positive")


def theta_coeffs(n: int, tau_k: Fraction, tau_l: Fraction) -> ThetaCoeffs:
    tau_k, tau_l = Fraction(tau_k), Fraction(tau_l)
    return ThetaCoeffs(
        d3=tau_k,
        d2=-(2 * n * tau_k + n - 2),
        d1=tau_k * tau_l + (n**2 + n - 1) * tau_k + (1 - n) * tau_l + n**2 - n - 2,
        d0=-n * ((n - 1 + tau_l) * tau_k + n - 2),
    )


def theta_equilibrium_poly(n: int) -> IntPolynomial:
    """Quartic in w obtained from theta by the equilibrium substitution
    tau_k = tau_l = w - 2n + 3; equals quartic_Q(n) identically."""
    w = IntPolynomial([0, 1])
    tau = IntPolynomial([3 - 2 * n, 1])
    d3 = tau
    d2 = tau.scale(-2 * n) + IntPolynomial([-(n - 2)])
    d1 = (tau * tau + tau.scale(n**2 + n - 1) + tau.scale(1 - n)
          + IntPolynomial([n**2 - n - 2]))
    d0 = ((tau + IntPolynomial([n - 1])) * tau
          + IntPolynomial([n - 2])).scale(-n)
    return ((d3 * w + d2) * w + d1) * w + d0


def theta_in_w_poly(n: int, tau: Fraction) -> IntPolynomial:
    """theta(n, w, tau, tau) as an exact cubic in w (rational tau), times the
    lcm of its coefficients' denominators."""
    c = theta_coeffs(n, tau, tau)
    coeffs = (c.d0, c.d1, c.d2, c.d3)
    den = math.lcm(*(d.denominator for d in coeffs))
    return IntPolynomial([d.numerator * (den // d.denominator) for d in coeffs])


def w_bound_from_tau(n: int, tau: Real, tol: Fraction = Fraction(1, 10**10)) -> RealEnclosure:
    """Largest root w of theta(n, w, tau, tau) = 0 in (n, 2n-1].

    For exact rational tau the root structure is certified by Sturm counts;
    for enclosure tau the structure is located at the midpoint and the final
    bracket is certified by enclosure sign evaluations (the reachable radius
    is limited by the radius of tau).
    """
    t = _ball(tau)
    if t.lo() <= 1:
        raise ValueError("tau must exceed 1")
    lo, hi = Fraction(n), Fraction(2 * n - 1)
    cubic = theta_in_w_poly(n, t.mid)
    chain = sturm_chain(cubic)
    # roots in (lo, hi]: Sturm's half-open count
    hi_is_root = cubic.sign_at(hi) == 0
    count = count_roots_open(chain, lo, hi) + (1 if hi_is_root else 0)
    if count == 0:
        raise NoRootInRange(f"theta({n}, w, tau, tau) has no root in ({lo}, {hi}]")
    window = fraction_isolate_roots(cubic, lo, hi)
    if hi_is_root:
        window.append((hi, hi))
    a, b = window[-1]
    if t.is_exact:
        # an exact root ends the search; else the squarefree chain[0] has
        # one simple root inside and opposite signs at the ends
        return RealEnclosure.exact(a) if a == b else refine_root(chain[0], (a, b), tol)
    # widen the midpoint bracket slightly, then bisect with certified signs
    pad = max(b - a, Fraction(1, 10**6))
    a = max(lo, a - pad)
    b = min(hi, b + pad)
    sa = theta(n, a, t, t).sign()
    sb = theta(n, b, t, t).sign()
    if sa is None or sb is None or sa == sb:
        raise PrecisionExhausted("cannot certify a sign change around the root")
    while b - a > 2 * tol:
        m = (a + b) / 2
        sm = theta(n, m, t, t).sign()
        if sm is None:
            break
        if sm == 0:
            return RealEnclosure.exact(m)
        if sm == sa:
            a = m
        else:
            b = m
    return RealEnclosure.from_endpoints(a, b)


# ---------------------------------------------------------------------------
# Trajectories: references for ``vlab.paramgeom`` meeting points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """L_P(q) = max(log_height - q/(2n-2), log_value + q)."""

    log_height: RealEnclosure
    log_value: RealEnclosure
    n: int

    @property
    def down_slope(self) -> Fraction:
        return Fraction(-1, 2 * self.n - 2)

    def value(self, q) -> RealEnclosure:
        q = _ball(q)
        return (self.log_height + q * self.down_slope).max(self.log_value + q)

    def min_point(self) -> RealEnclosure:
        m = 2 * self.n - 2
        return (self.log_height - self.log_value) * Fraction(m, m + 1)

    def min_value(self) -> RealEnclosure:
        m = 2 * self.n - 2
        return (self.log_height * m + self.log_value) * Fraction(1, m + 1)


def trajectory(poly: IntPolynomial, log_abs_value: RealEnclosure, n: int) -> Trajectory:
    """Trajectory of an integer polynomial of degree <= 2n-2 from its height
    and a certified log|P(xi)|."""
    if poly.degree > 2 * n - 2:
        raise ValueError("polynomial degree exceeds the ambient degree")
    bits = log_abs_value.precision_bits or 96
    return Trajectory(ln_fraction(Fraction(poly.height()), bits), log_abs_value, n)


# ---------------------------------------------------------------------------
# The brute-force oracle: a reference for ``vlab.bestapprox.search``
# ---------------------------------------------------------------------------


def _canonical(coeffs: Sequence[int]) -> tuple:
    for c in coeffs:
        if c:
            return tuple(coeffs) if c > 0 else tuple(-x for x in coeffs)
    return tuple(coeffs)


def naive_min_poly(xi: RealEnclosure, n: int, height: int) -> Tuple[IntPolynomial, RealEnclosure]:
    """Reference oracle: literal enumeration of the whole box with plain ball
    Horner evaluation, sharing nothing with the production engines.  Only
    viable for tiny boxes; used to validate the real paths in tests."""
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


def dense_prefilter(ctx, h_max: int, h_from: int, threshold: float) -> Dict[int, np.ndarray]:
    """``search._prefilter_candidates`` with its prefix minimum M kept
    dense: the least completion value at every height up to ``h_max``, each
    chunk testing its rows against the running ``np.minimum.accumulate`` of
    all of them.  The same scan, completions and keep rule."""
    mids, merrs = ctx.view(search._BASE_BITS).float_powers()
    dot_err = boxscan.box_dot_error(mids, merrs, h_max)
    slack = 2 * dot_err + 1e-12
    best = np.full(h_max + 1, np.inf)
    best[h_from] = threshold

    def pick(values, heights):
        new = heights > h_from
        np.minimum.at(best, heights[new], values[new])
        return new & (values <= np.minimum.accumulate(best)[heights] + slack)

    kept = [boxscan.completions(coeffs, s, h_max, threshold, dot_err, pick)
            for coeffs, s in boxscan.scan_box(mids, h_max, threshold + dot_err + 1e-12,
                                              "the record search", f"height {h_max}")]
    rows, values, heights = (np.concatenate(part) for part in zip(*kept))
    final = values <= (np.minimum.accumulate(best) + slack)[heights]
    rows, heights = rows[final], heights[final]
    return {h: rows[heights == h] for h in np.flatnonzero(np.bincount(heights)).tolist()}


# ---------------------------------------------------------------------------
# Continued fractions: the records at n = 1
# ---------------------------------------------------------------------------


def certified_convergents(xi: RealEnclosure) -> List[Tuple[int, int]]:
    """The convergents p_k / q_k of every real in the ball ``xi``, as
    (p_k, q_k): the continued fractions of its two ends expanded together in
    exact rationals, up to the first partial quotient where they differ (or
    an end runs out).  The reals with given first partial quotients form an
    interval, so every real between the ends shares those quotients."""
    lo, hi = xi.lo(), xi.hi()
    out: List[Tuple[int, int]] = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(lo)
        if math.floor(hi) != a:
            return out
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
        lo, hi = lo - a, hi - a
        if not lo or not hi:
            return out
        # 1/x reverses the order of the ends
        lo, hi = 1 / hi, 1 / lo


# ---------------------------------------------------------------------------
# Exact rational evaluation of an ``IntPolynomial``
# ---------------------------------------------------------------------------


def eval_fraction(poly: IntPolynomial, x: Fraction) -> Fraction:
    """Exact evaluation at a rational point."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def fraction_refine_root(poly: IntPolynomial, bracket, tol) -> RealEnclosure:
    """``refine_root`` by halving in ``Fraction``: the same end test, the
    same midpoints and the same signs, one ``sign_at`` per step."""
    a, b = Fraction(bracket[0]), Fraction(bracket[1])
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    sa, sb = poly.sign_at(a), poly.sign_at(b)
    if sa == 0 or sb == 0 or sa == sb:
        raise NoSignChange(f"no strict sign change across ({a}, {b})")
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


def _fraction_count_open(chain: Sequence[IntPolynomial], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi) by Sturm's theorem, one ``sign_at`` of a
    ``Fraction`` per chain member and end."""
    def variations(x):
        signs = [s for s in (p.sign_at(x) for p in chain) if s != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(lo) - variations(hi) - (chain[0].sign_at(hi) == 0)


def fraction_isolate_roots(poly: IntPolynomial, lo, hi) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals inside (lo, hi), each holding exactly one
    real root of ``poly``, jointly covering all roots in (lo, hi); (r, r)
    marks an exact rational root.  Sturm counts split the window by halving
    in ``Fraction`` until each piece holds one root and has no root at an
    end."""
    if poly.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    chain = sturm_chain(poly)
    f = chain[0]
    out: List[Tuple[Fraction, Fraction]] = []

    def emit(a: Fraction, b: Fraction):
        while f.sign_at(a) == 0 or f.sign_at(b) == 0:
            m = (a + b) / 2
            if f.sign_at(m) == 0:
                out.append((m, m))
                return
            if _fraction_count_open(chain, a, m) == 1:
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
            recurse(a, m, _fraction_count_open(chain, a, m))
            recurse(m, b, _fraction_count_open(chain, m, b))
        else:
            cl = _fraction_count_open(chain, a, m)
            recurse(a, m, cl)
            recurse(m, b, count - cl)

    recurse(lo, hi, _fraction_count_open(chain, lo, hi))
    out.sort()
    return out
