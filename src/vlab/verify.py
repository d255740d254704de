"""Margin reports: every inequality and identity checked against sequence data.

Asymptotic statements never hard-fail; each check emits a margin (>= 0 means
satisfied with the configured slack) plus an applicability gate.  Algebraic
identities must hold within accumulated enclosure radii and a small tolerance.
Limit quantities are replaced by tail-half proxies that are labeled as
finite-scale estimates in the notes, never asserted as limits.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .bestapprox.exponents import derive_exponents
from .bestapprox.records import (SequenceData, ball_to_json, fraction_to_decimal)
from .bounds import theta
from .enclosure import RealEnclosure, ln_fraction
from .errors import BudgetExceeded, EmptyInput, PrecisionExhausted
from .paramgeom import (MinimaSweep, meeting_point, omega_identity_check,
                        successive_minima_exact)
from .polyalg import ell_of_k, enrich_independence
from .realspec import real_from_spec
from .rootisolation import poly_eval_enclosure

IDENTITY_TOL = Fraction(1, 10**9)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    k: Optional[int]
    margin: Optional[RealEnclosure]
    applicable: bool
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "k": self.k,
            "margin": ball_to_json(self.margin.compress(96)) if self.margin is not None else None,
            "applicable": self.applicable,
            "notes": self.notes,
        }


@dataclass
class VerifyReport:
    seq: SequenceData
    slack: Fraction
    results: List[CheckResult] = field(default_factory=list)

    def summary(self) -> dict:
        applicable = [r for r in self.results if r.applicable]
        negative = [r for r in applicable
                    if r.margin is not None and r.margin.hi() < 0]
        investigate = [r for r in applicable
                       if r.margin is not None
                       and r.margin.hi() < -10 * self.slack]
        return {
            "checks": len(self.results),
            "applicable": len(applicable),
            "negative": [(r.check_id, r.k) for r in negative],
            "investigate": [(r.check_id, r.k) for r in investigate],
        }

    def to_json(self) -> dict:
        return {
            "xi": self.seq.xi_spec.to_json(),
            "n": self.seq.n,
            "height_limit": self.seq.search_height_limit,
            "slack": fraction_to_decimal(self.slack),
            "results": [r.to_json() for r in self.results],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        lines = [f"verify report: xi={self.seq.xi_spec.describe()} n={self.seq.n} "
                 f"H<={self.seq.search_height_limit} slack={float(self.slack)}"]
        lines.append(f"{'check':<22} {'k':>4} {'applicable':>10} {'margin':>14}  notes")
        for r in self.results:
            marg = f"{float(r.margin.mid):+.6f}" if r.margin is not None else ""
            lines.append(f"{r.check_id:<22} {r.k if r.k is not None else '':>4} "
                         f"{str(r.applicable):>10} {marg:>14}  {r.notes}")
        s = self.summary()
        lines.append(f"summary: {s['applicable']}/{s['checks']} applicable, "
                     f"negative margins: {s['negative'] or 'none'}, "
                     f"investigate: {s['investigate'] or 'none'}")
        return "\n".join(lines) + "\n"


def _log_height(seq: SequenceData, k: int) -> RealEnclosure:
    return ln_fraction(Fraction(seq.record(k).height), seq.precision_bits)


def check_jopi(seq: SequenceData) -> List[CheckResult]:
    """Height/value monotonicity of consecutive records."""
    out = []
    if len(seq.records) < 2:
        return [CheckResult("jopi", None, None, False, "fewer than two records")]
    for k in range(2, len(seq.records) + 1):
        prev, rec = seq.record(k - 1), seq.record(k)
        out.append(CheckResult(
            "jopi-heights", k, RealEnclosure.exact(rec.height - prev.height - 1), True))
        out.append(CheckResult(
            "jopi-values", k, prev.log_abs_value - rec.log_abs_value, True,
            "log|P_{k-1}| - log|P_k| must be positive"))
    return out


def check_thmA(seq: SequenceData, slack: Fraction) -> List[CheckResult]:
    """tau_{k+1} >= mu_k - (2n-3) at every good k."""
    n = seq.n
    out = []
    for k in range(2, len(seq.records)):
        rec = seq.record(k)
        nxt = seq.record(k + 1)
        if rec.good is None:
            out.append(CheckResult("thmA", k, None, False, "goodness undecidable here"))
            continue
        if not rec.good:
            out.append(CheckResult("thmA", k, None, False, "k is not good"))
            continue
        if nxt.tau is None or rec.mu is None:
            out.append(CheckResult("thmA", k, None, False, "tau/mu undefined"))
            continue
        margin = nxt.tau - rec.mu + (2 * n - 3) + slack
        out.append(CheckResult("thmA", k, margin, True))
    return out


def _window_gate(seq: SequenceData, k: int) -> Optional[str]:
    """The doubling precondition H_k > 2 H_{k-1} plus a witnessed ell."""
    if k < 2 or k + 1 > len(seq.records):
        return "window out of range"
    if seq.record(k).height <= 2 * seq.record(k - 1).height:
        return "doubling precondition H_k > 2 H_{k-1} fails"
    if seq.record(k).ell is None:
        return "ell(k) unknown or truncated at the end of the data"
    return None


def check_lemma_2d(seq: SequenceData, k: int, slack: Fraction) -> List[CheckResult]:
    """Two-dimensional-window bounds and the cross-determinant identity."""
    n = seq.n
    gate = _window_gate(seq, k)
    if gate is not None:
        return [CheckResult("lemma2d", k, None, False, gate)]
    ell = seq.record(k).ell
    est = seq.estimates()
    w_hat, w_ord = est.w_hat_proxy, est.w_proxy
    out = []
    log_hk = _log_height(seq, k)
    tau_k = seq.record(k).tau
    proxy_note = f"limit proxies from records k>={est.tail_start_k}"
    if w_hat is None or w_hat.lo() <= 1 or tau_k is None:
        out.append(CheckResult("lemma2d-growth", k, None, False,
                               "uniform-exponent proxy unusable (<= 1)"))
    else:
        lhs = ln_fraction(Fraction(seq.record(ell - 1).height), seq.precision_bits) / log_hk
        v_prev = seq.record(k - 1).v
        if v_prev is not None:
            rhs = (v_prev / tau_k - 1) / (w_hat - 1)
            out.append(CheckResult("lemma2d-growth", k, rhs + slack - lhs, True, proxy_note))
        else:
            out.append(CheckResult("lemma2d-growth", k, None, False, "v_{k-1} undefined"))
        if w_ord is not None:
            rhs_w = (w_ord / tau_k - 1) / (w_hat - 1)
            out.append(CheckResult("lemma2d-growth-w", k, rhs_w + slack - lhs, True, proxy_note))
            if ell <= len(seq.records) and seq.record(ell).tau is not None:
                lhs_ell = ln_fraction(Fraction(seq.record(ell).height),
                                      seq.precision_bits) / log_hk
                rhs_ell = rhs_w * seq.record(ell).tau
                out.append(CheckResult("lemma2d-extension", k, rhs_ell + slack - lhs_ell,
                                       True, proxy_note))
            else:
                out.append(CheckResult("lemma2d-extension", k, None, False,
                                       "record ell or tau_ell unavailable"))
    out.append(_determinant_identity(seq, k, ell))
    return out


def _determinant_identity(seq: SequenceData, k: int, ell: int) -> CheckResult:
    """|x_{k-1} P_k(xi) - x_k P_{k-1}(xi)| = |x_{ell-2} P_{ell-1}(xi) -
    x_{ell-1} P_{ell-2}(xi)| on rank-2 windows, x_j the coefficient of the
    power realizing the height of P_k."""
    xi = real_from_spec(seq.xi_spec, seq.precision_bits + 64)
    height_k = seq.record(k).poly.height()
    power = next(i for i, c in enumerate(seq.record(k).poly.coeffs)
                 if abs(c) == height_k)

    def x_of(j: int) -> int:
        coeffs = seq.record(j).poly.coeffs
        return coeffs[power] if power < len(coeffs) else 0

    def value(j: int) -> RealEnclosure:
        return poly_eval_enclosure(seq.record(j).poly, xi)

    side1 = abs(value(k) * x_of(k - 1) - value(k - 1) * x_of(k))
    side2 = abs(value(ell - 1) * x_of(ell - 2) - value(ell - 2) * x_of(ell - 1))
    resid = side1 - side2
    margin = RealEnclosure.exact(IDENTITY_TOL) + resid.rad - abs(RealEnclosure.exact(resid.mid))
    note = "vacuous: two-element window" if ell == k + 1 else \
        f"cross-determinant identity over window [{k - 1}, {ell - 1}], coefficient power {power}"
    return CheckResult("lemma2d-identity", k, margin, True, note)


def check_thmB(seq: SequenceData, k: int, slack: Fraction) -> List[CheckResult]:
    """Theta_n(w-hat proxy, tau_k, tau_ell) <= slack under the doubling gate;
    meaningful only when the proxy exceeds 2n-2, which genuine numbers are
    not expected to satisfy."""
    n = seq.n
    gate = _window_gate(seq, k)
    if gate is not None:
        return [CheckResult("thmB", k, None, False, gate)]
    ell = seq.record(k).ell
    est = seq.estimates()
    w_hat = est.w_hat_proxy
    tau_k = seq.record(k).tau
    tau_ell = seq.record(ell).tau if ell <= len(seq.records) else None
    if tau_k is None or tau_ell is None:
        return [CheckResult("thmB", k, None, False, "tau_k or tau_ell undefined")]
    if w_hat is None or not (w_hat.lo() > 2 * n - 2):
        return [CheckResult(
            "thmB", k, None, False,
            "vacuous: uniform-exponent proxy does not exceed 2n-2 "
            "(the hypothesis regime is not reachable by known numbers)")]
    margin = RealEnclosure.exact(slack) - theta(n, w_hat, tau_k, tau_ell)
    return [CheckResult("thmB", k, margin, True,
                        f"limit proxies from records k>={est.tail_start_k}")]


def check_tau_range(seq: SequenceData, slack: Fraction) -> List[CheckResult]:
    """1 < tau_k <= (ordinary/uniform proxy ratio) + slack."""
    est = seq.estimates()
    out = []
    ratio = None
    if est.w_proxy is not None and est.w_hat_proxy is not None and est.w_hat_proxy.lo() > 0:
        ratio = est.w_proxy / est.w_hat_proxy
    for k in range(2, len(seq.records) + 1):
        tau = seq.record(k).tau
        if tau is None:
            out.append(CheckResult("tau-above-1", k, None, False, "tau undefined (H_{k-1}=1)"))
            continue
        out.append(CheckResult("tau-above-1", k, tau - 1, True))
        if ratio is not None:
            out.append(CheckResult(
                "tau-upper", k, ratio + slack - tau, True,
                f"ratio proxy from records k>={est.tail_start_k}"))
    return out


def check_ratio_bound(seq: SequenceData, slack: Fraction) -> List[CheckResult]:
    """ordinary/uniform <= (n-1)/(uniform - n) + slack, only meaningful when
    the uniform proxy exceeds n."""
    n = seq.n
    est = seq.estimates()
    w_hat, w_ord = est.w_hat_proxy, est.w_proxy
    if w_hat is None or w_ord is None:
        return [CheckResult("exponent-ratio", None, None, False, "proxies unavailable")]
    if not (w_hat.lo() > n):
        return [CheckResult(
            "exponent-ratio", None, None, False,
            f"vacuous: uniform proxy {float(w_hat.mid):.4f} does not exceed n={n}")]
    margin = (n - 1) / (w_hat - n) + slack - w_ord / w_hat
    return [CheckResult("exponent-ratio", None, margin, True,
                        f"proxies from records k>={est.tail_start_k}")]


def check_cor42(seq: SequenceData, slack: Fraction) -> List[CheckResult]:
    """uniform proxy <= tau-bar proxy + 2n - 3 (+ slack)."""
    n = seq.n
    est = seq.estimates()
    if est.w_hat_proxy is None or est.tau_bar_proxy is None:
        return [CheckResult("tau-bar-bound", None, None, False, "proxies unavailable")]
    margin = est.tau_bar_proxy + (2 * n - 3) + slack - est.w_hat_proxy
    return [CheckResult("tau-bar-bound", None, margin, True,
                        f"proxies from records k>={est.tail_start_k}")]


def _meeting_points(seq: SequenceData):
    """k -> the meeting point of records k-1 and k, each made on first need
    (so a DegenerateRecords comes from the first check that needs it)."""
    @functools.lru_cache(maxsize=None)
    def at(k: int):
        return meeting_point(seq.record(k - 1), seq.record(k), seq.n, seq.precision_bits)
    return at


def check_meeting_identity(seq: SequenceData, points=None) -> List[CheckResult]:
    """The normalized meeting value equals (2n-2-mu)/((2n-2)(1+mu)) exactly.
    ``points`` (``_meeting_points``) may be shared with ``check_lemma31``."""
    n = seq.n
    if n < 2:
        return [CheckResult("meeting-identity", None, None, False,
                            "needs n >= 2 (ambient slope degenerates at n=1)")]
    if points is None:
        points = _meeting_points(seq)
    out = []
    for k in range(2, len(seq.records) + 1):
        rec = seq.record(k)
        if rec.mu is None:
            out.append(CheckResult("meeting-identity", k, None, False, "mu undefined"))
            continue
        gp = points(k)
        resid = omega_identity_check(rec.mu, gp.omega, n)
        margin = RealEnclosure.exact(IDENTITY_TOL) + resid.rad \
            - abs(RealEnclosure.exact(resid.mid))
        out.append(CheckResult("meeting-identity", k, margin, True))
    return out


def check_lemma31(seq: SequenceData, points=None) -> List[CheckResult]:
    """Last-minimum lower bound at the meeting points, reported as margins
    against the unquantified O(1) constant (the most negative applicable
    margin is the empirical constant).  One ``MinimaSweep`` serves every
    meeting point, so the minima share their q-free work, and each meeting
    point starts from the windows the one before it stopped with.  The
    minima are scanned under the box budget of every other scan
    (``boxscan.BOX_BUDGET``); minima over a budget, or meeting a P not
    certified nonzero at xi, give a skipped row.  A meeting point that one call alone
    would refuse for budget may be answered from those windows, with the
    minima such a call gives under a larger budget."""
    n = seq.n
    if n < 2:
        return [CheckResult("lemma31", None, None, False, "needs n >= 2")]
    if points is None:
        points = _meeting_points(seq)
    m = 2 * n - 2
    coeff = Fraction(2 * n**2 - 5 * n + 2, m)
    sweep = MinimaSweep(real_from_spec(seq.xi_spec, seq.precision_bits + 64), n)
    out = []
    for k in range(2, len(seq.records) + 1):
        gp = points(k)
        q_mid = gp.q.mid
        try:
            minima = successive_minima_exact(sweep, q_mid)
        except BudgetExceeded:
            out.append(CheckResult("lemma31", k, None, False,
                                   f"skipped: enumeration budget at q={float(q_mid):.2f}"))
            continue
        except PrecisionExhausted:
            out.append(CheckResult("lemma31", k, None, False,
                                   f"skipped: P(xi) not certified nonzero at q={float(q_mid):.2f}"))
            continue
        level = gp.omega * gp.q  # L at the meeting point
        rhs = -m * level + coeff * (gp.q - gp.s)
        margin = minima[-1] - rhs
        # evaluating at the rational midpoint of q_k shifts L_j by at most
        # the radius of q_k (all slopes have absolute value <= 1)
        margin = RealEnclosure(margin.mid, margin.rad + gp.q.rad,
                               margin.precision_bits)
        out.append(CheckResult("lemma31", k, margin, True,
                               "margin relative to the unquantified O(1) constant"))
    return out


def check_goodness_consistency(seq: SequenceData) -> List[CheckResult]:
    """k is good iff ell(k) = k+1, wherever both sides are decidable."""
    out = []
    for k in range(2, len(seq.records)):
        rec = seq.record(k)
        if rec.good is None:
            continue
        ell, truncated = ell_of_k(seq, k)
        if truncated:
            consistent = not rec.good
            note = "truncated window: good must be false"
        else:
            consistent = rec.good == (ell == k + 1)
            note = f"ell={ell}"
        out.append(CheckResult("good-iff-ell", k,
                               RealEnclosure.exact(1 if consistent else -1), True, note))
    return out


def full_report(seq: SequenceData, *, slack: Fraction = Fraction(5, 100),
                lemma31: bool = True) -> VerifyReport:
    """Aggregate every check into a deterministic report; ``lemma31``
    False leaves out the Lemma 3.1 rows."""
    if not seq.records:
        raise EmptyInput("cannot verify an empty sequence")
    if any(r.mu is None for r in seq.records[1:]):
        derive_exponents(seq)
    if len(seq.records) >= 3 and seq.records[1].good is None:
        enrich_independence(seq)
    report = VerifyReport(seq, slack)
    res = report.results
    res.extend(check_jopi(seq))
    res.extend(check_tau_range(seq, slack))
    res.extend(check_thmA(seq, slack))
    for k in range(2, len(seq.records)):
        res.extend(check_lemma_2d(seq, k, slack))
        res.extend(check_thmB(seq, k, slack))
    res.extend(check_ratio_bound(seq, slack))
    res.extend(check_cor42(seq, slack))
    points = _meeting_points(seq)
    res.extend(check_meeting_identity(seq, points))
    if lemma31:
        res.extend(check_lemma31(seq, points))
    res.extend(check_goodness_consistency(seq))
    return report


def report_json_bytes(report: VerifyReport) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True, indent=1).encode()
