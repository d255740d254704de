"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 carries a documented caveat: the published reference
table rounds three cells (gamma at n=3, alpha at n=4 and 5) and misprints
gamma at n=7, so an exact truncation match is mathematically impossible for
those cells; the strict-xfail companion test pins that analysis.
"""

import time
from fractions import Fraction

import pytest

from vlab.bestapprox import best_approx_sequence, derive_exponents, min_poly_at_height
from vlab.bounds import (
    PUBLISHED_REFERENCE,
    alpha,
    beta,
    bounds_table,
    gamma,
    h_tilde,
    quartic_Q,
    cubic_R,
    rho,
    sigma,
    table_cells,
    theta,
    theta_tilde,
    truncate_decimals,
    w_root_of_theta_tilde,
)
from vlab.enclosure import RealEnclosure, nth_root
from vlab.paramgeom import (
    MinimaSweep,
    meeting_point,
    minkowski_margin,
    omega_identity_check,
    shifted_frame,
    successive_minima_exact,
    successive_minima_pool,
)
from vlab.polyalg import enrich_independence
from vlab.realspec import parse_xi, real_from_spec
from vlab.rootisolation import cauchy_root_bound
from vlab.verify import check_lemma_2d
from reference import fraction_isolate_roots

E80 = ("2.71828182845904523536028747135266249775724709369995957496696762772"
       "407663035354759")

TOL12 = Fraction(1, 10**12)
TOL9 = Fraction(1, 10**9)

_sequences = {}


def corpus_sequence(spec_text: str, n: int, h_max: int):
    key = (spec_text, n, h_max)
    if key not in _sequences:
        seq = derive_exponents(best_approx_sequence(parse_xi(spec_text), n, h_max))
        if len(seq.records) >= 3:
            enrich_independence(seq)
        _sequences[key] = seq
    return _sequences[key]


def close(ball: RealEnclosure, value, tol) -> bool:
    diff = ball - (value if isinstance(value, RealEnclosure) else RealEnclosure.exact(value))
    return abs(diff.mid) <= tol + diff.rad


def report(num: int, passed: bool, detail: str = ""):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'}{' - ' + detail if detail else ''}")
    assert passed


#: cells where the published table does not equal the truncation of the
#: correctly computed value: two publication roundings, one last-digit
#: inaccuracy (alpha_4 = 6.28744... prints as 6.2875, which is not even its
#: rounding) and one misprint (gamma_7 prints 10.0328 for 12.0328)
PUBLICATION_ARTIFACTS = {
    (3, "gamma"): ("4.3027", "rounded"),
    (4, "alpha"): ("6.2874", "inaccurate"),
    (5, "alpha"): ("8.2009", "rounded"),
    (7, "gamma"): ("12.0328", "misprint"),
}


def test_criterion_1_golden_table():
    """Truncated table matches the published values on all unaffected cells;
    the four affected cells are flagged, never forced; runtime < 5 s."""
    start = time.monotonic()
    rows = bounds_table(2, 9)
    elapsed = time.monotonic() - start
    flagged = {}
    for row in rows:
        for name, cell in table_cells(row).items():
            ref = PUBLISHED_REFERENCE[row.n][name]
            if (row.n, name) in PUBLICATION_ARTIFACTS:
                expected, kind = PUBLICATION_ARTIFACTS[(row.n, name)]
                assert cell.text == expected, (row.n, name, cell.text)
                assert cell.flag is not None
                flagged[(row.n, name)] = kind
                scale = 10**4
                val = getattr(row, name)
                if kind == "rounded":
                    # the reference equals the rounded value: a formatting artifact
                    rounded = (val.mid * scale + Fraction(1, 2)).__floor__()
                    assert f"{rounded // scale}.{rounded % scale:04d}" == ref
                elif kind == "inaccurate":
                    # off in the last printed digit but within one ulp of it
                    ref_frac = Fraction(ref.replace(".", "")) / scale
                    assert abs(val.mid - ref_frac) < Fraction(1, scale)
            else:
                assert cell.text == ref, (row.n, name, cell.text, ref)
                assert cell.flag is None
    assert set(flagged) == set(PUBLICATION_ARTIFACTS)
    assert elapsed < 5.0
    report(1, True, f"table in {elapsed:.2f}s; flagged cells: {sorted(flagged)}")


@pytest.mark.xfail(strict=True, reason=(
    "the published table is not uniformly truncated: gamma_3=4.302775..., "
    "alpha_4=6.287440..., alpha_5=8.200970... truncate to 4.3027/6.2874/8.2009 "
    "but the reference prints the rounded 4.3028/6.2875/8.2010"))
def test_criterion_1_literal_truncation_of_rounded_cells():
    assert truncate_decimals(gamma(3)) == "4.3028"
    assert truncate_decimals(alpha(4)) == "6.2875"
    assert truncate_decimals(alpha(5)) == "8.2010"


def test_criterion_2_closed_form_anchors():
    """beta_2 = gamma_2 = rho_2 = sigma_2 = (3+sqrt5)/2, sigma_3 = 3+sqrt2,
    rho_3 = 2+sqrt5 within 1e-12; rho_n = 2n-2 exactly for 4 <= n <= 20."""
    s5 = nth_root(Fraction(5), 2, 192)
    s2 = nth_root(Fraction(2), 2, 192)
    golden = (s5 + 3) / 2
    assert close(beta(2), golden, TOL12)
    assert close(gamma(2), golden, TOL12)
    assert close(rho(2), golden, TOL12)
    assert close(sigma(2), golden, TOL12)
    assert close(sigma(3), s2 + 3, TOL12)
    assert close(rho(3), s5 + 2, TOL12)
    for n in range(4, 21):
        ball = rho(n)
        assert ball.is_exact and ball.mid == 2 * n - 2
    report(2, True)


def test_criterion_3_structure_certificates():
    """Root structure for n in [2,50]; excess positive and strictly
    decreasing on [2,200]."""
    tol = Fraction(1, 10**9)
    for n in range(2, 51):
        q, r = quartic_Q(n), cubic_R(n)
        q_ivs = fraction_isolate_roots(q, -cauchy_root_bound(q), cauchy_root_bound(q))
        r_ivs = fraction_isolate_roots(r, -cauchy_root_bound(r), cauchy_root_bound(r))
        assert len(q_ivs) == 4, f"Q_{n} root count"
        assert len(r_ivs) == 3, f"R_{n} root count"
        lo, hi = Fraction(2 * n - 2), Fraction(2 * n - 1)
        assert len(fraction_isolate_roots(q, lo, hi)) == 1
        assert len(fraction_isolate_roots(r, lo, hi)) == 1
    prev = None
    for n in range(2, 201):
        excess = beta(n, tol) - (2 * n - 2)
        assert excess.lo() > 0, f"beta_{n} excess must be positive"
        if prev is not None:
            assert excess.hi() < prev.lo(), f"excess must strictly decrease at n={n}"
        prev = excess
    report(3, True, "Q/R structure on [2,50]; excess decreasing on [2,200]")


def test_criterion_4_equilibrium_cross_checks():
    """Theta and its variant vanish at the equilibrium substitutions within
    1e-9; the linear-variant root equals x + n-1 + (n-2)/x on a 20-point grid."""
    for n in range(2, 10):
        b = beta(n)
        tau_b = b - (2 * n - 3)
        assert close(theta(n, b, tau_b, tau_b), 0, TOL9), f"theta at beta_{n}"
        g = gamma(n)
        tau_k = g - (2 * n - 3)
        tau_l = (n - 1) / (g - n)
        assert close(theta_tilde(n, g, tau_k, tau_l), 0, TOL9), f"theta~ at gamma_{n}"
        for j in range(1, 21):
            tau = Fraction(1) + Fraction(j, 8)
            root = w_root_of_theta_tilde(n, tau)
            expected = h_tilde(n, tau)
            assert root.is_exact and expected.is_exact and root.mid == expected.mid
    report(4, True)


ORACLE_CORPUS = [
    ("sqrt:2", 1, 10**4, 320),
    ("cbrt:2", 2, 500, 320),
    ("dec:" + E80, 2, 500, 256),
    ("dec:" + E80, 3, 60, 256),
]


def test_criterion_5_oracle_equivalence():
    """Incremental search equals the brute-force oracle at every record
    height; monotonicity holds throughout; < 2 minutes total."""
    start = time.monotonic()
    for spec_text, n, h_max, bits in ORACLE_CORPUS:
        seq = corpus_sequence(spec_text, n, h_max)
        xi = real_from_spec(parse_xi(spec_text), bits)
        for prev, rec in zip(seq.records, seq.records[1:]):
            assert prev.height < rec.height
            assert rec.log_abs_value.strictly_less(prev.log_abs_value) is True
        for rec in seq.records:
            poly, _ = min_poly_at_height(xi, n, rec.height, spec=parse_xi(spec_text))
            assert poly.coeffs == rec.poly.coeffs, (spec_text, n, rec.height)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(5, True, f"{len(ORACLE_CORPUS)} sequences in {elapsed:.1f}s")


def test_criterion_6_sqrt2_known_sequence():
    """(sqrt2, n=1) records up to H=20 are the continued-fraction convergents
    1/1, 3/2, 7/5, 17/12 (sign-canonical forms)."""
    seq = corpus_sequence("sqrt:2", 1, 10**4)
    upto20 = [r for r in seq.records if r.height <= 20]
    assert [r.poly.coeffs for r in upto20] == [(1, -1), (3, -2), (7, -5), (17, -12)]
    report(6, True)


def test_criterion_7_identity_suites():
    """Meeting-value identity residual < 1e-9 at every k of every n >= 2
    sequence; the cross-determinant identity holds on rank-2 windows."""
    for spec_text, n, h_max, _ in ORACLE_CORPUS:
        if n < 2:
            continue
        seq = corpus_sequence(spec_text, n, h_max)
        for k in range(2, len(seq.records) + 1):
            gp = meeting_point(seq.record(k - 1), seq.record(k), n, seq.precision_bits)
            resid = omega_identity_check(seq.record(k).mu, gp.omega, n)
            assert abs(resid.mid) <= resid.rad + TOL9, (spec_text, k)
        # genuine rank-2 windows (ell > k+1) exercise the determinant identity
        for k in range(2, len(seq.records)):
            ell = seq.record(k).ell
            if ell is None:
                continue
            results = check_lemma_2d(seq, k, Fraction(5, 100))
            ident = [r for r in results if r.check_id == "lemma2d-identity"]
            if ident and ident[0].applicable:
                assert ident[0].margin.lo() >= 0, (spec_text, k)
    report(7, True)


def test_criterion_8_minkowski_envelope():
    """Exact minima of the shifted cbrt2 frame at q in {2,4,...,14} stay
    inside the Minkowski envelope; pool bounds dominate pointwise; < 5 min."""
    start = time.monotonic()
    seq = corpus_sequence("cbrt:2", 2, 500)
    xi = real_from_spec(parse_xi("cbrt:2"), 320)
    frame = shifted_frame(seq, xi)
    sweep = MinimaSweep(frame.xi, 2)
    for q in range(2, 15, 2):
        exact = successive_minima_exact(sweep, q)
        margin = minkowski_margin(exact, 2)
        assert margin.hi() <= 0, f"envelope violated at q={q}"
        pool, incomplete = successive_minima_pool(frame, q)
        assert not incomplete
        for p, e in zip(pool, exact):
            assert not (p.hi() < e.lo()), f"pool below exact at q={q}"
    # the envelope also holds in the unshifted frame (any frame is a lattice)
    sweep = MinimaSweep(xi, 2)
    for q in (4, 10):
        exact = successive_minima_exact(sweep, q)
        assert minkowski_margin(exact, 2).hi() <= 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(8, True, f"q grid in {elapsed:.1f}s")


def test_criterion_9_thmA_tail_margins():
    """tau_{k+1} - mu_k + (2n-3) >= -0.05 at every good k in the tail half."""
    for spec_text in ("cbrt:2", "dec:" + E80):
        seq = corpus_sequence(spec_text, 2, 500)
        ks = [r.k for r in seq.records]
        tail_start = ks[len(ks) // 2]
        for k in range(max(2, tail_start), len(seq.records)):
            rec = seq.record(k)
            if not rec.good:
                continue
            margin = seq.record(k + 1).tau - rec.mu + (2 * seq.n - 3)
            assert margin.lo() >= Fraction(-5, 100), (spec_text, k, float(margin.mid))
    report(9, True)
