"""Bound constants: polynomials, certified roots, the cubic form, the table."""

from fractions import Fraction
from unittest import mock

import pytest

from vlab import bounds
from vlab.bounds import (
    PUBLISHED_REFERENCE,
    alpha,
    beta,
    bounds_table,
    cubic_R,
    format_table_csv,
    format_table_json,
    format_table_text,
    gamma,
    h_tilde,
    quartic_Q,
    rho,
    sigma,
    sigma_poly,
    table_cells,
    theta,
    theta_tilde,
    truncate_decimals,
    w_root_of_theta_tilde,
)
from vlab.enclosure import RealEnclosure, nth_root
from vlab.errors import NoRootInRange, NoSignChange, PrecisionExhausted, RootCountMismatch
from vlab.polynomials import IntPolynomial
from vlab.rootisolation import cauchy_root_bound, count_roots_open, refine_root, sturm_chain
from reference import (fraction_isolate_roots, fraction_refine_root, theta_equilibrium_poly,
                       w_bound_from_tau)

TOL12 = Fraction(1, 10**12)


def assert_close(ball: RealEnclosure, value, tol=TOL12):
    value = Fraction(value) if not isinstance(value, RealEnclosure) else value
    if isinstance(value, RealEnclosure):
        diff = ball - value
    else:
        diff = ball - RealEnclosure.exact(value)
    assert abs(diff.mid) <= tol + diff.rad, f"{float(diff.mid)} exceeds {float(tol)}"


class TestBoundPolynomials:
    def test_quartic_coefficients(self):
        assert quartic_Q(2).coeffs == (0, -1, 4, -4, 1)
        assert quartic_Q(3).coeffs == (-12, -2, 17, -8, 1)
        assert quartic_Q(7).coeffs == (-420, -266, 169, -24, 1)

    def test_cubic_coefficients(self):
        assert cubic_R(2).coeffs == (-1, 4, -4, 1)
        assert cubic_R(3).coeffs == (-9, 18, -8, 1)
        assert cubic_R(7).coeffs == (-361, 174, -24, 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            quartic_Q(1)
        with pytest.raises(ValueError):
            cubic_R(1)


class TestCertifiedRoots:
    def test_beta_2_closed_form(self):
        s5 = nth_root(Fraction(5), 2, 128)
        assert_close(beta(2), (s5 + 3) / 2)

    def test_beta_anchors(self):
        assert truncate_decimals(beta(3)) == "4.3234"
        assert truncate_decimals(beta(9)) == "16.0187"

    def test_gamma_anchors(self):
        assert truncate_decimals(gamma(2)) == "2.6180"
        assert truncate_decimals(gamma(3)) == "4.3027"  # reference rounds to 4.3028
        assert truncate_decimals(gamma(5)) == "8.0791"
        assert truncate_decimals(gamma(7)) == "12.0328"

    def test_rho_closed_forms(self):
        s5 = nth_root(Fraction(5), 2, 128)
        assert_close(rho(2), (s5 + 3) / 2)
        assert_close(rho(3), s5 + 2)
        for n in range(4, 21):
            ball = rho(n)
            assert ball.is_exact and ball.mid == 2 * n - 2

    def test_rho_equals_closed_form_max(self):
        # the case split agrees with max((sqrt5+1)/2 n - (sqrt5-1)/2, 2n-2)
        s5 = nth_root(Fraction(5), 2, 192)
        for n in range(2, 12):
            formula = (s5 + 1) / 2 * n - (s5 - 1) / 2
            expected_hi = max(formula.hi(), Fraction(2 * n - 2))
            expected_lo = max(formula.lo(), Fraction(2 * n - 2))
            ball = rho(n)
            assert ball.lo() <= expected_hi and expected_lo <= ball.hi()

    def test_sigma_2_closed_form(self):
        s5 = nth_root(Fraction(5), 2, 128)
        assert_close(sigma(2), (s5 + 3) / 2)

    def test_sigma_3_closed_form(self):
        s2 = nth_root(Fraction(2), 2, 128)
        assert_close(sigma(3), s2 + 3)

    def test_sigma_9(self):
        assert truncate_decimals(sigma(9)) == "16.0231"

    def test_sigma_poly_kills_trivial_endpoint_root(self):
        # sigma_poly vanishes at x = 2n-1; the bracket must exclude it
        for n in (2, 3, 5):
            assert sigma_poly(n).sign_at(Fraction(2 * n - 1)) == 0
            s = sigma(n)
            assert s.hi() < 2 * n - 1

    def test_alpha_case_split(self):
        assert_close(alpha(3), sigma(3))
        for n in (10, 15):
            ball = alpha(n)
            assert ball.is_exact and ball.mid == 2 * n - 2

    def test_structure_certificates_sample(self):
        for n in (2, 3, 10, 25, 50):
            for poly, count in ((quartic_Q(n), 4), (cubic_R(n), 3)):
                bound = cauchy_root_bound(poly)
                assert len(fraction_isolate_roots(poly, -bound, bound)) == count

    def test_coincidence_at_n2(self):
        values = [beta(2), gamma(2), rho(2), sigma(2)]
        for v in values[1:]:
            assert_close(values[0], v)


def _isolated_largest_root(poly, n, expected_roots, tol):
    """The largest root by isolating every real root and refining the last
    interval, the window checked afterwards: the route the window
    certificate replaced."""
    bound = cauchy_root_bound(poly)
    intervals = fraction_isolate_roots(poly, -bound, bound)
    lo, hi = Fraction(2 * n - 2), Fraction(2 * n - 1)
    assert len(intervals) == expected_roots
    assert count_roots_open(sturm_chain(poly), lo, hi) == 1
    root = refine_root(poly, intervals[-1], tol)
    assert lo < root.lo() and root.hi() < hi
    return root


def _linear_product(*roots):
    """prod (b T - a) over the roots a/b."""
    p = IntPolynomial([1])
    for r in map(Fraction, roots):
        p = p * IntPolynomial([-r.numerator, r.denominator])
    return p


class TestWindowCertificate:
    def test_table_equals_isolating_every_root(self):
        # text, CSV and JSON for n = 2..60 are those of the isolation route,
        # and each beta and gamma ball overlaps the ball it refined
        rows = bounds_table(2, 60)
        with mock.patch.object(bounds, "_largest_root_in_window", _isolated_largest_root):
            old = bounds_table(2, 60)
        for fmt in (format_table_text, format_table_csv, format_table_json):
            assert fmt(rows) == fmt(old)
        for row, old_row in zip(rows, old):
            assert row.alpha == old_row.alpha and row.rho == old_row.rho
            for new_ball, old_ball in ((row.beta, old_row.beta), (row.gamma, old_row.gamma)):
                assert new_ball.lo() <= old_ball.hi() and old_ball.lo() <= new_ball.hi()

    @pytest.mark.parametrize("roots,expected,error,match", [
        ((1, Fraction(5, 2), 7), 3, RootCountMismatch, "1 real root.* above"),
        ((-1, Fraction(5, 2), 3), 3, NoSignChange, "sign change"),  # 2n - 1 is a root
        ((-1, 2, Fraction(5, 2)), 3, NoSignChange, "sign change"),  # 2n - 2 is a root
        ((-1, Fraction(5, 2)), 3, RootCountMismatch, "3 distinct real roots, found 2"),
        ((-1, Fraction(9, 4), Fraction(11, 4)), 3, RootCountMismatch, "one root .* found 2"),
        # a double root: counted once, but the ends carry one sign
        ((-1, Fraction(5, 2), Fraction(5, 2)), 2, NoSignChange, "sign change"),
    ])
    def test_refuses_an_uncertified_window(self, roots, expected, error, match):
        # at n = 2 the window is (2, 3)
        with pytest.raises(error, match=match):
            bounds._largest_root_in_window(_linear_product(*roots), 2, expected, TOL12)

    def test_refuses_an_end_root_in_any_bracket(self):
        p = _linear_product(1, Fraction(3, 2))
        with pytest.raises(NoSignChange):
            bounds._root_in_window(p, sturm_chain(p), Fraction(1), Fraction(2), TOL12)
        ball = bounds._root_in_window(p, sturm_chain(p), Fraction(5, 4), Fraction(2), TOL12)
        assert ball.contains(Fraction(3, 2)) and ball.rad <= TOL12


class TestThetaForms:
    def test_theta_hand_value(self):
        # n=2, w=3, tau_k=tau_l=2: d3=2, d2=-8, d1=12, d0=-12 -> 54-72+36-12
        val = theta(2, 3, 2, 2)
        assert val.is_exact and val.mid == 6

    def test_theta_tilde_hand_value(self):
        # n=2, w=3, tau=1: 6 - 4 - 0 - (3-1-3) = 3
        val = theta_tilde(2, 3, 1, 1)
        assert val.is_exact and val.mid == 3

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equilibrium_reduces_to_quartic(self, n):
        assert theta_equilibrium_poly(n).coeffs == quartic_Q(n).coeffs

    @pytest.mark.parametrize("n", range(2, 10))
    def test_theta_vanishes_at_beta(self, n):
        b = beta(n)
        tau = b - (2 * n - 3)
        assert_close(theta(n, b, tau, tau), 0, Fraction(1, 10**9))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_theta_tilde_vanishes_at_gamma(self, n):
        g = gamma(n)
        tau_k = g - (2 * n - 3)
        tau_l = (n - 1) / (g - n)
        assert_close(theta_tilde(n, g, tau_k, tau_l), 0, Fraction(1, 10**9))

    def test_theta_tilde_golden_ratio_coincidence(self):
        s5 = nth_root(Fraction(5), 2, 128)
        phi = (s5 + 1) / 2
        w = (s5 + 3) / 2
        assert_close(theta_tilde(2, w, phi, phi), 0, Fraction(1, 10**20))


class TestWBoundFromTau:
    def test_golden_ratio_equilibrium(self):
        s5 = nth_root(Fraction(5), 2, 160)
        phi = (s5 + 1) / 2
        root = w_bound_from_tau(2, phi)
        assert_close(root, (s5 + 3) / 2, Fraction(1, 10**8))

    def test_beta3_equilibrium(self):
        b3 = beta(3)
        root = w_bound_from_tau(3, b3 - 3)
        assert_close(root, b3, Fraction(1, 10**8))

    def test_bound_weakens_as_tau_shrinks(self):
        b3 = beta(3)
        near_one = w_bound_from_tau(3, Fraction(101, 100))
        assert near_one.lo() > b3.hi()

    def test_monotone_decreasing_on_grid(self):
        taus = [Fraction(1, 1) + Fraction(i, 8) for i in range(1, 16)]
        roots = [w_bound_from_tau(3, t) for t in taus]
        for a, b in zip(roots, roots[1:]):
            assert b.lo() < a.hi()
            assert b.mid < a.mid

    def test_exact_rational_tau(self):
        root = w_bound_from_tau(2, Fraction(3, 2))
        # verify it is a root and the largest in the window
        val = theta(2, root, Fraction(3, 2), Fraction(3, 2))
        assert val.contains(0) or abs(val.mid) < Fraction(1, 10**8)

    def test_large_tau_root_approaches_n(self):
        # the largest root tends to n from above as tau grows, so the
        # NoRootInRange error stays defensive; verify the limit behavior
        root = w_bound_from_tau(2, Fraction(100))
        assert Fraction(2) < root.lo() and root.hi() < Fraction(21, 10)

    def test_rejects_tau_at_most_one(self):
        with pytest.raises(ValueError):
            w_bound_from_tau(2, Fraction(1))


class TestHTilde:
    def test_minimum_value(self):
        s2 = nth_root(Fraction(2), 2, 128)
        assert_close(h_tilde(4, s2), 2 * s2 + 3)

    def test_boundary(self):
        val = h_tilde(2, 1)
        assert val.is_exact and val.mid == 2

    def test_matches_theta_tilde_root(self):
        for n in (2, 3, 5):
            for tau in (Fraction(5, 4), Fraction(2), Fraction(7, 2)):
                assert_close(w_root_of_theta_tilde(n, tau), h_tilde(n, tau),
                             Fraction(1, 10**20))

    def test_rho_fixed_point_for_small_n(self):
        # for n = 2, 3 the conditional bound solves w = h_tilde(n, (n-1)/(w-n))
        for n in (2, 3):
            r = rho(n, 192)
            image = h_tilde(n, (n - 1) / (r - n))
            assert_close(image, r, Fraction(1, 10**30))

    def test_h_tilde_below_linear_bound(self):
        # h_tilde(n, x) <= x + 2n - 3 for x > 1, strict for n >= 3
        # (difference is (n-2)(1 - 1/x), which vanishes identically at n=2)
        for n in (2, 3, 6):
            for x in (Fraction(11, 10), Fraction(2), Fraction(10)):
                v = h_tilde(n, x)
                if n == 2:
                    assert v.contains(x + 1)
                else:
                    assert v.hi() < x + 2 * n - 3


class TestTable:
    def test_truncation_certified(self):
        ball = RealEnclosure(Fraction(261803, 100000), Fraction(1, 10**10))
        assert truncate_decimals(ball) == "2.6180"
        straddling = RealEnclosure(Fraction(2), Fraction(1, 10**5))
        with pytest.raises(PrecisionExhausted):
            truncate_decimals(straddling)

    def test_truncates_never_rounds(self):
        ball = RealEnclosure(Fraction(99999, 10**5), Fraction(1, 10**10))
        assert truncate_decimals(ball) == "0.9999"

    def test_exact_integer_prints_bare(self):
        assert truncate_decimals(RealEnclosure.exact(6)) == "6"

    def test_golden_rows(self):
        rows = bounds_table(2, 9)
        flagged = {}
        for row in rows:
            for name, cell in table_cells(row).items():
                ref = PUBLISHED_REFERENCE[row.n][name]
                if cell.flag is None:
                    assert cell.text == ref, (row.n, name)
                else:
                    flagged[(row.n, name)] = cell.text
        assert flagged == {
            (3, "gamma"): "4.3027",   # reference rounds to 4.3028
            (4, "alpha"): "6.2874",   # reference rounds to 6.2875
            (5, "alpha"): "8.2009",   # reference rounds to 8.2010
            (7, "gamma"): "12.0328",  # reference misprints 10.0328
        }

    def test_csv_format(self):
        rows = bounds_table(2, 3)
        csv = format_table_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "n,beta,alpha,gamma,rho"
        assert lines[1] == "2,2.6180,2.6180,2.6180,2.6180"
        assert lines[2] == "3,4.3234,4.4142,4.3027,4.2360"

    def test_text_contains_flag_notes(self):
        text = format_table_text(bounds_table(7, 7))
        assert "10.0328" in text and "12.0328" in text

    def test_json_flags(self):
        rows = format_table_json(bounds_table(6, 7))
        assert rows[0]["flags"] == []
        assert rows[1]["flags"][0]["column"] == "gamma"

    def test_balls_match_fraction_bisection(self):
        # the integer bisection certifies the balls the Fraction one did:
        # every (mid, rad) of beta, alpha and gamma for n = 2..9
        got = bounds_table(2, 9)
        with mock.patch.object(bounds, "refine_root", fraction_refine_root):
            want = bounds_table(2, 9)
        assert got == want

    def test_determinism(self):
        a = format_table_csv(bounds_table(2, 5))
        b = format_table_csv(bounds_table(2, 5))
        assert a == b


class TestInvariants:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_strict_improvement_ordering(self, n):
        b, a, g, r = beta(n), alpha(n), gamma(n), rho(n)
        assert b.hi() < a.lo()
        assert g.hi() < b.lo()
        assert r.hi() <= g.lo()

    def test_beta_error_term_decreasing_sample(self):
        prev = None
        for n in (2, 3, 5, 10, 30, 100, 200):
            excess = beta(n, Fraction(1, 10**9)) - (2 * n - 2)
            assert excess.lo() > 0
            if prev is not None:
                assert excess.hi() < prev.lo()
            prev = excess
