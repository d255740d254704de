"""Trajectories, meeting points, successive minima, Minkowski envelope."""

import math
from fractions import Fraction

import pytest

from vlab.bestapprox import best_approx_sequence, derive_exponents
from vlab.enclosure import RealEnclosure
from vlab.errors import BudgetExceeded, DegenerateRecords
from vlab.paramgeom import (
    PiecewiseLinearFn,
    Trajectory,
    combined_graph_csv,
    default_q_grid,
    graph_svg,
    meeting_point,
    minkowski_constant,
    minkowski_margin,
    omega_identity_check,
    shifted_frame,
    successive_minima_exact,
    successive_minima_pool,
    trajectory,
    trajectory_csv,
)
from vlab.polynomials import IntPolynomial
from vlab.realspec import parse_xi, real_from_spec


def ball(x):
    return RealEnclosure.exact(Fraction(x))


@pytest.fixture(scope="module")
def cbrt2_seq():
    return derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 500))


@pytest.fixture(scope="module")
def cbrt2_xi():
    return real_from_spec(parse_xi("cbrt:2"), 256)


class TestTrajectory:
    def test_min_point_and_value(self):
        # H = e, |P| = e^-3, n=2: intersect 1 - q/2 with -3 + q
        t = Trajectory(ball(1), ball(-3), 2)
        assert t.min_point().mid == Fraction(8, 3)
        assert t.min_value().mid == Fraction(-1, 3)

    def test_boundary_value(self):
        t = Trajectory(ball(0), ball(-1), 2)
        assert t.value(0).mid == 0  # max(0, -1)

    def test_oracle_record_trajectory(self, cbrt2_seq):
        rec = cbrt2_seq.record(5)
        t = trajectory(rec.poly, rec.log_abs_value, 2)
        q_star = t.min_point()
        expected = (math.log(rec.height) - float(rec.log_abs_value.mid)) * 2 / 3
        assert float(q_star.mid) == pytest.approx(expected, abs=1e-9)
        # the trajectory value at the kink equals both branches
        level = t.value(q_star.mid)
        assert level.contains(t.min_value().mid)

    def test_closed_form_for_sqrt2_approximant(self):
        # 2T - 3 at sqrt2, n=2: min at (2/3)(log 3 - log(3 - 2 sqrt2))
        xi = real_from_spec(parse_xi("sqrt:2"), 192)
        from vlab.rootisolation import poly_eval_enclosure
        from vlab.enclosure import ln
        value = abs(poly_eval_enclosure(IntPolynomial([-3, 2]), xi))
        t = trajectory(IntPolynomial([-3, 2]), ln(value, 192), 2)
        expected = (math.log(3) - math.log(3 - 2 * 2 ** 0.5)) * 2 / 3
        assert float(t.min_point().mid) == pytest.approx(expected, abs=1e-10)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            trajectory(IntPolynomial([0, 0, 0, 1]), ball(-1), 2)

    def test_piecewise_form_slopes(self):
        t = Trajectory(ball(1), ball(-3), 2)
        pl = t.to_piecewise()
        assert pl.initial_slope == Fraction(-1, 2)
        assert pl.slopes == (Fraction(1),)
        assert pl.value(Fraction(8, 3)).contains(Fraction(-1, 3))
        assert pl.value(0).contains(1)
        assert pl.value(5).contains(2)

    def test_piecewise_rejects_bad_slopes(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn(((ball(1), ball(0)),), Fraction(-1, 3), (Fraction(1),), 2)


class TestMeetingPoint:
    def test_synthetic_linear_solve(self):
        # H_k = e^2, |P_{k-1}| = e^-6, n=2: q_k = 16/3, level = -2/3, omega = -1/8
        m = 2
        log_h = ball(2)
        log_v_prev = ball(-6)
        q = (log_h - log_v_prev) * Fraction(m, m + 1)
        assert q.mid == Fraction(16, 3)
        omega = (log_v_prev + q) / q
        assert omega.mid == Fraction(-1, 8)

    def test_omega_zero_flagged(self):
        # mu = 2n-2 predicts omega = 0: numerator vanishes
        res = omega_identity_check(ball(2), ball(0), 2)
        assert res.contains(0)

    def test_omega_identity_synthetic(self):
        # n=2, mu=3: predicted omega = (2-3)/(2*4) = -1/8
        res = omega_identity_check(ball(3), ball(Fraction(-1, 8)), 2)
        assert res.is_exact and res.mid == 0

    def test_identity_on_oracle_sequence(self, cbrt2_seq):
        for k in range(2, len(cbrt2_seq.records) + 1):
            gp = meeting_point(cbrt2_seq.record(k - 1), cbrt2_seq.record(k), 2)
            assert gp.s.mid < gp.q.mid
            res = omega_identity_check(cbrt2_seq.record(k).mu, gp.omega, 2)
            assert abs(res.mid) <= res.rad + Fraction(1, 10**9)

    def test_meeting_sits_on_both_branches(self, cbrt2_seq):
        # the rising branch of L_{P_{k-1}} meets the falling branch of L_{P_k}:
        # q_k lies between the two trajectory minima, and both trajectories
        # agree at q_k
        for k in (3, 5, 8):
            prev, rec = cbrt2_seq.record(k - 1), cbrt2_seq.record(k)
            gp = meeting_point(prev, rec, 2)
            t_prev = trajectory(prev.poly, prev.log_abs_value, 2)
            t_cur = trajectory(rec.poly, rec.log_abs_value, 2)
            assert t_prev.min_point().mid < gp.q.mid < t_cur.min_point().mid
            # evaluating at the rational midpoint of q_k shifts each branch
            # by at most the radius of q_k (slopes have magnitude <= 1)
            v1 = t_prev.value(gp.q.mid)
            v2 = t_cur.value(gp.q.mid)
            diff = v1 - v2
            assert abs(diff.mid) <= diff.rad + 2 * gp.q.rad

    def test_omega_sign_flag(self, cbrt2_seq):
        flags = []
        for k in range(2, len(cbrt2_seq.records) + 1):
            gp = meeting_point(cbrt2_seq.record(k - 1), cbrt2_seq.record(k), 2)
            flags.append(gp.omega_negative)
        # genuine desk-scale data is not in the hypothetical omega < 0 regime
        # everywhere; the flag must be a report, never an invariant
        assert any(f is not None for f in flags)

    def test_rejects_degenerate(self, cbrt2_seq):
        with pytest.raises(DegenerateRecords):
            meeting_point(cbrt2_seq.record(3), cbrt2_seq.record(2), 2)

    def test_rejects_n1(self, cbrt2_seq):
        with pytest.raises(ValueError):
            meeting_point(cbrt2_seq.record(1), cbrt2_seq.record(2), 1)


class TestSuccessiveMinima:
    def test_constant_poly_at_q0(self, cbrt2_xi):
        values = successive_minima_exact(cbrt2_xi, 2, 0)
        assert values[0].contains(0)  # P = 1 gives L = 0 at q = 0
        assert len(values) == 3

    def test_sorted_and_stable(self, cbrt2_xi):
        values = successive_minima_exact(cbrt2_xi, 2, 3)
        assert values[0].mid <= values[1].mid <= values[2].mid

    def test_monotone_under_pool_enlargement(self, cbrt2_xi):
        # enlarging the candidate budget never increases any minimum
        small = successive_minima_exact(cbrt2_xi, 2, 4, candidate_budget=10**5)
        big = successive_minima_exact(cbrt2_xi, 2, 4, candidate_budget=10**7)
        for a, b in zip(small, big):
            assert not (b.lo() > a.hi())

    def test_minkowski_envelope_shifted_frame(self, cbrt2_seq, cbrt2_xi):
        frame = shifted_frame(cbrt2_seq, cbrt2_xi)
        for q in (2, 6, 10):
            values = successive_minima_exact(frame.xi, 2, q)
            assert minkowski_margin(values, 2).hi() < 0

    def test_budget_exceeded(self, cbrt2_xi):
        wording = (r"minima enumeration needs a coefficient box of .* cells at q=40.0, "
                   r"above the box budget 1e\+06")
        with pytest.raises(BudgetExceeded, match=wording):
            successive_minima_exact(cbrt2_xi, 2, 40, box_budget=10**6)

    def test_chunk_size_does_not_change_minima(self, monkeypatch, cbrt2_seq, cbrt2_xi):
        import vlab.bestapprox.search as search

        xi = shifted_frame(cbrt2_seq, cbrt2_xi).xi
        base = [successive_minima_exact(xi, 2, q) for q in (2, 7)]
        monkeypatch.setattr(search, "_SCAN_CHUNK_CELLS", 1)  # one leading-axis row a chunk
        assert [successive_minima_exact(xi, 2, q) for q in (2, 7)] == base

    def test_minkowski_constant_value(self):
        c2 = minkowski_constant(2)
        assert float(c2.mid) == pytest.approx(math.log(6) + 3 * math.log(2), abs=1e-9)

    def test_margin_boundary_cases(self):
        zeros = [ball(0)] * 3
        m = minkowski_margin(zeros, 2)
        assert m.hi() < 0
        c2 = minkowski_constant(2)
        exact_c = [RealEnclosure.exact(c2.mid), ball(0), ball(0)]
        assert abs(minkowski_margin(exact_c, 2).mid) <= c2.rad * 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            minkowski_margin([ball(0)] * 4, 2)


class TestPool:
    def test_pool_dominates_exact(self, cbrt2_seq, cbrt2_xi):
        frame = shifted_frame(cbrt2_seq, cbrt2_xi)
        for q in (2, 6, 10):
            exact = successive_minima_exact(frame.xi, 2, q)
            pool, incomplete = successive_minima_pool(frame, q)
            assert not incomplete
            for p, e in zip(pool, exact):
                assert not (p.hi() < e.lo()), "pool bound fell below the exact minimum"

    def test_pool_incomplete_flag(self, cbrt2_seq, cbrt2_xi):
        # a single record cannot span 3 independent directions
        import dataclasses
        tiny = dataclasses.replace(cbrt2_seq, records=cbrt2_seq.records[:1])
        frame = shifted_frame(tiny, cbrt2_xi)
        values, incomplete = successive_minima_pool(frame, 2)
        assert incomplete and len(values) < 3

    def test_shifted_frame_heights_change(self, cbrt2_seq, cbrt2_xi):
        frame = shifted_frame(cbrt2_seq, cbrt2_xi)
        assert frame.shift == 1
        assert Fraction(0) < frame.xi.lo() and frame.xi.hi() < 1
        # |P'(xi')| = |P(xi)|: log values are reused unchanged
        assert frame.log_values[3] == cbrt2_seq.record(4).log_abs_value
        # heights generally change under the shift
        assert any(h != r.height for h, r in zip(frame.heights, cbrt2_seq.records))


class TestGraphExport:
    def test_csv_shapes(self, cbrt2_xi):
        qs = [Fraction(2), Fraction(4)]
        minima = [successive_minima_exact(cbrt2_xi, 2, q) for q in qs]
        csv = combined_graph_csv(qs, minima, 2)
        lines = csv.strip().split("\n")
        assert lines[0] == "q,L_1,L_2,L_3,sum,margin"
        assert len(lines) == 3

    def test_trajectory_csv(self):
        t = Trajectory(ball(1), ball(-3), 2)
        csv = trajectory_csv([Fraction(1), Fraction(3)], t)
        assert csv.startswith("q,L_P\n")

    def test_svg_renders(self, cbrt2_xi):
        qs = [Fraction(2), Fraction(4), Fraction(6)]
        minima = [successive_minima_exact(cbrt2_xi, 2, q) for q in qs]
        svg = graph_svg(qs, minima, 2)
        assert svg.startswith("<svg") and "polyline" in svg

    def test_default_grid(self):
        grid = default_q_grid(Fraction(3))
        assert grid[0] == 1 and all(b / a == Fraction(5, 4) for a, b in zip(grid, grid[1:]))
