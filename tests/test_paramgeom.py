"""Trajectories, meeting points, successive minima, Minkowski envelope."""

import dataclasses
import functools
import inspect
import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlab.boxscan as boxscan
import vlab.paramgeom as paramgeom
from vlab.bestapprox import best_approx_sequence, derive_exponents
from vlab.enclosure import RealEnclosure
from vlab.errors import BudgetExceeded, DegenerateRecords, PrecisionExhausted
from vlab.paramgeom import (
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
)
from vlab.polynomials import IntPolynomial
from vlab.realspec import parse_xi, real_from_spec
from rank_reference import fraction_rank, planted_rows
from reference import Trajectory, trajectory


def ball(x):
    return RealEnclosure.exact(Fraction(x))


@functools.lru_cache(maxsize=None)
def _window_xi(spec):
    return real_from_spec(parse_xi(spec), 256)


def fresh_minima(xi, n, q):
    """``successive_minima_exact`` on a new sweep of (xi, n)."""
    return successive_minima_exact(paramgeom.MinimaSweep(xi, n), q)


def _fresh_window(xi, n, q, h_cut, v_cut, h_from, remaining_budget=10**7):
    """The ``_Candidates`` of a window of a new sweep, scored at q."""
    sweep = paramgeom.MinimaSweep(xi, n)
    return sweep.window(paramgeom._LScores(sweep, Fraction(q)), h_cut, v_cut, h_from,
                        remaining_budget)


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
            flags.append(gp.omega.sign())
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
        values = fresh_minima(cbrt2_xi, 2, 0)
        assert values[0].contains(0)  # P = 1 gives L = 0 at q = 0
        assert len(values) == 3

    def test_sorted_and_stable(self, cbrt2_xi):
        values = fresh_minima(cbrt2_xi, 2, 3)
        assert values[0].mid <= values[1].mid <= values[2].mid

    def test_monotone_under_pool_enlargement(self, monkeypatch, cbrt2_xi):
        # enlarging the candidate budget never increases any minimum
        big = fresh_minima(cbrt2_xi, 2, 4)
        monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", 10**5)
        small = fresh_minima(cbrt2_xi, 2, 4)
        for a, b in zip(small, big):
            assert not (b.lo() > a.hi())

    def test_minkowski_envelope_shifted_frame(self, cbrt2_seq, cbrt2_xi):
        frame = shifted_frame(cbrt2_seq, cbrt2_xi)
        for q in (2, 6, 10):
            values = fresh_minima(frame.xi, 2, q)
            assert minkowski_margin(values, 2).hi() < 0

    def test_budget_exceeded(self, monkeypatch, cbrt2_xi):
        monkeypatch.setattr(boxscan, "BOX_BUDGET", 10**6)
        wording = (r"minima enumeration needs a coefficient box of .* cells at q=40.0, "
                   r"above the box budget 1e\+06")
        with pytest.raises(BudgetExceeded, match=wording):
            fresh_minima(cbrt2_xi, 2, 40)

    @pytest.mark.parametrize("n", [8, 9])
    def test_seed_box_counted_against_candidate_budget(self, n):
        # 3^15 and 3^17 seed cells, above the default candidate budget 10^7:
        # refused before the seed box is walked
        xi = real_from_spec(parse_xi("const:e"), 256)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match="minima enumeration exceeded the candidate budget"):
            fresh_minima(xi, n, 1)
        assert time.perf_counter() - start < 1.0

    def test_chunk_size_does_not_change_minima(self, monkeypatch, cbrt2_seq, cbrt2_xi):
        xi = shifted_frame(cbrt2_seq, cbrt2_xi).xi
        base = [fresh_minima(xi, 2, q) for q in (2, 7)]
        monkeypatch.setattr(boxscan, "SCAN_CHUNK_CELLS", 1)  # one leading-axis row a chunk
        assert [fresh_minima(xi, 2, q) for q in (2, 7)] == base

    @pytest.mark.parametrize("chunk", [1, 2 * 19 ** 2])
    def test_split_chunks_do_not_change_window(self, monkeypatch, chunk):
        # n = 3: a window box has four axes, and these chunks split it along
        # the first two (one line a chunk) or the first (two rows a chunk);
        # a later stage (h_from > 0) keeps only its new shell
        xi = real_from_spec(parse_xi("const:e"), 256)

        def window():
            return _fresh_window(xi, 3, 2, 9, Fraction(1, 2), 3, 10**6)

        base = window()
        monkeypatch.setattr(boxscan, "SCAN_CHUNK_CELLS", chunk)
        assert len(base) > 100
        split = window()
        assert split.rows.dtype == base.rows.dtype == np.int8
        assert np.array_equal(split.rows, base.rows)
        assert np.array_equal(split.lows, base.lows)

    @given(spec=st.sampled_from(["cbrt:2", "const:e", "rat:7/5"]), n=st.sampled_from([2, 3]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_is_complete(self, spec, n, data):
        # brute force over the box (n = 3 boxes kept small): the window holds
        # every P of its height range with certified |P(xi)| <= v_cut, each
        # once in canonical sign; with no value cut, exactly the box.  Every
        # row has a finite floor, and the window certifies none of them
        m = 2 * n - 2
        h_cut = data.draw(st.integers(1, 6 if n == 2 else 4), label="h_cut")
        h_from = data.draw(st.integers(0, h_cut - 1), label="h_from")
        v_cut = data.draw(st.none() | st.integers(1, 3000).map(lambda i: Fraction(i, 1000)),
                          label="v_cut")
        sweep = paramgeom.MinimaSweep(_window_xi(spec), n)
        sweep.value_ball = lambda coeffs: ball(0)  # a vanishing P must not stop the walk
        scores = paramgeom._LScores(sweep, Fraction(1))

        def no_l_ball(coeffs):
            raise AssertionError("the window certified a row")

        scores.l_ball = no_l_ball
        window = sweep.window(scores, h_cut, v_cut, h_from, 10**7)
        assert window.rows.dtype == np.int8
        assert np.isfinite(window.lows).all()
        rows = list(map(tuple, window.rows.tolist()))
        assert len(set(rows)) == len(rows)
        for c in rows:
            assert next(x for x in c if x) > 0
            assert h_from < max(map(abs, c)) <= h_cut
        wanted = set()
        for c in itertools.product(range(-h_cut, h_cut + 1), repeat=m + 1):
            if next((x for x in c if x), 0) > 0 and max(map(abs, c)) > h_from:
                if v_cut is None or abs(sweep.view.value_ball(c)).hi() <= v_cut:
                    wanted.add(c)
        if v_cut is None:
            assert set(rows) == wanted
        else:
            assert wanted <= set(rows)

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


#: the soundness corpus: specs, with the (monic) minimal polynomial of the
#: algebraic ones
LAZY_SPECS = {"cbrt:2": (-2, 0, 0, 1), "const:e": None, "const:pi": None,
              "root:3:4": (-3, 0, 0, 0, 1)}


def _divisible(coeffs, monic):
    rem = list(coeffs)
    d = len(monic) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        for i, f in enumerate(monic):
            rem[top - d + i] -= c * f
    return not any(rem)


@st.composite
def _floor_windows(draw):
    """(spec, n, q, h_cut, v_cut, h_from): a window of degree <= 2n-2 and
    height <= 8 at an xi of the soundness corpus, with or without a value
    cut (an n = 3 box with no cut stops at height 4)."""
    spec = draw(st.sampled_from(sorted(LAZY_SPECS)))
    n = draw(st.sampled_from([2, 3]))
    q = draw(st.fractions(min_value=0, max_value=12, max_denominator=10**4))
    h_cut = draw(st.integers(1, 8))
    h_from = draw(st.integers(0, h_cut - 1))
    cuts = st.fractions(min_value=Fraction(1, 10**6), max_value=3 if n == 2 else Fraction(1, 2),
                        max_denominator=10**6)
    v_cut = draw(cuts if n == 3 and h_cut > 4 else st.none() | cuts)
    return spec, n, q, h_cut, v_cut, h_from


class TestLazyCertification:
    """Minima scored by float lower bounds, certified only where the greedy
    can reach, equal those of certifying every candidate."""

    @staticmethod
    def _certify_everything(monkeypatch):
        monkeypatch.setattr(paramgeom._LScores, "floors",
                            lambda self, rows: np.full(len(rows), -np.inf))

    @staticmethod
    def _count_logs(monkeypatch):
        calls = []

        def counting_ln(*args):
            calls.append(1)
            return ln(*args)

        ln = paramgeom.ln
        monkeypatch.setattr(paramgeom, "ln", counting_ln)
        return calls

    @pytest.mark.parametrize("shifted", [False, True], ids=["plain", "shifted"])
    def test_cbrt2_equals_certifying_everything(self, monkeypatch, cbrt2_seq, cbrt2_xi,
                                                shifted):
        xi = shifted_frame(cbrt2_seq, cbrt2_xi).xi if shifted else cbrt2_xi
        lazy = [fresh_minima(xi, 2, q) for q in (0, 2, 7)]
        self._certify_everything(monkeypatch)
        assert [fresh_minima(xi, 2, q) for q in (0, 2, 7)] == lazy

    @pytest.mark.parametrize("spec,q", [("const:e", 2), ("root:3:4", 1)])
    def test_n3_equals_certifying_everything(self, monkeypatch, spec, q):
        xi = real_from_spec(parse_xi(spec), 256)
        logs = self._count_logs(monkeypatch)
        lazy = fresh_minima(xi, 3, q)
        lazy_logs = len(logs)
        self._certify_everything(monkeypatch)
        assert fresh_minima(xi, 3, q) == lazy
        assert lazy_logs < len(logs) - lazy_logs

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lazy_greedy_matches_sorting_every_ball(self, data):
        # balls with exact float midpoints (eighths) and tied midpoints;
        # lower bounds up to 5 below them, some of them the midpoint itself
        coeffs = data.draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=1, max_size=30))
        mids = data.draw(st.lists(st.integers(-40, 40), min_size=len(coeffs),
                                  max_size=len(coeffs)))
        balls = [RealEnclosure(Fraction(x, 8), Fraction(1, 100)) for x in mids]
        slack = data.draw(st.lists(st.floats(0, 5) | st.just(0.0), min_size=len(coeffs),
                                   max_size=len(coeffs)))
        lows = [float(b.mid) - d for b, d in zip(balls, slack)]
        lazy = paramgeom._Candidates(np.array(coeffs, dtype=np.int8), np.array(lows))

        def certify(i, c):
            assert c == coeffs[i]
            return balls[i]

        # the reference: sort every ball by (midpoint, coefficients, index)
        # and keep each row outside the span of the rows kept before it
        exact, taken = [], []
        for i in sorted(range(len(coeffs)), key=lambda i: (balls[i].mid, coeffs[i], i)):
            if len(exact) < 3 and fraction_rank(taken + [coeffs[i]]) > len(taken):
                taken.append(coeffs[i])
                exact.append((balls[i], coeffs[i]))
        assert paramgeom._greedy_independent(lazy, 2, certify) == exact
        # floats alone: the matroid bottleneck is a lower bound on the last minimum
        low = paramgeom._greedy_independent(lazy, 2, lambda i, c: ball(lows[i]))
        if len(exact) == 3:
            assert len(low) == 3 and low[-1][0].mid <= exact[-1][0].mid

    @given(rows=planted_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_reference(self, rows, data):
        # distinct rows with planted dependencies; eighths for midpoints and
        # a few slacks make ties in both
        rows = list(dict.fromkeys(map(tuple, rows)))
        k = len(rows)
        mids = data.draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))
        balls = [RealEnclosure(Fraction(x, 8), Fraction(1, 100)) for x in mids]
        slack = data.draw(st.lists(st.sampled_from([0, 0, 0.125, 1, 5]), min_size=k, max_size=k))
        lows = [x / 8 - d for x, d in zip(mids, slack)]
        # planted multiples of multiples can pass 127: the rows take the
        # dtype the production rule gives their height
        dtype = paramgeom._row_dtype(max(abs(x) for row in rows for x in row))
        cands = paramgeom._Candidates(np.array(rows, dtype=dtype), np.array(lows))

        def reference(key):
            kept = []
            for i in sorted(range(k), key=lambda i: (key(i), rows[i], i)):
                if len(kept) < 5 and fraction_rank([rows[j] for j in kept] + [rows[i]]) > len(kept):
                    kept.append(i)
            return kept

        kept = reference(lambda i: balls[i].mid)
        certified = []

        def certify(i, c):
            # the picks that precede this row's bound key are made before it
            # is certified, and must not span it
            assert c == rows[i]
            before = [rows[j] for j in kept if (balls[j].mid, rows[j], j) < (lows[i], c, i)]
            assert fraction_rank(before + [c]) > len(before)
            certified.append(i)
            return balls[i]

        picks = paramgeom._greedy_independent(cands, 4, certify)
        assert picks == [(balls[i], rows[i]) for i in kept]
        assert len(set(certified)) == len(certified)
        # a certify giving the exact ball of each bound sorts by the bounds
        floats = reference(lambda i: lows[i])
        assert [(b.mid, c) for b, c in paramgeom._greedy_independent(
            cands, 4, lambda i, c: ball(lows[i]))] == [(lows[i], rows[i]) for i in floats]

    @pytest.mark.parametrize("ready", [False, True], ids=["waiting", "ready"])
    def test_spanned_rows_are_never_certified(self, monkeypatch, ready):
        # the unit vectors hold balls 0..4, bounded by their midpoints;
        # behind the first two come more than a block of rows in their span,
        # then one more row that is not, with bounds 1.5 and 1.75: the rows
        # the first two picks span are dropped before they are certified.
        # With every bound at -1 instead, every row is certified, ready to
        # be picked, before the first pick, with balls 1.5 and 10, and the
        # greedy tests the ready rows in one batch once more than a block of
        # them wait
        unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
        spanned = [(0, 0, 0, a, b) for a in range(1, 9) for b in range(-20, 21) if b]
        rows = unit + spanned + [(0, 0, 1, 1, 1)]
        balls = [ball(4 - i) for i in range(5)] + [ball(Fraction(3, 2))] * len(spanned) + [ball(10)]
        lows = [4 - i for i in range(5)] + [1.5] * len(spanned) + [1.75]
        if ready:
            lows = [-1] * len(rows)
        cands = paramgeom._Candidates(np.array(rows, dtype=np.int8), np.array(lows, dtype=float))
        assert len(spanned) > paramgeom._SIEVE_BLOCK
        certified, tested = [], []

        class Complement(paramgeom.IntegerComplement):
            def spanned(self, block):
                tested.append(len(block))
                return super().spanned(block)

        def certify(i, c):
            certified.append(c)
            return balls[i]

        monkeypatch.setattr(paramgeom, "IntegerComplement", Complement)
        picks = paramgeom._greedy_independent(cands, 4, certify)
        assert [c for _, c in picks] == unit[::-1]
        if ready:
            assert sorted(certified) == sorted(rows)
            assert max(tested) == len(rows) - 1  # every certified row but the first pick
        else:
            assert certified == [unit[4], unit[3], (0, 0, 1, 1, 1), unit[2], unit[1], unit[0]]
            assert max(tested) <= paramgeom._SIEVE_BLOCK

    @pytest.mark.parametrize("spec,n,q,stages", [("cbrt:2", 2, 7, 3), ("cbrt:2", 2, 12, 6),
                                                 ("const:e", 3, 2, 1)])
    def test_ladder_carries_only_the_basis(self, monkeypatch, spec, n, q, stages):
        # each stage's greedy on the previous picks and the new window picks
        # what the greedy on every window so far picks
        windows, inputs = [], []
        window, greedy = paramgeom.MinimaSweep.window, paramgeom._greedy_independent

        def recording_window(self, *args):
            windows.append(window(self, *args))
            return windows[-1]

        def checked_greedy(cands, ambient_degree, certify):
            picks = greedy(cands, ambient_degree, certify)
            pool = functools.reduce(lambda a, b: a + b, windows)
            assert greedy(pool, ambient_degree, certify) == picks
            inputs.append(len(cands))
            return picks

        monkeypatch.setattr(paramgeom.MinimaSweep, "window", recording_window)
        monkeypatch.setattr(paramgeom, "_greedy_independent", checked_greedy)
        fresh_minima(_window_xi(spec), n, q)
        assert len(windows) == len(inputs) == stages + 1
        # a later stage sees the 2n - 1 picks and its own window only
        assert inputs[1:] == [2 * n - 1 + len(w) for w in windows[1:]]

    @given(case=_floor_windows(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_float_floor_is_a_lower_bound(self, case, data):
        # a window's rows against a float evaluation of their own and their
        # certified balls: a row's log value is -inf exactly where its float
        # value v is <= 2e, e the box's float error, and every row vanishing
        # at xi is among them; every floor is finite, a v <= 2e row's at most
        # its height branch, and every floor of a row not vanishing is <=
        # its l_ball midpoint; the heights are the rows' max |c_i|
        spec, n, q, h_cut, v_cut, h_from = case
        xi = _window_xi(spec)
        sweep = paramgeom.MinimaSweep(xi, n)
        sweep.value_ball = lambda coeffs: ball(1)  # a vanishing P must not stop the walk
        terms = paramgeom._enumerate_window(sweep, n, q, h_cut, v_cut, 10**7, h_from)
        scores = paramgeom._LScores(paramgeom.MinimaSweep(xi, n), q)
        lows = scores.floors(terms)
        rows = terms.rows
        assert terms.heights.dtype == rows.dtype
        assert np.array_equal(terms.heights, np.abs(rows).max(axis=1))
        # v = |c_0 + c_1 xi + ...| summed as the scan sums it: each product
        # rounded, left to right from c_1, the constant term last
        s = np.zeros(len(rows))
        for c, x in zip(rows.T[1:], sweep.mids[1:]):
            s = s + c * x
        v = np.abs(s + rows[:, 0])
        e = boxscan.box_dot_error(sweep.mids, sweep.merrs, h_cut)
        near = v <= 2 * e
        assert np.array_equal(np.isneginf(terms.log_value), near)
        assert np.isfinite(lows).all()
        height_branch = np.log(terms.heights.astype(float)) - float(q) / (2 * n - 2)
        assert (lows[near] <= height_branch[near]).all()
        minpoly = LAZY_SPECS[spec]
        vanishing = set()
        for c, is_near in zip(map(tuple, rows.tolist()), near.tolist()):
            if minpoly is not None and _divisible(c, minpoly):
                assert is_near
                vanishing.add(c)
                with pytest.raises(PrecisionExhausted):
                    scores.l_ball(c)
        picked = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30, unique=True)
                           if len(rows) else st.just([]), label="rows")
        for i in picked:
            c = tuple(rows[i].tolist())
            if c not in vanishing:
                assert lows[i] <= scores.l_ball(c).mid

    @pytest.mark.parametrize("spec,n,q,h_cut,v_cut,h_from,e", [
        ("const:e", 2, 4, 8, Fraction(1, 2), 0, 0.2),
        ("const:ln2", 3, 6, 3, Fraction(1, 4), 1, 0.1),
    ])
    def test_floor_holds_at_the_worst_float_value(self, monkeypatch, spec, n, q, h_cut,
                                                  v_cut, h_from, e):
        # each completion's float value at the worst side of its error bound,
        # v = |P(xi)| + e, with e inflated far above the real float error so
        # that rows sit just above 2e: the floor must take e off v before its
        # log, and every floor is still <= its l_ball midpoint (q is large
        # enough that log|P(xi)| + q, not the height branch, sets the ball).
        # The rows with v <= 2e, whose floor is their height branch's alone,
        # are held to the same bound
        q = Fraction(q)
        sweep = paramgeom.MinimaSweep(_window_xi(spec), n)
        completions = boxscan.completions
        values = []

        def worst(coeffs, s, height, bound, dot_err, pick):
            rows, _, heights = completions(coeffs, s, height, bound, dot_err, pick)
            true = [float(sweep.value_ball(tuple(c)).mid) for c in rows.tolist()]
            values.append(np.array(true) + dot_err)
            return rows, values[-1].copy(), heights

        monkeypatch.setattr(boxscan, "box_dot_error", lambda mids, merrs, height: e)
        monkeypatch.setattr(boxscan, "completions", worst)
        terms = paramgeom._enumerate_window(sweep, n, q, h_cut, v_cut, 10**7, h_from)
        scores = paramgeom._LScores(sweep, q)
        lows = scores.floors(terms)
        value = np.concatenate(values)
        assert ((value > 2 * e) & (value <= 3 * e)).sum() >= 5
        assert (value <= 2 * e).sum() >= 5
        for c, low in zip(terms.rows.tolist(), lows.tolist()):
            assert low <= scores.l_ball(tuple(c)).mid

    def test_vanishing_polynomial_named_at_n3(self):
        xi = real_from_spec(parse_xi("root:2:4"), 256)
        with pytest.raises(PrecisionExhausted, match=re.escape("(2, 0, 0, 0, -1)")):
            fresh_minima(xi, 3, 1)

    @pytest.mark.parametrize("spec,n,q,named", [
        ("sqrt:2", 2, 1, "(4, 0, -2)"), ("sqrt:2", 3, 1, "(2, 2, 1, -1, -1)"),
        ("cbrt:2", 3, 1, "(2, 2, 0, -1, -1)"), ("rat:1/3", 2, 1, "(1, -2, -3)"),
        ("rat:7/5", 2, 4, "(7, 16, -15)")])
    def test_which_vanishing_row_is_named(self, spec, n, q, named):
        # of several vanishing rows, the seed box names the lexicographically
        # largest canonical one and a window (the last case) the first in
        # scan order
        with pytest.raises(PrecisionExhausted, match=re.escape(named)):
            fresh_minima(_window_xi(spec), n, q)

    def test_vanishing_polynomial_named_inside_window(self):
        # found in a window stage, not the seed box (about 1.5 s)
        xi = real_from_spec(parse_xi("root:3:4"), 256)
        with pytest.raises(PrecisionExhausted, match=re.escape("(15, 0, 0, 0, -5)")):
            fresh_minima(xi, 3, 2)

    def test_n4_refused_without_exact_logs(self, monkeypatch):
        def no_ln(*args):
            raise AssertionError("exact ln called")

        monkeypatch.setattr(paramgeom, "ln", no_ln)
        xi = real_from_spec(parse_xi("const:pi"), 256)
        wording = ("minima enumeration needs a coefficient box of 1.29e+09 cells at q=1.0, "
                   "above the box budget 3e+08")
        with pytest.raises(BudgetExceeded, match=re.escape(wording)):
            fresh_minima(xi, 4, 1)


@functools.lru_cache(maxsize=None)
def _c2_meeting_qs():
    """The midpoints of the 11 meeting points q_k of cbrt 2 at n = 2, heights
    up to 500, in ascending order: the q at which ``verify`` asks the minima."""
    seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 500))
    return tuple(meeting_point(seq.record(k - 1), seq.record(k), 2).q.mid
                 for k in range(2, len(seq.records) + 1))


def _e3_grid():
    """The points <= 5 of ``graph``'s default q grid."""
    return default_q_grid(Fraction(5))


def _outcome(call):
    """The balls of a minima call as (mid, rad, precision), or the type and
    message of what it raised."""
    try:
        return [(b.mid, b.rad, b.precision_bits) for b in call()]
    except (BudgetExceeded, PrecisionExhausted) as exc:
        return type(exc), str(exc)


class TestMinimaSweep:
    """One sweep shared across q gives what fresh calls give, q by q."""

    @staticmethod
    def _count_windows(monkeypatch):
        calls = []
        enumerate_window = paramgeom._enumerate_window

        def counting(*args, **kwargs):
            calls.append(args[3])
            return enumerate_window(*args, **kwargs)

        monkeypatch.setattr(paramgeom, "_enumerate_window", counting)
        return calls

    @pytest.mark.parametrize("spec,n,shift,qs,box_budget,refused", [
        # repeated and decreasing q
        ("cbrt:2", 2, 0, [0, 2, 2, 7, 3], boxscan.BOX_BUDGET, []),
        ("const:e", 3, 0, [1, 2, Fraction(9, 2)], boxscan.BOX_BUDGET, []),
        # a refusal between two answered q
        ("cbrt:2", 2, 0, [3, 40, 5], 10**6, [40]),
        # the shifted minimal polynomial of 2^(1/4), times -2, vanishes at
        # xi - 1: its window raises at every q and is never kept
        ("root:2:4", 3, 1, [1, 2], boxscan.BOX_BUDGET, [1, 2]),
        # warm starts: verify's meeting points on cbrt 2, a mixed order, and
        # graph's grid on the shifted e at n = 3
        ("cbrt:2", 2, 0, _c2_meeting_qs, boxscan.BOX_BUDGET, []),
        ("cbrt:2", 2, 0, [9, 3, 7, 1, 12, 2], boxscan.BOX_BUDGET, []),
        ("const:e", 3, 2, _e3_grid, boxscan.BOX_BUDGET, []),
    ])
    def test_shared_sweep_equals_fresh_calls(self, monkeypatch, spec, n, shift, qs, box_budget,
                                             refused):
        qs = qs() if callable(qs) else qs
        monkeypatch.setattr(boxscan, "BOX_BUDGET", box_budget)
        xi = _window_xi(spec) - shift
        windows = self._count_windows(monkeypatch)
        fresh = [_outcome(lambda: fresh_minima(xi, n, q)) for q in qs]
        fresh_windows = len(windows)
        sweep = paramgeom.MinimaSweep(xi, n)
        shared = [_outcome(lambda: successive_minima_exact(sweep, q)) for q in qs]
        assert shared == fresh
        assert [q for q, out in zip(qs, fresh) if not isinstance(out, list)] == refused
        if spec == "root:2:4":
            assert all(out == (PrecisionExhausted, "cannot certify P(xi) != 0 for "
                               "(2, -8, -12, -8, -2); raise the working precision")
                       for out in shared)
        else:  # the shared sweep walks fewer windows
            assert len(windows) - fresh_windows < fresh_windows

    @staticmethod
    def _count_greedy(monkeypatch):
        """The greedy runs, as a list of pool sizes (at n = 2 every run is an
        exact one: the float bottleneck runs only where a window box is
        over budget)."""
        calls = []
        greedy = paramgeom._greedy_independent

        def counting(cands, ambient_degree, certify):
            calls.append(len(cands))
            return greedy(cands, ambient_degree, certify)

        monkeypatch.setattr(paramgeom, "_greedy_independent", counting)
        return calls

    def test_warm_start_replays_the_last_chain(self, monkeypatch, cbrt2_xi):
        # ascending meeting points: each q starts from the windows the last
        # one stopped with, in one greedy where the kept windows suffice
        qs = _c2_meeting_qs()
        greedy = self._count_greedy(monkeypatch)
        for q in qs:
            fresh_minima(cbrt2_xi, 2, q)
        cold = len(greedy)
        greedy.clear()
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        for q in qs:
            successive_minima_exact(sweep, q)
        assert cold == 44 and len(greedy) < cold / 2
        assert sweep.chain and sweep.picks is not None

    def test_falling_q_goes_cold_before_any_greedy(self, monkeypatch, cbrt2_xi):
        # from q = 12.17 down to 10.65 the kept value cuts are too narrow
        # already for the last picks: the step runs the cold ladder alone,
        # as many greedy runs as a fresh call, and certifies each
        # polynomial once at q, the last picks among them (one of them is
        # picked again)
        qs = _c2_meeting_qs()
        high, low = qs[-1], qs[-2]
        greedy = self._count_greedy(monkeypatch)
        fresh = fresh_minima(cbrt2_xi, 2, low)
        cold = len(greedy)
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        successive_minima_exact(sweep, high)
        last_picks = sweep.picks
        logs = []
        log_value = sweep.log_value

        def counting(coeffs):
            logs.append(coeffs)
            return log_value(coeffs)

        sweep.log_value = counting
        greedy.clear()
        assert successive_minima_exact(sweep, low) == fresh
        assert cold > 1 and len(greedy) == cold
        assert set(last_picks) <= set(logs) and len(set(logs)) == len(logs)

    def test_warm_start_gives_way_where_a_pick_outgrows_u0(self, monkeypatch, cbrt2_xi):
        # the kept value cuts hold every P with L_P <= u0, the largest upper
        # end of the last q's picks, so a warm greedy whose last pick reaches
        # past u0 gives way to the cold ladder.  Here that last pick, at
        # q = 5.35 and not among the picks of q = 3.99, gets a radius that
        # takes its upper end 1/100 past u0: the warm start must give way,
        # and the shared sweep give the balls, and keep the chain, of a
        # fresh sweep
        q1, q2 = _c2_meeting_qs()[2:4]
        first = paramgeom.MinimaSweep(cbrt2_xi, 2)
        successive_minima_exact(first, q1)
        second = paramgeom.MinimaSweep(cbrt2_xi, 2)
        successive_minima_exact(second, q2)
        last = second.picks[-1]
        assert last not in first.picks
        scores = paramgeom._LScores(paramgeom.MinimaSweep(cbrt2_xi, 2), q2)
        u0 = max(scores.l_ball(c).hi() for c in first.picks)
        l_ball = paramgeom._LScores.l_ball

        def wide(self, coeffs):
            b = l_ball(self, coeffs)
            if self.q == q2 and coeffs == last:
                return RealEnclosure(b.mid, u0 - b.mid + Fraction(1, 100), b.precision_bits)
            return b

        ladder, ladders = paramgeom._ladder, []

        def recording(sweep, scores, seed, seed_h, warm):
            picks = ladder(sweep, scores, seed, seed_h, warm)
            ladders.append((warm, picks is not None))
            return picks

        monkeypatch.setattr(paramgeom._LScores, "l_ball", wide)
        monkeypatch.setattr(paramgeom, "_ladder", recording)
        fresh = paramgeom.MinimaSweep(cbrt2_xi, 2)
        want = successive_minima_exact(fresh, q2)
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        successive_minima_exact(sweep, q1)
        ladders.clear()
        assert successive_minima_exact(sweep, q2) == want
        assert ladders == [(True, False), (False, True)]  # the warm start gave way
        assert want[-1].hi() > u0
        assert sweep.chain == fresh.chain

    def test_answer_past_a_fresh_budget_is_the_unbudgeted_one(self, monkeypatch, cbrt2_xi):
        # under a box budget of 10^4 cells, a fresh call at q = 7.22 climbs
        # to a box of height 64 and is refused; the shared sweep starts from
        # the kept height-40-odd window of q = 6.74 and answers, with the
        # balls of a fresh call under the default budget
        qs = _c2_meeting_qs()
        unbudgeted = [_outcome(lambda: fresh_minima(cbrt2_xi, 2, q)) for q in qs]
        monkeypatch.setattr(boxscan, "BOX_BUDGET", 10**4)
        fresh = [_outcome(lambda: fresh_minima(cbrt2_xi, 2, q)) for q in qs]
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        shared = [_outcome(lambda: successive_minima_exact(sweep, q)) for q in qs]
        past = [i for i, (s, f) in enumerate(zip(shared, fresh)) if s != f]
        assert past == [6]
        for i in past:
            assert isinstance(shared[i], list) and fresh[i][0] is BudgetExceeded
            assert shared[i] == unbudgeted[i]

    @pytest.mark.parametrize("spec,shift,n,qs", [("cbrt:2", 0, 2, _c2_meeting_qs),
                                                 ("const:e", 2, 3, _e3_grid)])
    def test_minima_slopes_between_consecutive_q(self, spec, shift, n, qs):
        # every L_P has slopes -1/m and +1, so each L_j moves by at most
        # q2 - q1 up and (q2 - q1)/m down between consecutive q of a sweep
        qs = qs()
        m = 2 * n - 2
        sweep = paramgeom.MinimaSweep(_window_xi(spec) - shift, n)
        minima = [successive_minima_exact(sweep, q) for q in qs]
        for q1, q2, before, after in zip(qs, qs[1:], minima, minima[1:]):
            step = q2 - q1
            assert step > 0
            for b, a in zip(before, after):
                assert a.lo() - b.hi() <= step
                assert a.hi() - b.lo() >= -step / m

    @pytest.mark.parametrize("spec,n,q,budget", [("const:e", 3, 2, "candidates")])
    def test_kept_window_is_charged_again(self, monkeypatch, spec, n, q, budget):
        # asked again under a smaller candidate budget, a kept window is
        # refused as its walk would be: const:e at q = 2 keeps a window of
        # 32034 rows (every window is walked under the one box budget, so
        # only the candidate budget can refuse a kept window)
        xi = _window_xi(spec)
        sweep = paramgeom.MinimaSweep(xi, n)
        successive_minima_exact(sweep, q)
        # one row short of what the seed box and the windows hold
        monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", sweep._kept_rows - 1)
        windows = self._count_windows(monkeypatch)
        shared = _outcome(lambda: successive_minima_exact(sweep, q))
        assert windows == []  # every window came from the sweep
        fresh = _outcome(lambda: fresh_minima(xi, n, q))
        assert shared == fresh
        assert shared == (BudgetExceeded, "minima enumeration exceeded the candidate budget")

    def test_window_kept_by_its_whole_key(self, cbrt2_xi):
        # one height range under a narrow, a wide and the narrow value cut
        # again, each at its own q: the rows and scores of a fresh window
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        for q, v_cut in ((3, Fraction(1, 100)), (5, Fraction(1, 2)), (2, Fraction(1, 100))):
            q = Fraction(q)
            kept = sweep.window(paramgeom._LScores(sweep, q), 16, v_cut, 4, 10**7)
            fresh = _fresh_window(cbrt2_xi, 2, q, 16, v_cut, 4)
            assert np.array_equal(kept.rows, fresh.rows)
            assert np.array_equal(kept.lows, fresh.lows)
        assert len(sweep._windows) == 2

    def test_kept_rows_stay_within_the_candidate_budget(self, monkeypatch, cbrt2_xi):
        # a window that would take the kept rows past _CANDIDATE_BUDGET is
        # not kept: it is walked again at each q and scored as a fresh walk
        sweep = paramgeom.MinimaSweep(cbrt2_xi, 2)
        narrow, wide = Fraction(1, 100), Fraction(1, 2)

        def window(q, v_cut):
            scores = paramgeom._LScores(sweep, Fraction(q))
            return sweep.window(scores, 16, v_cut, 4, 10**7)

        kept_rows = len(window(3, narrow))
        monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", kept_rows + 1)
        fresh_windows = {q: _fresh_window(cbrt2_xi, 2, q, 16, wide, 4) for q in (5, 2)}
        walks = self._count_windows(monkeypatch)
        for q in (5, 2):
            shared = window(q, wide)
            fresh = fresh_windows[q]
            assert len(fresh) > 1
            assert np.array_equal(shared.rows, fresh.rows)
            assert np.array_equal(shared.lows, fresh.lows)
        window(2, narrow)
        assert walks == [16, 16]  # the wide window at each q, the narrow one kept
        assert sweep._kept_rows == kept_rows and len(sweep._windows) == 1

    @pytest.mark.parametrize("spec,shift,n,h_cut,v_cut,h_from", [
        ("const:e", 0, 3, 9, Fraction(1, 2), 3),
        ("rat:7/5", 0, 2, 7, None, 0),  # with v <= 2e rows
        ("root:2:4", 1, 3, 16, Fraction(1, 2), 2),  # a vanishing P: the walk raises
    ])
    def test_enumeration_is_q_free(self, spec, shift, n, h_cut, v_cut, h_from):
        # a walk at two q gives the same rows, log and height bytes, or the same
        # refusal; a window whose walk raised is not kept
        xi = _window_xi(spec) - shift
        outcomes = []
        for q in (Fraction(1), Fraction(7, 2)):
            sweep = paramgeom.MinimaSweep(xi, n)
            if spec == "rat:7/5":
                sweep.value_ball = lambda coeffs: ball(1)  # the vanishing rows do not raise
            try:
                terms = paramgeom._enumerate_window(sweep, n, q, h_cut, v_cut, 10**7, h_from)
            except PrecisionExhausted as exc:
                outcomes.append(str(exc))
                with pytest.raises(PrecisionExhausted):
                    sweep.window(paramgeom._LScores(sweep, q), h_cut, v_cut, h_from, 10**7)
                assert sweep._windows == {} and sweep._kept_rows == 0
                continue
            assert len(terms) > 0
            assert np.isneginf(terms.log_value).any() == (spec == "rat:7/5")
            outcomes.append((terms.rows.dtype, terms.rows.shape, terms.rows.tobytes(),
                             terms.log_value.tobytes(), terms.heights.tobytes()))
        assert outcomes[0] == outcomes[1]
        if spec == "root:2:4":
            assert outcomes[0] == ("cannot certify P(xi) != 0 for (2, -8, -12, -8, -2); "
                                   "raise the working precision")

    def test_enumerate_window_keeps_the_traced_positions(self):
        # perfbench's tracer reads n (args[1]) and h_cut (args[3]) of each
        # walk for its paramgeom.window_cells metric
        names = list(inspect.signature(paramgeom._enumerate_window).parameters)
        assert names[1] == "n" and names[3] == "h_cut"


class TestPool:
    def test_pool_dominates_exact(self, cbrt2_seq, cbrt2_xi):
        frame = shifted_frame(cbrt2_seq, cbrt2_xi)
        for q in (2, 6, 10):
            exact = fresh_minima(frame.xi, 2, q)
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

    def test_one_frame_serves_every_q(self, monkeypatch):
        # the q-free pool terms are made once per frame: one frame across
        # the default grid gives, ball for ball, what a fresh frame gives
        # at each q, with one height log per record
        seq = best_approx_sequence(parse_xi("const:e"), 3, 60)
        xi = real_from_spec(seq.xi_spec, seq.precision_bits + 64)
        qs = default_q_grid(Fraction(10))
        fresh = [successive_minima_pool(shifted_frame(seq, xi), q) for q in qs]
        logs = []
        ln_fraction = paramgeom.ln_fraction

        def counting(*args):
            logs.append(args)
            return ln_fraction(*args)

        monkeypatch.setattr(paramgeom, "ln_fraction", counting)
        frame = shifted_frame(seq, xi)
        assert [successive_minima_pool(frame, q) for q in qs] == fresh
        assert len(qs) == 11 and len(logs) == len(seq.records)

    def test_pool_bounds_hold_and_only_reached_members_are_certified(self, monkeypatch):
        # on the default grid of (e, 3, 60): each member's float bound is <=
        # the midpoint of its ball, and each greedy makes the balls of the
        # members it reaches only, each once
        seq = best_approx_sequence(parse_xi("const:e"), 3, 60)
        frame = shifted_frame(seq, real_from_spec(seq.xi_spec, seq.precision_bits + 64))
        greedy, runs = paramgeom._greedy_independent, []

        def recording(cands, ambient_degree, certify):
            made = []

            def counting(i, coeffs):
                made.append(i)
                return certify(i, coeffs)

            runs.append((cands, certify, made))
            return greedy(cands, ambient_degree, counting)

        monkeypatch.setattr(paramgeom, "_greedy_independent", recording)
        for q in default_q_grid(Fraction(10)):
            assert not successive_minima_pool(frame, q)[1]
        assert len(runs) == 11
        for cands, certify, made in runs:
            assert len(set(made)) == len(made) < len(cands)
            for i, row in enumerate(cands.rows.tolist()):
                assert cands.lows[i] <= certify(i, tuple(row)).mid

    def test_shifted_xi_at_zero(self):
        # the T^i P' members need log xi: every pool call on the frame says so
        seq = best_approx_sequence(parse_xi("const:e"), 3, 20)
        frame = dataclasses.replace(shifted_frame(seq, real_from_spec(seq.xi_spec, 128)),
                                    xi=RealEnclosure.exact(0))
        for q in (1, 2):
            with pytest.raises(PrecisionExhausted,
                               match=r"^shifted xi touches zero; cannot take logs$"):
                successive_minima_pool(frame, q)

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
        minima = [fresh_minima(cbrt2_xi, 2, q) for q in qs]
        csv = combined_graph_csv(qs, minima, 2)
        lines = csv.strip().split("\n")
        assert lines[0] == "q,L_1,L_2,L_3,sum,margin"
        assert len(lines) == 3

    def test_svg_renders(self, cbrt2_xi):
        qs = [Fraction(2), Fraction(4), Fraction(6)]
        minima = [fresh_minima(cbrt2_xi, 2, q) for q in qs]
        svg = graph_svg(qs, minima, 2)
        assert svg.startswith("<svg") and "polyline" in svg

    def test_default_grid(self):
        grid = default_q_grid(Fraction(3))
        assert grid[0] == 1 and all(b / a == Fraction(5, 4) for a, b in zip(grid, grid[1:]))
