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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _fresh_window(xi, n, q, h_cut, v_cut, h_from, remaining_budget=10**7):
    """The ``_Candidates`` of a window of a new sweep, scored at q."""
    sweep = paramgeom._MinimaSweep(xi, n)
    return sweep.window(paramgeom._LScores(sweep, Fraction(q)), h_cut, v_cut, h_from,
                        remaining_budget, paramgeom._BOX_BUDGET)


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
        values = successive_minima_exact(cbrt2_xi, 2, 0)
        assert values[0].contains(0)  # P = 1 gives L = 0 at q = 0
        assert len(values) == 3

    def test_sorted_and_stable(self, cbrt2_xi):
        values = successive_minima_exact(cbrt2_xi, 2, 3)
        assert values[0].mid <= values[1].mid <= values[2].mid

    def test_monotone_under_pool_enlargement(self, monkeypatch, cbrt2_xi):
        # enlarging the candidate budget never increases any minimum
        big = successive_minima_exact(cbrt2_xi, 2, 4)
        monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", 10**5)
        small = successive_minima_exact(cbrt2_xi, 2, 4)
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

    @pytest.mark.parametrize("n", [8, 9])
    def test_seed_box_counted_against_candidate_budget(self, n):
        # 3^15 and 3^17 seed cells, above the default candidate budget 10^7:
        # refused before the seed box is walked
        xi = real_from_spec(parse_xi("const:e"), 256)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match="minima enumeration exceeded the candidate budget"):
            successive_minima_exact(xi, n, 1)
        assert time.perf_counter() - start < 1.0

    def test_chunk_size_does_not_change_minima(self, monkeypatch, cbrt2_seq, cbrt2_xi):
        import vlab.bestapprox.search as search

        xi = shifted_frame(cbrt2_seq, cbrt2_xi).xi
        base = [successive_minima_exact(xi, 2, q) for q in (2, 7)]
        monkeypatch.setattr(search, "_SCAN_CHUNK_CELLS", 1)  # one leading-axis row a chunk
        assert [successive_minima_exact(xi, 2, q) for q in (2, 7)] == base

    @pytest.mark.parametrize("chunk", [1, 2 * 19 ** 2])
    def test_split_chunks_do_not_change_window(self, monkeypatch, chunk):
        import vlab.bestapprox.search as search

        # n = 3: a window box has four axes, and these chunks split it along
        # the first two (one line a chunk) or the first (two rows a chunk);
        # a later stage (h_from > 0) keeps only its new shell
        xi = real_from_spec(parse_xi("const:e"), 256)

        def window():
            return _fresh_window(xi, 3, 2, 9, Fraction(1, 2), 3, 10**6)

        base = window()
        monkeypatch.setattr(search, "_SCAN_CHUNK_CELLS", chunk)
        assert len(base) > 100
        split = window()
        assert split.rows.dtype == base.rows.dtype == np.int8
        assert np.array_equal(split.rows, base.rows)
        assert np.array_equal(split.lows, base.lows, equal_nan=True)
        assert split.balls == base.balls

    @given(spec=st.sampled_from(["cbrt:2", "const:e", "rat:7/5"]), n=st.sampled_from([2, 3]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_is_complete(self, spec, n, data):
        # brute force over the box (n = 3 boxes kept small): the window holds
        # every P of its height range with certified |P(xi)| <= v_cut, each
        # once in canonical sign; with no value cut, exactly the box
        m = 2 * n - 2
        h_cut = data.draw(st.integers(1, 6 if n == 2 else 4), label="h_cut")
        h_from = data.draw(st.integers(0, h_cut - 1), label="h_from")
        v_cut = data.draw(st.none() | st.integers(1, 3000).map(lambda i: Fraction(i, 1000)),
                          label="v_cut")
        sweep = paramgeom._MinimaSweep(_window_xi(spec), n)
        sweep.value_ball = lambda coeffs: ball(0)  # a vanishing P must not stop the walk
        scores = paramgeom._LScores(sweep, Fraction(1))
        scores.l_ball = lambda coeffs: ball(0)
        window = sweep.window(scores, h_cut, v_cut, h_from, 10**7, paramgeom._BOX_BUDGET)
        assert window.rows.dtype == np.int8
        assert set(window.balls) == set(np.flatnonzero(np.isnan(window.lows)).tolist())
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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divisible(coeffs, monic):
    rem = list(coeffs)
    d = len(monic) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        for i, f in enumerate(monic):
            rem[top - d + i] -= c * f
    return not any(rem)


def _lll(rows):
    """Textbook LLL (delta = 3/4) of integer rows in exact arithmetic."""
    b = [list(r) for r in rows]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / dot(star[j], star[j])
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:  # size reduction keeps the Gram-Schmidt vectors
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if dot(star[k], star[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(star[k - 1],
                                                                                star[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


@functools.lru_cache(maxsize=None)
def _near_zero(spec, m):
    """xi, and an LLL-reduced basis of polynomials of degree <= m that are
    small at xi: heights ~1e2-1e4, values ~1e-15-1e-10, around the float
    error of the lower bound."""
    xi = real_from_spec(parse_xi(spec), 256)
    scale = 10**14
    rows = [[int(i == j) for j in range(m + 1)] + [round(scale * xi.mid ** i)]
            for i in range(m + 1)]
    return xi, [tuple(r[:m + 1]) for r in _lll(rows)]


@st.composite
def _lazy_cases(draw):
    """(xi, n, q, coeffs, vanishes): a tuple of degree <= 2n-2 and height <=
    10^4, drawn freely, near zero at xi, or (algebraic xi) vanishing there."""
    spec = draw(st.sampled_from(sorted(LAZY_SPECS)))
    n = draw(st.integers(min_value=2, max_value=4))
    m = 2 * n - 2
    q = draw(st.fractions(min_value=0, max_value=12, max_denominator=10**4))
    xi, near = _near_zero(spec, m)
    kind = draw(st.sampled_from(["free", "near", "zero"]))
    if kind == "free":
        coeffs = draw(st.lists(st.integers(-10**4, 10**4), min_size=m + 1, max_size=m + 1))
    else:
        # a small combination of two reduced vectors
        a, b = draw(st.lists(st.sampled_from(near), min_size=2, max_size=2))
        u, v = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
        coeffs = [u * x + v * y for x, y in zip(a, b)]
    minpoly = LAZY_SPECS[spec]
    if kind != "free" and minpoly is not None and len(minpoly) <= m + 1:
        # add a multiple of the minimal polynomial (all of it for "zero"): the
        # value stays, the height and with it the float error grow
        g = draw(st.lists(st.integers(-2000, 2000), min_size=m + 2 - len(minpoly),
                          max_size=m + 2 - len(minpoly)))
        if kind == "zero":
            coeffs = [0] * (m + 1)
        coeffs = [c + x for c, x in zip(coeffs, _poly_mul(minpoly, g))]
    assume(any(coeffs) and max(map(abs, coeffs)) <= 10**4)
    vanishes = minpoly is not None and _divisible(coeffs, minpoly)
    return xi, n, q, tuple(coeffs), vanishes


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
        lazy = [successive_minima_exact(xi, 2, q) for q in (0, 2, 7)]
        self._certify_everything(monkeypatch)
        assert [successive_minima_exact(xi, 2, q) for q in (0, 2, 7)] == lazy

    @pytest.mark.parametrize("spec,q", [("const:e", 2), ("root:3:4", 1)])
    def test_n3_equals_certifying_everything(self, monkeypatch, spec, q):
        xi = real_from_spec(parse_xi(spec), 256)
        logs = self._count_logs(monkeypatch)
        lazy = successive_minima_exact(xi, 3, q)
        lazy_logs = len(logs)
        self._certify_everything(monkeypatch)
        assert successive_minima_exact(xi, 3, q) == lazy
        assert lazy_logs < len(logs) - lazy_logs

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lazy_greedy_matches_sorting_every_ball(self, data):
        # balls with exact float midpoints (eighths) and tied midpoints;
        # lower bounds up to 5 below them, some candidates certified up front
        coeffs = data.draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=1, max_size=30))
        mids = data.draw(st.lists(st.integers(-40, 40), min_size=len(coeffs),
                                  max_size=len(coeffs)))
        balls = {c: RealEnclosure(Fraction(x, 8), Fraction(1, 100)) for c, x in zip(coeffs, mids)}
        slack = data.draw(st.lists(st.floats(0, 5), min_size=len(coeffs), max_size=len(coeffs)))
        early = data.draw(st.lists(st.booleans(), min_size=len(coeffs), max_size=len(coeffs)))
        rows = np.array(coeffs, dtype=np.int8)
        lazy = paramgeom._Candidates(
            rows, np.array([np.nan if e else float(balls[c].mid) - d
                            for c, d, e in zip(coeffs, slack, early)]),
            {i: balls[c] for i, (c, e) in enumerate(zip(coeffs, early)) if e})
        exact = paramgeom._greedy_independent(
            paramgeom._Candidates.of_balls([(balls[c], c) for c in coeffs], 3), 3, 2)
        assert paramgeom._greedy_independent(lazy, 3, 2, balls.__getitem__) == exact
        # floats alone: the matroid bottleneck is a lower bound on the last minimum
        low = paramgeom._greedy_independent(lazy, 3, 2)
        if len(exact) == 3:
            assert len(low) == 3 and low[-1][0].mid <= exact[-1][0].mid

    @given(rows=planted_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_reference(self, rows, data):
        # distinct rows with planted dependencies; eighths for midpoints and
        # a few slacks make ties in both; some rows hold their ball up front
        rows = list(dict.fromkeys(map(tuple, rows)))
        k = len(rows)
        mids = data.draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))
        balls = {c: RealEnclosure(Fraction(x, 8), Fraction(1, 100)) for c, x in zip(rows, mids)}
        slack = data.draw(st.lists(st.sampled_from([0, 0, 0.125, 1, 5]), min_size=k, max_size=k))
        early = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        lows = [np.nan if e else x / 8 - d for x, d, e in zip(mids, slack, early)]
        # planted multiples of multiples can pass 127: the rows take the
        # dtype the production rule gives their height
        dtype = paramgeom._row_dtype(max(abs(x) for row in rows for x in row))
        cands = paramgeom._Candidates(np.array(rows, dtype=dtype), np.array(lows),
                                      {i: balls[c] for i, (c, e) in enumerate(zip(rows, early))
                                       if e})

        def reference(key):
            kept = []
            for i in sorted(range(k), key=lambda i: (key(i), rows[i], i)):
                if len(kept) < 5 and fraction_rank([rows[j] for j in kept] + [rows[i]]) > len(kept):
                    kept.append(i)
            return kept

        kept = reference(lambda i: balls[rows[i]].mid)
        certified = []

        def certify(c):
            # the picks that precede this row's bound key are made before it
            # is certified, and must not span it
            i = rows.index(c)
            before = [rows[j] for j in kept if (balls[rows[j]].mid, rows[j], j) < (lows[i], c, i)]
            assert fraction_rank(before + [c]) > len(before)
            certified.append(c)
            return balls[c]

        picks = paramgeom._greedy_independent(cands, 5, 4, certify)
        assert picks == [(balls[rows[i]], rows[i]) for i in kept]
        assert len(set(certified)) == len(certified)
        # without certify a float row counts as the exact ball of its bound
        floats = reference(lambda i: balls[rows[i]].mid if early[i] else lows[i])
        assert [(b.mid, c) for b, c in paramgeom._greedy_independent(cands, 5, 4)] == [
            (balls[rows[i]].mid if early[i] else lows[i], rows[i]) for i in floats]

    @pytest.mark.parametrize("ready", [False, True], ids=["waiting", "ready"])
    def test_spanned_rows_are_never_certified(self, ready):
        # the unit vectors hold balls 0..4; behind the first two come more
        # than a block of rows in their span, then one more row that is not,
        # all waiting with bounds 1.5 and 1.75 or all ready with balls 1.5
        # and 10, where the greedy tests its ready rows in one batch
        unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
        spanned = [(0, 0, 0, a, b) for a in range(1, 9) for b in range(-20, 21) if b]
        rows = unit + spanned + [(0, 0, 1, 1, 1)]
        balls = {4 - i: RealEnclosure.exact(Fraction(i)) for i in range(5)}
        lows = [np.nan] * 5 + [1.5] * len(spanned) + [1.75]
        if ready:
            balls.update({i: RealEnclosure.exact(Fraction(3, 2)) for i in range(5, len(rows))})
            balls[len(rows) - 1] = RealEnclosure.exact(Fraction(10))
            lows = [np.nan] * len(rows)
        cands = paramgeom._Candidates(np.array(rows, dtype=np.int8), np.array(lows), balls)
        assert len(spanned) > paramgeom._SIEVE_BLOCK
        certified = []

        def certify(c):
            certified.append(c)
            return RealEnclosure.exact(Fraction(10))

        picks = paramgeom._greedy_independent(cands, 5, 4, certify)
        assert certified == ([] if ready else [(0, 0, 1, 1, 1)])
        assert [c for _, c in picks] == unit[::-1]

    @pytest.mark.parametrize("spec,n,q,stages", [("cbrt:2", 2, 7, 3), ("cbrt:2", 2, 12, 6),
                                                 ("const:e", 3, 2, 1)])
    def test_ladder_carries_only_the_basis(self, monkeypatch, spec, n, q, stages):
        # each stage's greedy on the previous picks and the new window picks
        # what the greedy on every window so far picks
        windows, inputs = [], []
        window, greedy = paramgeom._MinimaSweep.window, paramgeom._greedy_independent

        def recording_window(self, *args):
            windows.append(window(self, *args))
            return windows[-1]

        def checked_greedy(cands, dim, ambient_degree, certify=None):
            picks = greedy(cands, dim, ambient_degree, certify)
            if certify is not None:
                pool = functools.reduce(lambda a, b: a + b, windows)
                assert greedy(pool, dim, ambient_degree, certify) == picks
                inputs.append(len(cands))
            return picks

        monkeypatch.setattr(paramgeom._MinimaSweep, "window", recording_window)
        monkeypatch.setattr(paramgeom, "_greedy_independent", checked_greedy)
        successive_minima_exact(_window_xi(spec), n, q)
        assert len(windows) == len(inputs) == stages + 1
        # a later stage sees the 2n - 1 picks and its own window only
        assert inputs[1:] == [2 * n - 1 + len(w) for w in windows[1:]]

    @given(case=_lazy_cases())
    @settings(max_examples=300, deadline=None)
    def test_float_floor_is_a_lower_bound(self, case):
        xi, n, q, coeffs, vanishes = case
        scores = paramgeom._LScores(paramgeom._MinimaSweep(xi, n), q)
        low = scores.floors(scores.sweep.floor_terms(np.array([coeffs])))[0]
        if vanishes:
            assert math.isnan(low)  # certified at scoring time, where it raises
            with pytest.raises(PrecisionExhausted):
                scores.l_ball(coeffs)
        if not math.isnan(low):
            # l_ball cannot raise here: only a float-scored tuple is left lazy
            assert low <= scores.l_ball(coeffs).mid

    def test_vanishing_polynomial_named_at_n3(self):
        xi = real_from_spec(parse_xi("root:2:4"), 256)
        with pytest.raises(PrecisionExhausted, match=re.escape("(2, 0, 0, 0, -1)")):
            successive_minima_exact(xi, 3, 1)

    @pytest.mark.parametrize("spec,n,q,named", [
        ("sqrt:2", 2, 1, "(4, 0, -2)"), ("sqrt:2", 3, 1, "(2, 2, 1, -1, -1)"),
        ("cbrt:2", 3, 1, "(2, 2, 0, -1, -1)"), ("rat:1/3", 2, 1, "(1, -2, -3)"),
        ("rat:7/5", 2, 4, "(7, 16, -15)")])
    def test_which_vanishing_row_is_named(self, spec, n, q, named):
        # of several vanishing rows, the seed box names the lexicographically
        # largest canonical one and a window (the last case) the first in
        # scan order
        with pytest.raises(PrecisionExhausted, match=re.escape(named)):
            successive_minima_exact(_window_xi(spec), n, q)

    def test_vanishing_polynomial_named_inside_window(self):
        # found in a window stage, not the seed box (about 1.5 s)
        xi = real_from_spec(parse_xi("root:3:4"), 256)
        with pytest.raises(PrecisionExhausted, match=re.escape("(15, 0, 0, 0, -5)")):
            successive_minima_exact(xi, 3, 2)

    def test_n4_refused_without_exact_logs(self, monkeypatch):
        def no_ln(*args):
            raise AssertionError("exact ln called")

        monkeypatch.setattr(paramgeom, "ln", no_ln)
        xi = real_from_spec(parse_xi("const:pi"), 256)
        wording = ("minima enumeration needs a coefficient box of 1.29e+09 cells at q=1.0, "
                   "above the box budget 3e+08")
        with pytest.raises(BudgetExceeded, match=re.escape(wording)):
            successive_minima_exact(xi, 4, 1)


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
        ("cbrt:2", 2, 0, [0, 2, 2, 7, 3], paramgeom._BOX_BUDGET, []),
        ("const:e", 3, 0, [1, 2, Fraction(9, 2)], paramgeom._BOX_BUDGET, []),
        # a refusal between two answered q
        ("cbrt:2", 2, 0, [3, 40, 5], 10**6, [40]),
        # the shifted minimal polynomial of 2^(1/4), times -2, vanishes at
        # xi - 1: its window raises at every q and is never kept
        ("root:2:4", 3, 1, [1, 2], paramgeom._BOX_BUDGET, [1, 2]),
    ])
    def test_shared_sweep_equals_fresh_calls(self, monkeypatch, spec, n, shift, qs, box_budget,
                                             refused):
        xi = _window_xi(spec) - shift
        windows = self._count_windows(monkeypatch)
        fresh = [_outcome(lambda: successive_minima_exact(xi, n, q, box_budget)) for q in qs]
        fresh_windows = len(windows)
        sweep = paramgeom._MinimaSweep(xi, n)
        shared = [_outcome(lambda: successive_minima_exact(xi, n, q, box_budget, sweep))
                  for q in qs]
        assert shared == fresh
        assert [q for q, out in zip(qs, fresh) if not isinstance(out, list)] == refused
        if spec == "root:2:4":
            assert all(out == (PrecisionExhausted, "cannot certify P(xi) != 0 for "
                               "(2, -8, -12, -8, -2); raise the working precision")
                       for out in shared)
        else:  # the shared sweep walks fewer windows
            assert len(windows) - fresh_windows < fresh_windows

    @pytest.mark.parametrize("spec,n,q,budget", [("cbrt:2", 2, 12, "box"),
                                                 ("const:e", 3, 2, "candidates")])
    def test_kept_window_is_charged_again(self, monkeypatch, spec, n, q, budget):
        # asked again under a smaller budget, a kept window is refused as its
        # walk would be: cbrt:2 at q = 12 keeps windows up to h = 512, const:e
        # at q = 2 a window of 32034 rows
        xi = _window_xi(spec)
        sweep = paramgeom._MinimaSweep(xi, n)
        successive_minima_exact(xi, n, q, sweep=sweep)
        box_budget = paramgeom._BOX_BUDGET
        if budget == "box":
            box_budget = 10**5  # over (2 128 + 1)^2 cells, under (2 256 + 1)^2
        else:
            # one row short of what the seed box and the windows hold
            monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", sweep._kept_rows - 1)
        windows = self._count_windows(monkeypatch)
        shared = _outcome(lambda: successive_minima_exact(xi, n, q, box_budget, sweep))
        assert windows == []  # every window came from the sweep
        fresh = _outcome(lambda: successive_minima_exact(xi, n, q, box_budget))
        assert shared == fresh
        assert shared[0] is BudgetExceeded
        if budget == "box":
            assert shared[1].startswith("minima enumeration needs a coefficient box of 2.63e+05 "
                                        "cells at q=12.0")
        else:
            assert shared[1] == "minima enumeration exceeded the candidate budget"

    def test_window_kept_by_its_whole_key(self, cbrt2_xi):
        # one height range under a narrow, a wide and the narrow value cut
        # again, each at its own q: the rows and scores of a fresh window
        sweep = paramgeom._MinimaSweep(cbrt2_xi, 2)
        for q, v_cut in ((3, Fraction(1, 100)), (5, Fraction(1, 2)), (2, Fraction(1, 100))):
            q = Fraction(q)
            kept = sweep.window(paramgeom._LScores(sweep, q), 16, v_cut, 4, 10**7,
                                paramgeom._BOX_BUDGET)
            fresh = _fresh_window(cbrt2_xi, 2, q, 16, v_cut, 4)
            assert np.array_equal(kept.rows, fresh.rows)
            assert np.array_equal(kept.lows, fresh.lows, equal_nan=True)
            assert kept.balls == fresh.balls
        assert len(sweep._windows) == 2

    def test_kept_rows_stay_within_the_candidate_budget(self, monkeypatch, cbrt2_xi):
        # a window that would take the kept rows past _CANDIDATE_BUDGET is
        # not kept: it is walked again at each q and scored as a fresh walk
        sweep = paramgeom._MinimaSweep(cbrt2_xi, 2)
        narrow, wide = Fraction(1, 100), Fraction(1, 2)

        def window(q, v_cut):
            scores = paramgeom._LScores(sweep, Fraction(q))
            return sweep.window(scores, 16, v_cut, 4, 10**7, paramgeom._BOX_BUDGET)

        kept_rows = len(window(3, narrow))
        monkeypatch.setattr(paramgeom, "_CANDIDATE_BUDGET", kept_rows + 1)
        fresh_windows = {q: _fresh_window(cbrt2_xi, 2, q, 16, wide, 4) for q in (5, 2)}
        walks = self._count_windows(monkeypatch)
        for q in (5, 2):
            shared = window(q, wide)
            fresh = fresh_windows[q]
            assert len(fresh) > 1
            assert np.array_equal(shared.rows, fresh.rows)
            assert np.array_equal(shared.lows, fresh.lows, equal_nan=True)
            assert shared.balls == fresh.balls
        window(2, narrow)
        assert walks == [16, 16]  # the wide window at each q, the narrow one kept
        assert sweep._kept_rows == kept_rows and len(sweep._windows) == 1

    @pytest.mark.parametrize("spec,shift,n,h_cut,v_cut,h_from", [
        ("const:e", 0, 3, 9, Fraction(1, 2), 3),
        ("rat:7/5", 0, 2, 7, None, 0),  # with NaN rows
        ("root:2:4", 1, 3, 16, Fraction(1, 2), 2),  # a vanishing P: the walk raises
    ])
    def test_enumeration_is_q_free(self, spec, shift, n, h_cut, v_cut, h_from):
        # a walk at two q gives the same rows and log bytes, or the same
        # refusal; a window whose walk raised is not kept
        xi = _window_xi(spec) - shift
        outcomes = []
        for q in (Fraction(1), Fraction(7, 2)):
            sweep = paramgeom._MinimaSweep(xi, n)
            if spec == "rat:7/5":
                sweep.value_ball = lambda coeffs: ball(1)  # the vanishing rows stay NaN
            try:
                terms = paramgeom._enumerate_window(sweep, n, q, h_cut, v_cut, 10**7,
                                                    h_from=h_from)
            except PrecisionExhausted as exc:
                outcomes.append(str(exc))
                with pytest.raises(PrecisionExhausted):
                    sweep.window(paramgeom._LScores(sweep, q), h_cut, v_cut, h_from, 10**7,
                                 paramgeom._BOX_BUDGET)
                assert sweep._windows == {} and sweep._kept_rows == 0
                continue
            assert len(terms) > 0
            assert np.isnan(terms.log_value).any() == (spec == "rat:7/5")
            outcomes.append((terms.rows.dtype, terms.rows.shape, terms.rows.tobytes(),
                             terms.log_value.tobytes()))
        assert outcomes[0] == outcomes[1]
        if spec == "root:2:4":
            assert outcomes[0] == ("cannot certify P(xi) != 0 for (2, -8, -12, -8, -2); "
                                   "raise the working precision")

    def test_enumerate_window_keeps_the_traced_positions(self):
        # perfbench's tracer reads n (args[1]) and h_cut (args[3]) of each
        # walk for its paramgeom.window_cells metric
        names = list(inspect.signature(paramgeom._enumerate_window).parameters)
        assert names[1] == "n" and names[3] == "h_cut"

    def test_sweep_of_another_xi_rejected(self, cbrt2_xi):
        sweep = paramgeom._MinimaSweep(cbrt2_xi, 2)
        with pytest.raises(ValueError):
            successive_minima_exact(cbrt2_xi, 3, 1, sweep=sweep)
        with pytest.raises(ValueError):
            successive_minima_exact(_window_xi("const:e"), 2, 1, sweep=sweep)


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
        minima = [successive_minima_exact(cbrt2_xi, 2, q) for q in qs]
        csv = combined_graph_csv(qs, minima, 2)
        lines = csv.strip().split("\n")
        assert lines[0] == "q,L_1,L_2,L_3,sum,margin"
        assert len(lines) == 3

    def test_svg_renders(self, cbrt2_xi):
        qs = [Fraction(2), Fraction(4), Fraction(6)]
        minima = [successive_minima_exact(cbrt2_xi, 2, q) for q in qs]
        svg = graph_svg(qs, minima, 2)
        assert svg.startswith("<svg") and "polyline" in svg

    def test_default_grid(self):
        grid = default_q_grid(Fraction(3))
        assert grid[0] == 1 and all(b / a == Fraction(5, 4) for a, b in zip(grid, grid[1:]))
