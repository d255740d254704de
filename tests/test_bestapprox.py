"""Search engines: oracle equivalence, records, exponents, serialization."""

import contextlib
import decimal
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vlab
import vlab.bestapprox.search as search
import vlab.boxscan as boxscan
import vlab.cli as cli
from vlab.bestapprox import (
    best_approx_sequence,
    derive_exponents,
    min_poly_at_height,
)
from vlab.bestapprox.records import (
    SequenceData,
    ball_from_json,
    ball_to_json,
    decimal_to_fraction,
    fraction_to_decimal,
)
from vlab.enclosure import RealEnclosure, ln
from vlab.errors import BudgetExceeded, ExactZeroDetected, PrecisionExhausted
from vlab.realspec import parse_xi, real_from_spec
from reference import (
    _canonical,
    certified_convergents,
    dense_prefilter,
    fraction_ball_from_json,
    fraction_ball_to_json,
    naive_min_poly,
)

E80 = ("2.71828182845904523536028747135266249775724709369995957496696762772"
       "407663035354759")


#: a large xi: no polynomial of height < 20 gets below 1/2 there
XI20 = ("20.00013141592653589793238462643383279502884197169399375105820974944592307816"
        "4062862089")


def xi_ball(text, bits=256):
    return real_from_spec(parse_xi(text), bits)


class TestMinPolyAtHeight:
    def test_sqrt2_height1(self):
        poly, value = min_poly_at_height(xi_ball("sqrt:2"), 1, 1)
        assert poly.coeffs == (1, -1)  # canonical form of T - 1
        assert float(value.mid) == pytest.approx(2 ** 0.5 - 1, abs=1e-12)

    def test_sqrt2_height3(self):
        poly, value = min_poly_at_height(xi_ball("sqrt:2"), 1, 3)
        assert poly.coeffs == (3, -2)
        assert float(value.mid) == pytest.approx(3 - 2 * 2 ** 0.5, abs=1e-12)

    def test_rational_zero_detected(self):
        with pytest.raises(ExactZeroDetected):
            min_poly_at_height(xi_ball("rat:1/3", 64), 1, 3)

    def test_agrees_with_naive_small_boxes(self):
        xi = xi_ball("cbrt:2")
        for h in (1, 2, 3, 4, 6):
            p_naive, _ = naive_min_poly(xi, 2, h)
            p_engine, _ = min_poly_at_height(xi, 2, h)
            assert p_naive.coeffs == p_engine.coeffs

    @given(num=st.integers(min_value=3, max_value=400),
           den=st.integers(min_value=11, max_value=97))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_naive_random_rationals(self, num, den):
        assume(math.gcd(num, den) == 1)
        xi = RealEnclosure.exact(Fraction(num, den), 256)
        try:
            p_naive, _ = naive_min_poly(xi, 1, 5)
        except PrecisionExhausted:
            assume(False)  # exact value tie; the naive route cannot break it
        try:
            p_engine, _ = min_poly_at_height(xi, 1, 5)
        except ExactZeroDetected:
            assume(False)
        assert p_naive.coeffs == p_engine.coeffs

    @pytest.mark.parametrize("spec_text,n", [("cbrt:2", 1), ("cbrt:2", 2), ("const:e", 3)])
    def test_agrees_with_naive_above_exact_phase(self, spec_text, n):
        # the largest boxes the naive oracle still walks in a few seconds
        h = {1: 9, 2: 9, 3: 7}[n]
        xi = xi_ball(spec_text)
        p_naive, _ = naive_min_poly(xi, n, h)
        p_engine, _ = min_poly_at_height(xi, n, h, spec=parse_xi(spec_text))
        assert p_naive.coeffs == p_engine.coeffs

    @pytest.mark.parametrize("spec_text,n,h", [("sqrt:2", 3, 3), ("rat:3/2", 2, 3),
                                               ("root:2:4", 4, 2), ("cbrt:2", 4, 2)])
    def test_exact_zero_names_smallest_zero_in_box(self, spec_text, n, h):
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(xi_ball(spec_text), n, spec=spec)
        box = [c for c in itertools.product(range(-h, h + 1), repeat=n + 1)
               if any(c) and _canonical(c) == c]
        zeros = [c for c, zero in zip(box, ctx.exact_zeros(box)) if zero]
        with pytest.raises(ExactZeroDetected, match=re.escape(f"coefficients {min(zeros)}:")):
            min_poly_at_height(ctx.xi_ball, n, h, spec=spec)

    def test_large_xi_completions_stay_in_box(self):
        # at n = 6 the scan's float error for xi = 2001.5 is far above 1/2, so
        # rint s may lie beyond the height cap (4003 - 2T vanishes, at height
        # 4003); every completion stays in the box, where P = 1 is the minimum
        spec = parse_xi("rat:4003/2")
        for h in (2, 8):
            assert min_poly_at_height(xi_ball("rat:4003/2"), 6, h, spec=spec)[0].coeffs == (1,)

    @pytest.mark.parametrize("spec_text,n,h", [
        ("const:pi", 5, 2), ("const:pi", 6, 1), ("rat:4003/2", 2, 3), ("rat:4003/2", 3, 4)])
    def test_schedule_widens_past_an_empty_first_scan(self, monkeypatch, spec_text, n, h):
        # xi > 1: the start bound counts the constant term, so one scan
        # finds the brute-force minimum.  Dirichlet's start (K = 1) finds no
        # nonzero cell whose constant term lies in the box; the soundness
        # guard then scans once more, at thr, and still ends at the minimum
        xi = xi_ball(spec_text)
        want = naive_min_poly(xi, n, h)[0].coeffs
        found = self.count_scans(monkeypatch)
        assert min_poly_at_height(xi, n, h, spec=parse_xi(spec_text))[0].coeffs == want
        assert len(found) == 1
        found.clear()
        self.start_at_dirichlet(monkeypatch)
        assert min_poly_at_height(xi, n, h, spec=parse_xi(spec_text))[0].coeffs == want
        assert len(found) == 2 and found[0] == 0

    def test_schedule_widens_until_it_finds(self, monkeypatch):
        found = self.count_scans(monkeypatch)
        spec = parse_xi("const:pi")
        assert min_poly_at_height(xi_ball("const:pi"), 5, 3, spec=spec)[0].coeffs == (
            2, 3, -3, -3, -2, 1)  # the minimum a walk of every cell finds
        assert len(found) == 1 and found[0] > 0
        found.clear()
        self.start_at_dirichlet(monkeypatch)
        poly, _ = min_poly_at_height(xi_ball("const:pi"), 5, 3, spec=spec)
        assert found[0] == 0 and found[-1] > 0
        assert poly.coeffs == (2, 3, -3, -3, -2, 1)

    def test_start_bound_holds_on_small_boxes(self):
        # the pigeonhole start: some nonzero P of the box, constant term
        # included, has |P(xi)| < 1/M, M = floor(((h+1)^n - 1) / K) and
        # K = floor(sum_(i >= 1) |xi^i|) + 1.  cbrt 2 stops at n = 2: at
        # n = 3 it has exact ties (1 - T and 1 + T - T^3) the naive route
        # cannot break
        checked = 0
        for text in ("const:e", "const:pi", "const:ln2", "cbrt:2", "rat:-7/2", "rat:4003/2"):
            xi = xi_ball(text)
            for n, heights in ((1, range(1, 13)), (2, (1, 2, 3, 4, 6, 8, 12)), (3, (1, 2, 3, 4))):
                if text == "cbrt:2" and n == 3:
                    continue
                x = Fraction(xi.mid)
                k = math.floor(sum(abs(x) ** i for i in range(1, n + 1))) + 1
                for h in heights:
                    bins = search._pigeonhole_bins(boxscan.FixedPointXi(xi, n, 128), h)
                    assert bins == ((h + 1) ** n - 1) // k
                    if bins >= 1:
                        assert naive_min_poly(xi, n, h)[1].hi() < Fraction(1, bins)
                        checked += 1
        assert checked > 80

    @pytest.mark.parametrize("spec_text,n,h", [
        ("const:e", 2, 12), ("const:ln2", 3, 5), ("const:pi", 3, 4), ("cbrt:2", 2, 6),
        ("rat:4003/2", 2, 3)])
    def test_guard_scans_again_from_a_start_too_small(self, monkeypatch, spec_text, n, h):
        # a start far below the least gap: thr > tol after the first scan,
        # and the scan at thr ends at the brute-force minimum (on 4003/2 no
        # nonzero cell has a completion in the box, and P = 1 is the minimum)
        xi = xi_ball(spec_text)
        found = self.count_scans(monkeypatch)
        monkeypatch.setattr(search, "_pigeonhole_bins", lambda view, height: 10**30)
        poly, _ = min_poly_at_height(xi, n, h, spec=parse_xi(spec_text))
        assert len(found) == 2
        assert poly.coeffs == naive_min_poly(xi, n, h)[0].coeffs

    @staticmethod
    def count_scans(monkeypatch):
        """Spy on the oracle's scans of its box: the list of nonzero cells
        each found."""
        found = []
        scan = boxscan.scan_box

        def spy(*args):
            chunks = list(scan(*args))
            found.append(sum(int(c.any(axis=1).sum()) for c, _ in chunks))
            return iter(chunks)

        monkeypatch.setattr(boxscan, "scan_box", spy)
        return found

    @staticmethod
    def start_at_dirichlet(monkeypatch):
        """Start the oracle at Dirichlet's bound 1/((h+1)^n - 1): one bucket
        of s (K = 1), which leaves the constant term out."""
        monkeypatch.setattr(search, "_pigeonhole_bins",
                            lambda view, height: (height + 1) ** (len(view.pows) - 1) - 1)

    @pytest.mark.parametrize("spec_text,n,h,zero", [
        ("sqrt:2", 2, 2, (2, 0, -1)), ("sqrt:2", 2, 13, (2, 0, -1)),
        ("rat:7/5", 3, 8, (0, 0, 7, -5)), ("rat:7/5", 3, 13, (0, 0, 7, -5))])
    def test_exact_zero_message(self, spec_text, n, h, zero):
        with pytest.raises(ExactZeroDetected) as info:
            min_poly_at_height(xi_ball(spec_text), n, h, spec=parse_xi(spec_text))
        assert str(info.value) == (f"P(xi) = 0 for P with coefficients {zero}: "
                                   "xi is algebraic of degree <= n")

    def test_hands_over_distinct_rows(self, monkeypatch):
        # the twins u and -u of the scan complete to one row, not two; the
        # scan's tolerance is below 1/2, so the zero cell completes to no
        # constant and P = 1 is not handed over
        handed = []
        minimum = search._min_candidate

        def spy(ctx, rows):
            handed.append(np.asarray(rows).tolist())
            return minimum(ctx, rows)

        monkeypatch.setattr(search, "_min_candidate", spy)
        poly, _ = min_poly_at_height(xi_ball("const:e"), 2, 250, spec=parse_xi("const:e"))
        assert poly.coeffs == (93, -181, 54)
        assert handed == [[[93, -181, 54]]]

    def test_large_height_numpy_route(self):
        xi = xi_ball("sqrt:2", 320)
        poly, value = min_poly_at_height(xi, 1, 99)
        assert poly.coeffs == (99, -70)  # convergent 99/70
        assert value.lo() > 0


@contextlib.contextmanager
def scanned_rungs():
    """The (h_from, h_max) of every ``_prefilter_candidates`` call made inside."""
    calls = []
    scan = search._prefilter_candidates

    def spy(ctx, h_max, h_from, threshold):
        calls.append((h_from, h_max))
        return scan(ctx, h_max, h_from, threshold)

    with mock.patch.object(search, "_prefilter_candidates", spy):
        yield calls


class TestSequence:
    def test_sqrt2_convergents(self):
        seq = best_approx_sequence(parse_xi("sqrt:2"), 1, 20)
        assert [r.poly.coeffs for r in seq.records] == [
            (1, -1), (3, -2), (7, -5), (17, -12)]
        assert [r.height for r in seq.records] == [1, 3, 7, 17]

    def test_sqrt2_single_record_at_h2(self):
        seq = best_approx_sequence(parse_xi("sqrt:2"), 1, 2)
        assert len(seq.records) == 1
        assert seq.records[0].poly.coeffs == (1, -1)

    def test_monotonicity_invariants(self):
        seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 40)
        for prev, rec in zip(seq.records, seq.records[1:]):
            assert prev.height < rec.height
            assert rec.log_abs_value.strictly_less(prev.log_abs_value) is True

    def test_record_completeness_against_oracle(self):
        # between record heights the oracle must return the previous record
        spec = parse_xi("cbrt:2")
        seq = best_approx_sequence(spec, 2, 40)
        xi = xi_ball("cbrt:2", 320)
        heights = [r.height for r in seq.records]
        probes = [h - 1 for h in heights if h - 1 >= 1 and h - 1 not in heights]
        for h in probes:
            poly, _ = min_poly_at_height(xi, 2, h, spec=spec)
            expected = max((r for r in seq.records if r.height <= h),
                           key=lambda r: r.height)
            assert poly.coeffs == expected.poly.coeffs

    def test_algebraic_disguise_detected(self):
        with pytest.raises(ExactZeroDetected):
            best_approx_sequence(parse_xi("sqrt:2"), 2, 10)
        with pytest.raises(ExactZeroDetected):
            best_approx_sequence(parse_xi("rat:1/3"), 1, 5)

    @pytest.mark.parametrize("spec_text,n,h", [("sqrt:2", 3, 2), ("rat:3/2", 2, 3)])
    def test_zero_shortcut_matches_pairwise_minimum(self, spec_text, n, h):
        # the shortcut returns what the pairwise comparisons reach: the
        # lexicographically smallest exact zero
        ctx = search._SearchContext(xi_ball(spec_text), n, spec=parse_xi(spec_text))
        cands = sorted({_canonical(c)
                        for c in itertools.product(range(-h, h + 1), repeat=n + 1) if any(c)})
        assert ctx.zeros_possible
        shortcut = search._min_candidate(ctx, cands)
        ctx.zeros_possible = False
        assert search._min_candidate(ctx, cands) == shortcut
        assert ctx.exact_zeros([shortcut])[0]

    def test_determinism(self):
        a = best_approx_sequence(parse_xi("cbrt:2"), 2, 60)
        b = best_approx_sequence(parse_xi("cbrt:2"), 2, 60)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_budget_guard_for_large_xi(self):
        # at xi = 2001.5 nothing of height < 2001 beats P = 1, so the rungs
        # start with a threshold above 1/2; they keep only the cells with a
        # completion inside the height cap, and rung 4096 meets the zero
        with pytest.raises(ExactZeroDetected, match=re.escape("(0, 4003, -2)")):
            best_approx_sequence(parse_xi("rat:4003/2"), 2, 10**4)

    def test_large_xi_rung_capped_at_budget(self):
        # the record stays P = 1 up to height 19, so rung 32 (65^3 cells)
        # is scanned with a threshold above 1/2 and still reaches T - 20
        seq = best_approx_sequence(parse_xi("dec:" + XI20), 3, 60)
        assert [r.height for r in seq.records] == [1, 20]
        assert seq.records[1].poly.coeffs == (20, -1)

    @pytest.mark.parametrize("n,h", [(5, 10), (6, 10), (7, 7), (8, 5), (9, 3)])
    def test_default_height_fits_the_box_budget(self, n, h):
        # with no height limit given, n >= 5 takes the largest height <= 10
        # whose box (2h + 1)^n fits the box budget, so the default ladder
        # is not refused
        seq = best_approx_sequence(parse_xi("const:e"), n)
        assert seq.search_height_limit == h and seq.records
        assert (2 * h + 1) ** n <= boxscan.BOX_BUDGET
        assert h == 10 or (2 * h + 3) ** n > boxscan.BOX_BUDGET

    @pytest.mark.parametrize("spec_text,n,h_max,message", [
        # refused at rung 16 with rungs 1, 2, 4 and 8 unscanned (about 3 s)
        ("const:e", 6, 30, "the record search needs a coefficient box of 1.29e+09 cells "
                           "at height 16, above the box budget 3e+08"),
        # refused at rung 4 with rungs 1 and 2 unscanned
        ("const:e", 9, 5, "the record search needs a coefficient box of 3.87e+08 cells "
                          "at height 4, above the box budget 3e+08"),
        ("const:pi", 9, 5, "the record search needs a coefficient box of 3.87e+08 cells "
                           "at height 4, above the box budget 3e+08"),
    ])
    def test_over_budget_ladder_refused_before_scanning(self, monkeypatch, spec_text, n,
                                                         h_max, message):
        def no_scan(*args):
            raise AssertionError("a rung was scanned")

        monkeypatch.setattr(search, "_prefilter_candidates", no_scan)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            best_approx_sequence(parse_xi(spec_text), n, h_max)
        assert time.perf_counter() - start < 0.5

    def test_rungs_hand_over_few_candidates(self, monkeypatch):
        handed = []
        sweep = search._record_sweep

        def counted(ctx, cands, records):
            handed.append(len({tuple(row) for rows in cands.values() for row in rows.tolist()}))
            return sweep(ctx, cands, records)

        monkeypatch.setattr(search, "_record_sweep", counted)
        seq = best_approx_sequence(parse_xi("const:pi"), 4, 25)
        assert len(seq.records) == 8
        # one distinct polynomial a record: the per-height rule keeps only the
        # completions near the least value at their height, not every
        # completion of a kept cell
        assert sum(handed) <= 8

    def test_low_degree_algebraic_keeps_exact_zero(self):
        # rung 16 is over budget, but T^3 - 2 vanishes in rung 2 first
        with pytest.raises(ExactZeroDetected):
            best_approx_sequence(parse_xi("cbrt:2"), 6, 30)

    @pytest.mark.parametrize("spec_text,n,h_max,rungs", [
        # the records benchmark's jobs: the first rung holds about a quarter
        # chunk of hits at the threshold of P = 1, the next reaches the top
        ("const:e", 2, 1000, [(0, 32), (32, 1000)]),
        ("cbrt:2", 2, 500, [(0, 32), (32, 500)]),
        ("const:e", 3, 60, [(0, 8), (8, 60)]),
        ("const:pi", 4, 25, [(0, 4), (4, 8), (8, 16), (16, 25)]),
        # a large xi keeps a threshold above 1/2, so its rungs stay small
        ("dec:" + XI20, 3, 60, [(0, 8), (8, 16), (16, 32), (32, 60)]),
    ])
    def test_rungs_sized_by_expected_hits(self, spec_text, n, h_max, rungs):
        with scanned_rungs() as calls:
            best_approx_sequence(parse_xi(spec_text), n, h_max)
        assert calls == rungs

    @given(spec_text=st.sampled_from(["const:e", "const:pi", "cbrt:2", "rat:7/5", "rat:4003/2"]),
           n=st.integers(1, 4),
           h_max=st.integers(1, 300), budget=st.sampled_from([10**2, 10**4, 3 * 10**8]))
    @settings(max_examples=40, deadline=None)
    def test_scanned_rungs_are_doubling_tops(self, spec_text, n, h_max, budget):
        # each rung starts where the last one ended, ends at a top 1, 2, 4,
        # ..., h_max, and is in the box budget unless it is the next top
        h_max = min(h_max, {1: 300, 2: 60, 3: 12, 4: 6}[n])
        tops = [min(2 ** i, h_max) for i in range(h_max.bit_length() + 1)]
        with scanned_rungs() as calls, mock.patch.object(boxscan, "BOX_BUDGET", budget):
            try:
                best_approx_sequence(parse_xi(spec_text), n, h_max)
            except ExactZeroDetected:
                pass
            except BudgetExceeded:
                # refused before the first rung, or (xi algebraic of degree
                # <= n) at the first top over the budget
                if calls:
                    assert (2 * calls.pop()[1] + 1) ** n > budget
        assert [h for h, _ in calls] == [0, *(top for _, top in calls)][:len(calls)]
        for h_from, top in calls:
            assert top in tops and (2 * top + 1) ** n <= budget
            assert top == min(t for t in tops if t > h_from) or all(
                (2 * t + 1) ** n <= budget for t in tops if t <= top)

    def test_no_rung_past_a_top_over_budget(self, monkeypatch):
        # with the box budget at 5^3 cells, top 4 is over it: an algebraic
        # xi of degree <= n is walked up to top 2, where 2 - T^3 vanishes,
        # although the expected hits would let the first rung reach top 8
        monkeypatch.setattr(boxscan, "BOX_BUDGET", 5 ** 3)
        with scanned_rungs() as calls, \
                pytest.raises(ExactZeroDetected, match=re.escape("(2, 0, 0, -1)")):
            best_approx_sequence(parse_xi("cbrt:2"), 3, 1000)
        assert calls == [(0, 2)]
        # at 3^3 cells top 2 is over it: the ladder stops there, naming it
        monkeypatch.setattr(boxscan, "BOX_BUDGET", 3 ** 3)
        with scanned_rungs() as calls, \
                pytest.raises(BudgetExceeded, match="at height 2, above the box budget 3e"):
            best_approx_sequence(parse_xi("cbrt:2"), 3, 1000)
        assert calls == [(0, 1), (1, 2)]

    def test_decimal_e_matches_constant_e(self):
        a = best_approx_sequence(parse_xi("dec:" + E80), 2, 60)
        b = best_approx_sequence(parse_xi("const:e"), 2, 60)
        assert [r.poly.coeffs for r in a.records] == [r.poly.coeffs for r in b.records]


class TestLadderAgainstNaive:
    """The records are the successive distinct minimizers of the naive
    oracle, height by height."""

    @pytest.mark.parametrize("spec_text,n,h_max", [
        ("cbrt:2", 1, 24), ("const:e", 1, 24), ("const:pi", 1, 24),
        ("cbrt:2", 2, 7), ("const:e", 2, 7), ("const:pi", 2, 7),
        ("const:e", 3, 3), ("const:pi", 3, 3),  # cbrt 2 is a root of T^3 - 2
        # record >= 1/2 up to height 20: the rungs keep nearly every cell
        ("dec:" + XI20, 1, 24),
    ])
    def test_records_are_naive_minimizers(self, spec_text, n, h_max):
        xi = xi_ball(spec_text)
        naive = []
        for h in range(1, h_max + 1):
            coeffs = naive_min_poly(xi, n, h)[0].coeffs
            if not naive or naive[-1] != coeffs:
                naive.append(coeffs)
        seq = best_approx_sequence(parse_xi(spec_text), n, h_max)
        assert [r.poly.coeffs for r in seq.records] == naive


#: specs for the pruning test: transcendental, algebraic, large, and exact
#: rationals, one with exact ties (and a zero at height 7), one within 1e-17
#: of 1/3, where floats cannot order the near-ties of small heights, and one
#: so large that every cell but the zero row lies beyond the height cap
PRUNE_SPECS = ("const:e", "const:pi", "cbrt:2", "dec:" + XI20, "rat:7/5",
               "rat:33333333333333334/100000000000000001", "rat:4003/2")


@st.composite
def rungs(draw):
    """(spec, n, h_from, h_max, record) for one small rung; the record is the
    oracle's minimizer at h_from or P = 1 (a threshold above 1/2)."""
    n = draw(st.integers(1, 4))
    h_max = draw(st.integers(1, {1: 40, 2: 8, 3: 4, 4: 3}[n]))
    h_from = draw(st.integers(0, h_max - 1))
    record = draw(st.sampled_from(["oracle", "one"])) if h_from else "one"
    return draw(st.sampled_from(PRUNE_SPECS)), n, h_from, h_max, record


class TestRungPruning:
    """``_prefilter_candidates`` against every polynomial of the rung."""

    @pytest.mark.parametrize("spec_text,n,h_from,h_max,distinct", [
        ("cbrt:2", 2, 32, 64, 3), ("const:pi", 4, 4, 8, 2)])
    def test_rows_are_distinct(self, spec_text, n, h_from, h_max, distinct):
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), n, spec=spec)
        pruned = search._prefilter_candidates(ctx, h_max, h_from, 1.0)
        rows = [tuple(row) for rows in pruned.values() for row in rows.tolist()]
        assert len(rows) == len(set(rows)) == distinct

    @given(rungs())
    # the record T - 20 at the rung top: its cell has s > h_max, so only the
    # clipped gap at h_max itself keeps it
    @example(("dec:" + XI20, 1, 0, 20, "one"))
    @settings(max_examples=50, deadline=None)
    def test_keeps_every_record_and_no_hopeless_row(self, rung):
        spec_text, n, h_from, h_max, record = rung
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), n, spec=spec)
        one = (1,) + (0,) * n
        records = [one] if h_from else []
        try:
            if record == "oracle":
                best = min_poly_at_height(ctx.xi_ball, n, h_from, spec=spec)[0].coeffs
                records = [best + (0,) * (n + 1 - len(best))]
            threshold = search._record_threshold(ctx, records[-1] if records else one)
        except ExactZeroDetected:
            assume(False)
        pruned = search._prefilter_candidates(ctx, h_max, h_from, threshold)
        kept = {h: {tuple(row) for row in rows.tolist()} for h, rows in pruned.items()}

        every = {}
        for c in itertools.product(range(-h_max, h_max + 1), repeat=n + 1):
            if max(map(abs, c)) > h_from:
                every.setdefault(max(map(abs, c)), set()).add(_canonical(c))
        # the certified minimum at each height that sets a record is kept,
        # and the sweep over the kept candidates gives the same records
        setting = []
        for h in sorted(every):
            best = search._min_candidate(ctx, sorted(every[h]))
            running = (records + setting)[-1:]
            if not running or search._compare_candidates(ctx, best, running[0]) < 0:
                assert best in kept.get(h, ())
                setting.append(best)
        swept = list(records)
        search._record_sweep(ctx, pruned, swept)
        assert swept == records + setting

        # a kept row is a canonical polynomial of its height in the rung,
        # with a value near the least value at its height or below it (the
        # prefix minimum over heights, from the threshold)
        powers = ctx.view(search._BASE_BITS).float_powers()[0]
        least = np.full(h_max + 1, threshold)
        for h, polys in every.items():
            least[h] = min(threshold, min(abs(np.dot(c, powers)) for c in polys))
        least = np.minimum.accumulate(least)
        for h, rows in kept.items():
            assert h_from < h <= h_max
            for row in rows:
                assert max(map(abs, row)) == h and _canonical(row) == row
                assert abs(np.dot(row, powers)) <= least[h] + 1e-6

    @given(rungs(), st.sampled_from([1, 7, 64, 1 << 16]))
    @example(("const:pi", 1, 0, 40, "one"), 1)
    @example(("rat:7/5", 2, 3, 8, "oracle"), 7)
    # rungs of the ladder above its first: a threshold well below 1
    @example(("const:pi", 1, 32, 5000, "oracle"), 64)
    @example(("cbrt:2", 2, 32, 200, "oracle"), 401)
    @settings(max_examples=60, deadline=None)
    def test_prefix_minimum_keeps_the_dense_rows(self, rung, chunk):
        # the prefix minimum over the kept rows keeps what the dense one over
        # every height keeps, across many chunks
        spec_text, n, h_from, h_max, record = rung
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), n, spec=spec)
        try:
            if record == "oracle":
                best = min_poly_at_height(ctx.xi_ball, n, h_from, spec=spec)[0].coeffs
            else:
                best = (1,) + (0,) * n
            threshold = search._record_threshold(ctx, best + (0,) * (n + 1 - len(best)))
        except ExactZeroDetected:
            assume(False)
        with mock.patch.object(boxscan, "SCAN_CHUNK_CELLS", chunk):
            kept = search._prefilter_candidates(ctx, h_max, h_from, threshold)
            dense = dense_prefilter(ctx, h_max, h_from, threshold)
        assert list(kept) == list(dense)
        for h in dense:
            assert kept[h].dtype == dense[h].dtype and kept[h].shape == dense[h].shape
            assert kept[h].tobytes() == dense[h].tobytes()


@st.composite
def candidate_rows(draw):
    """(spec, n, rows): 33 to 60 distinct canonical polynomials of one
    small box, shuffled, some of them twice; rat:7/5 brings exact ties, the
    rational near 1/3 near-ties that floats cannot order, cbrt:2 at n = 3
    and the rationals exact zeros."""
    n = draw(st.integers(1, 3))
    h = {1: 8, 2: 3, 3: 2}[n]
    box = sorted({_canonical(c)
                  for c in itertools.product(range(-h, h + 1), repeat=n + 1) if any(c)})
    picked = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(box),
                                                     min_size=33, max_size=60)))))
    return draw(st.sampled_from(PRUNE_SPECS)), n, picked + picked[:draw(st.integers(0, 5))]


#: the nonzero canonical polynomials of degree <= 1 and height <= 8, reversed
LINEAR8 = sorted({_canonical(c) for c in itertools.product(range(-8, 9), repeat=2)
                  if any(c)}, reverse=True)


class TestMinCandidate:
    @given(candidate_rows())
    # near-ties k(1 - 3T) at the rational near 1/3; without the zero 7 - 5T,
    # the exact tie 3 - 2T, 4 - 3T (both 1/5 at 7/5)
    @example(("rat:33333333333333334/100000000000000001", 1, LINEAR8))
    @example(("rat:7/5", 1, [c for c in LINEAR8 if c != (7, -5)]))
    @settings(max_examples=40, deadline=None)
    def test_equals_plain_pairwise_minimum(self, drawn):
        spec_text, n, rows = drawn
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), n, spec=spec)
        try:
            best = rows[0]
            for c in rows[1:]:
                cmp = search._compare_candidates(ctx, c, best)
                if cmp < 0 or (cmp == 0 and c < best):
                    best = c
        except PrecisionExhausted:
            assume(False)  # a decimal spec ran out of digits
        assert search._min_candidate(ctx, np.array(rows)) == best


#: algebraic specs and their exact values: rationals, and roots whose
#: minimal polynomial is T^k - base (root:64:4 is sqrt 8: T^4 - 64 factors).
#: At n = 6 the rational near 1/3 and the root of 2^40 + 1 have an exact
#: evaluation map above 2^63, which takes the product to Python ints
NEAR_THIRD = "rat:33333333333333334/100000000000000001"
EXACT_XI = {"rat:7/5": sympy.Rational(7, 5), "rat:-3/2": sympy.Rational(-3, 2),
            "cf:1,2": sympy.Rational(3, 2), "sqrt:2": sympy.sqrt(2),
            "cbrt:2": sympy.root(2, 3), "root:2:4": sympy.root(2, 4),
            "root:64:4": sympy.root(64, 4), "root:5:3": sympy.root(5, 3),
            NEAR_THIRD: sympy.Rational(33333333333333334, 100000000000000001),
            "root:1099511627777:2": sympy.sqrt(1099511627777)}
T_SYM = sympy.Symbol("T")


def minimal_coeffs(spec_text: str, n: int) -> list:
    """xi's minimal polynomial as n + 1 coefficients, constant term first."""
    minimal = sympy.minimal_polynomial(EXACT_XI[spec_text], T_SYM)
    coeffs = [int(c) for c in sympy.Poly(minimal, T_SYM).all_coeffs()[::-1]]
    return coeffs + [0] * (n + 1 - len(coeffs))


@st.composite
def exact_zero_cases(draw):
    """(spec, rows of 7 coefficients, degree <= 6): each a random
    polynomial, a multiple of xi's minimal polynomial, or such a multiple
    plus one term."""
    spec_text = draw(st.sampled_from(sorted(EXACT_XI)))
    minimal = sympy.Poly(sympy.minimal_polynomial(EXACT_XI[spec_text], T_SYM), T_SYM)
    small = st.integers(-6, 6)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "multiple", "near"]),
                              min_size=1, max_size=8)):
        if kind == "free":
            coeffs = draw(st.lists(small, min_size=1, max_size=7))
        else:
            factor = draw(st.lists(small, min_size=1, max_size=7 - minimal.degree()))
            coeffs = (sympy.Poly(list(reversed(factor)), T_SYM) * minimal).all_coeffs()[::-1]
            coeffs = [int(c) for c in coeffs]
            if kind == "near":
                coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(small.filter(bool))
        rows.append(coeffs + [0] * (7 - len(coeffs)))
    return spec_text, rows


class TestExactZero:
    @given(exact_zero_cases())
    # T^2 - 8; T^4 - 64, a multiple of it; T^2 + 8, which divides T^4 - 64
    # but is not 0
    @example(("root:64:4", [[-8, 0, 1, 0, 0, 0, 0], [-64, 0, 0, 0, 1, 0, 0],
                            [8, 0, 1, 0, 0, 0, 0]]))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_and_fractions(self, case):
        spec_text, rows = case
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), 6, spec=spec)
        value = EXACT_XI[spec_text]
        minimal = sympy.minimal_polynomial(value, T_SYM)
        want = []
        for coeffs in rows:
            poly = sympy.Poly(list(reversed(coeffs)), T_SYM)
            zero = sympy.rem(poly.as_expr(), minimal, T_SYM) == 0
            if value.is_Rational:
                x = Fraction(int(value.p), int(value.q))
                assert zero == (sum(c * x ** i for i, c in enumerate(coeffs)) == 0)
            want.append(zero)
        # all rows in one product; object rows always take the Python-int one
        assert ctx.exact_zeros(np.array(rows)).tolist() == want
        assert ctx.exact_zeros(np.array(rows, dtype=object)).tolist() == want

    @pytest.mark.parametrize("spec_text,n,dtype", [
        ("rat:7/5", 4, np.int64), ("root:5:3", 6, np.int64), (NEAR_THIRD, 4, object),
        ("root:1099511627777:2", 4, object)])
    def test_map_in_int64_unless_it_overflows(self, spec_text, n, dtype):
        # a^i b^(n-i) of the rational near 1/3 and base^2 of the large root
        # pass 2^63.  3T - 1 is nonzero at each xi, though near 1/3 its float
        # value cannot tell it from 0
        spec = parse_xi(spec_text)
        ctx = search._SearchContext(real_from_spec(spec, 256), n, spec=spec)
        assert ctx._zero_map.matrix.dtype == dtype  # the shared IntegerMap
        zero = minimal_coeffs(spec_text, n)
        rows = [zero, [zero[0] + 1] + zero[1:], [-1, 3] + [0] * (n - 1)]
        assert ctx.exact_zeros(rows).tolist() == [True, False, False]

    def test_undecidable_without_a_form(self):
        ctx = search._SearchContext(xi_ball("const:e"), 3, spec=parse_xi("const:e"))
        assert ctx.exact_zeros([[1, 1, 0, 0]]) is None


class TestExponents:
    def test_tau_undefined_at_height1(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("sqrt:2"), 1, 20))
        assert seq.record(2).tau is None

    def test_tau_value(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("sqrt:2"), 1, 20))
        tau4 = seq.record(4).tau
        assert float(tau4.mid) == pytest.approx(math.log(17) / math.log(7), abs=1e-12)

    def test_v_trend_toward_one(self):
        # v_k decreases monotonically toward w_1(sqrt2) = 1 (badly approximable)
        seq = derive_exponents(best_approx_sequence(parse_xi("sqrt:2"), 1, 10**4))
        vs = [float(r.v.mid) for r in seq.records[1:]]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        assert all(v > 1 for v in vs)
        for v in vs[-2:]:
            assert 0.9 < v < 1.1

    def test_values_improve(self):
        # v_k * log H_k = -log|P_k| strictly increases
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 200))
        prods = [-float(r.log_abs_value.mid) for r in seq.records]
        assert all(a < b for a, b in zip(prods, prods[1:]))

    def test_estimates_labeled_window(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 200))
        est = seq.estimates()
        assert est.tail_start_k >= 2
        assert est.w_hat_proxy is not None
        assert float(est.w_hat_proxy.mid) == pytest.approx(2.0, abs=0.35)


@st.composite
def gap_inputs(draw):
    """(s, h, thr): s near +-(h +- 1/2), +-h, +-(h + 1) and +-1/2 (a few ulps
    or a hair off), at integers, far beyond h, and anywhere in [-2h, 2h]."""
    h = draw(st.integers(1, 3000))
    anchor = st.sampled_from([h - 0.5, h + 0.5, float(h), h + 1.0, 0.5, 0.0])
    near = st.builds(lambda a, ulps, hair, sign: sign * (a + ulps * np.spacing(a) + hair),
                     anchor, st.integers(-3, 3), st.sampled_from([0.0, 1e-9, -1e-9]),
                     st.sampled_from([-1.0, 1.0]))
    far = st.builds(lambda x, sign: sign * x, st.floats(1e3 * h, 1e15),
                    st.sampled_from([-1.0, 1.0]))
    values = st.one_of(near, far, st.integers(-4 * h, 4 * h).map(float),
                       st.floats(-2.0 * h, 2.0 * h))
    s = np.array(draw(st.lists(values, min_size=1, max_size=40)), dtype=np.float64)
    thr = draw(st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.5, 0.5 - 2**-53, 0.5 + 2**-52])))
    return s, h, thr


#: a sorted-fraction scan where the box has two axes or more, a dense one
#: with the round-gap test, and a dense one without
SCAN_TOLERANCES = (0.01, 0.05, math.inf)


@st.composite
def scan_cases(draw):
    """(spec, n, h, tol, chunk cells) for a box small enough to compare
    with the whole grid: tolerances from 0 to 1/2 and beyond, xi small, large
    and rational, chunks from one line to the whole box."""
    spec_text, n = draw(st.sampled_from(
        [("const:e", 2), ("const:e", 3), ("const:pi", 2), ("const:pi", 3)]
        + [("const:pi", n) for n in range(5, 9)]
        + [("rat:7/5", 2), ("rat:7/5", 3), ("rat:4003/2", 2), ("rat:4003/2", 3)]))
    h = draw(st.integers(1, {2: 40, 3: 8, 5: 2, 6: 2}.get(n, 1)))
    tol = draw(st.one_of(
        st.sampled_from([0.0, 2.0**-60, 1e-12, 1e-6, 0.49, 0.5 - 2**-53, 0.5, math.inf]),
        st.floats(0.0, 0.49), st.floats(1e-15, 1e-3)))
    side = 2 * h + 1
    chunk = draw(st.sampled_from([1, 2, side, 3 * side, 2 * side ** 2, 1 << 16]))
    return spec_text, n, h, tol, chunk


def rising_tolerances(n, h, scale, zero):
    """Tolerances for scans of one box: tol = 0 first if ``zero``, then
    ``scale`` times the Dirichlet bound 1/((h+1)^n - 1), up by 4 a step to
    the first tolerance the sorted walk leaves to the dense one."""
    tols = [0.0] if zero else []
    tol = scale / ((h + 1) ** n - 1)
    while tol < boxscan._SORTED_WIDTH:
        tols.append(tol)
        tol *= 4
    return tols + [tol]


@st.composite
def rising_cases(draw):
    """(spec, n, h, tolerances) for one box at rising tolerances."""
    spec_text, n = draw(st.sampled_from(
        [("const:e", 2), ("const:e", 3), ("const:pi", 2), ("const:pi", 3), ("const:pi", 5),
         ("rat:7/5", 2), ("rat:7/5", 3), ("rat:4003/2", 2), ("rat:4003/2", 3)]))
    h = draw(st.integers(1, {2: 40, 3: 8, 5: 2}[n]))
    scale = draw(st.floats(0.25, 4.0))
    return spec_text, n, h, rising_tolerances(n, h, scale, draw(st.booleans()))


#: rising tolerances whose sorted walks find cells in the k = 0 window past
#: the zero cell, and in the k = 2 window
RISING_K0 = ("rat:7/5", 3, 8, rising_tolerances(3, 8, 1.0, True))
RISING_K2 = ("const:pi", 2, 150, rising_tolerances(2, 150, 1.0, False))


class TestScanBox:
    """The streamed scanner against the whole-grid meshgrid computation it
    replaced, which stays here as the reference."""

    @staticmethod
    def scan_against_meshgrid(spec_text, n, h, tol, chunk_of):
        """Scan the box and compare it with the whole grid: the yielded
        cells, concatenated, are the kept cells in C order with the grid's s
        bytes.  ``chunk_of(idx)`` names the dense walk's chunk of the cells
        at grid indices ``idx`` (one array an axis), and a dense scan is also
        compared chunk by chunk.  Returns the number of chunks holding a
        kept cell, and the chunks."""
        mids, merrs = boxscan.FixedPointXi(xi_ball(spec_text), n, 128).float_powers()
        grids = np.meshgrid(*[np.arange(-h, h + 1, dtype=np.float64)] * n, indexing="ij")
        s = np.zeros_like(grids[0])
        for i in range(n):
            s += grids[i] * mids[i + 1]
        dot_err = float(h) * float(np.sum(merrs[1:])) + (n + 3) * 2.3e-16 * float(
            np.max(np.abs(s)) + h * np.max(np.abs(mids)) + 1.0)
        assert boxscan.box_dot_error(mids, merrs, h) == dot_err

        chunks = list(boxscan.scan_box(mids, h, tol, "test scan", f"height {h}"))
        want = np.abs(s - np.clip(np.rint(s), -h, h)) <= tol
        # every walk: the kept cells in C order, s byte for byte, no empty yield
        assert all(len(coeffs) for coeffs, _ in chunks)
        assert np.concatenate([c for c, _ in chunks]).tolist() == (np.argwhere(want) - h).tolist()
        assert np.concatenate([v for _, v in chunks]).tobytes() == s[want].tobytes()
        ident = chunk_of(np.indices(s.shape))
        held = np.unique(ident[want])
        if boxscan._sorted_width(mids, h, tol) is None:
            # the dense walk: one yield a chunk with a kept cell, in chunk order
            assert len(chunks) == len(held)
            for (coeffs, values), c in zip(chunks, held):
                cells = want & (ident == c)
                assert coeffs.tolist() == (np.argwhere(cells) - h).tolist()
                assert values.tobytes() == s[cells].tobytes()
        return len(held), chunks

    @staticmethod
    def chunk_layout(n, h, chunk):
        """(the chunk of the cells at grid indices idx, as a function of idx;
        the number of axes a chunk fixes) by the layout ``_scan_dense``
        documents for ``_SCAN_CHUNK_CELLS`` = ``chunk``."""
        side = 2 * h + 1
        split = 0
        while split < n - 2 and side ** (n - 1 - split) > chunk:
            split += 1
        rows = min(side, max(1, chunk // side ** (n - 1 - split)))
        per_lead = -(-side // rows)

        def chunk_of(idx):
            lead = np.ravel_multi_index(idx[:split], (side,) * split) if split else 0
            return lead * per_lead + idx[split] // rows

        return chunk_of, split

    @pytest.mark.parametrize("spec_text,n,h", [
        ("const:e", 2, 300), ("const:pi", 4, 9), ("const:e", 3, 20), ("cbrt:2", 1, 500)])
    def test_matches_meshgrid_reference(self, monkeypatch, spec_text, n, h):
        monkeypatch.setattr(boxscan, "SCAN_CHUNK_CELLS", 3 * (2 * h + 1) ** (n - 1))
        # chunks of three rows of the first axis
        for tol in SCAN_TOLERANCES:
            assert self.scan_against_meshgrid(spec_text, n, h, tol, lambda idx: idx[0] // 3)[0] > 1

    @pytest.mark.parametrize("spec_text,n,h,chunk,split", [
        # one leading-axis row (19^3 cells) is over the chunk: chunks fix the
        # first axis and take two rows of the second
        ("const:pi", 4, 9, 2 * 19 ** 2, 1),
        ("const:e", 5, 4, 3 * 9 ** 2, 2),
        # a chunk never gets below one line along the last axis
        ("const:e", 3, 20, 1, 1),
    ])
    def test_split_rows_match_meshgrid_reference(self, monkeypatch, spec_text, n, h, chunk,
                                                 split):
        monkeypatch.setattr(boxscan, "SCAN_CHUNK_CELLS", chunk)
        chunk_of, fixed = self.chunk_layout(n, h, chunk)
        assert fixed == split
        for tol in SCAN_TOLERANCES:
            assert self.scan_against_meshgrid(spec_text, n, h, tol, chunk_of)[0] > 1

    def test_narrow_windows_take_the_sorted_scan(self, monkeypatch):
        calls = []
        sorted_scan = boxscan._scan_sorted

        def spy(*args):
            calls.append(args[2])  # (mids, height, tol, width)
            return sorted_scan(*args)

        monkeypatch.setattr(boxscan, "_scan_sorted", spy)
        mids, _ = boxscan.FixedPointXi(xi_ball("const:e"), 2, 128).float_powers()
        for tol in (0.0, 1e-9, 0.02, boxscan._SORTED_WIDTH, 0.4, 0.5, math.inf):
            list(boxscan.scan_box(mids, 30, tol, "test scan", "height 30"))
        list(boxscan.scan_box(mids[:2], 30, 1e-9, "test scan", "height 30"))
        # one axis, or a window of width _SORTED_WIDTH or more, walks every cell
        assert calls == [0.0, 1e-9, 0.02]

    @given(case=scan_cases())
    @settings(max_examples=150, deadline=None)
    # rat:7/5: the true s of many cells is an integer, a float s may miss it by an ulp
    @example(case=("rat:7/5", 3, 8, 0.0, 1 << 16))
    @example(case=("rat:7/5", 2, 40, 1e-12, 81))
    @example(case=("const:pi", 8, 1, 1e-6, 1))
    def test_any_tolerance_matches_meshgrid(self, case):
        spec_text, n, h, tol, chunk = case
        with mock.patch.object(boxscan, "SCAN_CHUNK_CELLS", chunk):
            self.scan_against_meshgrid(spec_text, n, h, tol, self.chunk_layout(n, h, chunk)[0])

    @staticmethod
    def scan_rising(spec_text, n, h, tols):
        """Scan the box at each of ``tols`` in turn, each scan against the
        whole grid; returns how many yielded cells each window k of the
        sorted walks held, k = rint(f(s_A) + f(s_B)) (``_scan_sorted``)."""
        mids, _ = boxscan.FixedPointXi(xi_ball(spec_text), n, 128).float_powers()
        chunk_of = TestScanBox.chunk_layout(n, h, boxscan.SCAN_CHUNK_CELLS)[0]
        coord = np.arange(-h, h + 1, dtype=np.float64)
        lead = n // 2
        frac = [x - np.floor(x) for x in (boxscan._axis_sums(coord, mids, 1, lead),
                                          boxscan._axis_sums(coord, mids, lead + 1, n))]
        hits = np.zeros(3, dtype=int)
        for tol in tols:
            chunks = TestScanBox.scan_against_meshgrid(spec_text, n, h, tol, chunk_of)[1]
            if boxscan._sorted_width(mids, h, tol) is not None:
                cells = np.concatenate([c for c, _ in chunks]) + h
                at = [np.ravel_multi_index(tuple(part.T), (2 * h + 1,) * part.shape[1])
                      for part in (cells[:, :lead], cells[:, lead:])]
                hits += np.bincount(np.rint(frac[0][at[0]] + frac[1][at[1]]).astype(int),
                                    minlength=3)
        return hits

    @given(case=rising_cases())
    @settings(max_examples=60, deadline=None)
    def test_one_box_at_rising_tolerances(self, case):
        # one box from the Dirichlet bound up to the dense walk: each scan,
        # sorted or dense, gives the whole grid's cells
        self.scan_rising(*case)

    def test_rising_examples_reach_the_edge_windows(self):
        # the same whole-grid check on two boxes whose scans reach the windows
        # the sorted walk searches for a few A values only.
        # rat:7/5 at tol = 0: s is exactly integral on more cells than the
        # zero cell, f(s_A) = f(s_B) = 0 there (k = 0); (pi, 2, 150): cells
        # with f(s_A) and f(s_B) both near 1 (k = 2), f(s_A) as far as
        # 0.79 w below 1 on some
        assert self.scan_rising(*RISING_K0)[0] > 1
        assert self.scan_rising(*RISING_K2)[2] > 0

    def test_oracle_sorts_its_box_once(self, monkeypatch):
        # (e, 2, 2000) scans its box once, by the sorted walk, and makes and
        # sorts the box's B side once
        scans, b_sides = [], []
        sorted_scan, axis_sums = boxscan._scan_sorted, boxscan._axis_sums

        def scan_spy(*args):
            scans.append(args)
            return sorted_scan(*args)

        def sums_spy(coord, mids, first, last):
            if last == len(mids) - 1:
                b_sides.append(first)
            return axis_sums(coord, mids, first, last)

        monkeypatch.setattr(boxscan, "_scan_sorted", scan_spy)
        monkeypatch.setattr(boxscan, "_axis_sums", sums_spy)
        poly, _ = min_poly_at_height(xi_ball("const:e"), 2, 2000, spec=parse_xi("const:e"))
        assert poly.coeffs == (667, -1156, 335)
        assert len(scans) == 1 and b_sides == [2]

    def test_sorted_walk_yields_once_a_block(self, monkeypatch):
        # the oracle's e, n = 2, H = 2000 box: the sorted walk yields at most
        # once for each block of A values it tests (one _completion_gap call
        # a block), not once for each chunk of the dense walk's layout
        blocks, yields, spans = [], [], []
        gap, sorted_scan = boxscan._completion_gap, boxscan._scan_sorted
        inside = [False]

        def gap_spy(*args):
            blocks[-1] += inside[0]
            return gap(*args)

        def walk_spy(*args):
            blocks.append(0)
            yields.append(0)
            spans.append(set())
            walk = sorted_scan(*args)
            while True:
                inside[0] = True
                try:
                    coeffs, s = next(walk)
                except StopIteration:
                    return
                finally:
                    inside[0] = False
                yields[-1] += 1
                # the dense walk's chunks here are 65536 // 4001 = 16 rows of c_1
                spans[-1].update(((coeffs[:, 0] + 2000) // 16).tolist())
                yield coeffs, s

        monkeypatch.setattr(boxscan, "_completion_gap", gap_spy)
        monkeypatch.setattr(boxscan, "_scan_sorted", walk_spy)
        poly, _ = min_poly_at_height(xi_ball("const:e"), 2, 2000, spec=parse_xi("const:e"))
        assert poly.coeffs == (667, -1156, 335)
        assert yields and all(1 <= y <= b for y, b in zip(yields, blocks))
        # the same cells span more dense chunks than the walk yields
        assert sum(map(len, spans)) > sum(yields)

    def test_twin_cells_have_negated_values(self):
        # the premise of the twin rule of _completions: s(-u) is -s(u) byte
        # for byte, on the dense walk (tol infinite) and the sorted one
        mids, _ = boxscan.FixedPointXi(xi_ball("const:pi"), 3, 128).float_powers()
        for tol, walk in ((math.inf, "dense"), (0.02, "sorted")):
            assert (boxscan._sorted_width(mids, 20, tol) is None) == (walk == "dense")
            values = {}
            for coeffs, s in boxscan.scan_box(mids, 20, tol, "test scan", "height 20"):
                values.update(zip(map(tuple, coeffs.tolist()), s))
            assert len(values) > 50
            for u, s in values.items():
                if any(u):
                    assert values[tuple(-c for c in u)].tobytes() == (-s).tobytes()

    @given(gap_inputs())
    @settings(max_examples=400, deadline=None)
    def test_gap_identities(self, case):
        s, h, thr = case
        # the oracle's gap is the old clipped distance, bit for bit
        old_gap = np.abs(s - np.clip(np.rint(s), -h, h))
        assert boxscan._completion_gap(s, h).tobytes() == old_gap.tobytes()
        # the prefilter's one-clause mask is the old two-clause one
        r = np.rint(s)
        old_mask = (np.abs(s - r) <= thr) | ((np.abs(r) > h) & (np.abs(s) - h <= thr))
        assert ((boxscan._round_gap(s) <= thr) == old_mask).all()

    def test_one_axis_walk_holds_no_axis_array(self):
        # one axis at h = 10^7: the axis as floats takes 160 MB, but the
        # dense walk makes each chunk's rows for that chunk, so its traced
        # peak is a few chunks' arrays
        mids, _ = boxscan.FixedPointXi(xi_ball("const:e"), 1, 128).float_powers()
        h = 10**7
        tracemalloc.start()
        try:
            cells = np.concatenate([c for c, _ in boxscan.scan_box(
                mids, h, 1e-7, "test scan", f"height {h}")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # the kept cells come in C order, each within the tolerance
        s = cells[:, 0] * mids[1]
        assert len(cells) > 0 and (np.diff(cells[:, 0]) > 0).all()
        assert (np.abs(s - np.rint(s)) <= 1e-7).all()

    def test_box_budget_checked_first(self):
        mids = np.ones(7)
        with pytest.raises(BudgetExceeded, match="needs a coefficient box of 5.15e"):
            next(boxscan.scan_box(mids, 30, 0.0, "test scan", "height 30"))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        def outputs():
            seqs = [json.dumps(best_approx_sequence(parse_xi(text), n, h).to_json(),
                               sort_keys=True)
                    for text, n, h in (("cbrt:2", 2, 200), ("const:e", 3, 30))]
            oracles = [min_poly_at_height(xi_ball(text), n, h, spec=parse_xi(text))
                       for text, n, h in (("const:e", 2, 300), ("const:pi", 3, 20),
                                       ("const:pi", 4, 8))]
            return seqs, [(p.coeffs, v.mid, v.rad) for p, v in oracles]

        base = outputs()
        # one line along the last axis a chunk: the oracle's running minimum
        # and the prefilter's survivors are merged across hundreds of chunks or more
        monkeypatch.setattr(boxscan, "SCAN_CHUNK_CELLS", 1)
        assert outputs() == base


class TestOracleEquivalence:
    @pytest.mark.parametrize("spec_text,n,h_max,bits", [
        ("sqrt:2", 1, 10**4, 320),
        ("cbrt:2", 2, 500, 320),
        ("dec:" + E80, 2, 500, 256),
        ("dec:" + E80, 3, 60, 256),
        # large xi: the first rungs start with the threshold of P = 1, above
        # 1/2, and keep only the cells with a completion inside the height cap
        ("const:pi", 8, 5, 256),
        ("dec:" + XI20, 3, 60, 256),
    ])
    def test_incremental_equals_oracle_at_every_record(self, spec_text, n, h_max, bits):
        spec = parse_xi(spec_text)
        seq = best_approx_sequence(spec, n, h_max)
        xi = real_from_spec(spec, bits)
        for prev, rec in zip([None] + seq.records, seq.records):
            poly, value = min_poly_at_height(xi, n, rec.height, spec=spec)
            assert poly.coeffs == rec.poly.coeffs
            # both balls hold log|P(xi)|, so they must meet
            log_value = ln(value)
            assert not (log_value.hi() < rec.log_abs_value.lo()
                        or rec.log_abs_value.hi() < log_value.lo())
            if prev is not None:
                # no record is missing below this one
                assert min_poly_at_height(xi, n, rec.height - 1,
                                          spec=spec)[0].coeffs == prev.poly.coeffs


class TestConvergents:
    """At n = 1 the records after P = 1 are the convergents p/q of xi, as
    p - q T (Khinchin, Continued Fractions, section 6)."""

    @pytest.mark.parametrize("spec_text", ["const:e", "const:pi"])
    def test_records_to_1e8_are_the_convergents(self, spec_text):
        h_max = 10**8
        argv = ["sequence", "--xi", spec_text, "--n", "1", "--max-height", str(h_max)]
        with tempfile.TemporaryFile() as out:
            proc = subprocess.Popen([sys.executable, "-m", "vlab.cli"] + argv,
                                    cwd=Path(vlab.__file__).resolve().parents[1], stdout=out)
            # the child's own resource usage, peak RSS in KiB on Linux
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            records = json.load(out)["records"]
        assert proc.returncode == 0
        assert usage.ru_maxrss < 400 * 1024
        convergents = certified_convergents(xi_ball(spec_text, 256))
        # the enclosure decides more quotients than the heights need
        assert convergents[-1][0] > h_max
        assert [tuple(r["coeffs"]) for r in records] == [(1,)] + [
            (p, -q) for p, q in convergents if p <= h_max]


#: the grammar of a decimal digit string in a sequence file
DECIMAL = r"[+-]?\d+(\.\d+)?"

#: Python's limit on the digits of one int conversion (4300 by default)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@st.composite
def wire_balls(draw):
    """A ball as the pipeline makes them: ``from_scaled`` over a denominator
    2^a 5^b, then ring operations, ``compress`` and ``ln``, so that every
    denominator stays of the form the wire format needs."""
    bits = draw(st.sampled_from([None, 64, 96, 192]))

    def scaled():
        den = 2 ** draw(st.integers(0, 200)) * 5 ** draw(st.integers(0, 40))
        return RealEnclosure.from_scaled(draw(st.integers(-10**40, 10**40)),
                                         draw(st.integers(0, 10**40)), den, bits)

    ball = scaled()
    for op in draw(st.lists(st.sampled_from(["+", "-", "*", "neg", "compress", "ln"]),
                            max_size=3)):
        if op == "+":
            ball = ball + scaled()
        elif op == "-":
            ball = scaled() - ball
        elif op == "*":
            ball = ball * scaled()
        elif op == "neg":
            ball = -ball
        elif op == "compress":
            ball = ball.compress(draw(st.sampled_from([16, 96, 192])))
        elif ball.sign() == 1:
            ball = ln(ball, draw(st.sampled_from([64, 192])))
    return ball


def codec_outcome(load, obj):
    """``load(obj, 96)``, or the type and text of the error it raises."""
    try:
        return load(obj, 96)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


class TestSerialization:
    def test_decimal_fraction_roundtrip(self):
        for f in (Fraction(3, 8), Fraction(-7, 20), Fraction(5), Fraction(1, 2**40)):
            assert decimal_to_fraction(fraction_to_decimal(f)) == f

    def test_rejects_non_decimal_denominator(self):
        with pytest.raises(ValueError):
            fraction_to_decimal(Fraction(1, 3))

    @given(num=st.integers(-10**60, 10**60), a=st.integers(0, 300), b=st.integers(0, 300))
    @example(num=0, a=0, b=0)
    @example(num=-7, a=0, b=0)
    @example(num=1, a=300, b=300)
    @example(num=-3, a=300, b=0)
    @example(num=10**60, a=0, b=300)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_decimal_division(self, num, a, b):
        f = Fraction(num, 2**a * 5**b)
        context = decimal.Context(prec=2000, traps=[decimal.Inexact])
        expected = format(context.divide(decimal.Decimal(f.numerator),
                                         decimal.Decimal(f.denominator)), "f")
        assert fraction_to_decimal(f) == expected

    @given(num=st.integers(-10**30, 10**30).filter(bool), a=st.integers(0, 300),
           b=st.integers(0, 30), prime=st.sampled_from([3, 7, 11, 13, 2**61 - 1]))
    @settings(max_examples=100, deadline=None)
    def test_rejects_other_primes_with_the_same_message(self, num, a, b, prime):
        f = Fraction(num, 2**a * 5**b * prime)
        assume(f.denominator % prime == 0)
        with pytest.raises(ValueError, match=f"^denominator {f.denominator} is not of the "
                                             "form 2\\^a 5\\^b$"):
            fraction_to_decimal(f)

    def test_sequence_roundtrip_bitexact(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 100))
        blob = json.dumps(seq.to_json(), sort_keys=True)
        back = SequenceData.from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        for a, b in zip(seq.records, back.records):
            assert a.poly.coeffs == b.poly.coeffs
            assert a.log_abs_value == b.log_abs_value
            assert a.mu == b.mu and a.v == b.v and a.tau == b.tau

    # -- the ball codec against its Fraction form (tests/reference.py) ----

    @given(ball=wire_balls())
    @settings(max_examples=300, deadline=None)
    def test_ball_codec_matches_the_fraction_codec(self, ball):
        obj = ball_to_json(ball)
        assert obj == fraction_ball_to_json(ball)
        back = ball_from_json(obj, ball.precision_bits)
        assert back == ball and back.precision_bits == ball.precision_bits
        assert back == fraction_ball_from_json(obj, ball.precision_bits)

    @given(mid=st.from_regex(DECIMAL, fullmatch=True), rad=st.from_regex(DECIMAL, fullmatch=True))
    @example(mid="-0", rad="0")
    @example(mid="-0.0", rad="-0.000")
    @example(mid="+007.50", rad="000.0625")
    @example(mid="-12", rad="-1")
    @example(mid="\u0663.\u0665", rad="0.5")  # digits of another script, as int() reads them
    @example(mid="9" * (INT_DIGITS - 1) + "." + "9" * (INT_DIGITS - 1), rad="1." + "0" * (INT_DIGITS - 1))
    @example(mid="-" + "1" * (INT_DIGITS - 1), rad="0." + "3" * (INT_DIGITS - 1))
    @example(mid="1" * (INT_DIGITS + 1), rad="0")
    @example(mid="1", rad="0." + "1" * (INT_DIGITS + 1))
    @settings(max_examples=300, deadline=None)
    def test_every_decimal_string_gives_the_same_outcome(self, mid, rad):
        # the same ball, or the same error: the integer and the fractional
        # digits convert separately, so each may come just under the limit
        # on digits per int conversion while the two together pass it, and
        # a part over the limit is refused as before
        obj = {"mid": mid, "rad": rad}
        assert codec_outcome(ball_from_json, obj) == codec_outcome(fraction_ball_from_json, obj)

    @pytest.mark.parametrize("bad", ["", "1e3", " 1", "1 ", ".5", "5.", "--1", "+-1", "0x10",
                                     "1_000", "1\n", 1.5, 3, True, None])
    @pytest.mark.parametrize("field", ["mid", "rad"])
    def test_every_rejected_string_keeps_its_error(self, bad, field):
        obj = dict({"mid": "1.5", "rad": "0.25"}, **{field: bad})
        outcome = codec_outcome(ball_from_json, obj)
        assert outcome == codec_outcome(fraction_ball_from_json, obj)
        assert outcome == (ValueError, f"not a decimal digit string: {bad!r}")

    @pytest.mark.parametrize("obj", [["1", "0"], "1.5", {"mid": "1", "rad": "-0.5"},
                                     {"mid": "x", "rad": "-1"}, {"rad": "0"}, {"mid": "1"}])
    def test_every_rejected_object_keeps_its_error(self, obj):
        outcome = codec_outcome(ball_from_json, obj)
        assert outcome == codec_outcome(fraction_ball_from_json, obj)
        assert outcome[0] in (ValueError, KeyError)

    @pytest.mark.parametrize("bad", ["", ".5", "1e3", 3, True, None])
    def test_bad_ball_in_a_file_exits_1_naming_it(self, capsys, tmp_path, bad):
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 20))
        obj = seq.to_json()
        obj["records"][-1]["log_abs_value"]["rad"] = bad
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(obj))
        assert cli.run(["verify", "--seq", str(path), "--format", "json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "VlabError",
                       "message": f"{path} is not a vlab sequence file (ValueError: "
                                  f"not a decimal digit string: {bad!r})"}
