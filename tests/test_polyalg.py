"""Exact rank, goodness, ell windows, V-set spans, irreducibility."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlab.bestapprox import best_approx_sequence
from vlab.bestapprox.records import BestApproxRecord, SequenceData
from vlab.enclosure import RealEnclosure
from vlab.errors import DegreeOverflow, DependentBase, IndexOutOfRange
from vlab.polyalg import (IntegerComplement, IntegerMap, bareiss_rank, ell_of_k,
                          enrich_independence, rank_of_polys)
from vlab.polynomials import IntPolynomial
from vlab.realspec import parse_xi
from rank_reference import fraction_rank, planted_rows
from vspan import is_irreducible_deg_n, span_dim_union, v_set


def P(*coeffs):
    return IntPolynomial(coeffs)


def fixture_seq(polys, n):
    """SequenceData with synthetic heights/values, for rank-only tests."""
    records = []
    for i, poly in enumerate(polys):
        records.append(BestApproxRecord(
            k=i + 1, poly=poly, height=i + 1,
            log_abs_value=RealEnclosure.exact(Fraction(-i, 1), 64)))
    return SequenceData(parse_xi("dec:0.5"), n, records, len(polys), 64)


class TestRank:
    def test_trivial_pairs(self):
        assert rank_of_polys([P(-1, 1), P(-3, 2)], 1) == 2
        assert rank_of_polys([P(-1, 1), P(-3, 2), P(-4, 3)], 1) == 2
        assert rank_of_polys([P(-2, 0, 1), P(-3, 1, 1), P(-5, 1, 2)], 2) == 2

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflow):
            rank_of_polys([P(0, 0, 1)], 1)

    @given(st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_matches_sympy_rank(self, rows):
        import sympy

        assert bareiss_rank(rows) == sympy.Matrix(rows).rank()

    @given(rows=st.lists(st.lists(st.integers(-20, 20), min_size=4, max_size=4),
                         min_size=2, max_size=4),
           scale=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60)
    def test_invariant_under_scaling_and_permutation(self, rows, scale):
        r = bareiss_rank(rows)
        assert bareiss_rank([[scale * x for x in rows[0]]] + rows[1:]) == r
        assert bareiss_rank(list(reversed(rows))) == r


def python_zeros(rows, columns):
    """The zero mask of rows . N in plain Python ints, N given by its columns."""
    return [all(sum(x * y for x, y in zip(row, col)) == 0 for col in columns) for row in rows]


def as_arrays(rows):
    """``rows`` as an object array, and as an int64 one where they fit."""
    arrays = [np.array(rows, dtype=object)]
    if max(abs(x) for row in rows for x in row) < 2**63:
        arrays.append(np.array(rows, dtype=np.int64))
    return arrays


@st.composite
def product_bits(draw, map_bits):
    """Bits of the rows' entries such that the guard's bound
    max|N| * width * max|rows|, about 2^(map_bits + bits), falls within a few
    bits of 2^63 on either side."""
    return draw(st.integers(max(0, 57 - map_bits), max(0, 68 - map_bits)))


@st.composite
def map_cases(draw):
    """(table, rows): an integer matrix N of one or two columns, given by
    its rows, and rows that are random, zero, or in N's left kernel (the
    cross product of two or three of N's rows, scaled)."""
    width, cols = draw(st.integers(3, 5)), draw(st.integers(1, 2))
    map_bits = draw(st.integers(0, 64))
    entry = st.integers(-2**map_bits, 2**map_bits)
    table = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=width, max_size=width))
    table[0][0] = 2**map_bits  # max|N| is 2^map_bits
    bits = draw(product_bits(map_bits))
    rows = draw(st.lists(st.lists(st.integers(-2**bits, 2**bits), min_size=width,
                                  max_size=width), min_size=1, max_size=6))
    rows.append([0] * width)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.lists(st.integers(0, width - 1), min_size=cols + 1, max_size=cols + 1,
                           unique=True))
        scale = draw(st.integers(1, 2**bits))
        row = [0] * width
        if cols == 1:
            row[at[0]], row[at[1]] = table[at[1]][0] * scale, -table[at[0]][0] * scale
        else:
            (a0, a1), (b0, b1), (c0, c1) = (table[i] for i in at)
            row[at[0]], row[at[1]], row[at[2]] = ((b0 * c1 - b1 * c0) * scale,
                                                  (a1 * c0 - a0 * c1) * scale,
                                                  (a0 * b1 - a1 * b0) * scale)
        rows.append(row)
    return table, rows


class TestIntegerMap:
    """The one overflow-guarded integer product and zero test
    (``IntegerMap.zeros``) against the product in plain Python ints, with
    the guard's bound on either side of 2^63, directly and through both of
    its callers: the record search's exact zeros and the span sieve."""

    @given(map_cases())
    # 2^32 * 2^32 = 2^64 wraps to 0 in int64: the bound 2^64 takes Python ints
    @example(([[2**32], [0], [0]], [[2**32, 0, 0], [0, 1, 0]]))
    # the bound 3 * 2^61, just below 2^63, stays in int64
    @example(([[2**31], [2], [0]], [[1, -2**30, 0], [2**30 - 1, 0, 5]]))
    # a list of ints >= 2^63 and negatives, which np.asarray makes floats of
    @example(([[1], [2], [0]], [[2**63 + 2, -2**62, 0], [0, 0, 0]]))
    @settings(max_examples=300)
    def test_mask_matches_python_ints(self, case):
        table, rows = case
        zero_map = IntegerMap(table)
        wanted = python_zeros(rows, list(zip(*table)))
        assert any(wanted)
        for array in as_arrays(rows):
            assert zero_map.zeros(array).tolist() == wanted
        assert zero_map.zeros(rows).tolist() == wanted

    @given(n=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_zeros_match_python_ints(self, n, data):
        # xi = a/b: the map is the column a^i b^(n-i), and the rows that
        # (bT - a) divides vanish at xi
        from vlab.bestapprox import search

        a_bits = data.draw(st.integers(0, 63 // n + 2), label="a_bits")
        x = Fraction(data.draw(st.integers(-2**a_bits, 2**a_bits), label="a"),
                     data.draw(st.integers(1, 2**a_bits), label="b"))
        a, b = x.numerator, x.denominator
        bits = data.draw(product_bits(n * a_bits), label="bits")
        coeff = st.integers(-2**bits, 2**bits)
        rows = data.draw(st.lists(st.lists(coeff, min_size=n + 1, max_size=n + 1),
                                  min_size=1, max_size=5), label="rows")
        for _ in range(data.draw(st.integers(1, 3), label="zeros")):
            q = data.draw(st.lists(coeff, min_size=n, max_size=n), label="q")
            rows.append([0] + [b * c for c in q])
            for i, c in enumerate(q):  # (bT - a) Q
                rows[-1][i] -= a * c
        ctx = search._SearchContext(RealEnclosure.exact(x), n)
        wanted = python_zeros(rows, [[a ** i * b ** (n - i) for i in range(n + 1)]])
        assert wanted[-1]
        for array in as_arrays(rows):
            assert ctx.exact_zeros(array).tolist() == wanted

    @given(rows=planted_rows(), picked=st.integers(1, 9), data=st.data())
    @settings(max_examples=200)
    def test_span_sieve_matches_python_ints(self, rows, picked, data):
        # the picks' first column scaled by 2^k: the complement's entries
        # grow with it, and the rows' scale puts the bound near 2^63
        k = data.draw(st.integers(0, 40), label="k")
        picks = [[row[0] << k] + row[1:] for row in rows[:picked]]
        complement = IntegerComplement(5)
        for row in picks:
            complement.add(row)
        top = max((abs(x) for col in complement._cols for x in col), default=1)
        bits = data.draw(product_bits(top.bit_length()), label="bits")
        scale = data.draw(st.integers(1, 2**bits), label="scale")
        tested = [[x * scale for x in row] for row in picks + rows]
        wanted = python_zeros(tested, complement._cols)
        assert all(wanted[:len(picks)])
        for array in as_arrays(tested):
            assert complement.spanned(array).tolist() == wanted


class TestIntegerComplement:
    @given(rows=planted_rows())
    @settings(max_examples=150)
    def test_accepts_exactly_the_rank_raising_rows(self, rows):
        complement = IntegerComplement(5)
        for i, row in enumerate(rows):
            raises = bareiss_rank(rows[:i + 1]) > bareiss_rank(rows[:i])
            assert raises == (fraction_rank(rows[:i + 1]) > fraction_rank(rows[:i]))
            assert complement.add(row) == raises
        assert len(complement) == fraction_rank(rows)

    @given(rows=planted_rows(), picked=st.integers(0, 9),
           scale=st.sampled_from([1, 2**31, 2**31 + 1, 3**40, 2**70]))
    @example(rows=[[2**32, -1, 0, 0, 0], [0, 2**32, 0, 0, 0]], picked=1, scale=1)
    @settings(max_examples=200)
    def test_span_mask_matches_fraction_rank(self, rows, picked, scale):
        # scaling the first column is invertible, so every dependency stays;
        # from 2^31 on, the complement's entries and the rows' together push
        # the product past the int64 bound and into Python ints (the example's
        # second row has product -2^64, which int64 would wrap to 0)
        rows = [[scale * row[0]] + row[1:] for row in rows]
        picks = rows[:picked]
        complement = IntegerComplement(5)
        for row in picks:
            complement.add(row)
        rank = fraction_rank(picks)
        wanted = [fraction_rank(picks + [row]) == rank for row in rows]
        # an object array always takes the Python-int path
        assert complement.spanned(np.array(rows, dtype=object)).tolist() == wanted
        if max(abs(x) for row in rows for x in row) < 2**63:
            assert complement.spanned(np.array(rows, dtype=np.int64)).tolist() == wanted

    @given(rows=planted_rows(width=3), data=st.data())
    @settings(max_examples=60)
    def test_greedy_keeps_the_rank_raising_rows_in_value_order(self, rows, data):
        from vlab import paramgeom

        values = data.draw(st.lists(st.integers(-50, 50), min_size=len(rows),
                                    max_size=len(rows)))
        scored = [(float(v), tuple(row)) for v, row in zip(values, rows)]
        order = sorted(range(len(rows)), key=lambda i: (scored[i][0], scored[i][1], i))
        kept, taken = [], []
        for i in order:
            if len(kept) < 3 and fraction_rank(taken + [rows[i]]) > len(taken):
                taken.append(rows[i])
                kept.append(scored[i][0])
        cands = paramgeom._Candidates(np.array(rows, dtype=np.int64),
                                      np.array(values, dtype=float))

        def certify(i, coeffs):
            return RealEnclosure.exact(Fraction(values[i]))

        assert [ball.mid for ball, _ in paramgeom._greedy_independent(cands, 2, certify)] == kept


class TestGoodness:
    """k is good iff ell(k) = k+1: ``enrich_independence`` reads goodness
    from ``ell_of_k``."""

    def test_constructed_dependent_triple(self):
        # P3 = P1 + P2: not good
        p1, p2 = P(1, 0, 1), P(0, 1, 1)
        seq = fixture_seq([p1, p2, p1 + p2], 2)
        assert ell_of_k(seq, 2) == (4, True)
        assert enrich_independence(seq).record(2).good is False

    def test_degree_one_never_good(self):
        # three vectors in a 2-dim space
        seq = fixture_seq([P(1, 1), P(-1, 2), P(-3, 4), P(2, 5)], 1)
        enrich_independence(seq)
        assert [seq.record(k).good for k in (2, 3)] == [False, False]

    def test_oracle_sequence_good_k(self):
        seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 100)
        enrich_independence(seq)
        goods = [r.k for r in seq.records if r.good]
        assert goods, "expected at least one good index"
        k = goods[0]
        triple = [seq.record(k - 1).poly, seq.record(k).poly, seq.record(k + 1).poly]
        assert rank_of_polys(triple, 2) == 3

    def test_index_out_of_range(self):
        seq = fixture_seq([P(1, 1), P(-1, 2)], 1)
        for k in (1, 2):  # no P_0, and no P_3
            with pytest.raises(IndexOutOfRange):
                ell_of_k(seq, k)
        # no index of two records has both neighbours: nothing to decide
        assert [r.good for r in enrich_independence(seq).records] == [None, None]


class TestEll:
    def test_rank2_run_then_independent(self):
        p1, p2 = P(1, 0, 1), P(0, 1, 1)
        dep = p1 + p2.scale(2)
        indep = P(5, -3, 1)  # (a, b, a+b) pattern broken: 5 - 3 != 1
        seq = fixture_seq([p1, p2, dep, indep], 3)
        ell, truncated = ell_of_k(seq, 2)
        assert (ell, truncated) == (4, False)

    def test_good_k_gives_kplus1(self):
        p1, p2, p3 = P(1, 0, 1), P(0, 1, 1), P(2, 1, 0)
        seq = fixture_seq([p1, p2, p3], 2)
        assert ell_of_k(seq, 2) == (3, False)
        assert enrich_independence(seq).record(2).good is True

    def test_truncated_run(self):
        p1, p2 = P(1, 0, 1), P(0, 1, 1)
        seq = fixture_seq([p1, p2, p1 + p2, p1 - p2], 2)
        ell, truncated = ell_of_k(seq, 2)
        assert truncated is True
        assert ell == 5  # last index + 1

    def test_dependent_base_rejected(self):
        seq = fixture_seq([P(1, 0, 1), P(2, 0, 2), P(0, 1, 1)], 2)
        with pytest.raises(DependentBase):
            ell_of_k(seq, 2)

    def test_good_iff_ell_kplus1_on_oracle(self):
        seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 200)
        enrich_independence(seq)
        for k in range(2, len(seq.records)):
            good = seq.record(k).good
            ell, truncated = ell_of_k(seq, k)
            if not truncated:
                assert good == (ell == k + 1)
            else:
                assert not good


class TestVSets:
    def test_singleton_for_n2(self):
        vs = v_set(P(-2, 0, 1), 2)
        assert [p.coeffs for p in vs.elements] == [(-2, 0, 1)]

    def test_two_independent_quadratics(self):
        a, b = v_set(P(-2, 0, 1), 2), v_set(P(-3, 1, 1), 2)
        assert span_dim_union([a, b]) == 2  # = 2n-2

    def test_two_distinct_cubics_span_4(self):
        # n=3: irreducible cubics P, Q with V-sets {P, TP}, {Q, TQ}
        p, q = P(-2, 0, 0, 1), P(-3, 1, 0, 1)
        assert is_irreducible_deg_n(p, 3) and is_irreducible_deg_n(q, 3)
        assert span_dim_union([v_set(p, 3), v_set(q, 3)]) == 4  # = 2n-2

    def test_three_independent_cubics_span_all(self):
        # three linearly independent irreducible cubics span dim 2n-1 = 5
        p, q, r = P(-2, 0, 0, 1), P(-3, 1, 0, 1), P(-5, 0, 1, 1)
        assert rank_of_polys([p, q, r], 3) == 3
        for c in (p, q, r):
            assert is_irreducible_deg_n(c, 3)
        assert span_dim_union([v_set(p, 3), v_set(q, 3), v_set(r, 3)]) == 5

    def test_heights_uniform(self):
        vs = v_set(P(-3, 1, 1), 3)
        heights = {p.height() for p in vs.elements}
        assert heights == {3}


class TestIrreducibility:
    @pytest.mark.parametrize("coeffs,n,expected", [
        ((-2, 0, 1), 2, True),    # T^2 - 2
        ((-1, 0, 1), 2, False),   # (T-1)(T+1)
        ((4, 2), 2, False),       # degree 1 != 2, content 2
        ((4, 2), 1, True),        # 2(T+2): content removed, degree 1
        ((-2, 0, 0, 1), 3, True),
        ((1, 2, 1), 2, False),    # (T+1)^2
        ((-12, -2, 17, -8, 1), 4, False),  # has the rational root 3
        ((-2, 0, 0, 0, 1), 4, True),       # T^4 - 2, Eisenstein at 2
        ((0, -1, 4, -4, 1), 4, False),     # T(T-1)(T^2-3T+1)
    ])
    def test_cases(self, coeffs, n, expected):
        assert is_irreducible_deg_n(P(*coeffs), n) is expected

    def test_lemma_spans_on_oracle_sequence(self):
        # consecutive irreducible records span the expected dimensions
        seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 200)
        enrich_independence(seq)
        n = seq.n
        for k in range(2, len(seq.records) + 1):
            a, b = seq.record(k - 1).poly, seq.record(k).poly
            if is_irreducible_deg_n(a, n) and is_irreducible_deg_n(b, n):
                assert span_dim_union([v_set(a, n), v_set(b, n)]) == 2 * n - 2
        for k in range(2, len(seq.records)):
            if not seq.record(k).good:
                continue
            triple = [seq.record(j).poly for j in (k - 1, k, k + 1)]
            if all(is_irreducible_deg_n(p, n) for p in triple):
                assert span_dim_union([v_set(p, n) for p in triple]) == 2 * n - 1
