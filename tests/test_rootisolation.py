"""Sturm isolation and bisection refinement, exact rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlab.enclosure import RealEnclosure
from vlab.errors import NotIsolating, ZeroPolynomial
from vlab.polynomials import IntPolynomial, RationalPolynomial
from vlab.rootisolation import (
    cauchy_root_bound,
    isolate_all_real_roots,
    isolate_roots,
    poly_eval_enclosure,
    refine_root,
    sturm_chain,
)


def poly(*coeffs):
    """Constant-first rational polynomial."""
    return RationalPolynomial(coeffs)


class TestIsolation:
    def test_sqrt2(self):
        ivs = isolate_roots(poly(-2, 0, 1), 0, 2)
        assert len(ivs) == 1
        a, b = ivs[0]
        assert a * a < 2 < b * b

    def test_quartic_with_rational_roots(self):
        # T(T-1)(T^2 - 3T + 1): roots 0, 1, (3±sqrt5)/2
        p = poly(0, -1, 4, -4, 1)
        ivs = isolate_roots(p, -1, 3)
        assert len(ivs) == 4
        refined = [refine_root(p, iv, Fraction(1, 10**9)) for iv in ivs]
        mids = [float(r.mid) for r in refined]
        assert mids[0] == pytest.approx(0.0, abs=1e-9)
        assert mids[1] == pytest.approx((3 - 5 ** 0.5) / 2, abs=1e-8)
        assert mids[2] == pytest.approx(1.0, abs=1e-9)
        assert mids[3] == pytest.approx((3 + 5 ** 0.5) / 2, abs=1e-8)

    def test_cubic_reference_value(self):
        # largest root of T^3 - 8T^2 + 18T - 9 is 4.3027756...
        p = poly(-9, 18, -8, 1)
        ivs = isolate_roots(p, 4, 5)
        assert len(ivs) == 1
        root = refine_root(p, ivs[0], Fraction(1, 10**12))
        assert str(float(root.mid))[:6] == "4.3027"
        assert float(root.mid) == pytest.approx(4.302775637731994, abs=1e-11)

    def test_open_interval_excludes_endpoint_roots(self):
        p = poly(0, 1)  # T
        assert isolate_roots(p, 0, 1) == []
        assert len(isolate_roots(p, -1, 1)) == 1

    def test_all_real_roots_squarefree_count(self):
        # (T-1)(T-2)(T-3)
        p = poly(-6, 11, -6, 1)
        ivs = isolate_all_real_roots(p)
        assert len(ivs) == 3

    def test_repeated_roots_counted_once(self):
        # (T-1)^2 (T+2)
        p = poly(2, -3, 0, 1)
        ivs = isolate_all_real_roots(p)
        assert len(ivs) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_roots(poly(), 0, 1)

    @given(roots=st.lists(st.integers(min_value=-30, max_value=30),
                          min_size=1, max_size=5, unique=True))
    @settings(max_examples=80)
    def test_isolates_hand_factored_products(self, roots):
        # build prod (T - r) directly
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        p = RationalPolynomial(coeffs)
        ivs = isolate_all_real_roots(p)
        assert len(ivs) == len(roots)
        for (a, b), r in zip(ivs, sorted(roots)):
            assert a <= r <= b


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=50)


class TestSignAt:
    @given(coeffs=st.lists(small_fractions, max_size=7), x=small_fractions)
    @settings(max_examples=150)
    def test_matches_fraction_horner(self, coeffs, x):
        p = RationalPolynomial(coeffs)
        v = p(x)
        assert p.sign_at(x) == (v > 0) - (v < 0)

    @given(roots=st.lists(small_fractions, min_size=1, max_size=4),
           cofactor=st.lists(small_fractions, min_size=1, max_size=3), pick=st.integers(0, 3))
    @settings(max_examples=100)
    def test_exact_rational_roots(self, roots, cofactor, pick):
        p = RationalPolynomial(cofactor)
        for r in roots:
            p = p * RationalPolynomial([-r, 1])
        r = roots[pick % len(roots)]
        assert p.sign_at(r) == 0 == p(r)
        for x in (r + Fraction(1, 7), r - Fraction(3, 11)):
            v = p(x)
            assert p.sign_at(x) == (v > 0) - (v < 0)


class TestRefine:
    def test_golden(self):
        p = poly(1, -3, 1)  # T^2 - 3T + 1
        root = refine_root(p, (2, 3), Fraction(1, 10**12))
        want = (3 + 5 ** 0.5) / 2
        assert float(root.mid) == pytest.approx(want, abs=1e-11)
        assert root.rad <= Fraction(1, 10**12)

    def test_exact_rational_root(self):
        root = refine_root(poly(-5, 1), (4, 6), Fraction(1, 10**12))
        assert root.is_exact and root.mid == 5

    def test_not_isolating(self):
        with pytest.raises(NotIsolating):
            refine_root(poly(1, 0, 1), (0, 1), Fraction(1, 100))  # no real roots

    def test_monotone_shrink(self):
        p = poly(-2, 0, 1)
        loose = refine_root(p, (1, 2), Fraction(1, 10**3))
        tight = refine_root(p, (1, 2), Fraction(1, 10**9))
        assert loose.lo() <= tight.lo() and tight.hi() <= loose.hi()
        assert tight.rad <= Fraction(1, 10**9)

    def test_quartic_paper_value(self):
        p = poly(-12, -2, 17, -8, 1)
        root = refine_root(p, (4, 5), Fraction(1, 10**12))
        assert str(float(root.mid))[:6] == "4.3234"


class TestEvalEnclosure:
    def test_root_of_linear(self):
        ball = poly_eval_enclosure(IntPolynomial([-1, 1]), RealEnclosure.exact(1, 64))
        assert ball.is_exact and ball.mid == 0

    def test_sqrt2_in_quadratic(self):
        from vlab.enclosure import nth_root
        x = nth_root(Fraction(2), 2, 64)
        ball = poly_eval_enclosure(IntPolynomial([-2, 0, 1]), x)
        assert ball.contains(0)
        assert ball.rad <= Fraction(1, 2**58)

    def test_linear_value(self):
        from vlab.enclosure import nth_root
        x = nth_root(Fraction(2), 2, 128)
        ball = poly_eval_enclosure(IntPolynomial([-3, 2]), x)
        # 2*sqrt(2) - 3 = -0.17157...
        assert float(ball.mid) == pytest.approx(2 * 2 ** 0.5 - 3, abs=1e-12)

    @given(coeffs=st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=1, max_size=6),
           num=st.integers(min_value=-1000, max_value=1000),
           den=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=80)
    def test_contains_exact_rational_eval(self, coeffs, num, den):
        p = IntPolynomial(coeffs)
        x = Fraction(num, den)
        ball = poly_eval_enclosure(p, RealEnclosure(x, Fraction(1, 10**6), 96))
        assert ball.contains(p.eval_fraction(x))


def test_cauchy_bound():
    p = poly(-6, 11, -6, 1)
    b = cauchy_root_bound(p)
    assert b >= 3


def test_sturm_chain_endpoints():
    p = poly(-2, 0, 1)
    chain = sturm_chain(p)
    assert chain[0].degree == 2
    assert chain[-1].degree == 0
