"""Sturm counts and bisection refinement, exact rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vlab import rootisolation
from vlab.enclosure import RealEnclosure
from vlab.errors import NoSignChange, ZeroPolynomial
from vlab.polynomials import IntPolynomial
from vlab.rootisolation import (
    cauchy_root_bound,
    count_roots_open,
    poly_eval_enclosure,
    refine_root,
    sturm_chain,
)
from reference import eval_fraction, fraction_isolate_roots, fraction_refine_root


def poly(*coeffs):
    """Constant-first integer polynomial."""
    return IntPolynomial(coeffs)


def all_real_roots(p):
    """Isolating intervals of every real root of p, by the reference."""
    bound = cauchy_root_bound(p)
    return fraction_isolate_roots(p, -bound, bound)


def real_root_count(p):
    """Distinct real roots of p: the Sturm count on (-B, B), B the Cauchy bound."""
    bound = cauchy_root_bound(p)
    return count_roots_open(sturm_chain(p), -bound, bound)


class TestIsolation:
    """Count, then refine: a Sturm count of one root in a window, then
    bisection of the window."""

    def test_sqrt2(self):
        p = poly(-2, 0, 1)
        assert count_roots_open(sturm_chain(p), 0, 2) == 1
        root = refine_root(p, (0, 2), Fraction(1, 10**9))
        assert root.lo() ** 2 < 2 < root.hi() ** 2

    def test_quartic_with_rational_roots(self):
        # T(T-1)(T^2 - 3T + 1): roots 0, 1, (3±sqrt5)/2
        p = poly(0, -1, 4, -4, 1)
        ivs = fraction_isolate_roots(p, -1, 3)
        assert len(ivs) == 4 == real_root_count(p)
        # the isolation marks the rational roots 0 and 1 as (r, r); refine_root
        # takes only brackets
        refined = [refine_root(p, iv, Fraction(1, 10**9)) if iv[0] < iv[1]
                   else RealEnclosure.exact(iv[0]) for iv in ivs]
        mids = [float(r.mid) for r in refined]
        assert mids[0] == pytest.approx(0.0, abs=1e-9)
        assert mids[1] == pytest.approx((3 - 5 ** 0.5) / 2, abs=1e-8)
        assert mids[2] == pytest.approx(1.0, abs=1e-9)
        assert mids[3] == pytest.approx((3 + 5 ** 0.5) / 2, abs=1e-8)

    def test_cubic_reference_value(self):
        # largest root of T^3 - 8T^2 + 18T - 9 is 4.3027756...
        p = poly(-9, 18, -8, 1)
        assert count_roots_open(sturm_chain(p), 4, 5) == 1
        root = refine_root(p, (4, 5), Fraction(1, 10**12))
        assert str(float(root.mid))[:6] == "4.3027"
        assert float(root.mid) == pytest.approx(4.302775637731994, abs=1e-11)

    def test_open_interval_excludes_endpoint_roots(self):
        chain = sturm_chain(poly(0, 1))  # T
        assert count_roots_open(chain, 0, 1) == 0
        assert count_roots_open(chain, -1, 0) == 0
        assert count_roots_open(chain, -1, 1) == 1

    def test_all_real_roots_squarefree_count(self):
        # (T-1)(T-2)(T-3)
        assert real_root_count(poly(-6, 11, -6, 1)) == 3

    def test_repeated_roots_counted_once(self):
        # (T-1)^2 (T+2)
        assert real_root_count(poly(2, -3, 0, 1)) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            cauchy_root_bound(poly())

    @given(roots=st.lists(st.integers(min_value=-30, max_value=30),
                          min_size=1, max_size=5, unique=True))
    @settings(max_examples=80)
    def test_isolates_hand_factored_products(self, roots):
        # build prod (T - r) directly
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        p = IntPolynomial(coeffs)
        chain = sturm_chain(p)
        assert real_root_count(p) == len(roots)
        for r in roots:
            assert count_roots_open(chain, r - Fraction(1, 2), r + Fraction(1, 2)) == 1
            assert count_roots_open(chain, r, r + Fraction(1, 2)) == 0


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=50)


def linear_factor(r: Fraction) -> IntPolynomial:
    """b T - a for r = a/b."""
    return IntPolynomial([-r.numerator, r.denominator])


class TestSignAt:
    @given(coeffs=st.lists(st.integers(-400, 400), max_size=7), x=small_fractions)
    @settings(max_examples=150)
    def test_matches_fraction_horner(self, coeffs, x):
        p = IntPolynomial(coeffs)
        v = eval_fraction(p, x)
        assert p.sign_at(x) == (v > 0) - (v < 0)

    @given(roots=st.lists(small_fractions, min_size=1, max_size=4),
           cofactor=st.lists(st.integers(-50, 50), min_size=1, max_size=3), pick=st.integers(0, 3))
    @settings(max_examples=100)
    def test_exact_rational_roots(self, roots, cofactor, pick):
        p = IntPolynomial(cofactor)
        for r in roots:
            p = p * linear_factor(r)
        r = roots[pick % len(roots)]
        assert p.sign_at(r) == 0 == eval_fraction(p, r)
        for x in (r + Fraction(1, 7), r - Fraction(3, 11)):
            v = eval_fraction(p, x)
            assert p.sign_at(x) == (v > 0) - (v < 0)

    @given(coeffs=st.lists(st.integers(-400, 400), max_size=7), x=small_fractions,
           scale=st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_ratio_need_not_be_reduced(self, coeffs, x, scale):
        p = IntPolynomial(coeffs)
        assert p.sign_at_ratio(x.numerator * scale, x.denominator * scale) == p.sign_at(x)


class _FractionPoly:
    """Rational polynomial, constant term first, with the Euclidean algorithm
    in ``Fraction``: the reference the fraction-free chain is checked against."""

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def sign_at(self, x):
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * x + c
        return (v > 0) - (v < 0)

    def sign_at_ratio(self, a, b):
        return self.sign_at(Fraction(a, b))

    def derivative(self):
        return _FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __neg__(self):
        return _FractionPoly([-c for c in self.coeffs])

    def rem(self, other):
        r = list(self.coeffs)
        d, lc = other.degree, other.coeffs[-1]
        while r and len(r) - 1 >= d:
            q = r[-1] / lc
            shift = len(r) - 1 - d
            for i, c in enumerate(other.coeffs):
                r[shift + i] -= q * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        return _FractionPoly(r)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.rem(b)
        return a if a.is_zero else _FractionPoly([c / a.coeffs[-1] for c in a.coeffs])

    def squarefree_part(self):
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        num, den = list(self.coeffs), g.coeffs
        out = [Fraction(0)] * (len(num) - len(den) + 1)
        for i in range(len(out) - 1, -1, -1):
            out[i] = num[i + len(den) - 1] / den[-1]
            for j, c in enumerate(den):
                num[i + j] -= out[i] * c
        return _FractionPoly(out)


def fraction_sturm_chain(p: IntPolynomial):
    """The Sturm chain by Euclid in ``Fraction``: f, f', -rem(...), ..."""
    f = _FractionPoly(p.coeffs).squarefree_part()
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-chain[-2].rem(chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


@st.composite
def int_polys(draw):
    """Integer polynomials of degree <= 8, half of them with planted rational
    roots (factors bT - a), some repeated."""
    p = IntPolynomial(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=9)))
    if draw(st.booleans()):
        p = IntPolynomial(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 3))):
            r = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 5)))
            p = p * linear_factor(r) ** draw(st.integers(1, 2))
    assume(not p.is_zero and p.degree <= 8)
    return p


class TestFractionFreeChain:
    @given(p=int_polys(), xs=st.lists(small_fractions, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_signs_match_fraction_euclid(self, p, xs):
        chain, ref = sturm_chain(p), fraction_sturm_chain(p)
        assert [q.degree for q in chain] == [q.degree for q in ref]
        for x in xs:
            assert [q.sign_at(x) for q in chain] == [q.sign_at(x) for q in ref]

    @given(p=int_polys())
    @settings(max_examples=150, deadline=None)
    def test_chain_is_that_of_the_squarefree_part(self, p):
        # member for member the remainder sequence of the squarefree part,
        # whether or not the sequence of (p, p') could be kept
        assert sturm_chain(p) == rootisolation._remainder_sequence(p.squarefree_part())

    @given(p=int_polys(), tol=st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**12)]))
    @settings(max_examples=100, deadline=None)
    def test_isolation_and_refinement_match_fraction_euclid(self, p, tol):
        chain, ref = sturm_chain(p), fraction_sturm_chain(p)
        bound = cauchy_root_bound(p)
        got = all_real_roots(p)
        assert (count_roots_open(chain, -bound, bound) == count_roots_open(ref, -bound, bound)
                == len(got))
        for a, b in got:
            if a < b:
                assert count_roots_open(chain, a, b) == count_roots_open(ref, a, b) == 1
        # refine on the squarefree parts: a root of even multiplicity has no
        # sign change for refine_root to bisect, and an exact root (r, r) is
        # no bracket
        f, ref = p.squarefree_part(), _FractionPoly(p.coeffs).squarefree_part()
        for iv in got:
            if iv[0] < iv[1]:
                assert refine_root(f, iv, tol) == refine_root(ref, iv, tol)


def _refined(refine, p, iv, tol):
    """The ball ``refine`` returns, or the class of the error it raises."""
    try:
        return refine(p, iv, tol)
    except (NoSignChange, ValueError) as err:
        return type(err)


tols = st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**12), Fraction(3, 10**7),
                        Fraction(1, 3**30), Fraction(1, 2**20)])


class TestIntegerBisection:
    """``refine_root`` on integer numerators gives, ball for ball (or error
    for error), the bisection in ``Fraction`` of ``reference.py``."""

    @given(p=int_polys(), tol=tols)
    @settings(max_examples=150, deadline=None)
    def test_isolating_intervals(self, p, tol):
        # the squarefree part changes sign across each isolating bracket
        f = p.squarefree_part()
        for iv in all_real_roots(p):
            if iv[0] < iv[1]:
                assert refine_root(f, iv, tol) == fraction_refine_root(f, iv, tol)

    @given(p=int_polys(), a=small_fractions, width=st.fractions(0, 10, max_denominator=10**6),
           tol=tols)
    @settings(max_examples=200, deadline=None)
    def test_any_rational_interval(self, p, a, width, tol):
        # non-dyadic ends of opposite sign, isolating or not: the same steps
        # on both sides.  Where p keeps its sign, a factor (T - r) with r
        # inside flips it at a alone.
        b = a + width
        assume(width > 0 and p.sign_at(a) and p.sign_at(b))
        if p.sign_at(a) == p.sign_at(b):
            p = p * linear_factor(a + width / 3)
        iv = (a, b)
        assert _refined(refine_root, p, iv, tol) == _refined(fraction_refine_root, p, iv, tol)

    @given(a=small_fractions, width=st.fractions(1, 5, max_denominator=1000),
           k=st.integers(1, 30), j=st.integers(0, 2**30), cofactor=st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_root_hit_by_a_midpoint(self, a, width, k, j, cofactor):
        # r is the k-th level midpoint a + width (2j+1)/2^k: the bisection
        # reaches it and returns the exact ball
        r = a + width * Fraction(2 * (j % 2**(k - 1)) + 1, 2**k)
        p = linear_factor(r) * poly(cofactor, 0, 1)
        tol = width / 2**(k + 2)
        got = refine_root(p, (a, a + width), tol)
        assert got == fraction_refine_root(p, (a, a + width), tol)
        assert got.is_exact and got.mid == r

    @given(r=small_fractions, d=st.tuples(st.integers(2, 10**6), st.integers(2, 10**6)),
           tol=tols)
    @settings(max_examples=100, deadline=None)
    def test_even_multiplicity(self, r, d, tol):
        # (bT - a)^2 (T^2 + 1) keeps its sign: no bracket on either side,
        # while its squarefree part is bisected to the same ball
        p = linear_factor(r) ** 2 * poly(1, 0, 1)
        iv = (r - Fraction(1, d[0]), r + Fraction(1, d[1]))
        for refine in (refine_root, fraction_refine_root):
            with pytest.raises(NoSignChange, match="no strict sign change"):
                refine(p, iv, tol)
        got = refine_root(p.squarefree_part(), iv, tol)
        assert got == fraction_refine_root(p.squarefree_part(), iv, tol)
        assert got.contains(r) and got.rad <= tol

    def test_stops_at_width_twice_tol(self):
        # 19 halvings make (1, 2) exactly 2 tol wide: no 20th step
        tol = Fraction(1, 2**20)
        got = refine_root(poly(-2, 0, 1), (1, 2), tol)
        assert got == fraction_refine_root(poly(-2, 0, 1), (1, 2), tol) and got.rad == tol

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sigma_bracket(self, n):
        from vlab.bounds import DEFAULT_TOL, sigma_poly
        eps = Fraction(1, 10**6)
        iv = (n + eps, 2 * n - 1 - eps)
        assert (refine_root(sigma_poly(n), iv, DEFAULT_TOL)
                == fraction_refine_root(sigma_poly(n), iv, DEFAULT_TOL))


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

    def test_even_multiplicity_roots(self):
        # (T - 1)^2 (T - 3) keeps its sign across 1: no bracket there, while
        # the odd root 3 and the squarefree part's root 1 are bisected
        p = poly(-1, 1) ** 2 * poly(-3, 1)
        tol = Fraction(1, 10**9)
        around_1, around_3 = (Fraction(1, 3), Fraction(3, 2)), (Fraction(5, 2), Fraction(7, 2))
        with pytest.raises(NoSignChange):
            refine_root(p, around_1, tol)
        for f, iv, root in ((p.squarefree_part(), around_1, 1), (p, around_3, 3)):
            ball = refine_root(f, iv, tol)
            assert ball.contains(root) and ball.rad <= tol
        with pytest.raises(NoSignChange):
            refine_root(p, (Fraction(3, 2), Fraction(5, 2)), tol)  # no root inside

    def test_not_isolating(self):
        # no real root, a root at an end, a degenerate interval: no sign
        # change across the ends, so nothing to bisect
        for p, iv in ((poly(1, 0, 1), (0, 1)), (poly(-1, 1), (1, 2)), (poly(-1, 1), (1, 1))):
            with pytest.raises(NoSignChange, match="no strict sign change"):
                refine_root(p, iv, Fraction(1, 100))

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
        assert ball.contains(eval_fraction(p, x))


def test_cauchy_bound():
    p = poly(-6, 11, -6, 1)
    b = cauchy_root_bound(p)
    assert b >= 3


def test_sturm_chain_endpoints():
    p = poly(-2, 0, 1)
    chain = sturm_chain(p)
    assert chain[0].degree == 2
    assert chain[-1].degree == 0
