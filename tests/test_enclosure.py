"""Ball arithmetic: soundness, constants, transcendental functions."""

import functools
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlab.enclosure import (
    RealEnclosure,
    _ceil,
    e_constant,
    exp_fraction,
    fixed_point,
    ln,
    ln2_constant,
    ln_fraction,
    nth_root,
    pi_constant,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)
small_rads = st.fractions(min_value=0, max_value=Fraction(1, 100), max_denominator=10**6)


def contains(ball: RealEnclosure, value: Fraction) -> bool:
    return ball.lo() <= value <= ball.hi()


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


class TestDyadic:
    def test_round_ties(self):
        # ties away from zero, in units of 2^-1, exact balls
        assert fixed_point(RealEnclosure.exact(Fraction(3, 4)), 1) == (2, 1)
        assert fixed_point(RealEnclosure.exact(Fraction(-3, 4)), 1) == (-2, 1)

    def test_ceil(self):
        # the radius rounding's ceiling, in units of 2^-4
        assert _ceil(1, 3, 4) == 6
        assert _ceil(-1, 3, 4) == -5


class TestArithmeticSoundness:
    @given(m1=rationals, r1=small_rads, m2=rationals, r2=small_rads,
           t1=st.fractions(min_value=-1, max_value=1, max_denominator=100),
           t2=st.fractions(min_value=-1, max_value=1, max_denominator=100))
    @settings(max_examples=200)
    def test_ring_ops_contain_exact_image(self, m1, r1, m2, r2, t1, t2):
        x = RealEnclosure(m1, r1, 128)
        y = RealEnclosure(m2, r2, 128)
        vx = m1 + r1 * t1  # arbitrary points of the two balls
        vy = m2 + r2 * t2
        assert contains(x + y, vx + vy)
        assert contains(x - y, vx - vy)
        assert contains(x * y, vx * vy)
        assert contains(-x, -vx)
        assert contains(abs(x), abs(vx))

    @given(m2=rationals, r2=small_rads,
           t2=st.fractions(min_value=-1, max_value=1, max_denominator=100))
    @settings(max_examples=100)
    def test_division_contains_exact_image(self, m2, r2, t2):
        y = RealEnclosure(m2, r2, 128)
        if y.lo() <= 0 <= y.hi():
            with pytest.raises(ZeroDivisionError):
                RealEnclosure.exact(1) / y
            return
        vy = m2 + r2 * t2
        assert contains(RealEnclosure.exact(1) / y, 1 / vy)

    def test_compress_keeps_exact_values_exact(self):
        x = RealEnclosure.exact(Fraction(5, 8), 64)
        assert x.compress().rad == 0
        assert x.compress().mid == Fraction(5, 8)

    def test_compress_sound(self):
        x = RealEnclosure(Fraction(1, 3), Fraction(1, 10**30), 64)
        c = x.compress()
        assert c.lo() <= Fraction(1, 3) <= c.hi()
        assert c.mid.denominator & (c.mid.denominator - 1) == 0


class TestComparisons:
    def test_sign(self):
        assert RealEnclosure(Fraction(1), Fraction(1, 2)).sign() == 1
        assert RealEnclosure(Fraction(-1), Fraction(1, 2)).sign() == -1
        assert RealEnclosure(Fraction(0), Fraction(1, 2)).sign() is None
        assert RealEnclosure.exact(0).sign() == 0

    def test_strictly_less(self):
        a = RealEnclosure(Fraction(1), Fraction(1, 10))
        b = RealEnclosure(Fraction(2), Fraction(1, 10))
        assert a.strictly_less(b) is True
        assert b.strictly_less(a) is False
        assert a.strictly_less(a) is None


class TestTranscendental:
    @pytest.mark.parametrize("bits", [32, 64, 128, 256])
    def test_constants_match_reference(self, bits):
        mpmath.mp.prec = bits + 64
        for ball, ref in [
            (e_constant(bits), mpmath.e),
            (pi_constant(bits), mpmath.pi),
            (ln2_constant(bits), mpmath.log(2)),
        ]:
            ref_frac = mpf_to_fraction(ref)
            assert contains(ball, ref_frac)
            assert ball.rad <= Fraction(2) ** (1 - bits)

    @given(y=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                          max_denominator=10**9))
    @settings(max_examples=60)
    def test_ln_fraction_sound_and_tight(self, y):
        ball = ln_fraction(y, 128)
        mpmath.mp.prec = 256
        ref = mpf_to_fraction(mpmath.log(mpmath.mpf(y.numerator) / y.denominator))
        # mpmath value is itself within 2^-200 of the truth; widen accordingly
        assert ball.lo() - Fraction(1, 2**200) <= ref <= ball.hi() + Fraction(1, 2**200)
        assert ball.rad <= Fraction(2) ** (-120)

    def test_ln_soundness_against_doubled_precision(self):
        y = Fraction(123456, 789)
        coarse = ln_fraction(y, 64)
        fine = ln_fraction(y, 256)
        assert coarse.lo() <= fine.mid <= coarse.hi()

    def test_ln_ball_radius_propagation(self):
        x = RealEnclosure(Fraction(3), Fraction(1, 1000), 96)
        ball = ln(x)
        for v in (x.lo(), x.hi()):
            ref = ln_fraction(v, 160)
            assert ball.lo() <= ref.mid <= ball.hi()

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln(RealEnclosure(Fraction(1, 10), Fraction(1), 64))

    @given(y=st.fractions(min_value=-20, max_value=20, max_denominator=10**6))
    @settings(max_examples=40)
    def test_exp_fraction_sound(self, y):
        ball = exp_fraction(y, 96)
        mpmath.mp.prec = 200
        ref = mpf_to_fraction(mpmath.exp(mpmath.mpf(y.numerator) / y.denominator))
        assert ball.lo() - abs(ref) / 2**150 <= ref <= ball.hi() + abs(ref) / 2**150

    @given(y=st.fractions(min_value=-64, max_value=64, max_denominator=10**6),
           bits=st.sampled_from([48, 96]))
    @example(y=Fraction(-64), bits=48)
    @example(y=Fraction(-127, 2), bits=96)
    @example(y=Fraction(64), bits=96)
    @settings(max_examples=80)
    def test_exp_fraction_keeps_relative_precision(self, y, bits):
        # e^y below 2^-(bits + guard) must not land on an absolute grid: the
        # radius stays relative to the value at both ends of the range
        ball = exp_fraction(y, bits)
        mpmath.mp.prec = 2 * bits + 200
        ref = mpf_to_fraction(mpmath.exp(mpmath.mpf(y.numerator) / y.denominator))
        assert contains(ball, ref)
        assert ball.rad <= abs(ball.mid) / 2**bits

    def test_exp_ln_roundtrip(self):
        back = ln(exp_fraction(Fraction(7, 3), 128))
        assert contains(back, Fraction(7, 3))
        assert back.rad < Fraction(1, 2**100)


class TestRoots:
    def test_sqrt2(self):
        ball = nth_root(Fraction(2), 2, 64)
        sq = ball * ball
        assert contains(sq, Fraction(2))
        assert ball.rad <= Fraction(2) ** (-63)

    def test_exact_square(self):
        ball = nth_root(Fraction(9), 2, 64)
        assert ball.is_exact and ball.mid == 3

    def test_exact_rational_root(self):
        ball = nth_root(Fraction(27, 8), 3, 64)
        assert ball.is_exact and ball.mid == Fraction(3, 2)

    @pytest.mark.parametrize("b,k", [(2, 2), (2, 3), (5, 2), (10, 7)])
    def test_kth_root_power_check(self, b, k):
        ball = nth_root(Fraction(b), k, 128)
        powered = functools.reduce(operator.mul, [ball] * k)
        assert contains(powered, Fraction(b))

    def test_monotone_refinement(self):
        coarse = nth_root(Fraction(2), 2, 32)
        fine = nth_root(Fraction(2), 2, 256)
        assert coarse.lo() <= fine.lo() and fine.hi() <= coarse.hi()


class TestBallContract:
    triples = st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                        st.fractions(min_value=0, max_value=2, max_denominator=8),
                        st.sampled_from([None, 64, 96]))

    @given(a=triples, b=triples)
    @example(a=(Fraction(1, 2), Fraction(0), 64), b=(Fraction(1, 2), Fraction(0), 64))
    @example(a=(Fraction(1, 2), Fraction(0), 64), b=(Fraction(1, 2), Fraction(0), None))
    @settings(max_examples=200)
    def test_equal_iff_mid_rad_precision_equal(self, a, b):
        x, y = RealEnclosure(*a), RealEnclosure(*b)
        assert (x == y) == (a == b)
        assert (x != y) == (a != b)
        assert hash(x) == hash(a)
        assert (x.mid, x.rad, x.precision_bits) == a

    def test_equal_however_built(self):
        half = RealEnclosure(Fraction(1, 2), Fraction(1, 8), 64)
        assert RealEnclosure(Fraction(2, 4), Fraction(3, 24), 64) == half
        assert RealEnclosure.from_scaled(4, 1, 8, 64) == half
        assert RealEnclosure.from_endpoints(Fraction(3, 8), Fraction(5, 8), 64) == half
        assert hash(RealEnclosure.from_scaled(4, 1, 8, 64)) == hash(half)
        assert half != (Fraction(1, 2), Fraction(1, 8), 64)
        assert len({half, RealEnclosure.from_scaled(4, 1, 8, 64)}) == 1

    def test_attributes_cannot_be_assigned(self):
        ball = RealEnclosure(Fraction(1, 3), Fraction(1, 100), 64)
        for name in ("mid", "rad", "precision_bits", "other"):
            with pytest.raises(AttributeError):
                setattr(ball, name, 1)
            with pytest.raises(AttributeError):
                delattr(ball, name)
        assert (ball.mid, ball.rad, ball.precision_bits) == (Fraction(1, 3), Fraction(1, 100), 64)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError, match="negative radius"):
            RealEnclosure(Fraction(1), Fraction(-1, 3))
        with pytest.raises(ValueError, match="negative radius"):
            RealEnclosure.from_scaled(1, -1, 4)

    def test_copies_and_pickles(self):
        import copy
        import pickle

        ball = RealEnclosure(Fraction(-7, 3), Fraction(1, 1 << 40), 96)
        assert copy.copy(ball) == ball
        assert copy.deepcopy(ball) == ball
        assert pickle.loads(pickle.dumps(ball)) == ball

    def test_mul_can_be_replaced_on_the_class_and_restored(self):
        # a tracer counts products by replacing the class attributes
        calls = []
        saved = RealEnclosure.__mul__, RealEnclosure.__rmul__

        def counted(self, other):
            calls.append(other)
            return saved[0](self, other)

        a = RealEnclosure(Fraction(3, 2), Fraction(1, 100), 64)
        expected = a * a
        try:
            setattr(RealEnclosure, "__mul__", counted)
            setattr(RealEnclosure, "__rmul__", counted)
            assert a * a == expected
            assert 2 * a == a * 2
        finally:
            setattr(RealEnclosure, "__mul__", saved[0])
            setattr(RealEnclosure, "__rmul__", saved[1])
        assert len(calls) == 3
        assert (RealEnclosure.__mul__, RealEnclosure.__rmul__) == saved
        assert a * a == expected
        assert len(calls) == 3
