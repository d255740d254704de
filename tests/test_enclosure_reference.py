"""The integer ball kernel against the ``Fraction`` reference it replaced.

Every operation of ``vlab.enclosure`` must return the same reduced rational
midpoint and radius and the same precision as ``enclosure_reference``, or
raise the same exception class, so that every output of the laboratory
stays byte-identical.  The balls cover dyadic and non-dyadic midpoints,
zero and nonzero radii, the precisions the pipeline uses and mixed-precision
joins, midpoints exactly half an ulp from the bits + 32 grid, large
exponent gaps and negative midpoints.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import enclosure_reference as ref
from vlab import enclosure as enc

PRECISIONS = (None, 64, 96, 192)


def to_new(triple):
    return enc.RealEnclosure(*triple)


def to_ref(triple):
    return ref.RealEnclosure(*triple)


def outcome(fn, *args):
    """What a call returns, as comparable data, or the class it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class is what is compared
        return ("raises", type(exc))
    if isinstance(result, enc.RealEnclosure):
        # the stored pairs are in lowest terms with positive denominators
        for n, d in ((result._mn, result._md), (result._rn, result._rd)):
            assert d > 0 and math.gcd(n, d) == 1
        assert type(result.mid) is Fraction and type(result.rad) is Fraction
    if isinstance(result, (enc.RealEnclosure, ref.RealEnclosure)):
        return ("ball", result.mid, result.rad, result.precision_bits)
    return ("value", result)


def same(new_fn, ref_fn, *args):
    assert outcome(new_fn, *args) == outcome(ref_fn, *args)


@st.composite
def rationals(draw, max_exp=700):
    kind = draw(st.sampled_from(["dyadic", "rational", "int", "zero", "wide"]))
    if kind == "dyadic":
        return Fraction(draw(st.integers(-(1 << 300), 1 << 300)),
                        1 << draw(st.integers(0, max_exp)))
    if kind == "rational":
        return draw(st.fractions(min_value=-10**6, max_value=10**6,
                                 max_denominator=10**40))
    if kind == "int":
        return Fraction(draw(st.integers(-10**30, 10**30)))
    if kind == "wide":
        # a large exponent gap: a long numerator over a deep power of two
        return Fraction(draw(st.integers(-(1 << 900), 1 << 900)),
                        1 << draw(st.integers(0, 2000)))
    return Fraction(0)


@st.composite
def radii(draw):
    kind = draw(st.sampled_from(["zero", "dyadic", "short", "rational"]))
    if kind == "dyadic":
        return Fraction(draw(st.integers(1, 1 << 200)), 1 << draw(st.integers(0, 600)))
    if kind == "short":
        return Fraction(draw(st.integers(1, 1 << 16)), 1 << draw(st.integers(0, 300)))
    if kind == "rational":
        return draw(st.fractions(min_value=0, max_value=10, max_denominator=10**30))
    return Fraction(0)


@st.composite
def half_ulp_mids(draw, bits):
    """A midpoint exactly half an ulp of 2^-(bits + 32) off the grid."""
    grid = bits + 32
    odd = 2 * draw(st.integers(-(1 << 260), 1 << 260)) + 1
    return Fraction(odd, 1 << (grid + 1))


@st.composite
def balls(draw):
    bits = draw(st.sampled_from(PRECISIONS))
    if bits is not None and draw(st.integers(0, 4)) == 0:
        mid = draw(half_ulp_mids(bits))
    else:
        mid = draw(rationals())
    return mid, draw(radii()), bits


scalars = st.one_of(st.integers(-10**6, 10**6),
                    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9))


class TestRounding:
    @given(x=rationals(), r=radii(), bits=st.integers(0, 800))
    @example(x=Fraction(3, 4), r=Fraction(0), bits=1)
    @example(x=Fraction(-3, 4), r=Fraction(1, 3), bits=1)
    @example(x=Fraction(-5, 1 << 300), r=Fraction(1, 1 << 299), bits=298)
    @settings(max_examples=300, deadline=None)
    def test_dyadic_round_and_ceil(self, x, r, bits):
        # the fixed-point view of a ball: its rounded midpoint, and the
        # ceiling of its radius plus the rounding error
        q, err = enc.fixed_point(enc.RealEnclosure(x, r), bits)
        mid = ref.dyadic_round(x, bits)
        assert Fraction(q, 1 << bits) == mid
        assert Fraction(err, 1 << bits) == ref.dyadic_ceil(r + abs(x - mid), bits)
        ceil = enc._ceil(x.numerator, x.denominator, bits)
        assert Fraction(ceil, 1 << bits) == ref.dyadic_ceil(x, bits)

    @given(r=radii())
    @example(r=Fraction(3, 7))
    @example(r=Fraction(1 << 20, 3))
    @settings(max_examples=300, deadline=None)
    def test_radius_up(self, r):
        assert Fraction(*enc._radius_up(r.numerator, r.denominator)) == ref._radius_up(r)


class TestRingOperations:
    @given(a=balls(), b=balls())
    @settings(max_examples=300, deadline=None)
    def test_binary(self, a, b):
        x, y = to_new(a), to_new(b)
        u, v = to_ref(a), to_ref(b)
        for new_op, ref_op in (
            (lambda: x + y, lambda: u + v),
            (lambda: x - y, lambda: u - v),
            (lambda: x * y, lambda: u * v),
            (lambda: x / y, lambda: u / v),
            (lambda: x.max(y), lambda: ref.ball_max(u, v)),
            (lambda: x.strictly_less(y), lambda: u.strictly_less(v)),
        ):
            same(new_op, ref_op)

    @given(a=balls(), c=scalars)
    @settings(max_examples=200, deadline=None)
    def test_with_numbers(self, a, c):
        x, u = to_new(a), to_ref(a)
        for new_op, ref_op in (
            (lambda: x + c, lambda: u + c),
            (lambda: c + x, lambda: c + u),
            (lambda: x - c, lambda: u - c),
            (lambda: c - x, lambda: c - u),
            (lambda: x * c, lambda: u * c),
            (lambda: c * x, lambda: c * u),
            (lambda: x / c, lambda: u / c),
            (lambda: c / x, lambda: c / u),
            (lambda: x.strictly_less(c), lambda: u.strictly_less(c)),
            (lambda: x.contains(c), lambda: u.contains(c)),
        ):
            same(new_op, ref_op)

    @given(a=balls(), bits=st.sampled_from(PRECISIONS))
    @settings(max_examples=200, deadline=None)
    def test_unary(self, a, bits):
        x, u = to_new(a), to_ref(a)
        for new_op, ref_op in (
            (lambda: -x, lambda: -u),
            (lambda: abs(x), lambda: abs(u)),
            (lambda: x.compress(bits), lambda: u.compress(bits)),
            (x.sign, u.sign),
            (x.lo, u.lo),
            (x.hi, u.hi),
            (lambda: float(x), lambda: float(u)),
            (lambda: x.is_exact, lambda: u.is_exact),
        ):
            same(new_op, ref_op)

    @given(mid=rationals(), rad=radii(), bits=st.sampled_from(PRECISIONS))
    @settings(max_examples=150, deadline=None)
    def test_straddling_and_touching_zero(self, mid, rad, bits):
        # balls with |mid| = rad touch zero; with |mid| < rad they straddle it
        for m in (rad, -rad, mid / 2 if abs(mid) < rad else rad / 3):
            a = (m, rad, bits)
            x, u = to_new(a), to_ref(a)
            same(lambda: abs(x), lambda: abs(u))
            same(lambda: 1 / x, lambda: 1 / u)
            same(lambda: enc.ln(x), lambda: ref.ln(u))
            same(x.sign, u.sign)

    @given(lo=rationals(), hi=rationals(), bits=st.sampled_from(PRECISIONS))
    @settings(max_examples=150, deadline=None)
    def test_from_endpoints(self, lo, hi, bits):
        same(enc.RealEnclosure.from_endpoints, ref.RealEnclosure.from_endpoints, lo, hi, bits)

    @given(a=balls(), b=balls())
    @settings(max_examples=150, deadline=None)
    def test_mixed_precision_products_and_quotients_chain(self, a, b):
        x, y = to_new(a), to_new(b)
        u, v = to_ref(a), to_ref(b)
        same(lambda: (x * y + x) * (y - 3), lambda: (u * v + u) * (v - 3))
        same(lambda: (x + y) / (abs(y) + 1), lambda: (u + v) / (abs(v) + 1))


positive = st.one_of(
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**30),
    st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(1, 1 << 400),
              st.integers(0, 900)),
    st.integers(1, 10**40),
)


class TestTranscendental:
    @given(y=positive, bits=st.sampled_from([48, 64, 96, 160, 192]))
    @example(y=3, bits=64)  # z = 3/2 exactly: the reduction halves it
    @example(y=Fraction(3, 1 << 70), bits=192)
    @settings(max_examples=150, deadline=None)
    def test_ln_fraction(self, y, bits):
        same(enc.ln_fraction, ref.ln_fraction, y, bits)

    @given(y=st.fractions(max_value=0, max_denominator=100), bits=st.sampled_from([64, 96]))
    @settings(max_examples=30, deadline=None)
    def test_ln_fraction_domain(self, y, bits):
        same(enc.ln_fraction, ref.ln_fraction, y, bits)

    @given(mid=positive, rad=radii(), bits=st.sampled_from(PRECISIONS),
           at=st.sampled_from([None, 64, 160, 192]))
    @settings(max_examples=150, deadline=None)
    def test_ln_ball(self, mid, rad, bits, at):
        a = (Fraction(mid), rad, bits)
        same(lambda: enc.ln(to_new(a), at), lambda: ref.ln(to_ref(a), at))

    @given(y=st.one_of(st.fractions(min_value=-3000, max_value=3000, max_denominator=10**12),
                       st.integers(-3000, 3000),
                       st.builds(lambda n, k: Fraction(n, 1 << k),
                                 st.integers(-(1 << 80), 1 << 80), st.integers(60, 400))),
           bits=st.sampled_from([48, 96, 192]))
    @example(y=Fraction(-2999, 1), bits=48)
    @example(y=Fraction(2999, 1), bits=192)
    @example(y=Fraction(-127, 2), bits=96)
    @settings(max_examples=150, deadline=None)
    def test_exp_fraction(self, y, bits):
        same(enc.exp_fraction, ref.exp_fraction, y, bits)

    @given(value=st.one_of(st.fractions(min_value=-5, max_value=10**6, max_denominator=10**6),
                           st.integers(0, 10**6).map(lambda v: v * v * v)),
           k=st.integers(1, 7), bits=st.sampled_from([16, 64, 192]))
    @settings(max_examples=100, deadline=None)
    def test_nth_root(self, value, k, bits):
        same(enc.nth_root, ref.nth_root, value, k, bits)

    def test_constants(self):
        for bits in (32, 64, 96, 192, 256):
            for name in ("e_constant", "pi_constant", "ln2_constant"):
                same(getattr(enc, name), getattr(ref, name), bits)
