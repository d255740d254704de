"""Integer k-th roots: the floor root, its old power-of-two Newton start as
the reference, and large k within a time bound."""

import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vlab.enclosure import iroot, nth_root


def iroot_from_power_of_two(x: int, k: int) -> int:
    """floor(x ** (1/k)) by integer Newton from 2^(bitlen(x)//k + 1)."""
    if x == 0:
        return 0
    if k == 1:
        return x
    r = 1 << (x.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


radicands = st.integers(min_value=0, max_value=3000).flatmap(
    lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1))


@given(x=radicands, k=st.integers(min_value=1, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_floor_root(x, k):
    r = iroot(x, k)
    assert r ** k <= x < (r + 1) ** k


@given(x=radicands, k=st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_matches_power_of_two_start(x, k):
    assert iroot(x, k) == iroot_from_power_of_two(x, k)


@given(b=st.integers(min_value=1, max_value=10**30), k=st.integers(min_value=2, max_value=60),
       d=st.sampled_from([-1, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_perfect_powers_and_neighbours(b, k, d):
    x = b ** k + d
    assert iroot(x, k) == (b if d >= 0 else b - 1)


def test_large_index_is_fast():
    start = time.perf_counter()
    ball = nth_root(Fraction(3), 3000, 256)
    assert time.perf_counter() - start < 2.0
    assert ball.lo() ** 3000 <= 3 <= ball.hi() ** 3000
    # a 258-bit root of a 2.6M-bit radicand: the precision-doubling start
    # leaves one or two full-size Newton steps
    start = time.perf_counter()
    ball = nth_root(Fraction(3), 10000, 256)
    assert time.perf_counter() - start < 2.0
    assert ball.lo() ** 10000 <= 3 <= ball.hi() ** 10000


@given(a=st.integers(min_value=0, max_value=10**6), j=st.integers(min_value=0, max_value=40),
       k=st.sampled_from([1, 2, 3, 7, 61, 1000]))
@settings(max_examples=100, deadline=None)
def test_perfect_powers_come_back_exact(a, j, k):
    # a/2^j has at most 42 fractional bits, within the 66 of a 64-bit root
    root = Fraction(a, 1 << j)
    ball = nth_root(root ** k, k, 64)
    assert ball.is_exact and ball.mid == root


@given(a=st.integers(min_value=1, max_value=10**6), k=st.sampled_from([2, 3, 7, 61]))
@settings(max_examples=100, deadline=None)
def test_near_perfect_powers_are_not_exact(a, k):
    # one off a perfect power: no root of 66 bits is exact, the residue
    # test or the full power must say so
    for value in (Fraction(a) ** k + 1, Fraction(a) ** k - 1):
        if value > 0:
            ball = nth_root(value, k, 64)
            assert not ball.is_exact
            assert ball.lo() ** k <= value <= ball.hi() ** k
