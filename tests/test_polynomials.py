"""Polynomial containers: arithmetic, shifts."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vlab.polynomials import IntPolynomial, taylor_shift
from reference import eval_fraction

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6)


class TestIntPolynomial:
    def test_strips_trailing_zeros(self):
        p = IntPolynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2) and p.degree == 1

    def test_height_and_content(self):
        p = IntPolynomial([6, -9, 3])
        assert p.height() == 9
        assert p.content() == 3
        assert p.primitive().coeffs == (2, -3, 1)

    def test_shift_degree(self):
        p = IntPolynomial([1, 2])
        assert p.shift_degree(2).coeffs == (0, 0, 1, 2)

    @given(coeffs=coeff_lists, c=st.integers(min_value=-5, max_value=5),
           x=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=80)
    def test_taylor_shift_agrees_with_evaluation(self, coeffs, c, x):
        p = IntPolynomial(coeffs)
        shifted = taylor_shift(p, c)
        assert eval_fraction(shifted, Fraction(x)) == eval_fraction(p, Fraction(x + c))

    def test_vector_padding(self):
        assert IntPolynomial([1, 2]).vector(3) == (1, 2, 0, 0)

    def test_pretty(self):
        assert IntPolynomial([3, -2]).pretty() == "3 - 2*T"
        assert IntPolynomial([0, 1, 0, -1]).pretty() == "T - T^3"
        assert IntPolynomial([]).pretty() == "0"

    def test_rem_and_gcd(self):
        # gcd((T-1)(T-2), (T-1)(T-3)) = T - 1 (primitive, leading term positive)
        a = IntPolynomial([2, -3, 1])
        b = IntPolynomial([3, -4, 1])
        assert a.gcd(b).coeffs == (-1, 1)
        # gcd((2T-1)(T+1), -(2T-1)(T-3)) = 2T - 1
        assert IntPolynomial([-1, 1, 2]).gcd(IntPolynomial([-3, 7, -2])).coeffs == (-1, 2)
        # rem(T^2 - 3T + 2, 2T - 3) is the value at 3/2, -1/4; primitive: -1
        assert a.rem(IntPolynomial([-3, 2])).coeffs == (-1,)

    def test_squarefree_part(self):
        # (T-1)^2 (T+2) -> (T-1)(T+2)
        p = IntPolynomial([2, -3, 0, 1])
        sf = p.squarefree_part()
        assert sf.coeffs == (-2, 1, 1)
        assert sf.sign_at(Fraction(1)) == 0 and sf.sign_at(Fraction(-2)) == 0

    def test_mul_pow(self):
        x_minus_2 = IntPolynomial([-2, 1])
        assert (x_minus_2 ** 3).coeffs == (-8, 12, -6, 1)
        assert (x_minus_2 * IntPolynomial([0, 3])).coeffs == (0, -6, 3)
