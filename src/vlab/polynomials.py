"""Integer polynomials in one variable, coefficients constant-first.

``IntPolynomial`` is the atom of the whole laboratory: best approximation
candidates, their shifted copies ``T^i * P``, the inputs of every rank
computation, and the bound polynomials handed to root isolation.  Its
Euclidean operations (``rem``, ``gcd``, ``squarefree_part``) are
fraction-free: each returns a positive multiple of the result over the
rationals, so every sign a Sturm chain sees is the rational chain's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ZeroPolynomial


def _strip(coeffs: Sequence) -> tuple:
    """Drop trailing (highest-index) zeros."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, constant term first.

    The canonical sign convention used for serialized approximants (first
    nonzero coefficient positive) is applied by the search that makes them
    (``boxscan.completions``), not by the constructor, so
    intermediate arithmetic can hold either sign.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", _strip([int(c) for c in coeffs]))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def height(self) -> int:
        """Maximum absolute coefficient; 0 for the zero polynomial."""
        return max((abs(c) for c in self.coeffs), default=0)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self.coeffs])

    def shift_degree(self, i: int) -> "IntPolynomial":
        """Multiply by T^i."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * i + self.coeffs)

    def sign_at(self, x) -> int:
        """Exact sign (-1, 0 or +1) of the value at a rational x."""
        x = Fraction(x)
        return self.sign_at_ratio(x.numerator, x.denominator)

    def sign_at_ratio(self, a: int, b: int) -> int:
        """Exact sign of the value at a/b, for integers a and b > 0 (the
        fraction need not be in lowest terms).

        One integer homogeneous Horner pass: b^d * P(a/b) =
        sum_i c_i a^i b^(d-i), with the same sign as P(a/b).
        """
        acc = 0
        b_pow = 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * b_pow
            b_pow *= b
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        out = IntPolynomial([1])
        for _ in range(k):
            out = out * self
        return out

    def rem(self, other: "IntPolynomial") -> "IntPolynomial":
        """Primitive part of the pseudo-remainder of self by other (other
        nonzero), scaled by a power of |lc(other)|: a positive multiple of
        the remainder over the rationals."""
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        b = other.coeffs
        d = len(b) - 1
        lc = abs(b[-1])
        sign = 1 if b[-1] > 0 else -1
        r = list(self.coeffs)
        while len(r) - 1 >= d:
            # |lc| * r - sign * r_top * T^shift * other cancels the top term
            q = sign * r[-1]
            shift = len(r) - 1 - d
            r = [lc * c for c in r]
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        return IntPolynomial(r).primitive()

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Primitive gcd with positive leading coefficient (zero if both are)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.rem(b)
        a = a.primitive()
        return -a if a.coeffs and a.coeffs[-1] < 0 else a

    def squarefree_part(self) -> "IntPolynomial":
        """self / gcd(self, self'): a positive multiple of the rational
        squarefree part.  The divisor is primitive, so by Gauss's lemma the
        quotient is integral and the long division below is exact."""
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        num = list(self.coeffs)
        den = g.coeffs
        out = [0] * (len(num) - len(den) + 1)
        for i in range(len(out) - 1, -1, -1):
            q = num[i + len(den) - 1] // den[-1]
            out[i] = q
            for j, c in enumerate(den):
                num[i + j] -= q * c
        return IntPolynomial(out)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial([-c for c in other.coeffs])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial([k * c for c in self.coeffs])

    def vector(self, ambient_degree: int) -> tuple:
        """Coefficient vector padded to length ambient_degree + 1."""
        out = list(self.coeffs) + [0] * (ambient_degree + 1 - len(self.coeffs))
        return tuple(out)

    def pretty(self, var: str = "T") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = var if i == 1 else f"{var}^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def taylor_shift(poly: IntPolynomial, c: int) -> IntPolynomial:
    """P(T + c) by repeated synthetic division, exact."""
    coeffs = list(poly.coeffs)
    n = len(coeffs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            coeffs[j] += c * coeffs[j + 1]
    return IntPolynomial(coeffs)
