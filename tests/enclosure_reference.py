"""Reference ball arithmetic over ``Fraction`` values, for tests only.

This is the ``RealEnclosure`` of ``vlab.enclosure`` as it was before the
ball kernel moved onto integer pairs: a frozen dataclass whose midpoint and
radius are ``Fraction`` values, with the rounding helpers, ln,
``exp_fraction``, the constants and ``nth_root`` that ran on it, and the
two-ball maximum that ``paramgeom`` used to build with ``from_endpoints``.
The integer kernel must return the same reduced rationals, so
``tests/test_enclosure_reference.py`` compares the two operation by
operation.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from vlab.enclosure import iroot


_ZERO = Fraction(0)
_GUARD_BITS = 32


def dyadic_round(x: Fraction, bits: int) -> Fraction:
    """Nearest multiple of 2^-bits, ties away from zero (deterministic)."""
    num = x.numerator << bits
    den = x.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return Fraction(-q if num < 0 else q, 1 << bits)

def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x."""
    num = x.numerator << bits
    q = -((-num) // x.denominator)
    return Fraction(q, 1 << bits)


def _radius_up(r: Fraction) -> Fraction:
    """Round a radius up to a short dyadic with ~16 significant bits."""
    if r == 0:
        return _ZERO
    # scale so that r*2^f lands in [2^15, 2^16)
    f = 16 - (r.numerator.bit_length() - r.denominator.bit_length())
    return dyadic_ceil(r, max(f, 0))


@dataclass(frozen=True)
class RealEnclosure:
    """Certified interval [mid - rad, mid + rad] with working precision."""

    mid: Fraction
    rad: Fraction
    precision_bits: Optional[int] = None

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError("negative radius")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, precision_bits: Optional[int] = None) -> "RealEnclosure":
        return cls(Fraction(value), _ZERO, precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: Optional[int] = None) -> "RealEnclosure":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise ValueError("endpoints out of order")
        return cls((lo + hi) / 2, (hi - lo) / 2, precision_bits)

    # -- views ---------------------------------------------------------

    def lo(self) -> Fraction:
        return self.mid - self.rad

    def hi(self) -> Fraction:
        return self.mid + self.rad

    @property
    def is_exact(self) -> bool:
        return self.rad == 0

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:
        return f"RealEnclosure({float(self.mid)!r} ± {float(self.rad):.3g})"

    # -- precision plumbing ---------------------------------------------

    def _join_prec(self, other) -> Optional[int]:
        p1 = self.precision_bits
        p2 = other.precision_bits if isinstance(other, RealEnclosure) else None
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        return min(p1, p2)

    def with_precision(self, bits: Optional[int]) -> "RealEnclosure":
        return RealEnclosure(self.mid, self.rad, bits)

    def compress(self, bits: Optional[int] = None) -> "RealEnclosure":
        """Round the midpoint to a dyadic grid, growing the radius soundly."""
        bits = bits if bits is not None else self.precision_bits
        if bits is None:
            return self
        target = bits + _GUARD_BITS
        den = self.mid.denominator
        if den & (den - 1) == 0 and den.bit_length() - 1 <= target:
            if self.rad == 0:
                return self.with_precision(bits)
            return RealEnclosure(self.mid, _radius_up(self.rad), bits)
        m = dyadic_round(self.mid, target)
        r = _radius_up(self.rad + abs(self.mid - m))
        return RealEnclosure(m, r, bits)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> "RealEnclosure":
        if isinstance(other, RealEnclosure):
            return other
        return RealEnclosure.exact(other)

    def __add__(self, other) -> "RealEnclosure":
        o = self._coerce(other)
        return RealEnclosure(self.mid + o.mid, self.rad + o.rad, self._join_prec(o))

    __radd__ = __add__

    def __sub__(self, other) -> "RealEnclosure":
        o = self._coerce(other)
        return RealEnclosure(self.mid - o.mid, self.rad + o.rad, self._join_prec(o))

    def __rsub__(self, other) -> "RealEnclosure":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "RealEnclosure":
        return RealEnclosure(-self.mid, self.rad, self.precision_bits)

    def __mul__(self, other) -> "RealEnclosure":
        o = self._coerce(other)
        rad = abs(self.mid) * o.rad + abs(o.mid) * self.rad + self.rad * o.rad
        return RealEnclosure(self.mid * o.mid, rad, self._join_prec(o)).compress()

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RealEnclosure":
        o = self._coerce(other)
        if o.lo() <= 0 <= o.hi():
            raise ZeroDivisionError("division by a ball containing zero")
        m1, r1, m2, r2 = self.mid, self.rad, o.mid, o.rad
        mid = m1 / m2
        rad = (abs(m1) * r2 + abs(m2) * r1) / (abs(m2) * (abs(m2) - r2))
        return RealEnclosure(mid, rad, self._join_prec(o)).compress()

    def __rtruediv__(self, other) -> "RealEnclosure":
        return self._coerce(other).__truediv__(self)

    def __abs__(self) -> "RealEnclosure":
        if self.lo() >= 0:
            return self
        if self.hi() <= 0:
            return -self
        hi = max(-self.lo(), self.hi())
        return RealEnclosure.from_endpoints(0, hi, self.precision_bits)

    # -- certified comparisons -------------------------------------------

    def sign(self) -> Optional[int]:
        """-1, 0 (exact zero) or +1 when certain; None when undecided."""
        if self.rad == 0:
            return -1 if self.mid < 0 else (1 if self.mid > 0 else 0)
        if self.lo() > 0:
            return 1
        if self.hi() < 0:
            return -1
        return None

    def strictly_less(self, other) -> Optional[bool]:
        o = self._coerce(other)
        if self.hi() < o.lo():
            return True
        if self.lo() >= o.hi():
            return False
        return None

    def contains(self, value) -> bool:
        v = Fraction(value)
        return self.lo() <= v <= self.hi()

# ---------------------------------------------------------------------------
# Fixed-point integer series.  Working value X represents X / 2^W; every
# helper returns (X, err_ulps) with |X/2^W - true| <= err_ulps / 2^W.
# ---------------------------------------------------------------------------


def _fix(x: Fraction, w: int) -> int:
    num = x.numerator << w
    q, r = divmod(abs(num), x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    return -q if num < 0 else q


def _atanh_fixed(t: Fraction, w: int) -> tuple:
    """atanh(t) for |t| <= 1/3, fixed point; returns (X, err_ulps)."""
    assert abs(t) <= Fraction(1, 3)
    T = _fix(t, w)
    # number of terms: |t|^(2N+3) below 2^-w; |t| <= 1/3 shrinks >= 1.58 bits/power
    N = w // 3 + 2
    T2 = (T * T) >> w
    p = T
    acc = T
    for j in range(1, N + 1):
        p = (p * T2) >> w
        acc += p // (2 * j + 1)
        if p == 0:
            break
    # ulp accounting: T err<=1; T2 err<=2; each power step adds <=3 ulps,
    # each term division adds <=1; tail <= |t|^(2N+3)/(1-t^2) <= 2 ulps by choice of N.
    err = 4 * (N + 1) + 4
    return acc, err


def _ln2_fixed(w: int) -> tuple:
    x, e = _atanh_fixed(Fraction(1, 3), w)
    return 2 * x, 2 * e


_LN2_CACHE: dict = {}


def _ln2(w: int) -> tuple:
    if w not in _LN2_CACHE:
        _LN2_CACHE[w] = _ln2_fixed(w)
    return _LN2_CACHE[w]


def ln_fraction(y: Fraction, bits: int) -> RealEnclosure:
    """Rigorous enclosure of ln(y) for a positive rational y."""
    if y <= 0:
        raise ValueError("ln of a nonpositive value")
    w = bits + _GUARD_BITS
    e = y.numerator.bit_length() - y.denominator.bit_length()
    z = y / Fraction(2) ** e
    if z >= Fraction(3, 2):
        e += 1
        z /= 2
    # z in [3/4, 3/2), t = (z-1)/(z+1) in [-1/7, 1/5]
    t = (z - 1) / (z + 1)
    s, serr = _atanh_fixed(t, w)
    s, serr = 2 * s, 2 * serr
    if e:
        l2, l2err = _ln2(w)
        s += e * l2
        serr += abs(e) * l2err
    return RealEnclosure(Fraction(s, 1 << w), Fraction(serr + 1, 1 << w), bits)


def ln(x: RealEnclosure, bits: Optional[int] = None) -> RealEnclosure:
    """Rigorous ln of a ball with lo > 0."""
    bits = bits if bits is not None else (x.precision_bits or 64)
    lo = x.lo()
    if lo <= 0:
        raise ValueError("ln of a ball touching zero")
    base = ln_fraction(x.mid, bits + 2)
    rad = base.rad + x.rad / lo  # |ln x - ln m| <= r / (m - r)
    return RealEnclosure(base.mid, rad, bits).compress()


def _e_fixed(w: int) -> tuple:
    """Euler's number from its factorial series, fixed point; returns (X, err_ulps)."""
    term = 1 << w
    acc = term
    j = 0
    while term:
        j += 1
        term //= j
        acc += term
    # each division adds <= 1 ulp; j ~ w/log2(w!) terms; tail < 2 ulps at stop
    return acc, j + 3


_E_CACHE: dict = {}


def e_constant(bits: int) -> RealEnclosure:
    """Enclosure of Euler's number from its factorial series with tail bound."""
    if bits in _E_CACHE:
        return _E_CACHE[bits]
    w = bits + _GUARD_BITS
    acc, err = _e_fixed(w)
    out = RealEnclosure(Fraction(acc, 1 << w), Fraction(err, 1 << w), bits)
    _E_CACHE[bits] = out
    return out


def _arctan_inv_fixed(x: int, w: int) -> tuple:
    """arctan(1/x) for integer x >= 2, fixed point; returns (X, err_ulps)."""
    x2 = x * x
    p = (1 << w) // x
    acc = p
    j = 0
    sign = -1
    nterms = 1
    while p:
        j += 1
        p //= x2
        acc += sign * (p // (2 * j + 1))
        sign = -sign
        nterms += 1
    # alternating series: truncation below 1 ulp once p hits 0
    return acc, 2 * nterms + 2


_PI_CACHE: dict = {}


def pi_constant(bits: int) -> RealEnclosure:
    """Enclosure of pi from the 4*arctan(1/5) - arctan(1/239) identity."""
    if bits in _PI_CACHE:
        return _PI_CACHE[bits]
    w = bits + _GUARD_BITS
    a5, e5 = _arctan_inv_fixed(5, w)
    a239, e239 = _arctan_inv_fixed(239, w)
    acc = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239 + 1
    out = RealEnclosure(Fraction(acc, 1 << w), Fraction(err, 1 << w), bits)
    _PI_CACHE[bits] = out
    return out


def ln2_constant(bits: int) -> RealEnclosure:
    w = bits + _GUARD_BITS
    x, e = _ln2(w)
    return RealEnclosure(Fraction(x, 1 << w), Fraction(e + 1, 1 << w), bits)


#: a prime modulus for the exactness pre-test of ``nth_root``
_RESIDUE = (1 << 61) - 1


def nth_root(value: Fraction, k: int, bits: int) -> RealEnclosure:
    """Enclosure of value^(1/k) for value >= 0, k >= 1."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("negative radicand")
    p = bits + 2
    x = (value.numerator << (k * p)) // value.denominator
    r = iroot(x, k)
    # exact iff r^k den == num 2^(kp); most roots are not, and the residues
    # modulo the prime 2^61 - 1 tell them apart without the full power
    # (modulo 2^64, 2^(kp) would vanish and only compare the powers of two)
    num, den = value.numerator, value.denominator
    residue = (pow(r, k, _RESIDUE) * den - num * pow(2, k * p, _RESIDUE)) % _RESIDUE
    if residue == 0 and r ** k * den == num << (k * p):
        return RealEnclosure(Fraction(r, 1 << p), _ZERO, bits)
    # r/2^p <= value^(1/k) < (r+2)/2^p  (one ulp from the floor of x, one from iroot)
    return RealEnclosure(Fraction(2 * r + 1, 1 << (p + 1)),
                         Fraction(3, 1 << (p + 1)), bits)


# Floating binary values for exp: (X, E, err) stands for X * 2^E with
# |true - X * 2^E| <= err * 2^E, and X keeps about w significant bits, so the
# relative error stays near err * 2^-w however large or small the value.


def _float_mul(a: tuple, b: tuple, w: int) -> tuple:
    xa, ea, ra = a
    xb, eb, rb = b
    p = xa * xb
    s = max(p.bit_length() - w, 0)
    # |error| <= xa*rb + xb*ra + ra*rb before the shift; +1 rounds that up,
    # +1 covers the truncation of p
    return p >> s, ea + eb + s, ((xa * rb + xb * ra + ra * rb) >> s) + 2


def _float_recip(a: tuple, w: int) -> tuple:
    x, e, r = a
    if r >= x:
        raise ZeroDivisionError("reciprocal of a value that may be zero")
    scale = 2 * w + 2
    # |1/x' - 1/x| <= r / (x (x - r)) for |x' - x| <= r; +1 covers the floor
    return (1 << scale) // x, -e - scale, -((-r << scale) // (x * (x - r))) + 1


def _float_pow(a: tuple, k: int, w: int) -> tuple:
    """a^k for k >= 0 by binary powering."""
    out = (1, 0, 0)
    while k:
        if k & 1:
            out = _float_mul(out, a, w)
        k >>= 1
        if k:
            a = _float_mul(a, a, w)
    return out


def exp_fraction(y: Fraction, bits: int) -> RealEnclosure:
    """Rigorous enclosure of exp(y) for rational y with radius <= 2^-bits
    |mid|, however large or small e^y is: e^|floor(y)| is a binary power of
    e carried as (mantissa, exponent), not a fixed-point number."""
    kint = math.floor(y)
    # binary powering of e^|kint| multiplies its relative error by about
    # |kint|, and the reciprocal and the last product by a few more ulps
    w = bits + _GUARD_BITS + abs(kint).bit_length()
    f = y - kint  # in [0, 1)
    F = _fix(f, w)
    term = 1 << w
    acc = term
    j = 0
    nsteps = 0
    while term:
        j += 1
        term = ((term * F) >> w) // j
        acc += term
        nsteps += 1
    e_mid, e_err = _e_fixed(w)
    power = _float_pow((e_mid, -w, e_err), abs(kint), w)
    if kint < 0:
        power = _float_recip(power, w)
    x, e, r = _float_mul((acc, -w, 3 * nsteps + 4), power, w)
    scale = Fraction(2) ** e
    return RealEnclosure(x * scale, _radius_up(r * scale), bits)


def ball_max(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    """The maximum of two balls, as ``paramgeom._ball_max`` made it."""
    return RealEnclosure.from_endpoints(max(a.lo(), b.lo()), max(a.hi(), b.hi()),
                                        a.precision_bits or b.precision_bits)
