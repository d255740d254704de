"""Arbitrary-precision ball arithmetic on reduced integer pairs.

Every real quantity in the laboratory is certified by a ``RealEnclosure``:
a midpoint and a radius, each an exact rational held as a reduced pair
(numerator, denominator) of Python integers, the midpoint-radius design of
Arb (F. Johansson, IEEE Trans. Comput. 66(8), 2017) with exact midpoints.
Field operations keep the midpoint exact and only enlarge the radius, so
soundness (the true value always lies inside the ball) holds by
construction; a ``compress`` step rounds the midpoint to a dyadic grid when
denominators grow, folding the rounding error into the radius, and rounds
the radius up to 16 significant bits.  Transcendental functions (ln, exp)
and the named constants run fixed-point integer series with explicit ulp
accounting and rigorous tail bounds; exp scales its series by an integer
power of e carried with a binary exponent, so its radius stays relative to
the value.

The kernel works on the pairs directly and builds no ``Fraction`` inside
the ring operations, ``compress``, ln or exp.  On ``Fraction`` midpoints a
192-bit ball multiply took about 50 us (2 vCPU, CPython 3.11), nearly all
of it in the pure-Python ``fractions`` module around about a microsecond of
integer products, and ``fractions`` had a quarter of the self time of a
certification benchmark run against a tenth for this module; on the pairs
the multiply takes about 12 us.  Most denominators are powers of two, and
a pair with such a denominator is reduced by stripping common trailing
zero bits, not by a gcd.  Every operation returns the same reduced
rational as the ``Fraction`` arithmetic it replaces.  ``mid``, ``rad``,
``lo()`` and ``hi()`` hand out ``Fraction`` values for the callers that
want them.

Midpoints of compressed balls are dyadic rationals, which makes every stored
value exactly representable as a finite decimal string.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional


_GUARD_BITS = 32

DEFAULT_PRECISION_CAP = 4096


# ---------------------------------------------------------------------------
# Rationals as integer pairs (n, d) with d > 0
# ---------------------------------------------------------------------------


def _pair(x) -> tuple:
    """A rational value as a reduced pair."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _reduce(n: int, d: int) -> tuple:
    """n/d in lowest terms.  A power-of-two d shares only trailing zero bits
    with n, and stripping them costs far less than a gcd."""
    if d & (d - 1):
        g = math.gcd(n, d)
        return (n // g, d // g) if g != 1 else (n, d)
    if not n:
        return 0, 1
    s = min((n & -n).bit_length(), d.bit_length()) - 1
    return (n >> s, d >> s) if s else (n, d)


def _sum(an: int, ad: int, bn: int, bd: int) -> tuple:
    """an/ad + bn/bd as a pair, not reduced."""
    if ad == bd:
        return an + bn, ad
    if not (ad & (ad - 1) or bd & (bd - 1)):
        if ad > bd:
            return an + (bn << (ad.bit_length() - bd.bit_length())), ad
        return (an << (bd.bit_length() - ad.bit_length())) + bn, bd
    return an * bd + bn * ad, ad * bd


def _less(an: int, ad: int, bn: int, bd: int) -> bool:
    return an * bd < bn * ad


def _round(n: int, d: int, bits: int) -> tuple:
    """(q, en, ed): q / 2^bits is the multiple of 2^-bits nearest to n/d,
    ties away from zero, and |n/d - q / 2^bits| = en/ed."""
    a = abs(n)
    s = d.bit_length() - 1 - bits
    if s > 0 and not d & (d - 1):
        q = (a + (1 << (s - 1))) >> s
        en, ed = abs(a - (q << s)), d
    else:
        q, en = divmod(a << bits, d)
        if 2 * en >= d:
            q += 1
            en = d - en
        ed = d << bits
    return (-q if n < 0 else q), en, ed


def _ceil(n: int, d: int, bits: int) -> int:
    """The least integer >= n 2^bits / d."""
    s = d.bit_length() - 1 - bits
    if s > 0 and not d & (d - 1):
        return -((-n) >> s)
    return -((-n << bits) // d)


def _radius_up(n: int, d: int) -> tuple:
    """The reduced radius n/d >= 0 rounded up to a short dyadic with ~16
    significant bits."""
    if not n:
        return 0, 1
    # scale so that r*2^f lands in [2^15, 2^16)
    f = max(16 - (n.bit_length() - d.bit_length()), 0)
    return _reduce(_ceil(n, d, f), 1 << f)


def fixed_point(x: "RealEnclosure", bits: int) -> tuple:
    """(q, e): q / 2^bits is the multiple of 2^-bits nearest x's midpoint,
    ties away from zero, and e the least integer with all of x within
    e / 2^bits of q / 2^bits, from x's integer pairs."""
    q, en, ed = _round(x._mn, x._md, bits)
    return q, _ceil(*_sum(x._rn, x._rd, en, ed), bits)


# ---------------------------------------------------------------------------
# Balls
# ---------------------------------------------------------------------------


class RealEnclosure:
    """Certified interval [mid - rad, mid + rad] with working precision.

    Immutable.  Two balls are equal iff their midpoints, radii and
    precisions are.  ``mid`` is made once, on first use, and kept: callers
    that order many balls by midpoint (the minima's greedy heap) then hold
    one ``Fraction`` per ball, shared by every ball they share.
    """

    __slots__ = ("_mn", "_md", "_rn", "_rd", "precision_bits", "_mid")

    def __init__(self, mid, rad, precision_bits: Optional[int] = None):
        _fill(self, *_pair(mid), *_pair(rad), precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"RealEnclosure is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RealEnclosure is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return RealEnclosure, (self.mid, self.rad, self.precision_bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._mn == other._mn and self._md == other._md and self._rn == other._rn
                and self._rd == other._rd and self.precision_bits == other.precision_bits)

    def __hash__(self):
        return hash((self.mid, self.rad, self.precision_bits))

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, precision_bits: Optional[int] = None) -> "RealEnclosure":
        return _make(*_pair(value), 0, 1, precision_bits)

    @classmethod
    def from_endpoints(cls, lo, hi, precision_bits: Optional[int] = None) -> "RealEnclosure":
        ln_, ld = _pair(lo)
        hn, hd = _pair(hi)
        if _less(hn, hd, ln_, ld):
            raise ValueError("endpoints out of order")
        return _span(ln_, ld, hn, hd, precision_bits)

    @classmethod
    def from_scaled(cls, mid_num: int, rad_num: int, den: int,
                    precision_bits: Optional[int] = None) -> "RealEnclosure":
        """The ball with midpoint mid_num/den and radius rad_num/den."""
        return _fill(_new(cls), *_reduce(mid_num, den), *_reduce(rad_num, den),
                     precision_bits)

    # -- views ---------------------------------------------------------

    @property
    def mid(self) -> Fraction:
        mid = self._mid
        if mid is None:
            mid = Fraction(self._mn, self._md)
            _SET_MID(self, mid)
        return mid

    @property
    def rad(self) -> Fraction:
        return Fraction(self._rn, self._rd)

    def lo(self) -> Fraction:
        return Fraction(*_ends(self)[0])

    def hi(self) -> Fraction:
        return Fraction(*_ends(self)[1])

    @property
    def is_exact(self) -> bool:
        return not self._rn

    def __float__(self) -> float:
        return self._mn / self._md

    def __repr__(self) -> str:
        return f"RealEnclosure({self._mn / self._md!r} ± {self._rn / self._rd:.3g})"

    # -- precision plumbing ---------------------------------------------

    def compress(self, bits: Optional[int] = None) -> "RealEnclosure":
        """Round the midpoint to a dyadic grid, growing the radius soundly."""
        bits = bits if bits is not None else self.precision_bits
        if bits is None:
            return self
        return _compressed(self._mn, self._md, self._rn, self._rd, bits)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "RealEnclosure":
        on, od, orn, ord_, op = _parts(other)
        return _make(*_reduce(*_sum(self._mn, self._md, on, od)),
                     *_reduce(*_sum(self._rn, self._rd, orn, ord_)),
                     _join(self.precision_bits, op))

    __radd__ = __add__

    def __sub__(self, other) -> "RealEnclosure":
        on, od, orn, ord_, op = _parts(other)
        return _make(*_reduce(*_sum(self._mn, self._md, -on, od)),
                     *_reduce(*_sum(self._rn, self._rd, orn, ord_)),
                     _join(self.precision_bits, op))

    def __rsub__(self, other) -> "RealEnclosure":
        return -(self - other)

    def __neg__(self) -> "RealEnclosure":
        return _make(-self._mn, self._md, self._rn, self._rd, self.precision_bits)

    def __mul__(self, other) -> "RealEnclosure":
        an, ad, rn, rd = self._mn, self._md, self._rn, self._rd
        bn, bd, sn, sd, op = _parts(other)
        # rad = |a| s + |b| r + r s
        if sn:
            radn, radd = _sum(abs(an) * sn, ad * sd, rn * sn, rd * sd)
            if rn:
                radn, radd = _sum(radn, radd, abs(bn) * rn, bd * rd)
        else:
            radn, radd = abs(bn) * rn, bd * rd
        return _compressed(*_reduce(an * bn, ad * bd), radn, radd,
                           _join(self.precision_bits, op))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RealEnclosure":
        return _divide(self._mn, self._md, self._rn, self._rd, self.precision_bits,
                       *_parts(other))

    def __rtruediv__(self, other) -> "RealEnclosure":
        return _divide(*_parts(other), self._mn, self._md, self._rn, self._rd,
                       self.precision_bits)

    def __abs__(self) -> "RealEnclosure":
        mn, md, rn, rd = self._mn, self._md, self._rn, self._rd
        if not _less(mn, md, rn, rd):  # lo >= 0
            return self
        if not _less(-mn, md, rn, rd):  # hi <= 0
            return -self
        hn, hd = _sum(abs(mn), md, rn, rd)
        return _span(0, 1, hn, hd, self.precision_bits)

    def max(self, other: "RealEnclosure") -> "RealEnclosure":
        """A ball holding max(x, y) for every x in self and y in other: from
        the larger lower end to the larger upper end."""
        lo, hi = _ends(self)
        olo, ohi = _ends(other)
        return _span(*(olo if _less(*lo, *olo) else lo), *(ohi if _less(*hi, *ohi) else hi),
                     self.precision_bits or other.precision_bits)

    # -- certified comparisons -------------------------------------------

    def sign(self) -> Optional[int]:
        """-1, 0 (exact zero) or +1 when certain; None when undecided."""
        mn, md, rn, rd = self._mn, self._md, self._rn, self._rd
        if not rn:
            return -1 if mn < 0 else (1 if mn > 0 else 0)
        if _less(rn, rd, mn, md):  # lo > 0
            return 1
        if _less(rn, rd, -mn, md):  # hi < 0
            return -1
        return None

    def strictly_less(self, other) -> Optional[bool]:
        lo, hi = _ends(self)
        olo, ohi = _ends(other)
        if _less(*hi, *olo):
            return True
        if not _less(*lo, *ohi):
            return False
        return None

    def contains(self, value) -> bool:
        v = _pair(value)
        lo, hi = _ends(self)
        return not (_less(*v, *lo) or _less(*hi, *v))

_new = object.__new__
_SLOT_SETTERS = tuple(getattr(RealEnclosure, name).__set__ for name in RealEnclosure.__slots__)
_SET_MID = _SLOT_SETTERS[-1]


def _fill(ball: RealEnclosure, mn: int, md: int, rn: int, rd: int,
          bits: Optional[int]) -> RealEnclosure:
    if rn < 0:
        raise ValueError("negative radius")
    set_mn, set_md, set_rn, set_rd, set_bits, set_mid = _SLOT_SETTERS
    set_mn(ball, mn)
    set_md(ball, md)
    set_rn(ball, rn)
    set_rd(ball, rd)
    set_bits(ball, bits)
    set_mid(ball, None)
    return ball


def _make(mn: int, md: int, rn: int, rd: int, bits: Optional[int]) -> RealEnclosure:
    """The ball of the reduced pairs mn/md and rn/rd."""
    return _fill(_new(RealEnclosure), mn, md, rn, rd, bits)


def _parts(x) -> tuple:
    """(mid num, mid den, rad num, rad den, precision) of a ball or a number."""
    if isinstance(x, RealEnclosure):
        return x._mn, x._md, x._rn, x._rd, x.precision_bits
    return (*_pair(x), 0, 1, None)


def _ends(x) -> tuple:
    """The pairs (not reduced) of the lower and the upper end of a ball or a
    number."""
    mn, md, rn, rd, _ = _parts(x)
    return _sum(mn, md, -rn, rd), _sum(mn, md, rn, rd)


def _join(p1: Optional[int], p2: Optional[int]) -> Optional[int]:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


def _compressed(mn: int, md: int, rn: int, rd: int, bits: Optional[int]) -> RealEnclosure:
    """``compress`` of the ball with reduced midpoint mn/md and radius rn/rd
    (any terms) at ``bits``; no rounding at all when ``bits`` is None."""
    if bits is None:
        return _make(mn, md, *_reduce(rn, rd), None)
    target = bits + _GUARD_BITS
    if not md & (md - 1) and md.bit_length() <= target + 1:
        return _make(mn, md, *_radius_up(*_reduce(rn, rd)), bits)
    q, en, ed = _round(mn, md, target)
    return _make(*_reduce(q, 1 << target), *_radius_up(*_reduce(*_sum(rn, rd, en, ed))),
                 bits)


def _span(ln_: int, ld: int, hn: int, hd: int, bits: Optional[int]) -> RealEnclosure:
    """The ball [lo, hi] of the pairs lo = ln_/ld <= hi = hn/hd (any terms)."""
    sn, sd = _sum(hn, hd, ln_, ld)
    dn, dd = _sum(hn, hd, -ln_, ld)
    return _make(*_reduce(sn, 2 * sd), *_reduce(dn, 2 * dd), bits)


def _divide(an: int, ad: int, rn: int, rd: int, p1: Optional[int],
            bn: int, bd: int, sn: int, sd: int, p2: Optional[int]) -> RealEnclosure:
    """(a ± r) / (b ± s), the pairs reduced."""
    if not _less(sn, sd, abs(bn), bd):  # lo <= 0 <= hi
        raise ZeroDivisionError("division by a ball containing zero")
    qn, qd = an * bd, ad * bn
    if qd < 0:
        qn, qd = -qn, -qd
    # rad = (|a| s + |b| r) / (|b| (|b| - s))
    b = abs(bn)
    un, ud = _sum(abs(an) * sn, ad * sd, b * rn, bd * rd)
    vn, vd = b * (b * sd - sn * bd), bd * bd * sd
    return _compressed(*_reduce(qn, qd), un * vd, ud * vn, _join(p1, p2))


# ---------------------------------------------------------------------------
# Fixed-point integer series.  Working value X represents X / 2^W; every
# helper returns (X, err_ulps) with |X/2^W - true| <= err_ulps / 2^W.
# ---------------------------------------------------------------------------


def _fix(n: int, d: int, w: int) -> int:
    """n/d in fixed point, rounded to nearest (ties away from zero)."""
    return _round(n, d, w)[0]


def _atanh_fixed(tn: int, td: int, w: int) -> tuple:
    """atanh(t) for t = tn/td, td > 0, |t| <= 1/3, fixed point; returns
    (X, err_ulps)."""
    assert 3 * abs(tn) <= td
    T = _fix(tn, td, w)
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


@functools.cache
def _ln2_fixed(w: int) -> tuple:
    x, e = _atanh_fixed(1, 3, w)
    return 2 * x, 2 * e


def _ln_fixed(n: int, d: int, w: int) -> tuple:
    """ln(n/d) for n/d > 0 in lowest terms, fixed point; returns (X, err_ulps)."""
    if n <= 0:
        raise ValueError("ln of a nonpositive value")
    # z = y / 2^e
    e = n.bit_length() - d.bit_length()
    zn, zd = (n, d << e) if e >= 0 else (n << -e, d)
    if 2 * zn >= 3 * zd:
        e += 1
        zd *= 2
    # z in [3/4, 3/2), t = (z-1)/(z+1) in [-1/7, 1/5]
    s, serr = _atanh_fixed(zn - zd, zn + zd, w)
    s, serr = 2 * s, 2 * serr
    if e:
        l2, l2err = _ln2_fixed(w)
        s += e * l2
        serr += abs(e) * l2err
    return s, serr


def ln_fraction(y: Fraction, bits: int) -> RealEnclosure:
    """Rigorous enclosure of ln(y) for a positive rational y (a Fraction or
    an int)."""
    w = bits + _GUARD_BITS
    s, serr = _ln_fixed(y.numerator, y.denominator, w)
    return RealEnclosure.from_scaled(s, serr + 1, 1 << w, bits)


def ln(x: RealEnclosure, bits: Optional[int] = None) -> RealEnclosure:
    """Rigorous ln of a ball with lo > 0."""
    bits = bits if bits is not None else (x.precision_bits or 64)
    mn, md, rn, rd = x._mn, x._md, x._rn, x._rd
    lon = mn * rd - rn * md  # lo = lon / (md rd)
    if lon <= 0:
        raise ValueError("ln of a ball touching zero")
    w = bits + 2 + _GUARD_BITS
    s, serr = _ln_fixed(mn, md, w)
    # ln_fraction's radius plus |ln x - ln m| <= r / (m - r) = rn md / lon
    rad = _reduce(serr + 1, 1 << w)
    if rn:
        rad = _sum(*rad, rn * md, lon)
    return _compressed(*_reduce(s, 1 << w), *rad, bits)


@functools.cache
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


def e_constant(bits: int) -> RealEnclosure:
    """Enclosure of Euler's number from its factorial series with tail bound."""
    w = bits + _GUARD_BITS
    acc, err = _e_fixed(w)
    return RealEnclosure.from_scaled(acc, err, 1 << w, bits)


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


@functools.cache
def pi_constant(bits: int) -> RealEnclosure:
    """Enclosure of pi from the 4*arctan(1/5) - arctan(1/239) identity."""
    w = bits + _GUARD_BITS
    a5, e5 = _arctan_inv_fixed(5, w)
    a239, e239 = _arctan_inv_fixed(239, w)
    acc = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239 + 1
    return RealEnclosure.from_scaled(acc, err, 1 << w, bits)


def ln2_constant(bits: int) -> RealEnclosure:
    w = bits + _GUARD_BITS
    x, e = _ln2_fixed(w)
    return RealEnclosure.from_scaled(x, e + 1, 1 << w, bits)


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, integer Newton from above."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    # the root has b = bitlen(x) // k bits, or one more
    s = (x.bit_length() // k - k.bit_length()) // 2
    if s > 32:
        # precision doubling: one more than the floor root of x >> (k s),
        # scaled by 2^s, lies above the root by at most 2^s; as
        # 2 s <= b - bitlen(k), one Newton step then lands within about 1/2
        # of the root, so only one or two steps take full-size powers
        r = (iroot(x >> (k * s), k) + 1) << s
    else:
        # a float estimate of log2 of the root from the top 64 bits of x,
        # padded by 2^-40, then doubled until r^k > x (a power-of-two start
        # can be twice the root, and Newton then needs about 0.7 k steps)
        s = max(x.bit_length() - 64, 0)
        t = (math.log2(x >> s) + s) / k
        e = max(int(t) - 52, 0)
        r = (int(2.0 ** (t - e) * (1 + 2.0 ** -40)) + 1) << e
        while r ** k <= x:
            r <<= 1
    # from r^k > x each step stays >= the floor root (AM-GM) and falls, and
    # at the floor root the step no longer falls, so the loop stops there
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


#: a prime modulus for the exactness pre-test of ``nth_root``
_RESIDUE = (1 << 61) - 1


def nth_root(value: Fraction, k: int, bits: int) -> RealEnclosure:
    """Enclosure of value^(1/k) for value >= 0, k >= 1."""
    num, den = _pair(value)
    if num < 0:
        raise ValueError("negative radicand")
    p = bits + 2
    x = (num << (k * p)) // den
    r = iroot(x, k)
    # exact iff r^k den == num 2^(kp); most roots are not, and the residues
    # modulo the prime 2^61 - 1 tell them apart without the full power
    # (modulo 2^64, 2^(kp) would vanish and only compare the powers of two)
    residue = (pow(r, k, _RESIDUE) * den - num * pow(2, k * p, _RESIDUE)) % _RESIDUE
    if residue == 0 and r ** k * den == num << (k * p):
        return RealEnclosure.from_scaled(r, 0, 1 << p, bits)
    # r/2^p <= value^(1/k) < (r+2)/2^p  (one ulp from the floor of x, one from iroot)
    return RealEnclosure.from_scaled(2 * r + 1, 3, 1 << (p + 1), bits)


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


def _exp(n: int, d: int, bits: int) -> RealEnclosure:
    """``exp_fraction`` of y = n/d, d > 0 (any terms)."""
    kint = n // d
    # binary powering of e^|kint| multiplies its relative error by about
    # |kint|, and the reciprocal and the last product by a few more ulps
    w = bits + _GUARD_BITS + abs(kint).bit_length()
    F = _fix(n - kint * d, d, w)  # y - kint in [0, 1)
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
    # the value x 2^e, its radius r 2^e
    if e >= 0:
        return _make(x << e, 1, *_radius_up(r << e, 1), bits)
    return _make(*_reduce(x, 1 << -e), *_radius_up(*_reduce(r, 1 << -e)), bits)


def exp_fraction(y: Fraction, bits: int) -> RealEnclosure:
    """Rigorous enclosure of exp(y) for rational y with radius <= 2^-bits
    |mid|, however large or small e^y is: e^|floor(y)| is a binary power of
    e carried as (mantissa, exponent), not a fixed-point number."""
    return _exp(*_pair(y), bits)

