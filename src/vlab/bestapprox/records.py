"""Record and sequence containers plus their JSON wire format.

All serialized reals are decimal strings derived from dyadic midpoints and
radii, so serialization is exact and a load/verify round trip reproduces the
in-memory pipeline bit for bit.

A ball crosses the wire as its reduced integer pairs, with no ``Fraction``
on the way: ``ball_to_json`` writes each string from a pair that
``RealEnclosure.pairs`` hands out, and ``ball_from_json`` parses each string
once with ``realspec.parse_decimal`` into ``RealEnclosure.from_scaled``.
``fraction_to_decimal`` and ``decimal_to_fraction`` are the same codec for
a single ``Fraction`` (a verify report's slack, a ``dec:`` spec).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from ..enclosure import RealEnclosure
from ..errors import DegenerateRecords
from ..polynomials import IntPolynomial
from ..realspec import RealSpec, decimal_to_fraction, parse_decimal


def _decimal(num: int, den: int) -> str:
    """The exact decimal string of num/den in lowest terms, den > 0;
    requires a denominator of the form 2^a * 5^b."""
    rest = den
    a = (rest & -rest).bit_length() - 1
    rest >>= a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    if rest != 1:
        raise ValueError(f"denominator {den} is not of the form 2^a 5^b")
    digits = max(a, b)
    scaled = abs(num) * 2 ** (digits - a) * 5 ** (digits - b)
    sign = "-" if num < 0 else ""
    if digits == 0:
        return f"{sign}{scaled}"
    body = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def fraction_to_decimal(f: Fraction) -> str:
    """Exact decimal string; requires a denominator of the form 2^a * 5^b."""
    return _decimal(f.numerator, f.denominator)


def ball_to_json(ball: Optional[RealEnclosure]) -> Optional[dict]:
    if ball is None:
        return None
    mn, md, rn, rd = ball.pairs()
    return {"mid": _decimal(mn, md), "rad": _decimal(rn, rd)}


def ball_from_json(obj: Optional[dict], precision_bits: Optional[int]) -> Optional[RealEnclosure]:
    """The ball ``obj`` names, None for null; ValueError unless it is an
    object of decimal strings "mid" and "rad" >= 0."""
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError(f"not a ball: {obj!r}")
    rad, rad_places = parse_decimal(obj["rad"])
    if rad < 0:
        raise ValueError(f"not a ball: {obj!r}")
    mid, mid_places = parse_decimal(obj["mid"])
    places = max(mid_places, rad_places)
    return RealEnclosure.from_scaled(mid * 10 ** (places - mid_places),
                                     rad * 10 ** (places - rad_places), 10 ** places,
                                     precision_bits)


@dataclass
class BestApproxRecord:
    """One record-setting approximant and its derived exponent data."""

    k: int
    poly: IntPolynomial
    height: int
    log_abs_value: RealEnclosure
    mu: Optional[RealEnclosure] = None
    v: Optional[RealEnclosure] = None
    tau: Optional[RealEnclosure] = None
    good: Optional[bool] = None
    ell: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "coeffs": list(self.poly.coeffs),
            "height": self.height,
            "log_abs_value": ball_to_json(self.log_abs_value),
            "mu": ball_to_json(self.mu),
            "v": ball_to_json(self.v),
            "tau": ball_to_json(self.tau),
            "good": self.good,
            "ell": self.ell,
        }

    @classmethod
    def from_json(cls, obj: dict, precision_bits: int, k: int, n: int) -> "BestApproxRecord":
        """The ``k``-th record of a degree-``n`` sequence.  ValueError unless
        "k" is k, "coeffs" the integers of a nonzero polynomial of degree
        <= n, "height" its height, "good" a bool or null, "ell" an integer
        > k or null, and "log_abs_value" a ball (a bool is not an integer)."""
        coeffs, good, ell = obj["coeffs"], obj.get("good"), obj.get("ell")
        ints = isinstance(coeffs, list) and all(type(c) is int for c in coeffs)
        poly = IntPolynomial(coeffs if ints else [])
        for key, ok in (("k", type(obj["k"]) is int and obj["k"] == k),
                        ("coeffs", not poly.is_zero and poly.degree <= n),
                        ("height", type(obj["height"]) is int and obj["height"] == poly.height()),
                        ("good", good is None or type(good) is bool),
                        ("ell", ell is None or type(ell) is int and ell > k),
                        ("log_abs_value", obj["log_abs_value"] is not None)):
            if not ok:
                raise ValueError(f"record {k} has {key} {obj[key]!r}")
        return cls(
            k=k,
            poly=poly,
            height=obj["height"],
            log_abs_value=ball_from_json(obj["log_abs_value"], precision_bits),
            mu=ball_from_json(obj.get("mu"), precision_bits),
            v=ball_from_json(obj.get("v"), precision_bits),
            tau=ball_from_json(obj.get("tau"), precision_bits),
            good=good,
            ell=ell,
        )


@dataclass
class SequenceEstimates:
    """Finite-scale proxies for the limit exponents, never asserted as limits.

    Taken over the tail half of the records: the running minimum of mu
    stands in for the uniform exponent, the running maximum of v for the
    ordinary exponent, and the running maximum of tau for the limsup of the
    height ratios.
    """

    w_hat_proxy: Optional[RealEnclosure]
    w_proxy: Optional[RealEnclosure]
    tau_bar_proxy: Optional[RealEnclosure]
    tail_start_k: int


def _header_int(obj: dict, key: str, least: int) -> int:
    """``obj[key]``, which must be an int (a bool is not) >= least."""
    value = obj[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, not {value!r}")
    return value


@dataclass
class SequenceData:
    """The full record sequence for one (xi, n) pair.

    Invariant: the records are complete up to ``search_height_limit``; no
    integer polynomial of degree <= n and height <= the limit beats them.
    """

    xi_spec: RealSpec
    n: int
    records: List[BestApproxRecord]
    search_height_limit: int
    precision_bits: int

    def __post_init__(self):
        prev_h = 0
        for rec in self.records:
            if rec.height <= prev_h:
                raise DegenerateRecords("heights must strictly increase")
            prev_h = rec.height

    def record(self, k: int) -> BestApproxRecord:
        return self.records[k - 1]

    def __len__(self) -> int:
        return len(self.records)

    def to_json(self) -> dict:
        return {
            "xi": self.xi_spec.to_json(),
            "n": self.n,
            "precision_bits": self.precision_bits,
            "height_limit": self.search_height_limit,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceData":
        """ValueError unless n and height_limit are ints >= 1, precision_bits
        an int >= 16, the floor of ``--precision-bits``, and each record as
        ``BestApproxRecord.from_json`` checks it."""
        bits, n = _header_int(obj, "precision_bits", 16), _header_int(obj, "n", 1)
        return cls(
            xi_spec=RealSpec.from_json(obj["xi"]),
            n=n,
            records=[BestApproxRecord.from_json(r, bits, k, n)
                     for k, r in enumerate(obj["records"], start=1)],
            search_height_limit=_header_int(obj, "height_limit", 1),
            precision_bits=bits,
        )

    def estimates(self) -> SequenceEstimates:
        """Tail-half proxies for the limit quantities (labeled estimates)."""
        ks = [r.k for r in self.records if r.mu is not None]
        if not ks:
            return SequenceEstimates(None, None, None, 0)
        start = ks[len(ks) // 2] if len(ks) > 1 else ks[0]
        tail = [r for r in self.records if r.k >= start]
        mus = [r.mu for r in tail if r.mu is not None]
        vs = [r.v for r in tail if r.v is not None]
        taus = [r.tau for r in tail if r.tau is not None]
        w_hat = min(mus, key=lambda b: b.mid) if mus else None
        w = max(vs, key=lambda b: b.mid) if vs else None
        tau_bar = max(taus, key=lambda b: b.mid) if taus else None
        return SequenceEstimates(w_hat, w, tau_bar, start)
