"""Specifications of real numbers and their certified enclosures.

A ``RealSpec`` pins down the number under study: an exact rational, a k-th
root of an integer, a decimal digit string, a named constant (e, pi, ln 2),
or a finite continued fraction (which denotes the exact rational it equals;
infinite/periodic expansions are not supported).

The search layer needs to decide *exact* zeroes and ties for algebraic
specs; ``algebraic_form`` exposes the reduced description used for that
(roots are normalized so the minimal polynomial of the value is T^k - b).
Whether a spec is a credible transcendence proxy is the caller's business.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .enclosure import RealEnclosure, e_constant, iroot, ln2_constant, nth_root, pi_constant
from .errors import InsufficientDigits, UnsupportedSpec

KIND_RATIONAL = "rational"
KIND_DECIMAL = "decimal"
KIND_ROOT = "root"
KIND_CONSTANT = "constant"
KIND_CF = "cf"

_CONSTANTS = ("e", "pi", "ln2")

_DECIMAL_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")


@dataclass(frozen=True)
class RealSpec:
    kind: str
    rational: Optional[Fraction] = None
    digits: Optional[str] = None
    base: Optional[int] = None
    index: Optional[int] = None
    name: Optional[str] = None
    quotients: Optional[tuple] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "RealSpec":
        return cls(KIND_RATIONAL, rational=Fraction(value))

    @classmethod
    def from_decimal(cls, digits: str) -> "RealSpec":
        digits = digits.strip()
        if not _DECIMAL_RE.match(digits):
            raise UnsupportedSpec(f"malformed decimal digit string: {digits!r}")
        return cls(KIND_DECIMAL, digits=digits)

    @classmethod
    def from_root(cls, base: int, index: int) -> "RealSpec":
        if index < 1 or base < 0:
            raise UnsupportedSpec("root spec needs base >= 0 and index >= 1")
        return cls(KIND_ROOT, base=int(base), index=int(index))

    @classmethod
    def from_constant(cls, name: str) -> "RealSpec":
        if name not in _CONSTANTS:
            raise UnsupportedSpec(f"unknown named constant: {name!r}")
        return cls(KIND_CONSTANT, name=name)

    @classmethod
    def from_continued_fraction(cls, quotients) -> "RealSpec":
        q = tuple(int(a) for a in quotients)
        if not q:
            raise UnsupportedSpec("empty continued fraction")
        if any(a < 1 for a in q[1:]):
            raise UnsupportedSpec("partial quotients after the first must be >= 1")
        return cls(KIND_CF, quotients=q)

    # -- structure ------------------------------------------------------

    def cf_value(self) -> Fraction:
        value = Fraction(self.quotients[-1])
        for a in reversed(self.quotients[:-1]):
            value = a + 1 / value
        return value

    def algebraic_form(self):
        """Reduced algebraic description, or None if presumed transcendental.

        Returns ("rational", Fraction) or ("root", base, k) with k >= 2 and
        T^k - base irreducible over the rationals.
        """
        if self.kind == KIND_RATIONAL:
            return (KIND_RATIONAL, self.rational)
        if self.kind == KIND_CF:
            return (KIND_RATIONAL, self.cf_value())
        if self.kind == KIND_ROOT:
            b, k = self.base, self.index
            if b in (0, 1) or k == 1:
                return (KIND_RATIONAL, Fraction(b))
            # write b = c^d with d maximal
            d = 1
            c = b
            for dd in range(b.bit_length(), 1, -1):
                root = iroot(b, dd)
                if root ** dd == b:
                    d, c = dd, root
                    break
            from math import gcd

            g = gcd(d, k)
            k2 = k // g
            base2 = c ** (d // g)
            if k2 == 1:
                return (KIND_RATIONAL, Fraction(base2))
            return (KIND_ROOT, base2, k2)
        return None

    def describe(self) -> str:
        if self.kind == KIND_RATIONAL:
            return f"rat:{self.rational.numerator}/{self.rational.denominator}"
        if self.kind == KIND_DECIMAL:
            return f"dec:{self.digits}"
        if self.kind == KIND_ROOT:
            if self.index == 2:
                return f"sqrt:{self.base}"
            if self.index == 3:
                return f"cbrt:{self.base}"
            return f"root:{self.base}:{self.index}"
        if self.kind == KIND_CONSTANT:
            return f"const:{self.name}"
        return "cf:" + ",".join(str(a) for a in self.quotients)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == KIND_RATIONAL:
            return {"kind": KIND_RATIONAL,
                    "p": self.rational.numerator, "q": self.rational.denominator}
        if self.kind == KIND_DECIMAL:
            return {"kind": KIND_DECIMAL, "digits": self.digits}
        if self.kind == KIND_ROOT:
            return {"kind": KIND_ROOT, "base": self.base, "index": self.index}
        if self.kind == KIND_CONSTANT:
            return {"kind": KIND_CONSTANT, "name": self.name}
        return {"kind": KIND_CF, "quotients": list(self.quotients)}

    @classmethod
    def from_json(cls, obj: dict) -> "RealSpec":
        """The spec ``obj`` names; ValueError unless it is an object whose
        numbers are integers (a bool is not), q != 0, and digits a string."""
        if not isinstance(obj, dict):
            raise ValueError(f"xi must be an object, not {obj!r}")
        numbers = [v for key, v in obj.items() if key in ("p", "q", "base", "index")]
        if (any(type(v) is not int for v in numbers + list(obj.get("quotients", [])))
                or obj.get("q") == 0 or not isinstance(obj.get("digits", ""), str)):
            raise ValueError(f"malformed xi {obj!r}: p, q, base, index and quotients must "
                             "be integers, q != 0, and digits a string")
        kind = obj.get("kind")
        if kind == KIND_RATIONAL:
            return cls.from_rational(Fraction(obj["p"], obj["q"]))
        if kind == KIND_DECIMAL:
            return cls.from_decimal(obj["digits"])
        if kind == KIND_ROOT:
            return cls.from_root(obj["base"], obj["index"])
        if kind == KIND_CONSTANT:
            return cls.from_constant(obj["name"])
        if kind == KIND_CF:
            return cls.from_continued_fraction(obj["quotients"])
        raise UnsupportedSpec(f"unknown spec kind: {kind!r}")


def parse_xi(text: str) -> RealSpec:
    """Parse the shell-safe mini-grammar for xi specs.

    sqrt:K | cbrt:K | root:K:J | dec:<digits> | rat:P/Q | const:e|pi|ln2 |
    cf:a0,a1,...
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise UnsupportedSpec(f"malformed xi spec (missing ':'): {text!r}")
    try:
        if head == "sqrt":
            return RealSpec.from_root(int(rest), 2)
        if head == "cbrt":
            return RealSpec.from_root(int(rest), 3)
        if head == "root":
            base, _, index = rest.partition(":")
            if not index:
                raise UnsupportedSpec(f"root spec needs base and index: {text!r}")
            return RealSpec.from_root(int(base), int(index))
        if head == "dec":
            return RealSpec.from_decimal(rest)
        if head == "rat":
            p, _, q = rest.partition("/")
            if not q:
                raise UnsupportedSpec(f"rational spec needs P/Q: {text!r}")
            return RealSpec.from_rational(Fraction(int(p), int(q)))
        if head == "const":
            return RealSpec.from_constant(rest)
        if head == "cf":
            return RealSpec.from_continued_fraction(rest.split(","))
        raise UnsupportedSpec(f"unknown xi spec kind: {head!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedSpec(f"malformed xi spec {text!r}: {exc}") from None


def parse_decimal(digits: str) -> tuple:
    """(numerator, places): a decimal digit string such as -12.5 has the
    exact value numerator / 10**places (-125, 1); ValueError for anything
    else.  The integer and the fractional digits convert separately, so each
    part on its own meets Python's limit on digits per int conversion."""
    if not (isinstance(digits, str) and _DECIMAL_RE.fullmatch(digits)):
        raise ValueError(f"not a decimal digit string: {digits!r}")
    intpart, _, fracpart = digits.lstrip("+-").partition(".")
    num = int(intpart) * 10 ** len(fracpart) + int(fracpart or 0)
    return (-num if digits[0] == "-" else num), len(fracpart)


def decimal_to_fraction(digits: str) -> Fraction:
    """The exact value of a decimal digit string such as -12.5; ValueError
    for anything else."""
    num, places = parse_decimal(digits)
    return Fraction(num, 10 ** places)


def real_from_spec(spec: RealSpec, precision_bits: int) -> RealEnclosure:
    """Certified enclosure of the specified real at the requested precision."""
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")
    if spec.kind == KIND_RATIONAL:
        return RealEnclosure.exact(spec.rational, precision_bits)
    if spec.kind == KIND_CF:
        return RealEnclosure.exact(spec.cf_value(), precision_bits)
    if spec.kind == KIND_ROOT:
        return nth_root(Fraction(spec.base), spec.index, precision_bits)
    if spec.kind == KIND_CONSTANT:
        if spec.name == "e":
            return e_constant(precision_bits)
        if spec.name == "pi":
            return pi_constant(precision_bits)
        if spec.name == "ln2":
            return ln2_constant(precision_bits)
        raise UnsupportedSpec(f"unknown named constant: {spec.name!r}")
    if spec.kind == KIND_DECIMAL:
        value = decimal_to_fraction(spec.digits)
        # one unit in the last place
        ulp = Fraction(1, 10 ** len(spec.digits.partition(".")[2]))
        allowed = Fraction(2) ** (1 - precision_bits) * max(Fraction(1), abs(value))
        if ulp > allowed:
            raise InsufficientDigits(
                f"decimal spec has ulp {float(ulp):.2e} but {precision_bits} bits "
                f"demand radius <= {float(allowed):.2e}")
        return RealEnclosure(value, ulp, precision_bits)
    raise UnsupportedSpec(f"unknown spec kind: {spec.kind!r}")
