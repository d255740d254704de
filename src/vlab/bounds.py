"""Explicit upper-bound constants for the uniform approximation exponent.

Four families of bounds are constructed and certified here, all as functions
of the degree n >= 2:

* ``beta(n)``  -- largest root of the monic quartic ``quartic_Q(n)``,
  certified to lie in (2n-2, 2n-1) with the full four-real-roots structure.
* ``gamma(n)`` -- largest root of the monic cubic ``cubic_R(n)``, same
  certification with three real roots.
* ``rho(n)``   -- closed form max((sqrt5+1)/2 * n - (sqrt5-1)/2, 2n-2).
* ``sigma(n)`` / ``alpha(n)`` -- the comparison constants from the earlier
  method, obtained by exact-sign bisection of an integer polynomial on
  (n, 2n-1); alpha applies the published case split (sigma for
  n <= 9, 2n-2 for n >= 10).

The cubic form ``theta`` and its linear-in-w variant ``theta_tilde`` encode
the inequalities that the bound constants equilibrate; their equilibrium
substitutions reproduce the quartic and cubic exactly.  The test suite checks
this against references in ``tests/reference.py`` (the exact equilibrium
quartic of ``theta`` and its largest root in w), which no command needs.

Table emission truncates decimal expansions (never rounds).  Cells whose
truncation disagrees with the bundled published reference values are flagged
rather than forced: the reference table is known to round a few cells
(gamma at n=3, alpha at n=4 and 5) and to misprint gamma at n=7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .enclosure import RealEnclosure, nth_root
from .errors import NoSignChange, PrecisionExhausted, RootCountMismatch
from .polynomials import IntPolynomial
from .rootisolation import count_roots_open, isolate_all_real_roots, refine_root, sturm_chain

DEFAULT_TOL = Fraction(1, 10**13)

Real = Union[RealEnclosure, Fraction, int]


def _ball(x: Real) -> RealEnclosure:
    if isinstance(x, RealEnclosure):
        return x
    return RealEnclosure.exact(x)


# ---------------------------------------------------------------------------
# Bound polynomials and their certified roots
# ---------------------------------------------------------------------------


def quartic_Q(n: int) -> IntPolynomial:
    """Monic quartic whose largest root is beta_n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    a3 = 4 - 4 * n
    a2 = 5 * n**2 - 12 * n + 8
    a1 = -2 * n**3 + 11 * n**2 - 18 * n + 7
    a0 = -2 * n**3 + 6 * n**2 - 4 * n
    return IntPolynomial([a0, a1, a2, a3, 1])


def cubic_R(n: int) -> IntPolynomial:
    """Monic cubic whose largest root is gamma_n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    c2 = -(4 * n - 4)
    c1 = 5 * n**2 - 11 * n + 6
    c0 = -2 * n**3 + 8 * n**2 - 10 * n + 3
    return IntPolynomial([c0, c1, c2, 1])


def _largest_root_in_window(poly: IntPolynomial, n: int, expected_roots: int,
                            tol: Fraction) -> RealEnclosure:
    """Certify the real-root structure and refine the largest root, which must
    be the unique root in (2n-2, 2n-1)."""
    chain = sturm_chain(poly)
    ivs = isolate_all_real_roots(poly, chain)
    if len(ivs) != expected_roots:
        raise RootCountMismatch(
            f"expected {expected_roots} distinct real roots, isolated {len(ivs)}")
    lo, hi = Fraction(2 * n - 2), Fraction(2 * n - 1)
    inside = count_roots_open(chain, lo, hi)
    if inside != 1:
        raise RootCountMismatch(f"expected exactly one root in ({lo}, {hi}), found {inside}")
    root = refine_root(poly, ivs[-1], tol)
    if not (lo < root.lo() and root.hi() < hi):
        raise RootCountMismatch("largest root did not certify inside the window")
    return root


def beta(n: int, tol: Fraction = DEFAULT_TOL) -> RealEnclosure:
    """Largest root of quartic_Q(n), certified in (2n-2, 2n-1)."""
    return _largest_root_in_window(quartic_Q(n), n, 4, tol)


def gamma(n: int, tol: Fraction = DEFAULT_TOL) -> RealEnclosure:
    """Largest root of cubic_R(n), certified in (2n-2, 2n-1)."""
    return _largest_root_in_window(cubic_R(n), n, 3, tol)


def rho(n: int, precision_bits: int = 128) -> RealEnclosure:
    """Closed-form conditional bound: (sqrt5+3)/2 at n=2, sqrt5+2 at n=3,
    exactly 2n-2 for n >= 4."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n >= 4:
        return RealEnclosure.exact(2 * n - 2, precision_bits)
    s5 = nth_root(Fraction(5), 2, precision_bits)
    if n == 2:
        return ((s5 + 3) / 2).compress(precision_bits)
    return (s5 + 2).compress(precision_bits)


def sigma_poly(n: int) -> IntPolynomial:
    """The sigma_n defining equation with its pole at x = n multiplied out:
    (n-1) x (x-n)^(n-1) - (x-1)(x-n)^n - (n-1)^n."""
    xm = IntPolynomial([-n, 1])
    x = IntPolynomial([0, 1])
    term1 = x.scale(n - 1) * xm ** (n - 1)
    term2 = IntPolynomial([-1, 1]) * xm ** n
    return term1 - term2 - IntPolynomial([(n - 1) ** n])


def sigma(n: int, tol: Fraction = DEFAULT_TOL) -> RealEnclosure:
    """The comparison constant in (n, 2n-1), by exact-sign bisection of
    ``sigma_poly``.  The raw equation has a pole at x=n and a spurious solution
    at exactly x=2n-1, so the bracket endpoints stay 1e-6 inside."""
    if n < 2:
        raise ValueError("n must be >= 2")
    g = sigma_poly(n)
    eps = Fraction(1, 10**6)
    a, b = Fraction(n) + eps, Fraction(2 * n - 1) - eps
    chain = sturm_chain(g)
    if count_roots_open(chain, a, b) != 1:
        raise RootCountMismatch("sigma bracket does not isolate one root")
    sa, sb = g.sign_at(a), g.sign_at(b)
    if sa == 0 or sb == 0 or sa == sb:
        raise NoSignChange("sigma bisection bracket carries no sign change")
    return refine_root(g, (a, b), tol)


def alpha(n: int, tol: Fraction = DEFAULT_TOL) -> RealEnclosure:
    """max(2n-2, sigma_n) via the published case split: sigma_n for
    2 <= n <= 9, exactly 2n-2 for n >= 10."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n >= 10:
        return RealEnclosure.exact(2 * n - 2)
    return sigma(n, tol)


# ---------------------------------------------------------------------------
# The cubic form and its variants
# ---------------------------------------------------------------------------


def theta(n: int, w: Real, tau_k: Real, tau_l: Real) -> RealEnclosure:
    """The cubic-in-w form d3 w^3 + d2 w^2 + d1 w + d0; exact when all inputs
    are exact, outward-rounded enclosure arithmetic otherwise."""
    w, tk, tl = _ball(w), _ball(tau_k), _ball(tau_l)
    d3 = tk
    d2 = -(2 * n * tk + (n - 2))
    d1 = tk * tl + (n**2 + n - 1) * tk + (1 - n) * tl + (n**2 - n - 2)
    d0 = -n * ((n - 1 + tl) * tk + (n - 2))
    return ((d3 * w + d2) * w + d1) * w + d0


def theta_tilde(n: int, w: Real, tau_k: Real, tau_l: Real) -> RealEnclosure:
    """The linear-in-w variant used for the conditional bounds."""
    w, tk, tl = _ball(w), _ball(tau_k), _ball(tau_l)
    return ((2 * n - 2) * tk * w
            - (2 * n**2 - 3 * n + 2) * tk
            - (2 * n**2 - 5 * n + 2)
            - tk * ((2 * n - 1) * tl - 1 - w))


def h_tilde(n: int, x: Real) -> RealEnclosure:
    """x + n - 1 + (n-2)/x; the local minimum sits at x = sqrt(n-2)."""
    xb = _ball(x)
    if xb.lo() <= 0:
        raise ValueError("h_tilde needs x > 0")
    return xb + (n - 1) + (n - 2) / xb


def w_root_of_theta_tilde(n: int, tau: Real) -> RealEnclosure:
    """Unique root in w of theta_tilde(n, w, tau, tau); equals h_tilde(n, tau)."""
    t = _ball(tau)
    if t.lo() <= 0:
        raise ValueError("tau must be positive")
    # linear in w: coefficient (2n-1) tau, so root = h_tilde closed form after
    # dividing out; solve directly from the two coefficients to stay generic
    num = ((2 * n**2 - 3 * n + 2) * t + (2 * n**2 - 5 * n + 2)
           + t * ((2 * n - 1) * t - 1))
    den = (2 * n - 1) * t
    return num / den


# ---------------------------------------------------------------------------
# The comparison table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    n: int
    beta: RealEnclosure
    alpha: RealEnclosure
    gamma: RealEnclosure
    rho: RealEnclosure


@dataclass(frozen=True)
class TableCell:
    text: str
    flag: Optional[str] = None


#: Published four-digit reference values; computed cells whose truncation
#: disagrees are flagged in the emitted table, never forced to agree.  Known
#: disagreements: gamma at n=7 (reference misprints 10.0328 for 12.0328) and
#: the reference's rounding of gamma at n=3 and alpha at n=4, 5.
PUBLISHED_REFERENCE = {
    2: {"beta": "2.6180", "alpha": "2.6180", "gamma": "2.6180", "rho": "2.6180"},
    3: {"beta": "4.3234", "alpha": "4.4142", "gamma": "4.3028", "rho": "4.2360"},
    4: {"beta": "6.1592", "alpha": "6.2875", "gamma": "6.1451", "rho": "6"},
    5: {"beta": "8.0865", "alpha": "8.2010", "gamma": "8.0791", "rho": "8"},
    6: {"beta": "10.0528", "alpha": "10.1382", "gamma": "10.0488", "rho": "10"},
    7: {"beta": "12.0352", "alpha": "12.0906", "gamma": "10.0328", "rho": "12"},
    8: {"beta": "14.0251", "alpha": "14.0532", "gamma": "14.0236", "rho": "14"},
    9: {"beta": "16.0187", "alpha": "16.0231", "gamma": "16.0177", "rho": "16"},
}


def truncate_decimals(ball: RealEnclosure, digits: int = 4) -> str:
    """Decimal expansion cut off (not rounded) after ``digits`` places,
    certified: the whole enclosure must truncate identically."""
    scale = 10 ** digits
    lo_t = (ball.lo() * scale).__floor__()
    hi_t = (ball.hi() * scale).__floor__()
    if lo_t != hi_t:
        raise PrecisionExhausted(
            "enclosure straddles a truncation boundary; refine the root first")
    if ball.is_exact and ball.mid.denominator == 1:
        return str(ball.mid.numerator)
    sign = "-" if lo_t < 0 else ""
    lo_t = abs(lo_t)
    return f"{sign}{lo_t // scale}.{lo_t % scale:0{digits}d}"


def bounds_table(n_min: int, n_max: int, tol: Fraction = DEFAULT_TOL) -> List[BoundsRow]:
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    return [
        BoundsRow(n, beta(n, tol), alpha(n, tol), gamma(n, tol), rho(n))
        for n in range(n_min, n_max + 1)
    ]


def table_cells(row: BoundsRow) -> dict:
    """Truncated cell strings plus reference-mismatch flags for one row."""
    ref = PUBLISHED_REFERENCE.get(row.n, {})
    out = {}
    for name in ("beta", "alpha", "gamma", "rho"):
        text = truncate_decimals(getattr(row, name))
        flag = None
        if name in ref and ref[name] != text:
            flag = f"computed {text}, published reference prints {ref[name]}"
        out[name] = TableCell(text, flag)
    return out


def format_table_text(rows: List[BoundsRow]) -> str:
    header = f"{'n':>3} {'beta':>10} {'alpha':>10} {'gamma':>10} {'rho':>10}"
    lines = [header, "-" * len(header)]
    notes = []
    for row in rows:
        cells = table_cells(row)
        marks = {}
        for name, cell in cells.items():
            if cell.flag:
                notes.append(f"[{len(notes) + 1}] n={row.n} {name}: {cell.flag}")
                marks[name] = f"*{len(notes)}"
        lines.append(
            f"{row.n:>3} "
            + " ".join(f"{cells[name].text + marks.get(name, ''):>10}"
                       for name in ("beta", "alpha", "gamma", "rho"))
        )
    if notes:
        lines.append("")
        lines.extend(notes)
    return "\n".join(lines) + "\n"


def format_table_csv(rows: List[BoundsRow]) -> str:
    lines = ["n,beta,alpha,gamma,rho"]
    for row in rows:
        cells = table_cells(row)
        lines.append(",".join([str(row.n)] + [cells[k].text
                                              for k in ("beta", "alpha", "gamma", "rho")]))
    return "\n".join(lines) + "\n"


def format_table_json(rows: List[BoundsRow]) -> list:
    out = []
    for row in rows:
        cells = table_cells(row)
        obj = {"n": row.n}
        flags = []
        for name in ("beta", "alpha", "gamma", "rho"):
            obj[name] = cells[name].text
            if cells[name].flag:
                flags.append({"column": name, "note": cells[name].flag})
        obj["flags"] = flags
        out.append(obj)
    return out
