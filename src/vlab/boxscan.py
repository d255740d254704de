"""One streamed scan of a coefficient box: the kernel of the record search,
the oracle and the successive minima.

Three callers draw their candidates from one streamed scanner,
``scan_box``: both routes of ``bestapprox.search`` and the successive-minima
windows of ``paramgeom`` (the seed box is its window with no value cut).
Each asks for the cells whose float value s (P(xi) without its constant
term) is within a tolerance of a constant term of the box: the record rungs
at their threshold, the windows at their value cut, the oracle once, at a
pigeonhole bound that counts the constant term (see
``bestapprox.search.min_poly_at_height``).  The scanner checks the box's
cell count against ``BOX_BUDGET`` before allocating (``check_box``).  For a
narrow tolerance it finds those cells by binary search in the sorted
fractional parts of the trailing axes' sums, without visiting the others;
otherwise it walks the box in chunks of bounded size.  Either way it yields
the same cells in the box's C order, and the one rigorous error bound of
their values is ``box_dot_error``, so a cell left out provably holds no
wanted candidate (the covering step of ``scan_box``).  All three complete a
yielded cell by one rule, ``completions``, the only place a constant term
is chosen: the constant terms of the box that can bring its value within
the caller's bound (a rung's threshold, the oracle's tolerance), each
scored in numpy, and the completions a caller picks come back as canonical
integer rows, each polynomial once (the twin rule for u and -u).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .enclosure import RealEnclosure, fixed_point
from .errors import BudgetExceeded

#: most cells one coefficient-box scan may cover
BOX_BUDGET = 3 * 10**8
#: cells per scan chunk; bounds the scan's float work arrays (8 bytes a cell)
SCAN_CHUNK_CELLS = 1 << 16
#: round-gap windows narrower than this go to the sorted-fraction scan: its
#: hits are about 2 width of the box's cells, and on the benchmark's boxes
#: the two walks cost the same near width 0.045 (at 1/32 the sorted one
#: takes about 3/4 of the dense one's time)
_SORTED_WIDTH = 1 / 32


class FixedPointXi:
    """Integer fixed-point view of the powers of xi.

    ``pows[i] / 2^bits`` approximates xi^i with certified error
    ``errs[i] / 2^bits``; dot products with integer coefficient vectors give
    certified enclosures of P(xi) scaled by 2^bits.
    """

    def __init__(self, xi: RealEnclosure, n: int, bits: int):
        self.bits = bits
        self.scale = 1 << bits
        self.pows: List[int] = []
        self.errs: List[int] = []
        power = RealEnclosure.exact(1, xi.precision_bits)
        for i in range(n + 1):
            q, err = fixed_point(power, bits)
            self.pows.append(q)
            self.errs.append(err + 1)
            power = (power * xi).compress((xi.precision_bits or bits) + 8)

    def raw(self, coeffs: Sequence[int]) -> Tuple[int, int]:
        """(S, E) with |P(xi) * 2^bits - S| <= E."""
        s = 0
        e = 0
        for c, p, pe in zip(coeffs, self.pows, self.errs):
            if c:
                s += c * p
                e += abs(c) * pe
        return s, e

    def abs_interval(self, coeffs: Sequence[int]) -> Tuple[int, int]:
        """Integer interval [lo, hi] with |P(xi)| * 2^bits inside it."""
        s, e = self.raw(coeffs)
        s = abs(s)
        return max(0, s - e), s + e

    def value_ball(self, coeffs: Sequence[int]) -> RealEnclosure:
        s, e = self.raw(coeffs)
        return RealEnclosure.from_scaled(s, e, self.scale, self.bits)

    def float_powers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(float powers, rigorous per-power float error bounds)."""
        mids = np.array([p / self.scale for p in self.pows], dtype=np.float64)
        # conversion int/2^bits -> float is within 1 ulp; add the fixed-point error
        errs = np.array(
            [e / self.scale + abs(m) * 2.3e-16 + 5e-300 for e, m in zip(self.errs, mids)],
            dtype=np.float64,
        )
        return mids, errs


def box_dot_error(mids: np.ndarray, merrs: np.ndarray, height: int) -> float:
    """The scan's one float error bound e: each P of the box of ``height``
    has its float value |s - k| (``completions``) within e of |P(xi)|.
    height * sum(merrs[1:]) covers the float powers' errors, and
    (terms + 2) 2.3e-16 (magnitude + 1) the roundings, by the gamma_n bound
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  The
    magnitude is the scan's value at the corner c_i = height*sign(mids[i]),
    summed in the scan's order (float ``+`` and ``*`` are monotone under
    round-to-nearest, so that is the box's largest |s|, bit for bit), plus
    height max|mids| for the constant term."""
    corner = 0.0
    for m in mids[1:]:
        corner += (height if m >= 0 else -height) * m
    magnitude = corner + height * float(np.max(np.abs(mids)))
    return height * float(np.sum(merrs[1:])) + (len(mids) + 2) * 2.3e-16 * (magnitude + 1.0)


def in_budget(axes: int, height: int) -> bool:
    """Whether the box [-height, height]^axes has at most ``BOX_BUDGET``
    cells, the one box budget of every scan."""
    return (2 * height + 1) ** axes <= BOX_BUDGET


def check_box(axes: int, height: int, task: str, at: str) -> None:
    """Raise BudgetExceeded, naming ``task`` and ``at``, when the box
    [-height, height]^axes is over the box budget (``in_budget``)."""
    if not in_budget(axes, height):
        raise BudgetExceeded(
            f"{task} needs a coefficient box of {(2 * height + 1) ** axes:.2e} "
            f"cells at {at}, above the box budget {BOX_BUDGET:.0e}")


def scan_box(mids: np.ndarray, height: int, tol: float, task: str, at: str):
    """Stream the cells of the box [-height, height]^axes, axes = len(mids) - 1,
    whose clipped gap |s - clip(rint s, -height, height)| (``_completion_gap``)
    is <= ``tol``: every cell when ``tol`` is infinite.

    s = c_1 mids[1] + c_2 mids[2] + ... is P(xi) without its constant
    term, each product rounded and the sum taken left to right, axis by
    axis; a cell's s is the same bit for bit however the box is walked.  A
    box over the box budget raises BudgetExceeded (``check_box``) before
    anything is allocated.

    Covering: a cell left out has every completion by a constant term -k,
    k in [-height, height], at float value |s - k| > ``tol``, since
    clip(rint s) is the integer of [-height, height] nearest s and float
    ``-`` is monotone.  Callers scan at their value bound plus the box's
    float error (``box_dot_error``), so such a cell provably holds no
    wanted polynomial.  The clipped gap is >= the round gap |s - rint s|,
    which the walks test first.

    The cells come in the box's C order, as (int array of shape (k,
    axes), their s values) pairs, k >= 1; how they are split into pairs is
    the walk's own business, so a caller must not read the split.  Two
    walks give the same cells, order and s bytes: the sorted-fraction walk
    (``_scan_sorted``) when ``_sorted_width`` gives a window (two axes or
    more and a narrow ``tol``), which finds the cells of round gap <= ``tol``
    by binary search and computes s for those only, and the dense walk
    (``_scan_dense``) otherwise.
    """
    check_box(len(mids) - 1, height, task, at)
    width = _sorted_width(mids, height, tol)
    if width is None:
        return _scan_dense(mids, height, tol)
    return _scan_sorted(mids, height, tol, width)


def _scan_dense(mids: np.ndarray, height: int, tol: float):
    """The dense walk of ``scan_box``: the box in chunks of about
    ``SCAN_CHUNK_CELLS`` cells and never less than one line along the last
    axis, which bounds its float work arrays.  A chunk fixes the first
    ``split`` axes, takes a run of ``rows`` rows along the next one (made
    for the chunk, so a box of one axis is never held whole) and the whole
    of the axes after it (``split`` is 0 unless one leading-axis row is over
    the chunk size), so the chunks cut the box's C order into consecutive
    runs; each chunk with a kept cell is one pair.  Its s is built in numpy,
    and the clipped gap tested where the round gap is <= ``tol`` (everywhere
    from 1/2)."""
    axes = len(mids) - 1
    side = 2 * height + 1
    split = 0
    while split < axes - 2 and side ** (axes - 1 - split) > SCAN_CHUNK_CELLS:
        split += 1
    whole = axes - 1 - split  # axes a chunk covers whole
    rows = min(side, max(1, SCAN_CHUNK_CELLS // side ** whole))
    coord = np.arange(-height, height + 1, dtype=np.float64) if axes > 1 else None
    # c_i mids[i] of the whole axes along their chunk dimensions, once a box
    terms = [coord.reshape((side,) + (1,) * (axes - i)) * mids[i]
             for i in range(split + 2, axes + 1)]
    work = np.empty((1,) * split + (rows,) + (side,) * whole)  # the full-size sums, reused
    for lead in itertools.product(range(side), repeat=split):
        # the fixed axes' share of s, a scalar summed in the same order
        fixed = None
        for i, j in enumerate(lead, start=1):
            fixed = coord[j] * mids[i] if fixed is None else fixed + coord[j] * mids[i]
        for start in range(0, side, rows):
            s = np.arange(start - height, min(start + rows, side) - height, dtype=np.float64)
            s = s.reshape((1,) * split + (-1,) + (1,) * whole)
            s = s * mids[split + 1] if fixed is None else fixed + s * mids[split + 1]
            for i, term in enumerate(terms, start=split + 2):
                last = work[(slice(None),) * split + (slice(s.shape[split]),)]
                s = np.add(s, term, out=last if i == axes else None)
            v = s.ravel()
            if tol >= 0.5:  # every round gap passes
                flat = (np.arange(v.size) if tol == np.inf
                        else np.flatnonzero(_completion_gap(v, height) <= tol))
            else:  # the clipped gap only where the round gap passes
                flat = np.flatnonzero(_round_gap(v) <= tol)
                flat = flat[_completion_gap(v[flat], height) <= tol]
            if flat.size:
                coeffs = np.stack(np.unravel_index(flat, s.shape), axis=1)
                coeffs += np.array(lead + (start,) + (0,) * whole) - height
                yield coeffs, v[flat]


def _sorted_width(mids: np.ndarray, height: int, tol: float) -> Optional[float]:
    """The window half-width tol + margin of the sorted-fraction walk of
    ``scan_box`` at ``tol`` (the margin is proved in ``_scan_sorted``), or
    None when the scan walks every cell: one axis, or a window of
    ``_SORTED_WIDTH`` or wider."""
    if len(mids) < 3 or not tol < _SORTED_WIDTH:
        return None
    width = tol + 4 * (len(mids) + 1) * 2.3e-16 * (
        height * float(np.sum(np.abs(mids[1:]))) + 1.0)
    return width if width < _SORTED_WIDTH else None


def _axis_sums(coord: np.ndarray, mids: np.ndarray, first: int, last: int) -> np.ndarray:
    """The float sums c_first mids[first] + ... + c_last mids[last] over the
    box of those axes, summed left to right, flat in C order."""
    s = coord * mids[first]
    for i in range(first + 1, last + 1):
        s = (s[:, None] + coord * mids[i]).ravel()
    return s


def _scan_sorted(mids: np.ndarray, height: int, tol: float, width: float):
    """The sorted-fraction walk of ``scan_box``: the same cells, found by
    binary search instead of by visiting every cell.

    The axes split into a leading part A (the first axes // 2) and a
    trailing part B.  With s_A and s_B the float sums of their shares of s
    (each left to right) and f = x - floor(x) the fractional part, a cell is
    near an integer when f(s_A) + f(s_B) is near k in {0, 1, 2}.  So f(s_A)
    and f(s_B) are sorted (this is the one place the B side is built), and
    the A values get the B values with f(s_B) in the windows
    [k - f(s_A) - w, k - f(s_A) + w], w = ``width`` = tol + margin
    (``_sorted_width``), by ``np.searchsorted``: the k = 1 window for every
    A value, the k = 0 window for those with f(s_A) <= w, the k = 2 window
    for those with f(s_A) >= fl(1 - 2w).  One search for each end of all
    those windows takes their keys k by k, each k in increasing f(s_A),
    which lets each key's search narrow from the last; the results go back
    to A order.  Only the hits get their s, in the
    scan's own order (on from s_A, which is its partial sum over A), and
    the exact clipped-gap test.
    The A values are taken in A order, in blocks of about
    ``SCAN_CHUNK_CELLS`` hits; a block's hits are sorted into C order and
    yielded at once, so the cells come in the box's C order.

    Covering: every cell with |s - K| <= tol, K an integer, is a hit, and
    with it every cell of clipped gap <= tol.  Let
    u = 2^-53, p_i = fl(c_i mids[i]), M = height sum |mids[i]| and n the
    number of axes, so sum |p_i| <= (1 + u) M.  s is the left-to-right sum
    of s_A, p_(a+1), ..., p_n (s_A is the scan's own partial sum), and s_B
    that of p_(a+1), ..., p_n; by the bound gamma_(k-1) sum |x_i| on
    recursive summation of k terms (gamma_j = j u / (1 - j u)),
    |s - (s_A + s_B)| <= d = 2 gamma_n (1 + gamma_n)(1 + u) M <= 2.1 n u M.
    The exact fractional parts F_A, F_B lie in [0, 1), and the floats f(s_A),
    f(s_B) are within u of them (one rounding of a value <= 1).  With
    k = K - floor(s_A) - floor(s_B), |F_A + F_B - k| <= tol + d < w < 1/2,
    so k is in {0, 1, 2}, and |f(s_B) - (k - f(s_A))| <= tol + d + 2u.  The
    window ends fl(fl(k - f(s_A)) -+ w) take two roundings of values of
    size <= 5/2, at most 2u each, and w = fl(tol + margin) is at most u
    below tol + margin; so the window holds f(s_B) whenever
    margin >= d + 7u, which 4 (n + 2) 2.3e-16 (M + 1) >= 4 n u M + 8u is.
    The windows of the three k are disjoint, as w < ``_SORTED_WIDTH`` <= 1/4,
    so no cell is a hit twice.

    The skipped (A value, k) windows are empty, as 0 <= f(s_B) <= 1.  For
    k = 0 and f(s_A) > w, the upper end fl(w - f(s_A)) is < 0, since a
    float difference of unequal floats is never 0 and keeps its sign.  For
    k = 2 and f(s_A) < fl(1 - 2w) <= 1 - 2w + u, fl(2 - f(s_A)) >
    1 + 2w - 2u (one rounding of a value in [1, 2], at most u), so the
    lower end fl(fl(2 - f(s_A)) - w) > 1 + w - 3u > 1, as w > 3u.  So the
    searches skipped would each count no hit, and the hits are those of
    searching all three windows for every A value.
    """
    axes = len(mids) - 1
    coord = np.arange(-height, height + 1, dtype=np.float64)
    side = len(coord)
    lead = axes // 2
    s_a = _axis_sums(coord, mids, 1, lead)
    f_a = s_a - np.floor(s_a)
    a_order = np.argsort(f_a)
    f_a = f_a[a_order]
    f_b = _axis_sums(coord, mids, lead + 1, axes)
    f_b -= np.floor(f_b)
    b_order = np.argsort(f_b)
    f_b = f_b[b_order]
    n_a = len(f_a)
    # the A values (in f_a's order) whose k = 0 and k = 2 windows can hold
    # an f(s_B): f_a[:low] <= w and f_a[high:] >= fl(1 - 2w)
    low = int(np.searchsorted(f_a, width, side="right"))
    high = int(np.searchsorted(f_a, 1 - 2 * width, side="left"))
    # k - f(s_A) of the windows searched, k by k, each k in increasing f(s_A)
    base = np.concatenate((0 - f_a[:low], 1 - f_a, 2 - f_a[high:]))
    start = np.searchsorted(f_b, base - width, side="left")
    found = np.searchsorted(f_b, base + width, side="right") - start
    # (A value, k) in A order; a window not searched holds no hit
    lo, count = np.zeros((2, 3 * n_a), dtype=np.intp)
    searched = np.concatenate((a_order[:low], n_a + a_order, 2 * n_a + a_order[high:]))
    lo[searched] = start
    count[searched] = found
    lo, count = lo.reshape(3, n_a).T, count.reshape(3, n_a).T
    per_a = count.sum(axis=1)
    # blocks of A values of about SCAN_CHUNK_CELLS hits, at least one value
    block = (np.cumsum(per_a) - per_a) // SCAN_CHUNK_CELLS
    cuts = np.flatnonzero(np.diff(block)) + 1
    for a0, a1 in zip([0] + cuts.tolist(), cuts.tolist() + [len(per_a)]):
        c = count[a0:a1].ravel()
        total = int(c.sum())
        if not total:
            continue
        pos = np.repeat(lo[a0:a1].ravel() - (np.cumsum(c) - c), c) + np.arange(total)
        flat = np.repeat(np.arange(a0, a1) * len(f_b), per_a[a0:a1]) + b_order[pos]
        flat.sort()
        # s_A is the scan's own partial sum: go on from it, axis by axis
        at_a, at_b = np.divmod(flat, len(f_b))
        s = s_a[at_a]
        for i, j in enumerate(np.unravel_index(at_b, (side,) * (axes - lead)), start=lead + 1):
            s += coord[j] * mids[i]
        near = _completion_gap(s, height) <= tol
        if near.any():
            coeffs = np.stack(np.unravel_index(flat[near], (side,) * axes), axis=1) - height
            yield coeffs, s[near]


def _round_gap(s: np.ndarray) -> np.ndarray:
    """|s - rint s| in a new array; the subtraction is exact."""
    d = np.rint(s)
    return np.abs(np.subtract(s, d, out=d), out=d)


def _completion_gap(s: np.ndarray, height: int) -> np.ndarray:
    """|s - clip(rint s, -height, height)| bit for bit, as max(|s - rint s|,
    |s| - height): the max is the first term unless |rint s| > height, where
    |s| - height >= 1/2 is the clipped gap (float ``-`` is monotone)."""
    beyond = np.abs(s)
    beyond -= height
    return np.maximum(_round_gap(s), beyond, out=beyond)


def completions(coeffs: np.ndarray, s: np.ndarray, height: int, bound: float, dot_err: float,
                pick):
    """The completions of scanned cells by a constant term, as rows.

    A cell of ``scan_box`` at ``height`` (upper coefficients ``coeffs``,
    float value ``s``, error bound ``dot_err`` = e) completes to the
    polynomials with constant term -k for the k = r + j inside the box,
    r = clip(rint s, -height, height) and |j| <= reach =
    min(floor(bound + e + 1/2), 2 height); the zero cell completes to the
    nonzero constants, each once (k < 0).  A completion has float value
    |s - k| and height max(h_u, |k|), h_u the cell's own height;
    ``pick(values, heights)`` (arrays, one entry a completion) marks the
    completions to keep.  They come back as (int64 rows (c_0, c_1, ...) of
    canonical sign, that is first nonzero coefficient positive, their
    values, their heights), cell by cell and k ascending within a cell.

    Covering: every polynomial P of the box with |P(xi)| <= ``bound`` is a
    completion of its cell.  Its -c_0 = k is within ``bound`` of the true
    s, which is within e of the float s, which is within 1/2 of rint s; so
    the integer |k - rint s| is at most floor(bound + e + 1/2) (a float sum
    reaching an integer does not round below it), clipping rint s to the
    box, where k lies, only brings it closer, and no two points of the box
    are more than 2 height apart.  A completion's float value is within e
    of |P(xi)|: ``box_dot_error`` counts the constant term among its terms
    and ``height`` in its magnitude, so e covers the rounding of s - k too.

    Twin rule: of the cells u and -u only the first in scan order (first
    nonzero coefficient negative; the zero cell is its own twin) is
    completed, so each polynomial comes back once.  This is exact because
    the scan's s of -u is -s(u) bit for bit (coord is symmetric, and under
    round-to-nearest every product and left-to-right sum is sign-symmetric):
    the scan yields -u exactly when it yields u, and -u completes to the
    negated rows of u, with the same float values and heights.
    """
    first = coeffs[np.arange(len(coeffs)), np.argmax(coeffs != 0, axis=1)] <= 0
    coeffs, s = coeffs[first], s[first]
    h_u = np.abs(coeffs).max(axis=1)
    reach = int(min(bound + dot_err + 0.5, 2 * height))
    k = np.clip(np.rint(s), -height, height)[:, None] + np.arange(-reach, reach + 1)
    cell, j = np.nonzero((np.abs(k) <= height) & ((h_u > 0)[:, None] | (k < 0)))
    k = k[cell, j].astype(np.int64)
    values = np.abs(s[cell] - k)
    heights = np.maximum(h_u[cell], np.abs(k))
    picked = pick(values, heights)
    rows = np.column_stack([-k[picked], coeffs[cell[picked]]])
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows *= np.where(lead < 0, -1, 1)[:, None]
    return rows, values[picked], heights[picked]
