"""Exact rank over Fraction and planted-dependency rows: a reference for the
integer rank and span tests, independent of polyalg."""

from fractions import Fraction

from hypothesis import strategies as st


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, independent of polyalg."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def planted_rows(draw, width=5):
    """Random small-integer rows with planted dependencies: multiples, sums
    and zero rows of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["free", "free", "multiple", "sum", "zero"]))
        if kind == "free" or not rows:
            rows.append(draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width)))
        elif kind == "multiple":
            base = draw(st.sampled_from(rows))
            k = draw(st.integers(-4, 4))
            rows.append([k * x for x in base])
        elif kind == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([ka * x + kb * y for x, y in zip(a, b)])
        else:
            rows.append([0] * width)
    return rows
