"""Flat linear algebra over Q against the independent oracles.rref."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skewgrass import qlinalg

MAX_ROWS, MAX_COLS = 6, 8


def _times(a, x):
    return [sum((r * v for r, v in zip(row, x)), F(0)) for row in a]


@st.composite
def matrices(draw, rows=None, cols=None):
    """Int or Fraction matrices up to 6 x 8, half of them forced rank deficient.

    There some rows are copies or combinations of earlier ones, and some rows
    and columns are zeroed, so pivots are missing and columns are skipped.
    """
    rows = rows or draw(st.integers(1, MAX_ROWS), label="rows")
    cols = cols or draw(st.integers(1, MAX_COLS), label="cols")
    if draw(st.booleans(), label="integral"):
        entry = st.integers(-9, 9)
    else:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    deficient = draw(st.booleans(), label="deficient")
    a = []
    for _ in range(rows):
        kinds = ["free", "copy", "combine"] if a and deficient else ["free"]
        kind = draw(st.sampled_from(kinds), label="kind")
        if kind == "free":
            a.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
        elif kind == "copy":
            a.append(list(draw(st.sampled_from(a))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
            a.append([sum((c * row[j] for c, row in zip(coeffs, a)), 0) for j in range(cols)])
    if not deficient:
        return a
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows // 2), label="zero rows"):
        a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2), label="zero cols"):
        for row in a:
            row[j] = 0
    order = draw(st.permutations(range(rows)), label="row order")
    return [a[i] for i in order]


def _check_rref(a):
    before = [list(row) for row in a]
    r, pivots = qlinalg.rref(a)
    assert a == before
    want = oracles.rref(a)
    rank = len(want)
    assert pivots == [next(j for j, x in enumerate(row) if x) for row in want]
    assert len(r) == len(a) and all(len(row) == len(a[0]) for row in r)
    assert all(isinstance(x, F) for row in r for x in row)
    assert tuple(tuple(row) for row in r[:rank]) == want
    assert all(not x for row in r[rank:] for x in row)


@settings(max_examples=150)
@given(a=matrices())
def test_rref_matches_the_oracle(a):
    _check_rref(a)


@pytest.mark.parametrize("a", [
    [[0, 0, 0]],
    [[0], [0], [0]],
    [[0, F(2, 3), 5, 0]],
    [[0], [F(-4, 9)], [0], [7]],
    [[1, 2], [2, 4], [0, 0], [3, 6]],
    [[0, 1, 2], [0, 2, 4], [0, 0, 0]],
], ids=["zero row", "zero column", "1xn", "nx1", "rank one", "zero first column"])
def test_rref_edge_shapes(a):
    _check_rref(a)


def test_empty_matrix():
    assert qlinalg.rref([]) == ([], [])
    assert qlinalg.rank([]) == 0 and qlinalg.kernel_basis([]) == []


@settings(max_examples=100)
@given(a=matrices(), data=st.data())
def test_rank_kernel_and_solve(a, data):
    rows, cols = len(a), len(a[0])
    rank = len(oracles.rref(a))
    assert qlinalg.rank(a) == rank
    kernel = qlinalg.kernel_basis(a)
    assert len(kernel) == cols - rank
    assert all(not x for k in kernel for x in _times(a, k))
    if kernel:
        assert len(oracles.rref(kernel)) == cols - rank
    x0 = data.draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), label="x0")
    noise = data.draw(st.lists(st.integers(-2, 2), min_size=rows, max_size=rows), label="noise")
    for b in (_times(a, x0), [v + e for v, e in zip(_times(a, x0), noise)]):
        x = qlinalg.solve(a, b)
        consistent = len(oracles.rref([row + [v] for row, v in zip(a, b)])) == rank
        assert (x is not None) == consistent
        if x is not None:
            assert _times(a, x) == b
            assert x == oracles.solve(a, b)


@settings(max_examples=100)
@given(data=st.data())
def test_inverse(data):
    n = data.draw(st.integers(1, MAX_ROWS), label="n")
    a = data.draw(matrices(rows=n, cols=n), label="a")
    inv = qlinalg.inverse(a)
    singular = len(oracles.rref(a)) < n
    assert (inv is None) == singular
    if inv is not None:
        assert qlinalg.is_identity(qlinalg.matmul(a, inv))
        assert qlinalg.is_identity(qlinalg.matmul(inv, a))
        assert tuple(tuple(row) for row in inv) == oracles.q_inverse(a)
