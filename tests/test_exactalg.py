"""Pfaffian and determinant of integer matrices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from aztec_tilings import determinant, pfaffian, pfaffian_expand_first_row
from aztec_tilings.errors import InvalidMatrixError


def skew(upper):
    """Build a skew matrix from its strict upper triangle, row by row."""
    n = int((1 + (1 + 8 * len(upper)) ** 0.5) / 2)
    m = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            x = next(it)
            m[i][j] = x
            m[j][i] = -x
    return m


FOUR_BY_FOUR = skew([1, 2, 3, 4, 5, 6])


def test_empty_matrix():
    assert pfaffian([]) == 1


def test_two_by_two():
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    assert pfaffian_expand_first_row([[0, 5], [-5, 0]]) == 5


def test_four_by_four_expansion_value():
    # 1*6 - 2*5 + 3*4
    assert pfaffian(FOUR_BY_FOUR) == 8
    assert pfaffian_expand_first_row(FOUR_BY_FOUR) == 8
    assert determinant(FOUR_BY_FOUR) == 64


def test_rejects_bad_matrices():
    with pytest.raises(InvalidMatrixError):
        pfaffian([[0, 1], [1, 0]])  # not skew
    with pytest.raises(InvalidMatrixError):
        pfaffian([[1]])  # odd dimension, nonzero diagonal
    with pytest.raises(InvalidMatrixError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd dimension


def test_singular_matrix_gives_zero():
    m = skew([0, 0, 0, 1, 0, 0])  # first row entirely zero
    assert pfaffian(m) == 0
    assert determinant(m) == 0


def test_zero_pivot_needs_column_search():
    m = skew([0, 1, 2, 3, 4, 5])  # a[0][1] = 0 forces a swap
    assert pfaffian(m) == pfaffian_expand_first_row(m)
    assert pfaffian(m) ** 2 == determinant(m)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_pfaffian_squares_to_determinant(half, data):
    n = 2 * half
    upper = data.draw(
        st.lists(
            st.integers(-60, 60),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    m = skew(upper)
    pf = pfaffian(m)
    assert pf * pf == determinant(m)
    assert pf == pfaffian_expand_first_row(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.data())
def test_swap_negates_pfaffian(half, data):
    n = 2 * half
    upper = data.draw(
        st.lists(st.integers(-6, 6), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    m = skew(upper)
    i, j = sorted(data.draw(st.permutations(range(n)))[:2])
    if i == j:
        return
    swapped = [row[:] for row in m]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    for row in swapped:
        row[i], row[j] = row[j], row[i]
    assert pfaffian(swapped) == -pfaffian(m)


def test_random_six_by_six_agreement():
    rng = random.Random(99)
    for _ in range(25):
        upper = [rng.randint(-9, 9) for _ in range(15)]
        m = skew(upper)
        assert pfaffian(m) == pfaffian_expand_first_row(m)


def test_huge_common_factor():
    rng = random.Random(5)
    for n in (4, 6, 8):
        m = skew([2**800 * rng.randint(-9, 9) for _ in range(n * (n - 1) // 2)])
        assert pfaffian(m) == pfaffian_expand_first_row(m)


def test_zero_pivot_after_first_step_needs_swap():
    # a[0][1] != 0, but the leading 4 x 4 Pfaffian a01 a23 - a02 a13 + a03 a12
    # vanishes, so the reduced (2, 3) entry is 0 and step 1 must swap columns.
    m = skew([1, 1, 0, 4, 5, 0, 1, -2, 3, 1, 7, 2, 2, 6, -3])
    assert m[0][1] != 0
    assert pfaffian([row[:4] for row in m[:4]]) == 0
    pf = pfaffian(m)
    assert pf != 0
    assert pf == pfaffian_expand_first_row(m)
    assert pf**2 == determinant(m)


def block_skew(b):
    """[[0, B], [-B^T, 0]]: the bipartite pattern of a white-black adjacency."""
    h = len(b)
    m = [[0] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        for j in range(h):
            m[i][h + j] = b[i][j]
            m[h + j][i] = -b[i][j]
    return m


def test_large_entries_bipartite_pattern():
    rng = random.Random(7)
    h = 10
    b = [[rng.choice((-1, 1)) * rng.getrandbits(800) for _ in range(h)] for _ in range(h)]
    m = block_skew(b)  # every a[k][k+1] starts at 0, so every step swaps
    pf = pfaffian(m)
    assert pf**2 == determinant(m)
    assert pf == (-1) ** (h * (h - 1) // 2) * determinant(b)
