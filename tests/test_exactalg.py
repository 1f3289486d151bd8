"""Determinants of integer matrices, and the reference Pfaffians they are checked with."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from aztec_tilings import determinant_sparse, exactalg
from aztec_tilings.errors import InvalidMatrixError, exact_quotient
from oracles import determinant, pfaffian, pfaffian_expand_first_row


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


def test_bareiss_determinant_matches_fraction_elimination():
    # n up to 10 takes up to four two-steps; zero-heavy draws make singular
    # pivot blocks (the one-step fallback) and zero pivots (row swaps)
    rng = random.Random(11)
    for n in [1, 2, 3, 4] * 100 + [rng.randint(5, 10) for _ in range(200)]:
        values = rng.choice(((0, 0, 0, 1, -1), (0, 0, 1, -1, 2), tuple(range(-40, 41))))
        m = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        assert exactalg.determinant(m) == determinant(m), m
    for n in range(2, 11):
        m = [[rng.getrandbits(100) - 2**99 for _ in range(n)] for _ in range(n)]
        assert exactalg.determinant(m) == determinant(m), m


def test_bareiss_determinant_zero_pivots_swap_rows():
    for m in (
        [[0, 1], [1, 0]],  # one swap: det -1
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # a zero leading pivot
        [[1, 2, 3], [2, 4, 5], [3, 5, 6]],  # a zero pivot after the first step
    ):
        assert exactalg.determinant(m) == determinant(m) != 0


def test_bareiss_determinant_singular_and_empty():
    assert exactalg.determinant([]) == 1
    assert exactalg.determinant([[0, 0], [0, 0]]) == 0
    assert exactalg.determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0  # rank 2
    assert exactalg.determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # a zero column
    for m in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]]):
        with pytest.raises(InvalidMatrixError, match="matrix is not square"):
            exactalg.determinant(m)


def test_bareiss_determinant_huge_common_factor():
    rng = random.Random(12)
    for n in (1, 3, 6, 9):
        base = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = [[2**800 * x for x in row] for row in base]
        assert exactalg.determinant(m) == determinant(m) == 2 ** (800 * n) * determinant(base)


def _pivot_blocks(monkeypatch, m):
    """exactalg.determinant(m), and the minor of every 2 x 2 pivot block it tried."""
    blocks = []

    def recorded(x, d, what):
        q = exact_quotient(x, d, what)
        if what == "Bareiss block":
            blocks.append(q)
        return q

    monkeypatch.setattr(exactalg, "exact_quotient", recorded)
    return exactalg.determinant(m), blocks


def test_bareiss_singular_pivot_block_falls_back_to_one_step(monkeypatch):
    # a_00 != 0 but the leading 2 x 2 block is singular, so column 0 is
    # cleared alone; column 1 is then 0 in row 1, so its pivot row is found
    # only below it, swapped in with a sign flip, and two-stepped from there
    m = [[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 3, 1], [1, 0, 2, 5]]
    assert _pivot_blocks(monkeypatch, m) == (determinant(m), [0, 1]) == (-22, [0, 1])
    # the same at n = 5, where a two-step follows the fallback with a row below
    m = [[2, 1, 0, 1, 3], [4, 2, 1, 0, 1], [0, 1, 3, 1, 2], [1, 0, 2, 5, 1], [3, 1, 1, 2, 2]]
    assert _pivot_blocks(monkeypatch, m) == (determinant(m), [0, 2]) == (-48, [0, 2])


def test_bareiss_two_step_after_a_swap_and_a_zero_column_after_it(monkeypatch):
    # column 0 has its first nonzero in row 2: swapped in, then a two-step
    m = [[0, 1, 2, 3], [0, 2, 1, 1], [3, 1, 4, 1], [1, 5, 9, 2]]
    assert _pivot_blocks(monkeypatch, m) == (determinant(m), [6]) == (86, [6])
    # column 2 = column 0 + column 1: it is 0 below the first two-step
    m = [[1, 2, 3, 4], [3, 4, 7, 1], [5, 6, 11, 2], [7, 1, 8, 3]]
    assert _pivot_blocks(monkeypatch, m) == (0, [-2])


def sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.data())
def test_sparse_determinant_matches_fraction_elimination(n, data):
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    m = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    assert determinant_sparse(sparse(m)) == determinant(m)


def test_sparse_determinant_reaches_hadamards_bound():
    # k copies of the 4x4 Hadamard matrix: rows of four entries +-1 and
    # |det| = 2^n, Hadamard's bound for such rows
    h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    for k in range(1, 9):
        n = 4 * k
        m = [[0] * n for _ in range(n)]
        for b in range(k):
            for i in range(4):
                m[4 * b + i][4 * b : 4 * b + 4] = h4[i]
        assert determinant_sparse(sparse(m)) == 16**k


def test_sparse_determinant_banded_and_singular():
    # tridiagonal 2, -1: det = n + 1; a repeated row makes it singular
    for n in range(1, 12):
        m = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        assert determinant_sparse(sparse(m)) == n + 1
        if n > 1:
            assert determinant_sparse(sparse(m[:-1] + [m[0]])) == 0
    assert determinant_sparse([]) == 1
    assert determinant_sparse([{0: 1}, {}]) == 0
    with pytest.raises(InvalidMatrixError):
        determinant_sparse([{0: 1, 2: 1}, {1: 1}])


def test_sparse_determinant_huge_common_factor():
    # |det| is about 2^48000, far past any bound a fixed modulus could cover
    rng = random.Random(12)
    base = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    m = [[2**3000 * x for x in row] for row in base]
    assert determinant_sparse(sparse(m)) == determinant(m) == 2 ** (3000 * 16) * determinant(base)
    assert determinant(base) != 0

