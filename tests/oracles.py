"""Independently coded Pfaffian and determinant, used only to cross-check exactalg.

Neither shares code with ``aztec_tilings.exactalg``: the Pfaffian expands
along the first row and the determinant eliminates over ``Fraction``.  Both
assume a square matrix, and the expansion a skew-symmetric one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def pfaffian_expand_first_row(m: Matrix) -> int:
    """Pfaffian by the alternating first-row expansion.

    Each sub-Pfaffian is memoized on its tuple of remaining indices, so shared
    subproblems of the expansion are evaluated once.
    """
    memo: dict[tuple[int, ...], int] = {(): 1}

    def expand(idx: tuple[int, ...]) -> int:
        if idx in memo:
            return memo[idx]
        first, rest = idx[0], idx[1:]
        total = 0
        sign = 1
        for pos, j in enumerate(rest):
            if m[first][j]:
                total += sign * m[first][j] * expand(rest[:pos] + rest[pos + 1 :])
            sign = -sign
        memo[idx] = total
        return total

    return expand(tuple(range(len(m))))


def determinant(m: Matrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] == 0:
                continue
            factor = rows[i][col] * inv
            for j in range(col, n):
                rows[i][j] -= factor * rows[col][j]
    return det
