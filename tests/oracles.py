"""Reference Pfaffians and determinant, used only to cross-check the package.

None shares code with ``aztec_tilings.exactalg``, which holds only the
Bareiss determinants: ``pfaffian`` is fraction-free skew elimination with
pivot search, ``pfaffian_expand_first_row`` expands along the first row, and
``determinant`` eliminates over ``Fraction``.  ``pfaffian`` checks that its
matrix is skew-symmetric of even dimension; the other two assume a square
matrix, and the expansion a skew-symmetric one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from aztec_tilings.errors import InternalInconsistencyError, InvalidParameterError

Matrix = Sequence[Sequence[int]]


def _check_skew(m: Matrix) -> None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidParameterError("matrix is not square")
    if n % 2 == 1:
        raise InvalidParameterError(f"Pfaffian needs even dimension, got {n}")
    for i in range(n):
        if m[i][i] != 0:
            raise InvalidParameterError(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, n):
            if m[i][j] != -m[j][i]:
                raise InvalidParameterError(f"entries ({i},{j}) and ({j},{i}) are not opposite")


def pfaffian(m: Matrix) -> int:
    """Pfaffian of a skew-symmetric integer matrix; pfaffian(m)**2 == determinant(m).

    With M = g A for an integer matrix A of content 1, Pf(M) = g^(n/2) Pf(A).
    A is reduced fraction-free: after the pivot pair (k, k+1) with pivot p,
    entry (i, j) becomes (p a_ij - a_ki a_k+1,j + a_kj a_k+1,i) / p_prev, the
    Pfaffian minor on the eliminated indices plus {i, j}, so the division is
    exact and the last pivot is Pf(A).
    """
    _check_skew(m)
    n = len(m)
    if n == 0:
        return 1
    g = math.gcd(*(x for row in m for x in row))
    if g == 0:
        return 0
    a = [[x // g for x in row] for row in m]
    sign = 1
    p_prev = 1
    for k in range(0, n, 2):
        rk = a[k]
        pivot_row = next((i for i in range(k + 1, n) if rk[i]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k + 1:
            a[k + 1], a[pivot_row] = a[pivot_row], a[k + 1]
            for row in a:
                row[k + 1], row[pivot_row] = row[pivot_row], row[k + 1]
            sign = -sign
        rk1 = a[k + 1]
        p = rk[k + 1]
        for i in range(k + 2, n):
            row_i, aki, ak1i = a[i], rk[i], rk1[i]
            for j in range(i + 1, n):
                q, r = divmod(p * row_i[j] - aki * rk1[j] + rk[j] * ak1i, p_prev)
                if r:
                    raise InternalInconsistencyError(
                        f"fraction-free Pfaffian step {k // 2}: entry ({i}, {j}) "
                        f"is not divisible by the previous pivot {p_prev}"
                    )
                row_i[j] = q
                a[j][i] = -q
        p_prev = p
    return sign * p * g ** (n // 2)


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
