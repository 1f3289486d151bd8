"""Exact linear algebra on integer matrices: Pfaffian and determinant.

Both dense routines compute in exact ints: the matrix is divided by the gcd
of its entries, then reduced fraction-free, O(n^3) int operations whose every
division is exact and checked.  ``determinant`` is Bareiss's elimination
(Math. Comp. 22, 1968) with a row swap for a zero pivot; the condensation
counters take every Pfaffian as the determinant of its half-size block.
``pfaffian`` is the skew analogue, with pivot search, for a general
skew-symmetric matrix.

``determinant_sparse`` takes a matrix as sparse rows and eliminates modulo
one Mersenne prime chosen above Hadamard's bound, so its residue is the
determinant itself.  On a banded matrix it touches only rows inside the band:
O(n w^2) operations for half-bandwidth w, which for the Kasteleyn matrix of
an Aztec rectangle of order a is O(a^4).
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InternalInconsistencyError, InvalidMatrixError

Matrix = Sequence[Sequence[int]]

# Exponents e of the first 27 Mersenne primes 2^e - 1; a Kasteleyn matrix past
# the last one, an Aztec region of order above 200, would take days to eliminate.
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                      3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497)


def _check_skew(m: Matrix) -> None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidMatrixError("matrix is not square")
    if n % 2 == 1:
        raise InvalidMatrixError(f"Pfaffian needs even dimension, got {n}")
    for i in range(n):
        if m[i][i] != 0:
            raise InvalidMatrixError(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, n):
            if m[i][j] != -m[j][i]:
                raise InvalidMatrixError(f"entries ({i},{j}) and ({j},{i}) are not opposite")


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


def determinant(m: Matrix) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination.

    With M = g A for an integer matrix A of content 1, det(M) = g^n det(A).
    A is reduced in place: after pivot k, entry (i, j) becomes
    (p a_ij - a_ik a_kj) / p_prev, the minor on rows and columns 0..k plus
    i and j, so the division is exact and the last pivot is det(A).  A zero
    pivot is replaced by the first row below it with a nonzero entry in its
    column, and each such swap flips the sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidMatrixError("matrix is not square")
    if n == 0:
        return 1
    g = math.gcd(*(x for row in m for x in row))
    if g == 0:
        return 0
    a = [[x // g for x in row] for row in m]
    sign = 1
    p_prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(p * row_i[j] - aik * rk[j], p_prev)
                if r:
                    raise InternalInconsistencyError(
                        f"Bareiss step {k}: entry ({i}, {j}) "
                        f"is not divisible by the previous pivot {p_prev}"
                    )
                row_i[j] = q
        p_prev = p
    return sign * a[-1][-1] * g**n


def determinant_sparse(rows: Sequence[dict[int, int]]) -> int:
    """Determinant of the square integer matrix whose row i is {column: entry}.

    Hadamard's bound |det| <= prod_i |row_i| gives |det| <= 2^h with h the
    ceiling of half the sum of ceil(log2 |row_i|^2); for a Kasteleyn matrix,
    whose rows hold at most four entries +-1, h <= n.  Elimination runs modulo
    the Mersenne prime P = 2^e - 1 with the least tabled e > h + 1, so
    P > 2 |det| and the residue taken in (-P/2, P/2) is the determinant
    itself: one prime above the bound is exact, and no second prime or
    Chinese remaindering is needed.  Columns are eliminated in order, and a
    row joins the active rows when the column of its first entry is reached,
    so pivot search and elimination see only rows inside the band.
    """
    n = len(rows)
    if any(not 0 <= c < n for row in rows for c in row):
        raise InvalidMatrixError(f"a column index is outside the {n} x {n} matrix")
    half_bits = sum((sum(x * x for x in row.values()) - 1).bit_length() for row in rows)
    e = next((e for e in MERSENNE_EXPONENTS if e > (half_bits + 1) // 2 + 1), None)
    if e is None:
        raise InvalidMatrixError(f"Hadamard bound 2^{(half_bits + 1) // 2} exceeds the prime table")
    p = (1 << e) - 1
    if not all(rows):
        return 0
    waiting = sorted(range(n), key=lambda i: min(rows[i]), reverse=True)  # next row last
    # original row index -> row; an entry is reduced mod p only where it is a multiplier
    active: dict[int, dict[int, int]] = {}
    pivot_rows = []  # pivot_rows[k] is the original index of the row that pivots column k
    det = 1
    for k in range(n):
        while waiting and min(rows[waiting[-1]]) <= k:
            i = waiting.pop()
            active[i] = dict(rows[i])
        i = next((i for i, row in active.items() if row.get(k, 0) % p), None)
        if i is None:
            return 0
        pivot = active.pop(i)
        pivot_rows.append(i)
        pv = pivot.pop(k) % p
        det = det * pv % p
        inv = pow(pv, -1, p)
        pivot_rest = [(c, y * inv % p) for c, y in pivot.items()]  # the pivot row over pv
        for row in active.values():
            x = row.pop(k, 0) % p
            if x:
                for c, y in pivot_rest:
                    row[c] = row.get(c, 0) - x * y
    for k in range(n):  # sort the row permutation by swaps, each flipping the sign
        while (j := pivot_rows[k]) != k:
            pivot_rows[k], pivot_rows[j] = pivot_rows[j], j
            det = -det
    det %= p
    return det if det <= p // 2 else det - p
