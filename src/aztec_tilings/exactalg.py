"""The exact determinant of an integer matrix by Bareiss's fraction-free elimination.

It computes in exact ints.  After pivot k the entry (i, j) becomes
(p a_ij - a_ik a_kj) / p_prev, the minor on rows and columns 0..k plus i and
j, so every division is exact and checked, and the last pivot is the
determinant (Bareiss, Math. Comp. 22, 1968).  ``determinant`` takes a dense
matrix and swaps in a row for a zero pivot.  It is the one elimination of
the package: the condensation counters take every Pfaffian as the
determinant of its half-size block, and ``counting.count_tilings_paths``
takes the determinant of its path counts.  Where the 2 x 2 block of the next
two pivots is nonsingular it clears both their columns in one step,
Bareiss's two-step method from the same paper: the multipliers are 2 x 2
minors over the previous pivot, exact by Sylvester's identity, and each
entry takes 3 products and 1 division for the two columns, against 4 and 2,
so the elimination takes less time than the one-step method.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalInconsistencyError, InvalidParameterError, exact_quotient

Matrix = Sequence[Sequence[int]]


def _bareiss(a: list[list[int]]) -> int:
    """Reduce the n x n matrix a in place by Bareiss's steps.

    Returns the sign of the row swaps, or 0 when a pivot column of the
    matrix has no nonzero entry left.  A zero pivot is replaced by the first
    row below it with a nonzero entry in its column.  The elimination clears
    below pivots 0..n-2, so a[-1][-1] ends as the determinant up to that
    sign.

    Where a row is left below rows k and k+1, the elimination takes pivots
    k and k+1 in one step if their block's minor
    c0 = (a_kk a_k+1,k+1 - a_k,k+1 a_k+1,k) / p_prev is nonzero.  Row i then
    becomes (c0 a_ij + c1 a_k+1,j + c2 a_kj) / p_prev, with
    c1 = (a_ik a_k,k+1 - a_i,k+1 a_kk) / p_prev and
    c2 = (a_i,k+1 a_k+1,k - a_ik a_k+1,k+1) / p_prev: the 3 x 3 determinant
    of the current entries on rows k, k+1, i and columns k, k+1, j, expanded
    along row i.  By Sylvester's identity a 2 x 2 minor of current entries
    is p_prev times a minor of the input, so c0, c1 and c2 are exact, and
    that 3 x 3 determinant is p_prev^2 times the minor on rows and columns
    0..k+1 plus i and j, so the division is exact too; c0 is the next
    p_prev.  Each division is checked: the block's minor by
    ``errors.exact_quotient``, c1 and c2 by one test of their two
    remainders, and each entry's by its own.  A singular block (c0 = 0) falls back to the one-step update, as
    does the last column.  Only the columns right of the pivots are updated,
    which is all a caller reads.
    """
    n = len(a)
    sign = p_prev = 1
    k = 0
    while k < n - 1:
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        rk = rk1 = a[k]
        c0, step = rk[k], 1
        if k + 2 < n:
            block = exact_quotient(c0 * a[k + 1][k + 1] - rk[k + 1] * a[k + 1][k], p_prev, "Bareiss block")
            if block:
                c0, step, rk1 = block, 2, a[k + 1]
        for i in range(k + step, n):
            row_i = a[i]
            if step == 2:
                c1, r1 = divmod(row_i[k] * rk[k + 1] - row_i[k + 1] * rk[k], p_prev)
                c2, r2 = divmod(row_i[k + 1] * rk1[k] - row_i[k] * rk1[k + 1], p_prev)
                if r1 or r2:
                    raise InternalInconsistencyError(f"Bareiss step {k}: a multiplier of row {i} is not "
                                                     f"divisible by the previous pivot {p_prev:#x}")
            else:
                c1, c2 = 0, -row_i[k]
            for j in range(k + step, n):
                q, r = divmod(c0 * row_i[j] + c1 * rk1[j] + c2 * rk[j], p_prev)
                if r:
                    raise InternalInconsistencyError(f"Bareiss step {k}: entry ({i}, {j}) is not "
                                                     f"divisible by the previous pivot {p_prev:#x}")
                row_i[j] = q
        p_prev = c0
        k += step
    return sign


def determinant(m: Matrix) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination.

    A copy of the matrix is reduced by ``_bareiss``.  Raises
    ``InvalidParameterError`` unless m is square.
    """
    if any(len(row) != len(m) for row in m):
        raise InvalidParameterError("matrix is not square")
    a = [list(row) for row in m]
    return _bareiss(a) * a[-1][-1] if a else 1

