"""Exact evaluators for the closed-form tiling counts.

Every count function returns a plain nonnegative int, computed in integer
arithmetic only: powers of two, binomials, their sums and products.  The two
counts the literature states with a terminating 3F2 are summed term by term,
each term rewritten as a product of binomials, so no term is a fraction.  The
one true division, in ``count_ar_kept_se``, is checked to be exact, so a
convention bug cannot silently round.  Every binomial's upper index is
nonnegative; where the lower one may fall below 0 the private ``_comb``
gives 0 there, and elsewhere ``math.comb`` is called directly.

Every count is a power of two times an integer, and every power is taken
from ``count_aztec_diamond``, which checks its order, so no count answers for
a rectangle without rows.  The families the three-sided Pfaffian uses keep
that integer in an unscaled helper, which takes positions the caller has
already checked and gives a beta's whole row of entries in one pass:
``ar_gamma_se_row`` against the gammas, by prefix sums,
``ar_gamma_nw_row`` against them, one binomial sum per entry, and
``ad_adjacent_row`` against a diamond side, by Horner's rule.  The public
``count_*`` validates, then multiplies by its power, so the condensation
module can build its entries without the power and apply it once, in the
quotient.  Nothing here keeps a memo: condensation memoizes the entries a
row at a time.

Each public count is one family, and ``condensation``'s ``formula`` engine
is the one place that maps a configuration to its family.
``count_ar_kept_se`` is the whole SE-only family: with kept = all but i on
AR(a, a+1) it is 2^(a(a+1)/2) C(a, i-1), and with kept = {1, b-a+2..b},
the SE block 2..b-a+1 removed, it is 2^(a(a+1)/2) C(b-1, a-1).

Region conventions (see geometry): AR(a, b) has white cells 1..b on the NW
and SE sides and black cells 1..a on the NE and SW sides; gamma squares are
the black cells glued under the SE side, position 1 in the south-corner
notch.  "AR(a, b) minus SE j" removes the SE cell at position j.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

from .errors import InvalidParameterError, exact_quotient


def _comb(c: int, d: int) -> int:
    """C(c, d) for c >= 0, and 0 for d < 0, where ``math.comb`` would raise."""
    return math.comb(c, d) if d >= 0 else 0


def count_aztec_diamond(n: int) -> int:
    """Tilings of the order-n diamond: 2^(n(n+1)/2), the power every other count carries."""
    if type(n) is not int or n < 1:
        raise InvalidParameterError(f"need an int n >= 1, got {n!r}")
    return 2 ** (n * (n + 1) // 2)


def count_ar_kept_se(a: int, b: int, kept: Sequence[int]) -> int:
    """Tilings of AR(a, b) with all SE cells removed except those in ``kept``.

    kept must be strictly increasing positions 1 <= s_1 < ... < s_a <= b; the
    count is 2^(a(a+1)/2) prod_{i<j} (s_j - s_i) / prod_{i<j} (j - i), whose
    quotient is always an integer, so a remainder raises
    ``InternalInconsistencyError``.
    """
    s = list(kept)
    if len(s) != a or any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise InvalidParameterError(f"kept positions must be {a} strictly increasing values")
    if s and (s[0] < 1 or s[-1] > b):
        raise InvalidParameterError(f"kept positions must lie in 1..{b}")
    num = math.prod(s[j] - s[i] for i in range(a) for j in range(i + 1, a))
    den = math.prod(j - i for i in range(a) for j in range(i + 1, a))
    return count_aztec_diamond(a) * exact_quotient(num, den, f"count_ar_kept_se({a}, {b}, {s})")


def _gamma_power(a: int, k: int, pos: int, name: str) -> int:
    """2^(a(a+1)/2), the power a gamma family's count carries, once k and the position are checked."""
    if k < 1 or not 1 <= pos <= a + k:
        raise InvalidParameterError(f"need k >= 1 and 1 <= {name} <= {a + k}, got k={k}, {name}={pos}")
    return count_aztec_diamond(a)


def count_ar_gamma_se_defect(a: int, k: int, j: int) -> int:
    """Tilings of AR(a, a+k) with gamma squares at positions 2..k and SE cell j removed.

    For j > k the paper states the count as
    2^(a(a+1)/2) C(a+k-1, j-1) C(j-2, k-1) 3F2[1, 1-j, 1-k; 2-j, 1-a-k; 1].
    Its m-th term is (j-1)/(j-1-m) C(k-1, m) / C(a+k-1, m), and with
    C(N, j-1) C(j-1, m) = C(N, m) C(N-m, j-1-m) the prefactor times that term
    is C(a+k-1-m, j-1-m) C(j-2-m, k-1-m), so the count is
    2^(a(a+1)/2) sum_{m<k} C(a+k-1-m, j-1-m) C(j-2-m, k-1-m), the first
    entry of ``ar_gamma_se_row``.
    For j <= k the formula does not apply and the count is 2^(a(a+1)/2).
    Gamma t touches only SE cells t-1 and t, so with SE j gone each gamma is
    forced, working outward from j: onto SE t-1 for t <= j and onto SE t for
    t > j.  That covers SE 1..k except the removed j, and what is left is
    AR(a, a+k) minus SE 1..k, whose kept positions k+1..a+k are consecutive,
    so ``count_ar_kept_se`` gives 2^(a(a+1)/2).
    """
    return _gamma_power(a, k, j, "j") * ar_gamma_se_row(a, k, j)[0]


def ar_gamma_se_row(a: int, k: int, j: int) -> tuple[int, ...]:
    """``count_ar_gamma_se_defect(a, k-p+1, j-p+1)`` / 2^(a(a+1)/2) for p = 1..k, 0 past j, unchecked.

    The difference d = j - k is the same for every p.  For d <= 0 the entry
    is 1 up to p = j.  For d > 0, with n = k-p-m, the sum over m is
    sum_{n<k-p+1} C(a+n, a-d) C(n+d-1, d-1), so the row is the prefix sums
    of those terms, read from the longest.
    """
    d = j - k
    if d <= 0:
        return (1,) * j + (0,) * (k - j)
    terms = (math.comb(a + n, a - d) * math.comb(n + d - 1, d - 1) for n in range(k))
    return tuple(accumulate(terms))[::-1]


def count_ar_se_nw_defects(a: int, i: int, j: int) -> int:
    """Tilings of AR(a, a+2) with SE cell i and NW cell j removed."""
    if not (1 <= i <= a + 2 and 1 <= j <= a + 2):
        raise InvalidParameterError(f"positions must lie in 1..{a + 2}, got i={i}, j={j}")
    return count_aztec_diamond(a) * (_comb(a, i - 2) * _comb(a, j - 1) + _comb(a, i - 1) * _comb(a, j - 2))


def count_ar_se_block_nw_defect(a: int, k: int, i: int) -> int:
    """Tilings of AR(a, a+k) with SE positions 2..k and NW cell i removed.

    Closed form obtained by unrolling the one-column peeling recursion:
    2^(a(a+1)/2) sum_{t=1}^{min(k, i)} C(a, i-t) C(a+t-2, a-1), whose
    t = 1 term is C(a, i-1).  C(a, i-t) is 0 unless t >= i - a, so the sum
    takes at most a + 1 terms.  Reduces to the single-defect count for k = 1
    and to 2^(a(a+1)/2) for i = 1.
    """
    terms = (math.comb(a, i - t) * math.comb(a + t - 2, a - 1) for t in range(max(1, i - a), min(k, i) + 1))
    return _gamma_power(a, k, i, "i") * sum(terms)


def count_ar_gamma_nw_defect(a: int, k: int, i: int) -> int:
    """Tilings of AR(a, a+k) with gamma squares at positions 2..k and NW cell i removed.

    The first gamma square can pair two ways, so this is the telescoped sum
    of count_ar_se_block_nw_defect(a, k-q+1, i-q+1) over q = 1..min(k, i).
    Summed over q by the hockey-stick identity,
    sum_{m=0}^{M} C(a-1+m, a-1) = C(a+M, a), it is
    2^(a(a+1)/2) sum_{t=1}^{min(k, i)} C(a, i-t) C(a+t-1, a), the first
    entry of ``ar_gamma_nw_row``.
    """
    return _gamma_power(a, k, i, "i") * ar_gamma_nw_row(a, k, i)[0]


def ar_gamma_nw_row(a: int, k: int, i: int) -> tuple[int, ...]:
    """``count_ar_gamma_nw_defect(a, k-p+1, i-p+1)`` / 2^(a(a+1)/2) for p = 1..k, 0 past i, unchecked.

    Entry p is sum_{t=p}^{min(k, i)} C(a, i-t) C(a+t-p, a), the count's sum
    at (k-p+1, i-p+1) with t shifted by p - 1.  Each entry takes at most
    a + 1 terms, t >= i - a, all with nonnegative arguments.
    """
    m = min(k, i)
    return tuple(sum(math.comb(a, i - t) * math.comb(a + t - p, a) for t in range(max(p, i - a), m + 1))
                 for p in range(1, m + 1)) + (0,) * (k - m)


def count_ad_adjacent_defects(a: int, i: int, j: int) -> int:
    """Tilings of AD(a) minus SE cell i (from south) and NE cell j (from north).

    Helfgott and Gessel state the count as
    2^(a(a-1)/2) C(a-1, i-1) C(a-1, j-1) 3F2[1, 1-i, 1-j; 1-a, 1-a; 2].
    Its m-th term is 2^m C(i-1, m) C(j-1, m) / C(a-1, m)^2, and with
    C(a-1, i-1) C(i-1, m) = C(a-1, m) C(a-1-m, i-1-m) the count is
    2^(a(a-1)/2) sum_{m<min(i,j)} 2^m C(a-1-m, i-1-m) C(a-1-m, j-1-m).
    ``ad_adjacent_row`` takes the same sums a row at a time.
    """
    if not (1 <= i <= a and 1 <= j <= a):
        raise InvalidParameterError(f"positions must lie in 1..{a}, got i={i}, j={j}")
    terms = (2**m * math.comb(a - 1 - m, i - 1 - m) * math.comb(a - 1 - m, j - 1 - m) for m in range(min(i, j)))
    return (count_aztec_diamond(a) >> a) * sum(terms)


def ad_adjacent_row(a: int, i: int) -> tuple[int, ...]:
    """``count_ad_adjacent_defects(a, i, j)`` / 2^(a(a-1)/2) for j = 1..a, unchecked.

    Since C(a-1-m, j-1-m) is the coefficient of x^(j-1-m) in (1+x)^(a-1-m),
    entry j is the coefficient of x^(j-1) in
    P(x) = sum_{m<i} 2^m C(a-1-m, i-1-m) x^m (1+x)^(a-1-m).  Horner's rule
    in 1 + x takes P with m rising: a times, multiply by 1 + x, then add
    term m at x^m (zero for m >= i).  P is held as one int at x = 2^(2a),
    a 2a-bit digit per coefficient, so multiplying by 1 + x is a shift and
    an add, and the row is read off digit by digit.

    No digit carries into the next.  A binomial C(n, d) is at most 2^n, so
    term m adds at most 2^m 2^(2(a-1-m)) = 2^(2a-2-m) to a coefficient of
    P, and every coefficient of P is below the sum of those over m >= 0,
    2^(2a-1).  The partial sum after step m is
    sum_{m'<=m} 2^m' C(a-1-m', i-1-m') x^m' (1+x)^(m-m'), whose
    coefficients are at most P's, as C(n, d) grows with n and P's further
    terms are nonnegative.
    """
    w, p = 2 * a, 0
    for m in range(a):  # times 1 + x, plus term m, which is 0 for m >= i
        p += (p << w) + (_comb(a - 1 - m, i - 1 - m) << m << w * m)
    return tuple(p >> w * t & (1 << w) - 1 for t in range(a))
