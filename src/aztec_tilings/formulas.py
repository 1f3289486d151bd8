"""Exact evaluators for the closed-form tiling counts.

Every count function returns a plain nonnegative int.  The terminating
hypergeometric sums are evaluated in exact ints by Horner's rule over the
term ratios and returned as one Fraction; the final products are checked for
integrality, so a convention bug cannot silently round.

Region conventions (see geometry): AR(a, b) has white cells 1..b on the NW
and SE sides and black cells 1..a on the NE and SW sides; gamma squares are
the black cells glued under the SE side, position 1 in the south-corner
notch.  "AR(a, b) minus SE j" removes the SE cell at position j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    InternalInconsistencyError,
    InvalidParameterError,
    NonterminatingSeriesError,
    SingularParametersError,
)


def binomial_ext(c: int, d: int) -> int:
    """Generalized binomial: c(c-1)...(c-d+1)/d! for d >= 0, else 0."""
    if d < 0:
        return 0
    if c >= 0:
        return math.comb(c, d)
    return (-1) ** d * math.comb(d - c - 1, d)


def hyp_terminating(
    numerator: Sequence[int], denominator: Sequence[int], z: int | Fraction
) -> Fraction:
    """Terminating hypergeometric sum with integer parameters.

    Truncates at K = min over nonpositive numerator parameters p of (-p) + 1;
    raises if no parameter terminates the series or if a denominator
    Pochhammer vanishes before the truncation point.  The sum is taken by
    Horner's rule from the last term back, 1 + r_0 (1 + r_1 (1 + ...)), with
    term ratios r_k = z prod(p + k) / (prod(q + k) (k + 1)) kept as an int
    numerator/denominator pair, so one Fraction is reduced at the end.
    """
    tops = [p for p in numerator if p <= 0]
    if not tops:
        raise NonterminatingSeriesError(f"no nonpositive numerator parameter in {numerator}")
    terms = min(-p for p in tops) + 1
    for q in denominator:
        if q <= 0 and -q + 1 <= terms - 1:
            raise SingularParametersError(
                f"denominator parameter {q} vanishes at term {-q + 1} < {terms}"
            )
    zn, zd = Fraction(z).as_integer_ratio()
    span = terms - 1  # ratios r_0 .. r_{K-2}
    ratio_nums = map(math.prod, zip(*(range(p, p + span) for p in numerator)))
    ratio_dens = map(math.prod, zip(range(1, terms), *(range(q, q + span) for q in denominator)))
    num = den = 1
    for rn, rd in reversed(list(zip(ratio_nums, ratio_dens))):
        rd *= zd
        num, den = rd * den + zn * rn * num, rd * den
    return Fraction(num, den)


def _as_count(value: Fraction | int, context: str) -> int:
    value = Fraction(value)
    if value.denominator != 1 or value < 0:
        raise InternalInconsistencyError(f"{context} evaluated to {value}, not a count")
    return int(value)


def count_aztec_diamond(n: int) -> int:
    """Tilings of the order-n diamond: 2^(n(n+1)/2)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return 2 ** (n * (n + 1) // 2)


def count_ar_kept_se(a: int, b: int, kept: Sequence[int]) -> int:
    """Tilings of AR(a, b) with all SE cells removed except those in ``kept``.

    kept must be strictly increasing positions 1 <= s_1 < ... < s_a <= b; the
    count is 2^(a(a+1)/2) * prod_{i<j} (s_j - s_i)/(j - i), always an integer.
    """
    s = list(kept)
    if len(s) != a or any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise InvalidParameterError(f"kept positions must be {a} strictly increasing values")
    if s and (s[0] < 1 or s[-1] > b):
        raise InvalidParameterError(f"kept positions must lie in 1..{b}")
    value = Fraction(2 ** (a * (a + 1) // 2))
    for i in range(a):
        for j in range(i + 1, a):
            value *= Fraction(s[j] - s[i], j - i)
    return _as_count(value, f"count_ar_kept_se({a}, {b}, {s})")


def count_ar_one_se_removed(a: int, i: int) -> int:
    """Tilings of AR(a, a+1) with the SE cell at position i removed."""
    if not 1 <= i <= a + 1:
        raise InvalidParameterError(f"need 1 <= i <= {a + 1}, got {i}")
    return 2 ** (a * (a + 1) // 2) * binomial_ext(a, i - 1)


def count_ar_se_block_removed(a: int, b: int) -> int:
    """Tilings of AR(a, b) with SE positions 2..b-a+1 removed."""
    if b < a:
        raise InvalidParameterError(f"need b >= a, got a={a}, b={b}")
    return 2 ** (a * (a + 1) // 2) * binomial_ext(b - 1, a - 1)


def count_ar_gamma_se_defect(a: int, k: int, j: int) -> int:
    """Tilings of AR(a, a+k) with gamma squares at positions 2..k and SE cell j removed.

    For j > k this is the product formula
    2^(a(a+1)/2) C(a+k-1, j-1) C(j-2, k-1) 3F2[1, 1-j, 1-k; 2-j, 1-a-k; 1];
    for j <= k the product formula does not apply and the count is 2^(a(a+1)/2).
    Gamma t touches only SE cells t-1 and t, so with SE j gone each gamma is
    forced, working outward from j: onto SE t-1 for t <= j and onto SE t for
    t > j.  That covers SE 1..k except the removed j, and what is left is
    AR(a, a+k) minus SE 1..k, whose kept positions k+1..a+k are consecutive,
    so ``count_ar_kept_se`` gives 2^(a(a+1)/2).
    """
    b = a + k
    if k < 1 or not 1 <= j <= b:
        raise InvalidParameterError(f"need k >= 1 and 1 <= j <= {b}, got k={k}, j={j}")
    base = 2 ** (a * (a + 1) // 2)
    if j <= k:
        return base
    hyp = hyp_terminating((1, 1 - j, 1 - k), (2 - j, 1 - a - k), 1)
    value = base * binomial_ext(a + k - 1, j - 1) * binomial_ext(j - 2, k - 1) * hyp
    return _as_count(value, f"count_ar_gamma_se_defect({a}, {k}, {j})")


def count_ar_se_nw_defects(a: int, i: int, j: int) -> int:
    """Tilings of AR(a, a+2) with SE cell i and NW cell j removed."""
    if not (1 <= i <= a + 2 and 1 <= j <= a + 2):
        raise InvalidParameterError(f"positions must lie in 1..{a + 2}, got i={i}, j={j}")
    return 2 ** (a * (a + 1) // 2) * (
        binomial_ext(a, i - 2) * binomial_ext(a, j - 1)
        + binomial_ext(a, i - 1) * binomial_ext(a, j - 2)
    )


def count_ar_se_block_nw_defect(a: int, k: int, i: int) -> int:
    """Tilings of AR(a, a+k) with SE positions 2..k and NW cell i removed.

    Closed form obtained by unrolling the one-column peeling recursion:
    2^(a(a+1)/2) [ C(a, i-1) + sum_{m=1}^{k-1} C(a, a+m+1-i) C(a+m-1, a-1) ]
    with the sum restricted to m <= i - 1.  Reduces to the single-defect
    count for k = 1 and to 2^(a(a+1)/2) for i = 1.
    """
    b = a + k
    if k < 1 or not 1 <= i <= b:
        raise InvalidParameterError(f"need k >= 1 and 1 <= i <= {b}, got k={k}, i={i}")
    total = binomial_ext(a, i - 1)
    for m in range(1, min(k - 1, i - 1) + 1):
        total += binomial_ext(a, a + m + 1 - i) * binomial_ext(a + m - 1, a - 1)
    return 2 ** (a * (a + 1) // 2) * total


def count_ar_gamma_nw_defect(a: int, k: int, i: int) -> int:
    """Tilings of AR(a, a+k) with gamma squares at positions 2..k and NW cell i removed.

    The first gamma square can pair two ways, so this is the telescoped sum of
    shifted copies of count_ar_se_block_nw_defect.
    """
    b = a + k
    if k < 1 or not 1 <= i <= b:
        raise InvalidParameterError(f"need k >= 1 and 1 <= i <= {b}, got k={k}, i={i}")
    total = 0
    for m in range(min(k - 1, i - 1) + 1):
        total += count_ar_se_block_nw_defect(a, k - m, i - m)
    return total


def count_ad_adjacent_defects(a: int, i: int, j: int) -> int:
    """Tilings of AD(a) minus SE cell i (from south) and NE cell j (from north).

    2^(a(a-1)/2) C(a-1, i-1) C(a-1, j-1) 3F2[1, 1-i, 1-j; 1-a, 1-a; 2].
    """
    if not (1 <= i <= a and 1 <= j <= a):
        raise InvalidParameterError(f"positions must lie in 1..{a}, got i={i}, j={j}")
    hyp = hyp_terminating((1, 1 - i, 1 - j), (1 - a, 1 - a), 2)
    value = (
        2 ** (a * (a - 1) // 2)
        * binomial_ext(a - 1, i - 1)
        * binomial_ext(a - 1, j - 1)
        * hyp
    )
    return _as_count(value, f"count_ad_adjacent_defects({a}, {i}, {j})")
