"""Closed-form evaluators against frozen oracle values and engine counts."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aztec_tilings import (
    DefectConfiguration,
    DefectSpec,
    binomial_ext,
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_one_se_removed,
    count_ar_se_block_nw_defect,
    count_ar_se_block_removed,
    count_ar_se_nw_defects,
    count_aztec_diamond,
    count_tilings_dp,
    make_aztec_rectangle,
)
from aztec_tilings.errors import InvalidParameterError
import aztec_tilings.formulas
from aztec_tilings.formulas import ad_adjacent_row, ar_gamma_nw_row, ar_gamma_se_row


def gamma_se_region(a, k, j):
    return DefectConfiguration(a, a + k, (DefectSpec("SE", j),), gammas=tuple(range(2, k + 1))).region()


def gamma_nw_region(a, k, i):
    return DefectConfiguration(a, a + k, (DefectSpec("NW", i),), gammas=tuple(range(2, k + 1))).region()


def test_binomial_ext_values():
    assert binomial_ext(5, 2) == 10
    assert binomial_ext(3, -1) == 0
    assert binomial_ext(-2, 2) == 3
    assert binomial_ext(-1, 3) == -1
    assert binomial_ext(0, 0) == 1


def test_binomial_ext_matches_product_definition():
    for c in range(-10, 16):
        for d in range(-2, 16):
            want = Fraction(math.prod(c - t for t in range(d)), math.factorial(d)) if d >= 0 else 0
            assert binomial_ext(c, d) == want, (c, d)


def pochhammer_sum(numerator, denominator, z):
    """The series term by term from rebuilt Pochhammer products, in Fractions."""
    terms = min(-p for p in numerator if p <= 0) + 1
    total = Fraction(0)
    for k in range(terms):
        num = den = 1
        for t in range(k):
            for p in numerator:
                num *= p + t
            for q in denominator:
                den *= q + t
            den *= t + 1
        total += Fraction(num, den) * Fraction(z) ** k
    return total


def test_ad_adjacent_defects_matches_its_3f2_statement():
    for a in range(1, 13):
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                count = count_ad_adjacent_defects(a, i, j)
                hyp = pochhammer_sum((1, 1 - i, 1 - j), (1 - a, 1 - a), 2)
                stated = 2 ** (a * (a - 1) // 2) * math.comb(a - 1, i - 1) * math.comb(a - 1, j - 1) * hyp
                assert type(count) is int and count == stated, (a, i, j)


def test_gamma_se_defect_matches_its_3f2_statement():
    for a in range(1, 9):
        for k in range(1, 9):
            for j in range(k + 1, a + k + 1):
                count = count_ar_gamma_se_defect(a, k, j)
                hyp = pochhammer_sum((1, 1 - j, 1 - k), (2 - j, 1 - a - k), 1)
                stated = 2 ** (a * (a + 1) // 2) * math.comb(a + k - 1, j - 1) * math.comb(j - 2, k - 1) * hyp
                assert type(count) is int and count == stated, (a, k, j)


def se_block_nw_sum_by_m(a, k, i):
    """The SE-block NW sum as the peeling recursion unrolls it, term m = 0 apart:
    C(a, i-1) + sum_{m=1}^{min(k-1, i-1)} C(a, a+m+1-i) C(a+m-1, a-1)."""
    terms = (binomial_ext(a, a + m + 1 - i) * binomial_ext(a + m - 1, a - 1) for m in range(1, min(k, i)))
    return binomial_ext(a, i - 1) + sum(terms)


def test_unscaled_sums_times_their_power_are_the_counts():
    # a gamma row's first entry is its count's sum, and the SE-block count is
    # the recursion's sum over m; the diamond's unscaled row and the rest of
    # the gamma rows have their own tests below
    for a in range(1, 11):
        for k in range(1, 5):
            for pos in range(1, a + k + 1):
                for unscaled, count in (
                    (lambda *args: ar_gamma_se_row(*args)[0], count_ar_gamma_se_defect),
                    (se_block_nw_sum_by_m, count_ar_se_block_nw_defect),
                    (lambda *args: ar_gamma_nw_row(*args)[0], count_ar_gamma_nw_defect),
                ):
                    assert unscaled(a, k, pos) << a * (a + 1) // 2 == count(a, k, pos), (a, k, pos)


def test_gamma_nw_count_telescopes_the_block_counts():
    # the first gamma square pairs two ways, so each gamma NW count is the sum of
    # the SE-block NW counts down the diagonal: the relation the two families share
    for a in range(1, 11):
        for k in range(1, 9):
            for i in range(1, a + k + 1):
                blocks = (count_ar_se_block_nw_defect(a, k - q + 1, i - q + 1) for q in range(1, min(k, i) + 1))
                assert count_ar_gamma_nw_defect(a, k, i) == sum(blocks), (a, k, i)


@pytest.mark.parametrize("row, count", [(ar_gamma_se_row, count_ar_gamma_se_defect),
                                        (ar_gamma_nw_row, count_ar_gamma_nw_defect)])
def test_gamma_rows_are_their_counts_down_the_diagonal(row, count):
    # entry p of the row at (k, pos) is the count at (k-p+1, pos-p+1) over its
    # power up to p = pos, and 0 past it
    for a in range(1, 13):
        power = a * (a + 1) // 2
        counts = {(k, pos): count(a, k, pos) for k in range(1, 17) for pos in range(1, a + k + 1)}
        assert all(value % 2**power == 0 for value in counts.values()), a
        for k, pos in counts:
            entries = row(a, k, pos)
            want = [counts[k - p + 1, pos - p + 1] >> power if p <= pos else 0 for p in range(1, k + 1)]
            assert list(entries) == want, (a, k, pos)


def test_ad_adjacent_row_is_the_closed_form_entry_by_entry():
    # one packed int with a 2a-bit digit per entry: each entry must stay below 2^(2a-1)
    for a in (*range(1, 13), 40, 80):
        power = a * (a - 1) // 2
        for i in range(1, a + 1):
            row = ad_adjacent_row(a, i)
            assert len(row) == a, (a, i)
            for j, entry in enumerate(row, 1):
                assert entry << power == count_ad_adjacent_defects(a, i, j), (a, i, j)
                assert 0 < entry < 2 ** (2 * a - 1), (a, i, j)


def test_count_aztec_diamond():
    assert count_aztec_diamond(1) == 2
    assert count_aztec_diamond(3) == 64
    assert count_aztec_diamond(5) == 32768 == count_tilings_dp(make_aztec_rectangle(5, 5))
    with pytest.raises(InvalidParameterError):
        count_aztec_diamond(0)


def test_count_ar_kept_se():
    assert count_ar_kept_se(3, 5, (1, 2, 3)) == 2 ** 6
    assert count_ar_kept_se(2, 3, (1, 3)) == 16
    assert count_ar_kept_se(2, 4, (1, 4)) == 24
    with pytest.raises(InvalidParameterError):
        count_ar_kept_se(2, 3, (3, 1))
    with pytest.raises(InvalidParameterError):
        count_ar_kept_se(2, 3, (1, 4))


def test_count_ar_one_se_removed():
    assert count_ar_one_se_removed(2, 1) == 8
    assert count_ar_one_se_removed(2, 2) == 16
    region = DefectConfiguration(3, 4, (DefectSpec("SE", 3),)).region()
    assert count_ar_one_se_removed(3, 3) == 192 == count_tilings_dp(region)
    assert count_ar_one_se_removed(2, 3) == 8
    for i in (0, 4):
        with pytest.raises(InvalidParameterError, match=rf"^need 1 <= i <= 3, got {i}$"):
            count_ar_one_se_removed(2, i)


def test_count_ar_se_block_removed():
    assert count_ar_se_block_removed(3, 3) == 64
    assert count_ar_se_block_removed(2, 4) == 24
    removed = tuple(DefectSpec("SE", p) for p in (2, 3, 4))
    region = DefectConfiguration(2, 5, removed).region()
    assert count_ar_se_block_removed(2, 5) == 32 == count_tilings_dp(region)
    with pytest.raises(InvalidParameterError, match="^need b >= a, got a=3, b=2$"):
        count_ar_se_block_removed(3, 2)


def test_count_ar_gamma_se_defect_values():
    assert count_ar_gamma_se_defect(2, 1, 2) == count_ar_one_se_removed(2, 2)
    assert count_ar_gamma_se_defect(2, 2, 3) == 40
    assert count_ar_gamma_se_defect(2, 2, 4) == 24
    # defect against the gamma string: forced collapse to the diamond count
    assert count_ar_gamma_se_defect(2, 2, 2) == 8
    for k, j in ((0, 1), (2, 0), (2, 5)):
        with pytest.raises(InvalidParameterError, match=rf"^need k >= 1 and 1 <= j <= {2 + k}, got k={k}, j={j}$"):
            count_ar_gamma_se_defect(2, k, j)


def test_count_ar_se_nw_defects_values():
    assert count_ar_se_nw_defects(1, 1, 2) == 2
    assert count_ar_se_nw_defects(1, 2, 2) == 4
    assert count_ar_se_nw_defects(3, 2, 3) == count_ar_se_nw_defects(3, 3, 2)
    for i, j in ((0, 1), (1, 4), (4, 1)):
        with pytest.raises(InvalidParameterError, match=rf"^positions must lie in 1\.\.3, got i={i}, j={j}$"):
            count_ar_se_nw_defects(1, i, j)


# each public count with its order a and valid other arguments
COUNTS_AT_ORDER = {
    "count_aztec_diamond": count_aztec_diamond,
    "count_ar_kept_se": lambda a: count_ar_kept_se(a, 3, list(range(1, a + 1))),
    "count_ar_one_se_removed": lambda a: count_ar_one_se_removed(a, 1),
    "count_ar_se_block_removed": lambda a: count_ar_se_block_removed(a, 3),
    "count_ar_gamma_se_defect": lambda a: count_ar_gamma_se_defect(a, 5, 1),
    "count_ar_se_nw_defects": lambda a: count_ar_se_nw_defects(a, 1, 2),
    "count_ar_se_block_nw_defect": lambda a: count_ar_se_block_nw_defect(a, 5, 1),
    "count_ar_gamma_nw_defect": lambda a: count_ar_gamma_nw_defect(a, 5, 1),
    "count_ad_adjacent_defects": lambda a: count_ad_adjacent_defects(a, 1, 1),
}


def test_every_count_is_listed_at_its_order():
    public = {name for name in vars(aztec_tilings.formulas) if name.startswith("count_")}
    assert COUNTS_AT_ORDER.keys() == public
    for name, count in COUNTS_AT_ORDER.items():
        assert count(1) > 0 and count(2) > 0, name


@pytest.mark.parametrize("name", sorted(COUNTS_AT_ORDER))
@pytest.mark.parametrize("a", [0, -2])
def test_every_count_refuses_a_rectangle_without_rows(name, a):
    # each used to answer 1 at a = 0, and the gamma SE count 2 at a = -2
    with pytest.raises(InvalidParameterError):
        COUNTS_AT_ORDER[name](a)


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_count_aztec_diamond_takes_only_a_positive_int(n):
    # 2.0 used to give the float 8.0
    with pytest.raises(InvalidParameterError, match=r"^need an int n >= 1, got "):
        count_aztec_diamond(n)


def test_count_ar_se_block_nw_defect_values():
    # forced reduction to the plain diamond at the west corner
    for a, k in ((2, 1), (2, 2), (3, 3)):
        assert count_ar_se_block_nw_defect(a, k, 1) == count_aztec_diamond(a)
    assert count_ar_se_block_nw_defect(2, 1, 2) == 16
    # it and its telescoped sum over the gamma string take the same arguments
    for count in (count_ar_se_block_nw_defect, count_ar_gamma_nw_defect):
        for k, i in ((0, 1), (2, 0), (2, 5)):
            with pytest.raises(InvalidParameterError, match=rf"^need k >= 1 and 1 <= i <= {2 + k}, got k={k}, i={i}$"):
                count(2, k, i)


def test_count_ad_adjacent_defects_values():
    assert count_ad_adjacent_defects(2, 2, 2) == 6
    assert count_ad_adjacent_defects(1, 1, 1) == 1
    # a zero numerator parameter truncates the series at the first term
    assert count_ad_adjacent_defects(3, 1, 2) == 2 ** 3 * binomial_ext(2, 1)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(InvalidParameterError, match=rf"^positions must lie in 1\.\.2, got i={i}, j={j}$"):
            count_ad_adjacent_defects(2, i, j)


@given(st.integers(1, 4), st.data())
def test_ad_adjacent_symmetry(a, data):
    i = data.draw(st.integers(1, a))
    j = data.draw(st.integers(1, a))
    assert count_ad_adjacent_defects(a, i, j) == count_ad_adjacent_defects(a, j, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_gamma_se_matches_engine(a, k, data):
    j = data.draw(st.integers(1, a + k))
    assert count_ar_gamma_se_defect(a, k, j) == count_tilings_dp(gamma_se_region(a, k, j))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_gamma_nw_matches_engine(a, k, data):
    i = data.draw(st.integers(1, a + k))
    assert count_ar_gamma_nw_defect(a, k, i) == count_tilings_dp(gamma_nw_region(a, k, i))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_formula_counts_are_nonnegative_integers(a, data):
    k = data.draw(st.integers(1, 3))
    i = data.draw(st.integers(1, a + k))
    assert count_ar_se_block_nw_defect(a, k, i) >= 0
    assert count_ar_gamma_nw_defect(a, k, i) >= 0
    j = data.draw(st.integers(1, a))
    assert count_ad_adjacent_defects(a, min(i, a), j) >= 0
