"""Engine correctness: brute-force oracle vs transfer-matrix sweep."""

from hypothesis import given, settings, strategies as st

from aztec_tilings import (
    Cell,
    DefectConfiguration,
    DefectSpec,
    Region,
    count_matchings_brute,
    count_tilings_dp,
    make_aztec_rectangle,
)


def test_empty_graph_counts_one():
    assert count_matchings_brute(Region.from_cells([])) == 1
    assert count_tilings_dp(Region.from_cells([])) == 1


def test_brute_diamond_of_order_two():
    assert count_matchings_brute(make_aztec_rectangle(2, 2)) == 8
    assert count_matchings_brute(make_aztec_rectangle(1, 1)) == 2
    assert count_matchings_brute(Region.from_cells([Cell(0, 1), Cell(1, 2)])) == 1


def test_two_by_three_block():
    # 2x3 block of cells has the classic three brick tilings
    cells = [Cell(x + y + 1, x - y) for x in range(3) for y in range(2)]
    assert len(set(cells)) == 6
    region = Region.from_cells(cells)
    assert count_matchings_brute(region) == 3
    assert count_tilings_dp(region) == 3


def test_dp_anchors():
    assert count_tilings_dp(make_aztec_rectangle(4, 4)) == 1024
    region = DefectConfiguration(2, 3, (DefectSpec("SE", 2),)).region()
    assert count_tilings_dp(region) == 16
    region = DefectConfiguration(1, 2, (DefectSpec("SE", 2),)).region()
    assert count_tilings_dp(region) == 2


def test_gamma_string_forces_diamond_count():
    region = DefectConfiguration(5, 10, gammas=(1, 2, 3, 4, 5)).region()
    assert count_tilings_dp(region) == 2 ** 15


def test_odd_cell_count_is_zero():
    region = Region.from_cells([Cell(0, 1)])
    assert count_tilings_dp(region) == 0
    assert count_matchings_brute(region) == 0


def test_color_imbalance_is_zero():
    region = make_aztec_rectangle(2, 4)
    assert count_tilings_dp(region) == 0
    assert count_matchings_brute(region) == 0


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(sorted(make_aztec_rectangle(3, 5).cells)), max_size=18))
def test_engines_agree_on_random_subregions(cells):
    region = Region.from_cells(cells)
    assert count_tilings_dp(region) == count_matchings_brute(region)


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.sampled_from(sorted(make_aztec_rectangle(2, 4).cells)), min_size=2, max_size=6)
)
def test_no_negative_counts_after_deletion(cells):
    base = make_aztec_rectangle(2, 4).cells
    region = Region.from_cells(base - cells)
    value = count_tilings_dp(region)
    assert value >= 0
    assert count_matchings_brute(region) == value

