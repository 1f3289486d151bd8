"""Engine correctness: brute-force oracle vs profile sweep vs path determinant."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from aztec_tilings import (
    Cell,
    DefectConfiguration,
    DefectSpec,
    Region,
    count_matchings_brute,
    count_tilings_dp,
    count_tilings_paths,
)
from aztec_tilings.errors import OutOfScopeConfigurationError


def test_empty_graph_counts_one():
    assert count_matchings_brute(Region.from_cells([])) == 1
    assert count_tilings_dp(Region.from_cells([])) == 1
    assert count_tilings_paths(Region.from_cells([])) == 1


def test_paths_diamonds_and_rectangles():
    for n in range(1, 11):
        assert count_tilings_paths(DefectConfiguration(n, n).region()) == 2 ** (n * (n + 1) // 2)
    # m x n boxes of ordinary squares, cells (x + y + 1, x - y); 4 x 5 has 95 tilings
    for m, n, count in ((2, 3, 3), (4, 4, 36), (4, 5, 95), (6, 6, 6728), (3, 7, 0)):
        region = Region.from_cells(Cell(x + y + 1, x - y) for x in range(m) for y in range(n))
        assert count_tilings_paths(region) == count


def test_paths_refuses_a_region_with_a_hole():
    # AD(4) minus the domino slot (4, 3)-(3, 4) in its middle
    region = Region.from_cells(DefectConfiguration(4, 4).region().cells - {Cell(4, 3), Cell(3, 4)})
    assert count_tilings_dp(region) > 0
    with pytest.raises(OutOfScopeConfigurationError, match="hole"):
        count_tilings_paths(region)


def test_brute_diamond_of_order_two():
    assert count_matchings_brute(DefectConfiguration(2, 2).region()) == 8
    assert count_matchings_brute(DefectConfiguration(1, 1).region()) == 2
    assert count_matchings_brute(Region.from_cells([Cell(0, 1), Cell(1, 2)])) == 1


def _box(m, n):
    """The m x n box of ordinary squares, cells (x + y + 1, x - y)."""
    return Region.from_cells(Cell(x + y + 1, x - y) for x in range(m) for y in range(n))


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize(
    "region, count",
    [
        pytest.param(Region.from_cells([Cell(0, -1), Cell(1, -2)]), 1, id="domino-at-v=-2"),
        # the 2 x L box has F(L + 1) brick tilings, the classic three for the 2 x 3 block
        pytest.param(_box(2, 3), 3, id="2x3"),
        pytest.param(_box(2, 20), _fibonacci(21), id="2x20"),
        # 2,400 cells: one domino per level would be a recursion too deep for Python
        pytest.param(_box(2, 1200), _fibonacci(1201), id="2x1200"),
    ],
)
def test_two_by_three_block(region, count):
    # no configuration's region has a cell at v < 0, so only these hold dp to any cell set
    assert min(c.v for c in region.cells) <= -2
    assert count_tilings_dp(region) == count
    assert count_matchings_brute(region) == count


# the 8 maps (u, v) -> (+-u, +-v), (+-v, +-u); each keeps u + v odd, so it maps cells
# to cells and domino slots to domino slots, and so does a translation with du + dv even
LATTICE_MAPS = [
    lambda u, v, su=su, sv=sv, swap=swap: (sv * v, su * u) if swap else (su * u, sv * v)
    for su in (1, -1) for sv in (1, -1) for swap in (False, True)
]


def test_counts_are_invariant_under_the_lattice_symmetries():
    rng = random.Random(31)
    nonzero = 0
    for _ in range(60):
        a = rng.randint(1, 4)
        cells = DefectConfiguration(a, rng.randint(a, 7)).region().cells
        whites = sorted(c for c in cells if c.u % 2)
        blacks = sorted(c for c in cells if c.u % 2 == 0)
        r = rng.randint(0, 2)  # a cut that balances the colours, then 0-4 cells more
        cut = rng.sample(whites, len(whites) - len(blacks) + r) + rng.sample(blacks, r)
        region = Region.from_cells(cells - set(cut))
        count = count_matchings_brute(region)
        engines = [count_tilings_dp, count_matchings_brute]
        try:
            count_tilings_paths(region)
            engines.append(count_tilings_paths)  # the region and its images are hole-free
        except OutOfScopeConfigurationError:
            pass
        nonzero += count > 0
        for lattice_map in LATTICE_MAPS:
            image = [lattice_map(u, v) for u, v in region.cells]
            # translate the image so that it starts at u, v in -4..0, reaching v = -2 often
            du = rng.randint(-4, 0) - min(u for u, _ in image)
            dv = rng.randint(-4, 0) - min(v for _, v in image)
            dv -= (du + dv) % 2
            moved = Region.from_cells(Cell(u + du, v + dv) for u, v in image)
            assert [engine(moved) for engine in engines] == [count] * len(engines), sorted(moved.cells)
    assert nonzero > 30


def test_dp_anchors():
    assert count_tilings_dp(DefectConfiguration(4, 4).region()) == 1024
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
    region = DefectConfiguration(2, 4).region()
    assert count_tilings_dp(region) == 0
    assert count_matchings_brute(region) == 0


@pytest.mark.parametrize("count", [count_tilings_dp, count_matchings_brute])
def test_unbalanced_colours_count_0_before_any_sweep(count):
    # AD(14) less two white cells: 418 cells, an even number, two more black than white;
    # each engine's colour test answers at once, where a sweep of it takes about 0.3 s
    region = DefectConfiguration(14, 14, (DefectSpec("NW", 1), DefectSpec("SE", 14))).region()
    assert len(region) == 418 and region.color_counts() == (208, 210)
    start = time.perf_counter()
    assert count(region) == 0
    assert time.perf_counter() - start < 0.05


def test_brute_oracle_matches_paths_past_the_engine_cell_limit():
    # the brute engine counts at most 36 cells; the oracle itself takes larger regions too
    rng = random.Random(30)
    configs = []
    for a in (4, 5, 6):  # one defect on each side: 36, 56 and 80 cells
        for _ in range(2):
            defects = [DefectSpec(s, rng.randint(1, a)) for s in ("NW", "SE", "NE", "SW")]
            configs.append(DefectConfiguration(a, a, tuple(defects[:2]), tuple(defects[2:])))
    configs.append(DefectConfiguration(6, 6))  # 84 cells
    # AR(4, 6) with gammas 2..4, one past k = 2, so an alpha balances: 58 cells
    configs.append(DefectConfiguration(4, 6, alphas=(DefectSpec("NE", rng.randint(1, 4)),), gammas=(2, 3, 4)))
    sizes = []
    for config in configs:
        region = config.region()
        sizes.append(len(region))
        assert count_matchings_brute(region) == count_tilings_paths(region) > 0, config
    assert min(sizes) == 36 and max(sizes) == 84, sizes
    odd = DefectConfiguration(5, 5, alphas=(DefectSpec("NE", 3),)).region()  # 59 cells
    assert count_matchings_brute(odd) == count_tilings_paths(odd) == 0


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(sorted(DefectConfiguration(3, 5).region().cells)), max_size=18))
def test_engines_agree_on_random_subregions(cells):
    region = Region.from_cells(cells)
    assert count_tilings_dp(region) == count_matchings_brute(region)


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.sampled_from(sorted(DefectConfiguration(2, 4).region().cells)), min_size=2, max_size=6)
)
def test_no_negative_counts_after_deletion(cells):
    base = DefectConfiguration(2, 4).region().cells
    region = Region.from_cells(base - cells)
    value = count_tilings_dp(region)
    assert value >= 0
    assert count_matchings_brute(region) == value


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.data())
def test_paths_matches_dp_on_configurations(a, k, data):
    # defects on all four sides, a gamma string anywhere along SE or none,
    # colours balanced in most draws and off by one in the rest
    b = a + k
    g = data.draw(st.integers(0, k))
    start = data.draw(st.integers(1, b - g + 1))
    whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
    blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
    n = data.draw(st.integers(0, min(4, 2 * a)))
    n_betas = min(2 * b, max(0, n + k - g + data.draw(st.sampled_from((0, 0, 0, 1, -1)))))
    alphas = data.draw(st.lists(st.sampled_from(blacks), min_size=n, max_size=n, unique=True))
    betas = data.draw(st.lists(st.sampled_from(whites), min_size=n_betas, max_size=n_betas, unique=True))
    region = DefectConfiguration(a, b, tuple(betas), tuple(alphas), tuple(range(start, start + g))).region()
    assert count_tilings_paths(region) == count_tilings_dp(region)
