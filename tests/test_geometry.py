"""Region construction, addressing and defect configurations."""

import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from aztec_tilings import (
    Cell,
    DefectConfiguration,
    DefectSpec,
    boundary_cell,
    Region,
    is_white,
    make_aztec_rectangle,
)
from aztec_tilings.errors import InvalidConfigurationError, InvalidDefectError, InvalidParameterError


def test_diamond_sizes():
    assert len(make_aztec_rectangle(1, 1)) == 4
    assert len(make_aztec_rectangle(3, 3)) == 24
    region = make_aztec_rectangle(2, 2)
    assert len(region) == 12
    assert region.color_counts() == (6, 6)


def test_diamond_rejects_nonpositive_order():
    with pytest.raises(InvalidParameterError):
        make_aztec_rectangle(0, 0)


def test_region_from_cells_takes_only_unit_cells():
    assert Region.from_cells([(1, 0), Cell(0, 1)]).cells == {Cell(1, 0), Cell(0, 1)}
    with pytest.raises(InvalidParameterError, match=r"^Cell\(u=1, v=1\) is not a unit cell: u and v must be ints with u \+ v odd$"):
        Region.from_cells([Cell(1, 0), (1, 1)])


@pytest.mark.parametrize("cell", [(0.5, 0.5), (2.0, 1.0), (1.0, 2), (True, False), (0, True)])
def test_region_from_cells_takes_only_int_coordinates(cell):
    # (0.5, 0.5) passes the parity test, and (2.0, 1.0) would reach the sweep's shifts
    message = re.escape(f"{Cell(*cell)} is not a unit cell: u and v must be ints with u + v odd")
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        Region.from_cells([(3, 2), cell])


def test_rectangle_matches_diamond():
    # AR(n, n) is the Aztec diamond of order n: the unit squares whose doubled
    # centers (X, Y) = (u + v, u - v) satisfy |X - 2n| + |Y| <= 2n
    for n in (1, 2, 3):
        want = {
            ((x + y) // 2, (x - y) // 2)
            for x in range(1, 4 * n, 2)
            for y in range(1 - 2 * n, 2 * n, 2)
            if abs(x - 2 * n) + abs(y) <= 2 * n
        }
        assert make_aztec_rectangle(n, n).cells == want


def test_rectangle_sizes():
    assert len(make_aztec_rectangle(4, 10)) == 94
    region = make_aztec_rectangle(1, 2)
    assert len(region) == 7
    assert region.color_counts() == (4, 3)


def test_rectangle_rejects_a_greater_than_b():
    with pytest.raises(InvalidParameterError):
        make_aztec_rectangle(3, 2)


@given(st.integers(1, 6), st.integers(0, 5))
def test_rectangle_counts_and_balance(a, extra):
    b = a + extra
    region = make_aztec_rectangle(a, b)
    assert len(region) == 2 * a * b + a + b
    white, black = region.color_counts()
    assert white - black == b - a


def test_boundary_cell_conventions():
    assert boundary_cell(2, 3, DefectSpec("SE", 1)) == Cell(1, 4)
    assert is_white(Cell(1, 4))
    assert boundary_cell(2, 3, DefectSpec("NE", 1)) == Cell(6, 1)
    assert not is_white(Cell(6, 1))


def test_se_positions_are_the_v_2a_whites():
    region = make_aztec_rectangle(4, 10)
    cells = [boundary_cell(4, 10, DefectSpec("SE", s)) for s in range(1, 11)]
    assert cells == sorted(c for c in region.cells if c.v == 8 and is_white(c))


@pytest.mark.parametrize("side,count", [("NW", 10), ("SE", 10), ("NE", 4), ("SW", 4)])
def test_boundary_cell_injective_with_stated_colors(side, count):
    region = make_aztec_rectangle(4, 10)
    cells = [boundary_cell(4, 10, DefectSpec(side, p)) for p in range(1, count + 1)]
    assert len(set(cells)) == count
    assert set(cells) <= region.cells
    expected_white = side in ("NW", "SE")
    assert all(is_white(c) == expected_white for c in cells)
    with pytest.raises(InvalidDefectError):
        boundary_cell(4, 10, DefectSpec(side, count + 1))


def test_defect_class_follows_from_side():
    kinds = {side: DefectSpec(side, 1).kind for side in ("NW", "SE", "NE", "SW", "gamma")}
    assert kinds == {"NW": "beta", "SE": "beta", "NE": "alpha", "SW": "alpha", "gamma": "gamma"}
    assert DefectSpec("gamma", 3).kind == "gamma"
    # the class is derived, never passed, so a side and a class cannot disagree
    with pytest.raises(TypeError):
        DefectSpec("SE", 1, "gamma")
    with pytest.raises(TypeError):
        DefectSpec("NE", 1, kind="beta")
    with pytest.raises(InvalidDefectError, match="unknown side"):
        DefectSpec("S", 1)
    # still a field: repr (which the verify labels print), equality and hash see it
    assert repr(DefectSpec("NW", 3)) == "DefectSpec(side='NW', position=3, kind='beta')"
    assert DefectSpec("SE", 2) == DefectSpec("SE", 2) != DefectSpec("gamma", 2)
    assert len({DefectSpec("SE", 2), DefectSpec("SE", 2), DefectSpec("gamma", 2)}) == 2


def test_values_copy_and_pickle_through_their_checks():
    # each value is rebuilt by its constructor, which takes a DefectSpec's side and position only
    config = DefectConfiguration(2, 4, (DefectSpec("SE", 1),), (DefectSpec("NE", 2),), (2, 3))
    for value in (DefectSpec("NW", 3), config, config.region()):
        assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


def test_gamma_side_addresses_the_squares_under_se():
    cells = [boundary_cell(4, 9, DefectSpec("gamma", t)) for t in range(1, 10)]
    assert cells == [Cell(2 * t - 2, 9) for t in range(1, 10)]
    assert not any(map(is_white, cells))
    with pytest.raises(InvalidDefectError, match="gamma position 10 out of range 1..9"):
        boundary_cell(4, 9, DefectSpec("gamma", 10))


def test_configuration_without_defects_is_the_rectangle():
    config = DefectConfiguration(2, 4)
    assert config.region().cells == make_aztec_rectangle(2, 4).cells
    assert config.size == len(config.region())


def test_gamma_squares_cells_and_balance():
    config = DefectConfiguration(4, 9, gammas=(1, 2, 3, 4, 5))
    region = config.region()
    assert len(region) == config.size == 2 * 4 * 9 + 4 + 9 + 5
    assert region.color_counts() == (45, 45)
    gammas = {boundary_cell(4, 9, DefectSpec("gamma", t)) for t in range(1, 6)}
    assert region.cells - make_aztec_rectangle(4, 9).cells == gammas


@given(st.integers(1, 5), st.integers(1, 4))
def test_gamma_string_balances_rectangle(a, k):
    b = a + k
    region = DefectConfiguration(a, b, gammas=tuple(range(1, k + 1))).region()
    assert region.color_counts() == (a * b + b, a * b + b)


def test_gamma_string_must_fit_and_be_one_string():
    with pytest.raises(InvalidParameterError, match="does not fit"):
        DefectConfiguration(2, 3, gammas=(1, 2, 3, 4))
    with pytest.raises(InvalidParameterError, match="does not fit"):
        DefectConfiguration(2, 3, gammas=(0,))
    with pytest.raises(InvalidParameterError, match="one string"):
        DefectConfiguration(2, 3, gammas=(1, 3))


def test_gamma_string_is_kept_as_a_range():
    # a tuple or a range in, a range kept, so a string costs the same whatever its length
    assert DefectConfiguration(2, 5, gammas=(2, 3)).gammas == range(2, 4)
    assert DefectConfiguration(2, 5, gammas=range(2, 4)) == DefectConfiguration(2, 5, gammas=(2, 3))
    assert DefectConfiguration(2, 5).gammas == DefectConfiguration(2, 5, gammas=()).gammas == range(0)
    b = 10**9 + 1
    assert DefectConfiguration(1, b, gammas=range(1, b)).size == 2 * b + 1 + b + (b - 1)
    b = 10**19  # past sys.maxsize, where len() of the string would raise
    assert DefectConfiguration(1, b, gammas=range(1, b)).size == 2 * b + 1 + b + (b - 1)
    with pytest.raises(InvalidParameterError, match="one string"):
        DefectConfiguration(2, 5, gammas=range(1, 5, 2))
    with pytest.raises(InvalidParameterError, match="does not fit"):
        DefectConfiguration(2, 5, gammas=range(0, 3))


def test_configuration_rejects_bad_sides_and_kinds():
    with pytest.raises(InvalidParameterError):
        DefectConfiguration(3, 2)
    with pytest.raises(InvalidConfigurationError):
        DefectConfiguration(2, 3, alphas=(DefectSpec("SE", 1),))
    with pytest.raises(InvalidConfigurationError):
        DefectConfiguration(2, 3, betas=(DefectSpec("NE", 1),))


@pytest.mark.parametrize("field, defect", [("betas", ("NW", 1)), ("betas", ("NW", 1, "beta")),
                                           ("alphas", ("NE", 1)), ("alphas", ("NE", 1, "alpha"))])
def test_configuration_takes_only_defect_specs(field, defect):
    # a plain tuple used to end in AttributeError: 'tuple' object has no attribute 'kind'
    with pytest.raises(InvalidConfigurationError, match=f"^{field} must be [a-z]+-class DefectSpecs$"):
        DefectConfiguration(2, 3, **{field: (defect,)})


def test_configuration_region_removes_defects():
    config = DefectConfiguration(2, 3, (DefectSpec("SE", 1), DefectSpec("SE", 2)))
    smaller = config.region()
    assert len(smaller) == config.size == 15
    assert smaller.color_counts() == (7, 8)
    assert DefectConfiguration(2, 3, (DefectSpec("SE", 1),)).region().color_counts() == (8, 8)


def test_configuration_region_named_cells():
    region = make_aztec_rectangle(4, 7)
    removed = DefectConfiguration(4, 7, tuple(DefectSpec("SE", p) for p in (2, 4, 7))).region()
    assert len(removed) == len(region) - 3
    gone = {boundary_cell(4, 7, DefectSpec("SE", p)) for p in (2, 4, 7)}
    assert region.cells - removed.cells == gone


def test_configuration_rejects_duplicates_and_out_of_range():
    with pytest.raises(InvalidDefectError):
        DefectConfiguration(2, 3, (DefectSpec("SE", 1), DefectSpec("SE", 1)))
    with pytest.raises(InvalidDefectError):
        DefectConfiguration(2, 3, (DefectSpec("SE", 4),))


def test_configuration_errors_name_the_defect_at_fault():
    first, second = DefectSpec("SE", 1), DefectSpec("SE", 1)
    with pytest.raises(InvalidDefectError, match="^duplicate defect$") as info:
        DefectConfiguration(2, 3, (first, second))
    assert info.value.defect is second
    far = DefectSpec("NE", 3)
    with pytest.raises(InvalidDefectError, match="^NE position 3 out of range 1..2$") as info:
        DefectConfiguration(2, 3, (DefectSpec("SE", 1), DefectSpec("SE", 2)), (far,))
    assert info.value.defect is far


@pytest.mark.parametrize("defects", [[DefectSpec("SE", 1), DefectSpec("SE", 2)], {DefectSpec("SE", 1)}])
def test_configuration_takes_only_tuples(defects):
    # a list used to pass here, count by the region engines, and crash the pfaffian route
    alphas = (DefectSpec("NE", 2),)
    with pytest.raises(InvalidConfigurationError, match="tuples"):
        DefectConfiguration(3, 4, defects, alphas)
    with pytest.raises(InvalidConfigurationError, match="tuples"):
        DefectConfiguration(3, 4, alphas=list(alphas))
    with pytest.raises(InvalidConfigurationError, match="tuples"):
        DefectConfiguration(3, 5, gammas=[1])
    assert hash(DefectConfiguration(3, 4, tuple(defects), alphas))


@pytest.mark.parametrize("position", [2.5, 2.0, True, False, "2", None])
def test_defect_position_must_be_an_int(position):
    # 2.5 used to pass and count 0 by the region engines; True counted as position 1
    with pytest.raises(InvalidDefectError, match="must be an int"):
        DefectSpec("SE", position)


@pytest.mark.parametrize("a,b,gammas", [(2.0, 3, ()), (2, 3.5, ()), (True, 3, ()), (2, 4, (1.0,)), (2, 4, (True,))])
def test_configuration_numbers_must_be_ints(a, b, gammas):
    with pytest.raises(InvalidParameterError, match="must be ints"):
        DefectConfiguration(a, b, gammas=gammas)
