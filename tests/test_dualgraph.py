"""Outer-face boundary cycles of a region and their closed-form order."""

import pytest

from aztec_tilings import (
    Cell,
    DefectSpec,
    DefectConfiguration,
    Region,
    boundary_cell,
    boundary_cycle,
    make_aztec_rectangle,
)
from aztec_tilings.dualgraph import component_count
from aztec_tilings.errors import InvalidParameterError
from aztec_tilings.geometry import perimeter_index


def test_boundary_cycle_diamond_order_one():
    cycle = boundary_cycle(make_aztec_rectangle(1, 1))
    assert set(cycle) == set(make_aztec_rectangle(1, 1).cells)
    assert len(cycle) == 4


def test_boundary_cycle_of_no_cell_and_of_one_cell():
    assert boundary_cycle(Region.from_cells([])) == ()
    assert boundary_cycle(Region.from_cells([Cell(1, 0)])) == (Cell(1, 0),)


def test_boundary_cycle_covers_pinched_rectangle():
    # the middle cell is a cut vertex of the dual and sits on the outer face
    cycle = boundary_cycle(make_aztec_rectangle(1, 2))
    assert len(cycle) == 7


def test_boundary_cycle_orders_side_cells():
    """The outer-face walk keeps the 8 side cells of AD(2) in ring order."""
    region = make_aztec_rectangle(2, 2)
    cycle = boundary_cycle(region)
    assert len(cycle) == len(set(cycle))
    ring = [
        Cell(0, 1), Cell(0, 3), Cell(1, 4), Cell(3, 4),
        Cell(4, 3), Cell(4, 1), Cell(3, 0), Cell(1, 0),
    ]
    filtered = [c for c in cycle if c in set(ring)]
    doubled = ring + ring
    assert any(doubled[i : i + 8] == filtered for i in range(8))


@pytest.mark.parametrize("a", range(1, 16))
@pytest.mark.parametrize("k", range(6))
def test_perimeter_index_matches_boundary_cycle(a, k):
    """Sorting addresses by perimeter_index reproduces the outer-face walk order."""
    b = a + k
    plain = make_aztec_rectangle(a, b)
    sides = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
    sides += [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
    gammas = [DefectSpec("gamma", t) for t in range(1, k + 1)]
    augmented = DefectConfiguration(a, b, gammas=tuple(range(1, k + 1))).region()
    for host, specs in ((plain, sides), (augmented, sides + gammas)):
        rank = {c: i for i, c in enumerate(boundary_cycle(host))}
        walked = sorted(specs, key=lambda d: rank[boundary_cell(a, b, d)])
        assert sorted(specs, key=lambda d: perimeter_index(a, b, d)) == walked


def test_boundary_cycle_rejects_disconnected():
    with pytest.raises(InvalidParameterError, match="^boundary cycle needs a connected region$"):
        boundary_cycle(Region.from_cells([Cell(0, 1), Cell(4, 1)]))


def test_component_count():
    assert component_count([]) == 0
    assert component_count(make_aztec_rectangle(3, 3).cells) == 1
    # (0, 1) and (1, 2) share an edge; (4, 1) touches neither
    assert component_count([Cell(0, 1), Cell(1, 2), Cell(4, 1)]) == 2
    # SE 1 of AD(2), Cell(1, 4), has the two neighbours (0, 3) and (2, 3)
    diamond = make_aztec_rectangle(2, 2).cells
    assert component_count(diamond - {Cell(0, 3)}) == 1
    assert component_count(diamond - {Cell(0, 3), Cell(2, 3)}) == 2
