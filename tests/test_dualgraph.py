"""Dual graph construction, boundary cycles, vertex surgery."""

import pytest
from hypothesis import given, strategies as st

from aztec_tilings import (
    Cell,
    DefectSpec,
    Region,
    add_gamma_squares,
    boundary_cell,
    boundary_cycle,
    build_dual,
    delete_vertices,
    is_white,
    make_aztec_diamond,
    make_aztec_rectangle,
    symmetric_difference,
)
from aztec_tilings.errors import (
    InvalidDefectError,
    InvalidParameterError,
    UnsupportedRegionError,
)
from aztec_tilings.geometry import perimeter_index


def test_two_cell_domino():
    graph = build_dual(Region.from_cells([Cell(0, 1), Cell(1, 2)]))
    assert len(graph.cells) == 2
    assert len(graph.edges) == 1


def test_small_duals():
    assert len(build_dual(make_aztec_diamond(1)).edges) == 4
    graph = build_dual(make_aztec_diamond(2))
    assert len(graph.cells) == 12
    # 8 horizontal + 8 vertical contacts, enumerated by rows 2,4,4,2
    assert len(graph.edges) == 16


def test_edges_join_opposite_colors():
    graph = build_dual(make_aztec_rectangle(3, 5))
    for i, j in graph.edges:
        assert is_white(graph.cells[i]) != is_white(graph.cells[j])


@given(st.integers(1, 4), st.integers(0, 3))
def test_edge_count_matches_adjacent_pairs(a, extra):
    region = make_aztec_rectangle(a, a + extra)
    graph = build_dual(region)
    pairs = sum(
        1
        for c in region.cells
        for du, dv in ((1, 1), (1, -1))
        if Cell(c.u + du, c.v + dv) in region.cells
    )
    assert len(graph.edges) == pairs


def test_boundary_cycle_diamond_order_one():
    cycle = boundary_cycle(make_aztec_diamond(1))
    assert set(cycle) == set(make_aztec_diamond(1).cells)
    assert len(cycle) == 4


def test_boundary_cycle_covers_pinched_rectangle():
    # the middle cell is a cut vertex of the dual and sits on the outer face
    cycle = boundary_cycle(make_aztec_rectangle(1, 2))
    assert len(cycle) == 7


def test_boundary_cycle_orders_side_cells():
    """The outer-face walk keeps the 8 side cells of AD(2) in ring order."""
    region = make_aztec_diamond(2)
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
    gammas = [DefectSpec("SE", t, "gamma") for t in range(1, k + 1)]
    for host, specs in ((plain, sides), (add_gamma_squares(plain, k, 1), sides + gammas)):
        rank = {c: i for i, c in enumerate(boundary_cycle(host))}
        walked = sorted(specs, key=lambda d: rank[boundary_cell(host, d)])
        assert sorted(specs, key=lambda d: perimeter_index(a, b, d)) == walked


def test_boundary_cycle_rejects_disconnected():
    with pytest.raises(UnsupportedRegionError):
        boundary_cycle(Region.from_cells([Cell(0, 1), Cell(4, 1)]))


def test_delete_vertices():
    graph = build_dual(make_aztec_diamond(1))
    assert delete_vertices(graph, []).edges == graph.edges
    path = delete_vertices(graph, [Cell(0, 1)])
    assert len(path.cells) == 3
    assert len(path.edges) == 2

    big = build_dual(make_aztec_diamond(2))
    trimmed = delete_vertices(big, [Cell(1, 4), Cell(4, 1)])
    assert len(trimmed.cells) == 10
    assert len(trimmed.edges) == 12
    with pytest.raises(InvalidDefectError):
        delete_vertices(big, [Cell(99, 100)])


def test_symmetric_difference_semantics():
    graph = build_dual(make_aztec_diamond(1))
    cells = set(graph.cells)
    p, q = Cell(0, 1), Cell(1, 0)
    assert set(symmetric_difference(graph, cells, set()).cells) == cells
    assert set(symmetric_difference(graph, cells, {p, q}).cells) == cells - {p, q}
    assert set(symmetric_difference(graph, cells - {p}, {p, q}).cells) == cells - {q}
    with pytest.raises(InvalidParameterError):
        symmetric_difference(graph, cells, {Cell(99, 100)})
