"""Planar dual graph of a region: one vertex per cell, one edge per domino slot.

Cells (u, v) and (u', v') are adjacent exactly when |u - u'| = |v - v'| = 1,
i.e. when the unit squares share a lattice edge.  In ordinary coordinates the
cell centers differ by a unit step, so the dual graph is a plane graph with
the obvious 4-neighbour embedding; the outer-face walk below relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InvalidDefectError,
    InvalidParameterError,
    UnsupportedRegionError,
)
from .geometry import Cell, Region

_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))  # E, N, W, S in center coordinates


@dataclass(frozen=True)
class DualGraph:
    """Immutable dual graph; vertices are cells sorted by (v, u)."""

    cells: tuple[Cell, ...]
    edges: frozenset[tuple[int, int]]


def _graph_from_cells(cells: Iterable[Cell]) -> DualGraph:
    ordered = tuple(sorted(set(cells), key=lambda c: (c.v, c.u)))
    index = {c: i for i, c in enumerate(ordered)}
    edges = set()
    for c in ordered:
        for du, dv in _STEPS:
            other = Cell(c.u + du, c.v + dv)
            j = index.get(other)
            if j is not None and index[c] < j:
                edges.add((index[c], j))
    return DualGraph(ordered, frozenset(edges))


def build_dual(region: Region) -> DualGraph:
    """Dual graph of a region."""
    return _graph_from_cells(region.cells)


def delete_vertices(graph: DualGraph, cells: Iterable[Cell]) -> DualGraph:
    """Induced subgraph on the complement of the given cells."""
    doomed = set(cells)
    missing = doomed - set(graph.cells)
    if missing:
        raise InvalidDefectError(f"cells not in graph: {sorted(missing)}")
    return induced_subgraph(graph, set(graph.cells) - doomed)


def symmetric_difference(
    host: DualGraph, base_vertices: Iterable[Cell], w: Iterable[Cell]
) -> DualGraph:
    """Induced subgraph of the host on base_vertices symmetric-difference w."""
    host_cells = set(host.cells)
    base = set(base_vertices)
    toggles = set(w)
    if not toggles <= host_cells:
        raise InvalidParameterError(f"cells not in host: {sorted(toggles - host_cells)}")
    if not base <= host_cells:
        raise InvalidParameterError(f"cells not in host: {sorted(base - host_cells)}")
    return induced_subgraph(host, base ^ toggles)


def induced_subgraph(host: DualGraph, keep: Iterable[Cell]) -> DualGraph:
    keep = set(keep)
    ordered = tuple(sorted(keep, key=lambda c: (c.v, c.u)))
    new_index = {c: i for i, c in enumerate(ordered)}
    edges = set()
    for i, j in host.edges:
        ci, cj = host.cells[i], host.cells[j]
        if ci in keep and cj in keep:
            p, q = sorted((new_index[ci], new_index[cj]))
            edges.add((p, q))
    return DualGraph(ordered, frozenset(edges))


def _center(cell: Cell) -> tuple[int, int]:
    # Doubled center coordinates (2x, 2y) stay integral.
    return (cell.u + cell.v, cell.u - cell.v)


def _is_connected(cells: set[Cell]) -> bool:
    if not cells:
        return True
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        for du, dv in _STEPS:
            n = Cell(c.u + du, c.v + dv)
            if n in cells and n not in seen:
                stack.append(n)
    return seen == cells


def boundary_cycle(region: Region | Iterable[Cell]) -> tuple[Cell, ...]:
    """Cells on the outer face of the dual graph, counterclockwise.

    The walk follows the plane embedding with the right-hand rule, starting
    from the cell whose center is leftmost (then lowest).  Cut vertices are
    visited more than once by the face walk; only the first visit is kept, so
    every boundary cell appears exactly once.
    """
    cells = set(region.cells) if isinstance(region, Region) else set(region)
    if not _is_connected(cells):
        raise UnsupportedRegionError("boundary cycle needs a connected region")
    if not cells:
        return ()
    if len(cells) == 1:
        return (next(iter(cells)),)

    start = min(cells, key=_center)
    dirs = {"E": (1, 1), "N": (1, -1), "W": (-1, -1), "S": (-1, 1)}
    right_of = {"N": "E", "E": "S", "S": "W", "W": "N"}
    left_of = {v: k for k, v in right_of.items()}

    def step(cell: Cell, d: str) -> Cell:
        du, dv = dirs[d]
        return Cell(cell.u + du, cell.v + dv)

    def next_direction(cell: Cell, heading: str) -> str:
        # Right-hand rule: try right, straight, left, back in turn.
        d = right_of[heading]
        for _ in range(4):
            if step(cell, d) in cells:
                return d
            d = left_of[d]
        raise UnsupportedRegionError("isolated cell inside a multi-cell region")

    walk: list[Cell] = []
    heading = "N"  # leftmost-lowest start: only E or N edges exist
    first_move: tuple[Cell, str] | None = None
    cell = start
    while True:
        heading = next_direction(cell, heading)
        if first_move is None:
            first_move = (cell, heading)
        elif (cell, heading) == first_move:
            break
        walk.append(cell)
        cell = step(cell, heading)

    seen: set[Cell] = set()
    cycle: list[Cell] = []
    for c in walk:
        if c not in seen:
            seen.add(c)
            cycle.append(c)
    return tuple(cycle)


