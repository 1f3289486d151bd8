"""The outer face of a region's planar dual graph.

A region is its own dual graph: its cells are the vertices, and cells (u, v)
and (u', v') are adjacent exactly when |u - u'| = |v - v'| = 1, i.e. when the
unit squares share a lattice edge and a domino can cover both.  In ordinary
coordinates the cell centers differ by a unit step, so the graph is a plane
graph with the obvious 4-neighbour embedding.  ``boundary_cycle`` walks its
outer face; the counters and condensation identities work on the cell sets
directly.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnsupportedRegionError
from .geometry import Cell, Region

_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))  # E, N, W, S in center coordinates


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


