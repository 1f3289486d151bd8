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

# E, N, W, S in center coordinates; heading h turns left to h + 1 and right to h - 1 (mod 4)
_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))


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

    def move(cell: Cell, heading: int) -> tuple[int, Cell]:
        # Right-hand rule: try right, straight, left, back in turn.
        for h in range(heading - 1, heading + 3):
            du, dv = _STEPS[h % 4]
            nxt = Cell(cell.u + du, cell.v + dv)
            if nxt in cells:
                return h % 4, nxt
        raise UnsupportedRegionError("isolated cell inside a multi-cell region")

    walk: list[Cell] = []
    heading = 1  # N: from the leftmost-lowest start only E or N edges exist
    first_move: tuple[Cell, int] | None = None
    cell = min(cells, key=_center)
    while True:
        heading, nxt = move(cell, heading)
        if first_move is None:
            first_move = (cell, heading)
        elif (cell, heading) == first_move:
            break
        walk.append(cell)
        cell = nxt
    return tuple(dict.fromkeys(walk))  # first visits, in walk order
