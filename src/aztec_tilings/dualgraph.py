"""The outer face of a region's planar dual graph.

A region is its own dual graph: its cells are the vertices, and cells (u, v)
and (u', v') are adjacent exactly when |u - u'| = |v - v'| = 1, i.e. when the
unit squares share a lattice edge and a domino can cover both.  In ordinary
coordinates the cell centers differ by a unit step, so the graph is a plane
graph with the obvious 4-neighbour embedding.  ``boundary_cycle`` walks the
outer face of a ``Region`` and is a bounded memo, so each of the last 64
regions asked for is walked once; ``component_count`` counts the components
of any cell set.  The counters and condensation identities work on the cell
sets directly.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from .errors import InvalidParameterError
from .geometry import Cell, Region

# E, N, W, S in center coordinates; heading h turns left to h + 1 and right to h - 1 (mod 4)
_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))


def _center(cell: Cell) -> tuple[int, int]:
    # Doubled center coordinates (2x, 2y) stay integral.
    return (cell.u + cell.v, cell.u - cell.v)


def component_count(cells: Iterable[Cell]) -> int:
    """Number of connected components of the dual graph on these cells."""
    components = 0
    unseen = set(cells)
    while unseen:
        components += 1
        stack = [unseen.pop()]
        while stack:
            u, v = stack.pop()
            for du, dv in _STEPS:
                if (nbr := (u + du, v + dv)) in unseen:
                    unseen.remove(nbr)
                    stack.append(nbr)
    return components


@functools.lru_cache(maxsize=64)
def boundary_cycle(region: Region) -> tuple[Cell, ...]:
    """Cells on the outer face of the region's dual graph, counterclockwise.

    The walk follows the plane embedding with the right-hand rule, starting
    from the cell whose center is leftmost (then lowest).  Cut vertices are
    visited more than once by the face walk; only the first visit is kept, so
    every boundary cell appears exactly once.  The last 64 regions walked are
    remembered; a disconnected region raises ``InvalidParameterError``.
    """
    cells = region.cells
    if component_count(cells) > 1:
        raise InvalidParameterError("boundary cycle needs a connected region")
    if not cells:
        return ()
    if len(cells) == 1:
        return (next(iter(cells)),)

    def move(cell: Cell, heading: int) -> tuple[int, Cell]:
        # Right-hand rule: try right, straight, left, back in turn.  Every cell of a connected
        # region of two or more cells has a neighbour, so one of the four is taken.
        for h in range(heading - 1, heading + 3):
            du, dv = _STEPS[h % 4]
            nxt = Cell(cell.u + du, cell.v + dv)
            if nxt in cells:
                return h % 4, nxt

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
