"""Three independent exact counters of domino tilings of a cell set.

A region is its own dual graph: cells are vertices, and two cells are adjacent
(a domino covers both) when |du| = |dv| = 1.  ``count_matchings_brute`` is the
auditable oracle: it counts perfect matchings of that graph, branching on the
lowest unmatched cell in (v, u) order and memoizing on the remaining cell
bitmask, which that order keeps to a profile state about one row wide:
about 0.11 ms for 26 cells, 1 ms for AD(6) (84 cells) and 40 ms for AD(10),
where the sweep takes 1.7 ms and 70 ms.  ``count_tilings_dp`` is the sweep:
every edge joins cells in consecutive diagonal columns (constant u), so a
sweep over columns with a bit profile of cells already matched from the left
counts tilings in time exponential only in the column length: about 0.5 s for
AD(12) and 3 s for AD(14) (Python 3.11, one core), about 2.5x per further
order.  ``count_tilings_kasteleyn`` is the fast engine for hole-free regions,
which every Aztec configuration is: |det K| of the banded Kasteleyn matrix,
fraction-free elimination inside the band, about 0.2 s for AD(30) and 1 s for
AD(40) on the same machine.  All three use exact arithmetic only.
"""

from __future__ import annotations

from .dualgraph import component_count
from .errors import OutOfScopeConfigurationError
from .exactalg import determinant_sparse
from .geometry import Cell, Region


def count_matchings_brute(region: Region) -> int:
    """Number of perfect matchings of the region's dual graph, i.e. of tilings.

    Returns 1 for the empty region and 0 when no perfect matching exists
    (in particular for odd cell counts).  The recursion matches the lowest
    unmatched cell in (v, u) order with each free neighbour and memoizes on
    the bitmask of unmatched cells.  Every cell before the lowest one is
    matched, and that cell's partners all lie in the next row up (v + 1), so
    a mask is a profile state: the cells past the lowest one less those
    already matched from behind it, all within one row's width of it.
    Splitting a mask into connected components would cost a walk over it at
    every memo miss and buys nothing.  About 0.11 ms for 26 cells, 0.19 ms for
    36, 1 ms for AD(6) (84 cells), 5 ms for AD(8) and 40 ms for AD(10)
    (Python 3.11, one core).
    """
    cells = sorted(region.cells, key=lambda c: (c.v, c.u))
    n = len(cells)
    if n % 2:  # every step matches two cells, so an even mask stays even
        return 0
    index = {c: i for i, c in enumerate(cells)}
    adj_bits = [0] * n
    for i, (u, v) in enumerate(cells):
        for dv in (-1, 1):  # each edge once, from its cell with the smaller u
            j = index.get((u + 1, v + dv))
            if j is not None:
                adj_bits[i] |= 1 << j
                adj_bits[j] |= 1 << i
    memo: dict[int, int] = {0: 1}

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        nbrs = adj_bits[v] & rest
        total = 0
        while nbrs:
            wbit = nbrs & -nbrs
            nbrs ^= wbit
            total += rec(rest ^ wbit)
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def count_tilings_dp(region: Region) -> int:
    """Exact tiling count by a transfer-matrix sweep over diagonal columns.

    Handles arbitrary cell sets (holes, gamma bumps) by masking absent cells;
    agrees with count_matchings_brute.
    """
    cells = region.cells
    if not cells:
        return 1
    white = sum(1 for c in cells if c.u % 2 == 1)
    if 2 * white != len(cells):
        return 0

    umin = min(c.u for c in cells)
    umax = max(c.u for c in cells)
    columns: list[list[int]] = [[] for _ in range(umax - umin + 2)]
    for c in cells:
        columns[c.u - umin].append(c.v)
    for col in columns:
        col.sort()

    states: dict[int, int] = {0: 1}
    for ci in range(len(columns) - 1):
        col, nxt = columns[ci], columns[ci + 1]
        nxt_index = {v: i for i, v in enumerate(nxt)}
        new_states: dict[int, int] = {}
        for in_mask, ways in states.items():
            free = [v for i, v in enumerate(col) if not in_mask & (1 << i)]
            # Assign each free cell v an unused partner at (u+1, v-1) or
            # (u+1, v+1); only consecutive cells can contend for a partner.
            stack = [(0, 0, -2)]
            while stack:
                pos, out_mask, last_v = stack.pop()
                if pos == len(free):
                    new_states[out_mask] = new_states.get(out_mask, 0) + ways
                    continue
                v = free[pos]
                for t in (v - 1, v + 1):
                    if t == last_v:
                        continue
                    i = nxt_index.get(t)
                    if i is not None:
                        stack.append((pos + 1, out_mask | (1 << i), t))
        states = new_states
        if not states:
            return 0
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
