"""Three independent exact counters of domino tilings of a cell set.

A region is its own dual graph: cells are vertices, and two cells are adjacent
(a domino covers both) when |du| = |dv| = 1.  ``count_matchings_brute`` is the
auditable oracle: it counts perfect matchings of that graph, branching on the
lowest unmatched cell in (v, u) order, factoring over connected components and
memoizing on the remaining cell bitmask.  ``count_tilings_dp`` is the sweep:
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
    (in particular for odd cell counts).
    """
    cells = sorted(region.cells, key=lambda c: (c.v, c.u))
    index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    adj_bits = [0] * n
    for i, c in enumerate(cells):
        for dv in (-1, 1):  # each edge once, from its cell with the smaller u
            j = index.get(Cell(c.u + 1, c.v + dv))
            if j is not None:
                adj_bits[i] |= 1 << j
                adj_bits[j] |= 1 << i
    memo: dict[int, int] = {0: 1}

    def component(mask: int, seed: int) -> int:
        comp = 0
        stack = 1 << seed
        while stack:
            v = stack & -stack
            stack ^= v
            comp |= v
            stack |= adj_bits[v.bit_length() - 1] & mask & ~comp
        return comp

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if mask.bit_count() % 2 == 1:
            memo[mask] = 0
            return 0
        v = (mask & -mask).bit_length() - 1
        comp = component(mask, v)
        if comp != mask:
            total = rec(comp) * rec(mask ^ comp)
            memo[mask] = total
            return total
        total = 0
        rest = mask & ~(1 << v)
        nbrs = adj_bits[v] & rest
        while nbrs:
            wbit = nbrs & -nbrs
            nbrs ^= wbit
            total += rec(rest & ~wbit)
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
