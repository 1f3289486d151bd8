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
that line's length.  ``count_tilings_paths`` is the polynomial engine for
hole-free regions, which every Aztec configuration is: a tiling is a family
of vertex-disjoint lattice paths, one line pair at a time along the lines of
the kind that has fewer, and the count is one determinant of path counts
(Lindstrom; Gessel and Viennot).  All three use exact arithmetic only.

The engines share no code with one another.  ``count_tilings_paths`` and the
Pfaffian count of ``condensation`` share only ``exactalg.determinant``,
which the tests hold to a ``Fraction`` elimination of their own, and
``count_tilings_dp`` shares no code with either, so each checks the others.
"""

from __future__ import annotations

from operator import sub

from .dualgraph import component_count
from .errors import OutOfScopeConfigurationError
from .exactalg import determinant
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
    No recursion, so the depth does not grow with the cells, and the cost is
    exponential only in the width of a row.
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
    in the cells.
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
            "the paths engine counts hole-free regions; this region has a hole"
        )


def count_tilings_paths(region: Region) -> int:
    """Exact tiling count of a hole-free region as a determinant of path counts.

    Lines of constant u, or of constant v when there are fewer of those,
    carry the cells, and each even line x is paired with the odd line
    x + 1 into a strip; a cell (x, y) sits at place y, and the places of a
    strip's two lines interleave into runs of consecutive places.  A domino
    joining two strips has one cell on the odd line of the lower one; the
    others join consecutive places of one run.  A path steps up its run one
    place at a time, and from an odd line it may step instead, by +-1, to
    the even line of the next strip.  A run whose foot is on the odd line
    starts a path there (a source); a run whose top is on the even line ends
    one there (a sink).  In a tiling, the cells of a run on cross-strip
    dominoes alternate between entering from below, on the even line, and
    leaving upward, on the odd line; a path goes up from each entering cell,
    or a source, to the next leaving cell, or a sink, and every other cell
    pairs off along the run.  Conversely, vertex-disjoint paths from the
    sources to the sinks leave stretches of even length to pair off, so the
    tilings are the families of such paths, and their number is |det| of
    the sources x sinks matrix of path counts (Lindstrom, Bull.
    LMS 5, 1973; Gessel and Viennot, Adv. Math. 58, 1985), or 0 when the
    sources and sinks are not as many.  Any region with a hole raises
    ``OutOfScopeConfigurationError``, since around a hole a family may join
    its sources to its sinks in another order.
    """
    cells = region.cells
    swap = len({v for _, v in cells}) < len({u for u, _ in cells})  # fewer lines of constant v
    order = sorted(((v, u) if swap else (u, v) for u, v in cells), key=lambda c: (c[0] // 2, c[1]))
    index = {c: i for i, c in enumerate(order)}
    steps = []  # the places a path steps to from each cell: up its run, or to the next strip
    for x, y in order:
        ahead = ((x - 1, y + 1), (x + 1, y - 1), (x + 1, y + 1)) if x % 2 else ((x + 1, y + 1),)
        steps.append([index[c] for c in ahead if c in index])
    _require_hole_free(cells, sum(map(len, steps)))  # the steps are the region's edges, each once
    sources = [i for i, (x, y) in enumerate(order) if x % 2 and (x - 1, y - 1) not in index]
    sinks = [i for i, (x, y) in enumerate(order) if not x % 2 and (x + 1, y + 1) not in index]
    if len(sources) != len(sinks):
        return 0
    rows = []
    for source in sources:  # one forward pass, in an order that puts every step ahead
        ways = [0] * len(order)
        ways[source] = 1
        for i in range(source, len(order)):
            if w := ways[i]:
                for j in steps[i]:
                    ways[j] += w
        rows.append([ways[sink] for sink in sinks])
    return abs(determinant(rows))
