"""Pfaffian graphical condensation and the boundary-defect counters.

A graph G here is a set of cells: its vertices are the cells and its edges
the domino slots between them, and M(G) is its tiling count, taken by
``count_tilings_dp``.  ``condensation_count`` implements the classical
identity: for cells a_1..a_2k in cyclic order on the outer face of a region G
with M(G) != 0,

    M(G - {a_1..a_2k}) = Pf[(M(G - {a_i, a_j}))] / M(G)^(k-1).

``condensation_count_symdiff`` is the symmetric-difference generalization to
a base set G of a host region H, with the a_i on the outer face of H and
entries M(G + {a_i, a_j}), + meaning toggle (G = H gives
``condensation_count``); ``check_face_alternating_identity`` verifies the
alternating-product identity that drives its induction.  Kuo's four local
identities are its four-vertex case: ``check_kuo_identity`` checks a
pattern's hypotheses on the region G, then checks the alternating identity
on the four cells with base G, or with base G - w for the AAAB pattern.

The defect counters specialize condensation to Aztec rectangles, and
``count_configuration``'s ``pfaffian`` engine is their one entry point: it
returns 0 when the colours do not balance, and otherwise counts the
configuration as one Pfaffian whose host H is the gamma-augmented rectangle
AR(a, b) plus gammas 1..k, k = b - a, with tiling count the pure power of
two 2^(a(a+1)/2).  Its labels are the betas, the alphas on both black sides,
the gammas of 1..k the configuration does not keep and the gammas past k it
adds, all of them cells on the outer face of H with the added gammas glued
on (Kuo, Applications of graphical condensation, 2004; Ciucu's
symmetric-difference condensation, 2015, with base H).  The entries are
defined in one place, ``_three_sided_row``, a row at a time: a beta's, or an
added gamma's, which is the sum of two beta rows by the forcing lemma.
Every entry but one family collapses to a closed form from the
formulas module; the entries are taken as the closed forms' unscaled integer
sums, without the power of two they share, 2^(a(a-1)/2), or the further
2^a of the gamma columns, and the product of those powers is applied once,
in the quotient.  The exception, a beta against an SW alpha when k > 0, is a
sum over the ways a peeling of the host's column pairs carries one white
cell west (``_sw_row``), O(k a) additions for a beta's a entries.
At k = 0 the host is AD(a) itself and every entry is a closed form.  The
count takes only the numbers of a configuration and builds no cells; defects
are put in boundary order by ``geometry.perimeter_index``.  It counts every
``DefectConfiguration`` and refuses none.

``count_configuration`` picks the counter for a configuration: the Kasteleyn
determinant, the DP sweep or the brute-force oracle on ``config.region()``, a
closed form, or the Pfaffian count.  The default, ``auto``, is another name
for the Pfaffian count, the paper's route; no error is caught.

Every counter divides in ``_pfaffian_quotient``, which raises
``InternalInconsistencyError`` unless the quotient is a nonnegative integer.
Each caller splits its labels into two classes, and an entry within a class
counts a colour-unbalanced region, so it is 0: betas and added gammas
against alphas and missing gammas in the defect counters, and in the
symmetric-difference count the cells whose toggle gains a white against
those whose toggle loses one.  The Pfaffian is then, up to a sign fixed by
how the classes interleave, the determinant of the block of mixed entries,
taken by ``exactalg.determinant`` at half the dimension; only those entries
are computed, by a row function that the caller passes, once per label of
the row class.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Sequence, TypeVar

from .counting import count_matchings_brute, count_tilings_dp, count_tilings_kasteleyn
from .dualgraph import boundary_cycle
from .errors import (
    CondensationInapplicableError,
    InternalInconsistencyError,
    InvalidConfigurationError,
    InvalidOrderError,
    InvalidParameterError,
    OutOfScopeConfigurationError,
    exact_quotient,
)
from .exactalg import determinant
from .formulas import (
    ad_adjacent_sum,
    ar_gamma_nw_sum,
    ar_gamma_se_sum,
    count_ar_kept_se,
    count_ar_se_block_nw_defect,
    count_ar_se_nw_defects,
    count_aztec_diamond,
)
from .geometry import Cell, DefectConfiguration, DefectSpec, Region, is_white, perimeter_index

T = TypeVar("T")

KUO_SURPLUS = {"AABB": 0, "AAAA": 2, "ABAB": 0, "AAAB": 1}  # #A - #B each pattern needs
# the counters count_configuration picks from; the first is the default
ENGINES = ("auto", "kasteleyn", "dp", "brute", "formula", "pfaffian")


def _cells_count(cells: Iterable[Cell]) -> int:
    return count_tilings_dp(Region.from_cells(cells))


def _checked_base(host: Region, base_vertices: Iterable[Cell], face: Sequence[Cell]) -> set[Cell]:
    """The base as a set, checked to lie in the host, with the face cells
    checked to be in cyclic order on the host's outer face."""
    base = set(base_vertices)
    if not base <= host.cells:
        raise InvalidParameterError(f"cells not in host: {sorted(base - host.cells)}")
    _validate_cyclic(boundary_cycle(host), face)
    return base


def _validate_cyclic(cycle: Sequence[Cell], chosen: Sequence[Cell]) -> None:
    pos = {c: i for i, c in enumerate(cycle)}
    try:
        idx = [pos[c] for c in chosen]
    except KeyError as exc:
        raise InvalidOrderError(f"{exc.args[0]} is not on the outer face") from None
    if len(set(idx)) != len(idx):
        raise InvalidOrderError("face vertices must be distinct")
    n = len(idx)
    if n <= 2:
        return
    descents = sum(1 for t in range(n) if idx[t] > idx[(t + 1) % n])
    ascents = n - descents
    if descents > 1 and ascents > 1:
        raise InvalidOrderError(f"{chosen} is not in cyclic order on the outer face")


def _bipartite_pfaffian(
    labels: Sequence[T], in_rows: Callable[[T], bool], row: Callable[[T, list[T]], list[int]]
) -> int:
    """Pf[(m(x, y))] over labels in cyclic order, for a matrix that ``in_rows`` splits.

    m(x, y), x before y, must be 0 when ``in_rows`` puts x and y in the same
    class; only the other entries are computed, one row label at a time:
    row(x, cols) lists m of x and each column label, in cyclic order, as if
    x came first.  Listing the row class first makes the matrix
    [[0, B], [-B^T, 0]] for an h x h block B, whose entry (x, y) is m(x, y),
    or -m(y, x) for a column y before x.  So Pf = (-1)^(s + h(h-1)/2) det B,
    where s counts the pairs of a column label followed by a row label, which
    the listing swaps.  Classes of unequal size give 0.
    """
    rows: list[tuple[int, T]] = []  # a row label and the number of columns before it
    cols: list[T] = []
    swaps = 0
    for x in labels:
        if in_rows(x):
            rows.append((len(cols), x))
            swaps += len(cols)
        else:
            cols.append(x)
    h = len(rows)
    if len(cols) != h:
        return 0
    block = []
    for before, x in rows:
        entries = row(x, cols)
        block.append([-e for e in entries[:before]] + entries[before:])
    return (-1) ** (swaps + h * (h - 1) // 2) * determinant(block)


def _pfaffian_quotient(
    labels: Sequence[T],
    in_rows: Callable[[T], bool],
    row: Callable[[T, list[T]], list[int]],
    divisor: int,
    what: str,
    scale: int = 1,
) -> int:
    """scale Pf[(m(x, y))] / divisor^(k-1) over 2k labels in cyclic order.

    The Pfaffian is ``_bipartite_pfaffian``'s, with its rows from ``row``, so
    entries within a class of ``in_rows`` must be 0.  Entries that all share
    a factor s can be passed divided by it: with scale = s and divisor D / s
    the quotient is Pf[(s m)] / D^(k-1), the same rational, so the exactness
    check is the same.  The entries of one label, its row and its column,
    can likewise be passed divided by a factor t, with t in scale, as the
    Pfaffian is linear in them.  The quotient is a tiling count, so it must
    be a nonnegative integer.
    """
    pf = scale * _bipartite_pfaffian(labels, in_rows, row)
    power = len(labels) // 2 - 1  # -1 for no labels: the count is scale * divisor
    value = exact_quotient(pf, divisor**power, what) if power >= 0 else pf * divisor
    if value < 0:
        raise InternalInconsistencyError(f"{what}: negative Pfaffian {pf}")
    return value


def condensation_count(region: Region, face_vertices: Sequence[Cell]) -> int:
    """Count M(G minus the 2k face vertices) through the Pfaffian quotient."""
    return condensation_count_symdiff(region, region.cells, face_vertices)


def condensation_count_symdiff(
    host: Region, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> int:
    """Count M(G + {a_1..a_2k}) where G is the host's base_vertices and + toggles.

    Raises ``InvalidParameterError`` when a base vertex lies outside the host.
    """
    if len(face_vertices) % 2 == 1:
        raise InvalidOrderError("need an even number of face vertices")
    base = _checked_base(host, base_vertices, face_vertices)
    base_count = _cells_count(base)
    if base_count == 0:
        raise CondensationInapplicableError("M(G) = 0")
    # M(G) != 0 makes G colour-balanced.  Toggling a row-class cell (a white
    # one added or a black one removed) raises #white - #black by 1 and toggling
    # any other lowers it by 1, so within a class G + {x, y} is unbalanced: M = 0
    return _pfaffian_quotient(
        face_vertices,
        lambda x: is_white(x) != (x in base),
        lambda x, cols: [_cells_count(base ^ {x, y}) for y in cols],
        base_count,
        "condensation",
    )


def check_face_alternating_identity(
    host: Region, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> bool:
    """Alternating-product identity behind the symdiff condensation induction.

    With a_1..a_2k in cyclic order on the host's outer face and G the host's
    base_vertices (``InvalidParameterError`` otherwise), checks

        M(G) M(G + all) + sum_{l=2..k} M(G + {a_1, a_{2l-1}}) M(G + rest)
            == sum_{l=1..k} M(G + {a_1, a_2l}) M(G + rest)

    where rest is the complement of the pair within {a_1..a_2k}.
    """
    verts = list(face_vertices)
    if len(verts) % 2 == 1 or not verts:
        raise InvalidOrderError("need a nonempty even vertex list")
    base = _checked_base(host, base_vertices, verts)
    all_set = set(verts)

    def m_of(toggle: set[Cell]) -> int:
        return _cells_count(base ^ toggle)

    k = len(verts) // 2
    lhs = m_of(set()) * m_of(all_set)
    for l in range(2, k + 1):
        pair = {verts[0], verts[2 * l - 2]}
        lhs += m_of(pair) * m_of(all_set - pair)
    rhs = 0
    for l in range(1, k + 1):
        pair = {verts[0], verts[2 * l - 1]}
        rhs += m_of(pair) * m_of(all_set - pair)
    return lhs == rhs


def check_kuo_identity(
    pattern: str, region: Region, w: Cell, x: Cell, y: Cell, z: Cell
) -> bool:
    """Check one of Kuo's four local condensation identities on engine counts.

    ``pattern`` gives the color classes of (w, x, y, z) in cyclic face order,
    with A the class of w: "AABB", "AAAA" (needs #A = #B + 2), "ABAB", and
    "AAAB" (needs #A = #B + 1).  The balanced patterns need #A = #B.  Raises
    ``InvalidConfigurationError`` when the cells or the region miss the
    pattern's hypotheses.

    Each identity is ``check_face_alternating_identity`` on the four
    vertices, with host the region G and a base S:

        M(S) M(S + wxyz) + M(S + wy) M(S + xz) == M(S + wx) M(S + yz) + M(S + wz) M(S + xy)

    where + toggles cells.  S = G for AABB, AAAA and ABAB; the terms that
    Kuo's identity lacks count regions whose colours do not balance, so they
    are 0.  S = G - w for AAAB, which is Kuo's identity term for term.
    """
    if pattern not in KUO_SURPLUS:
        raise InvalidConfigurationError(f"unknown pattern {pattern!r}")
    quad = (w, x, y, z)
    if len(set(quad)) != 4:
        raise InvalidConfigurationError("w, x, y, z must be distinct")
    a_class = is_white(w)
    actual = "".join("A" if is_white(c) == a_class else "B" for c in quad)
    if actual != pattern:
        raise InvalidConfigurationError(f"cells have pattern {actual}, expected {pattern}")
    white, black = region.color_counts()
    n_a, n_b = (white, black) if a_class else (black, white)
    surplus = KUO_SURPLUS[pattern]
    if n_a != n_b + surplus:
        raise InvalidConfigurationError(
            f"pattern {pattern} needs #A = #B + {surplus}, region has {n_a} and {n_b}"
        )
    base = region.cells - {w} if pattern == "AAAB" else region.cells
    return check_face_alternating_identity(region, base, quad)


def _three_sided_row(a: int, b: int, beta: DefectSpec, cols: Sequence[DefectSpec]) -> list[int]:
    """The entries of a beta against alphas and gammas over the gamma host, / 2^(a(a-1)/2).

    Entry y is the count of the host minus the beta and y: the only pairs
    ``_bipartite_pfaffian`` asks for, since a same-colour pair's count is 0.
    A gamma's entry is also divided by 2^a.  An added gamma t past k takes
    the beta's place: the host plus gamma t minus y pairs gamma t with one
    of its two neighbours, SE t - 1 (none when t = 1) and SE t, so its row
    is the sum of those two betas' rows.  Alphas sit on the NE side unless
    k = b - a is 0; otherwise the beta's entries against SW 1..a come from
    ``_sw_row``.  The other pairs reduce, after the forced staircase strips,
    to the two-defect diamond and one-defect rectangle families, whose
    counts carry 2^(a(a-1)/2) and 2^(a(a+1)/2): a (beta, alpha) entry is the
    diamond's unscaled sum, and a (beta, gamma) entry the rectangle's.  The
    diamond is AD(a) minus SE i and NE j: the colour-preserving symmetry
    that takes the beta to SE and the alpha to NE reverses positions along
    the beta's side when the alpha is on SW, and along the alpha's side when
    exactly one of "beta on NW" and "alpha on SW" holds.
    """
    k = b - a
    pos, nw = beta.position, beta.side == "NW"
    if beta.kind == "gamma":
        rows = (_three_sided_row(a, b, DefectSpec("SE", s), cols) for s in (pos - 1, pos) if s)
        return list(map(sum, zip(*rows)))
    gamma_sum = ar_gamma_nw_sum if nw else ar_gamma_se_sum
    sw_row = _sw_row(a, b, beta) if k and any(y.side == "SW" for y in cols) else ()
    entries = []
    for y in cols:
        p = y.position
        if y.kind == "gamma":
            entries.append(gamma_sum(a, k - p + 1, pos - p + 1) if p <= pos else 0)
        elif y.side == "NE":
            entries.append(ad_adjacent_sum(a, pos - k, a + 1 - p if nw else p) if pos > k else 0)
        elif k:
            entries.append(sw_row[p - 1])
        else:
            entries.append(ad_adjacent_sum(a, a + 1 - pos, p if nw else a + 1 - p))
    return entries


@functools.lru_cache(maxsize=1024)
def _sw_row(a: int, b: int, beta: DefectSpec) -> tuple[int, ...]:
    """The entries of a beta against SW 1..a over the gamma host, k = b - a > 0, / 2^(a(a-1)/2).

    Gamma t's only neighbours are SE t - 1 and SE t, so a tiling of the host
    minus a beta and an SW alpha p pairs gamma t with SE t for t = 1..k in
    turn: the entry counts AR(a, b) - SE 1..k - beta - SW p, 0 for a beta in
    SE 1..k.  Turn that region by 180 degrees, which keeps colours and sends
    SW p to NE p, SE s to NW b+1-s and NW i to SE b+1-i, and peel its column
    pairs (2c, 2c - 1) for c = b down to a + 1.  Without the hole at NE p
    each pair is forced whole.  With it, the first pair leaves one white of
    column 2b - 1 for the west, at a height q in p..a, one way each; at each
    later pair that white takes the black q or q + 1 (<= a) of column 2c and
    leaves one white at a height q' at least that black's index, in
    T(q, q') = [q' >= q] + [q' >= q + 1] ways.  So the entries are the
    suffix sums, over q >= p, of T^n v for the weight v of where the walk
    ends, and a step of T takes u to S(q) + S(q + 1) for the suffix sums S
    of u: O(k a) additions for all a entries.

    An NW beta at pos <= k turns into SE s = b+1-pos, whose pair absorbs the
    white, 2 ways for q < a and 1 for q = a, and leaves AR(a, s - 1) minus
    NW a+1..s-1, which counts 2^a.  That weight is one step of T from 2^a at
    q = a alone, after the b - s - 1 steps of the pairs between, so v is 2^a
    at q = a and n = pos - 1, which gives 2^a for every alpha at s = b.  Any
    other beta past SE k leaves AD(a) after all k pairs, minus the turned
    beta, with the white beside NE q and NE q + 1: v(q) = e(q) + e(q + 1),
    e(a + 1) = 0, for the diamond entry e(q) of the turned beta and NE q, and
    n = k - 1.

    The rows are memoized, for the 1,024 latest (a, b, beta): the counts
    over one host ask for the same rows again, and recomputing them took
    about 8% of the four-sided benchmark's counts per second (Python 3.11,
    one core).
    """
    k = b - a
    pos, nw = beta.position, beta.side == "NW"
    if pos <= k:  # 0 for an SE beta, which the gammas force
        v, steps = [0] * (a - 1) + [nw << a], pos - 1
    else:
        e = [ad_adjacent_sum(a, b + 1 - pos, q if nw else a + 1 - q) for q in range(1, a + 1)] + [0]
        v, steps = list(map(add, e, e[1:])), k - 1
    for _ in range(steps):
        s = list(accumulate(reversed(v)))[::-1] + [0]
        v = list(map(add, s, s[1:]))
    return tuple(accumulate(reversed(v)))[::-1]


def _balanced(config: DefectConfiguration) -> bool:
    """Whether the colours balance; AR(a, b) has b - a more white cells than black, a gamma one more black.

    The string's length is taken by subtraction: ``len`` of a range stops at sys.maxsize.
    """
    gammas = config.gammas
    return len(config.betas) - len(config.alphas) == config.b - config.a - (gammas.stop - gammas.start)


def _pfaffian_count(config: DefectConfiguration) -> int:
    """The paper's count of a colour-balanced configuration: one Pfaffian over the gamma host.

    The gamma labels are the symmetric difference of the host's gammas
    1..k and the configuration's string, taken as intervals: the g missing
    ones, removed black cells that join the alphas' class, and the added
    ones past k, added black cells that join the betas'.  The host's count
    is D = 2^(a(a+1)/2) = s 2^a with s = 2^(a(a-1)/2).  Every entry is s
    times ``_three_sided_row``'s, and an entry of a missing gamma 2^a times
    more, so the quotient takes the rows with divisor 2^a and scale s 2^(ag).
    """
    a, b, kept = config.a, config.b, config.gammas
    k = b - a
    # the gammas of 1..k that the string kept.start..kept.stop-1 leaves out, and those past k it adds
    missing = [*range(1, min(k + 1, kept.start)), *range(kept.stop, k + 1)]
    added = range(max(k + 1, kept.start), kept.stop)
    gammas = tuple(DefectSpec("SE", t, "gamma") for t in (*missing, *added))
    labels = sorted(config.betas + config.alphas + gammas, key=lambda d: perimeter_index(a, b, d))
    row = functools.partial(_three_sided_row, a, b)
    scale = 2 ** (a * (a - 1) // 2 + a * len(missing))

    def in_rows(d: DefectSpec) -> bool:  # the betas and the added gammas
        return d.kind == "beta" or d.kind == "gamma" and d.position > k

    return _pfaffian_quotient(labels, in_rows, row, 2**a, "Pfaffian count", scale)


def _formula_count(config: DefectConfiguration) -> int:
    """Closed-form count of a colour-balanced configuration in a recognized family."""
    a, b, gammas = config.a, config.b, config.gammas
    k = b - a
    removed = sorted((d.side, d.position) for d in config.betas + config.alphas)
    if not removed and gammas == range(1, k + 1):
        return count_aztec_diamond(a)  # AD(a) plus its gammas; balance forces k = 0 without them
    if gammas:
        raise OutOfScopeConfigurationError("no closed form for this augmented family")
    sides = {s for s, _ in removed}
    if sides == {"SE"}:
        # colour balance guarantees exactly a kept positions
        kept = [p for p in range(1, b + 1) if ("SE", p) not in removed]
        return count_ar_kept_se(a, b, kept)
    if k == 0 and len(config.betas) == 1 and len(config.alphas) == 1:
        return _three_sided_row(a, a, config.betas[0], config.alphas)[0] << a * (a - 1) // 2
    if sides <= {"SE", "NW"}:
        se = sorted(p for s, p in removed if s == "SE")
        nw = [p for s, p in removed if s == "NW"]
        if k == 2 and len(se) == 1 and len(nw) == 1:
            return count_ar_se_nw_defects(a, se[0], nw[0])
        if len(nw) == 1 and se == list(range(2, k + 1)):
            return count_ar_se_block_nw_defect(a, k, nw[0])
    raise OutOfScopeConfigurationError("no closed form for this family")


def count_configuration(config: DefectConfiguration, engine: str = "auto") -> int:
    """Tilings of the configuration's region minus its defects, by one engine.

    ``pfaffian`` and ``auto``, the default and another name for it, count
    every configuration by one Pfaffian over the gamma host, 0 when the
    colours do not balance.  ``kasteleyn`` (the determinant, polynomial),
    ``dp`` (the sweep, exponential in the order) and ``brute`` (the matching
    oracle, exponential) count any configuration, since every
    configuration's region is hole-free.  ``formula`` covers the closed-form
    families, gives 0 when the colours do not balance and raises
    ``OutOfScopeConfigurationError`` outside its families.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine in ("auto", "pfaffian"):
        return _pfaffian_count(config) if _balanced(config) else 0
    if engine == "kasteleyn":
        return count_tilings_kasteleyn(config.region())
    if engine == "dp":
        return count_tilings_dp(config.region())
    if engine == "brute":
        return count_matchings_brute(config.region())
    return _formula_count(config) if _balanced(config) else 0
