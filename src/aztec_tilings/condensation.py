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
These checks read a host's outer face through ``dualgraph.boundary_cycle``,
a bounded memo, so each host is walked once however many checks it serves.
A face list that is odd, repeats a cell, leaves the outer face or is out of
cyclic order raises ``InvalidParameterError``.

The defect counters specialize condensation to Aztec rectangles, and
``count_configuration``'s ``pfaffian`` engine is their one entry point: it
counts a colour-balanced configuration as one Pfaffian whose host H is the
gamma-augmented rectangle AR(a, b) plus gammas 1..k, k = b - a, with tiling
count the pure power of two 2^(a(a+1)/2).  Its labels are the betas, the
alphas on both black sides, the gammas of 1..k the configuration does not
keep and the gammas past k it adds, all of them cells on the outer face of
H with the added gammas glued on (Kuo, Applications of graphical
condensation, 2004; Ciucu's symmetric-difference condensation, 2015, with
base H).  The entries are defined in one place, ``_side_row``, a row label
and a column side at a time: a beta's row, or an added gamma's, which is the
sum of two beta rows by the forcing lemma, against NE 1..a, SW 1..a or the
missing gammas 1..k.  Those rows are the one memo of the entries, bounded,
and ``_three_sided_block`` gathers the Pfaffian's block from them: the
columns, in perimeter order, come in runs of one side, and each row takes
one ``_side_row`` lookup per run.
Every entry but one family collapses to a closed form from the
formulas module, which gives a beta's row against NE or the missing gammas
in one pass; the entries are taken as the closed forms' unscaled integer
sums, without the power of two they share, 2^(a(a-1)/2), or the further
2^a of the gamma columns, and the product of those powers is applied once,
in the quotient.  The exception, a beta's row against the SW alphas, is
one walk from one start row, the beta's diamond row or a constant, that
sums the ways a peeling of the host's column pairs carries one white cell
west, O(k a) additions for a beta's a entries.  At k = 0 the host is AD(a)
itself, the walk takes no step and every entry is a closed form.  The
count takes only the numbers of a configuration and builds no cells; defects
are put in boundary order by ``geometry.perimeter_index``.  It counts every
``DefectConfiguration`` and refuses none.

``count_configuration`` gives 0 for a configuration whose colours do not
balance, by ``DefectConfiguration.balanced`` alone, and otherwise picks its
counter: the Pfaffian count, the paper's route and the default, the path
determinant, the DP sweep or the brute-force oracle on ``config.region()``,
or a closed form.  It owns every engine rule: ``brute`` past ``BRUTE_CELLS``
cells and ``formula`` off its families raise
``OutOfScopeConfigurationError``, and no error is caught.

Every counter divides in ``_pfaffian_quotient``, which raises
``InternalInconsistencyError`` unless the quotient is a nonnegative integer.
Each caller splits its labels into two classes, and an entry within a class
counts a colour-unbalanced region, so it is 0: betas and added gammas
against alphas and missing gammas in the defect counters, and in the
symmetric-difference count the cells whose toggle gains a white against
those whose toggle loses one.  The Pfaffian is then, up to a sign fixed by
how the classes interleave, the determinant of the block of mixed entries,
taken by ``exactalg.determinant`` at half the dimension; only those entries
are computed, by a block function that the caller passes, in one call for
all the labels of the row class against all those of the column class.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate, groupby
from operator import add, attrgetter, neg

from .counting import count_matchings_brute, count_tilings_dp, count_tilings_paths
from .dualgraph import boundary_cycle
from .errors import (
    InternalInconsistencyError,
    InvalidConfigurationError,
    InvalidParameterError,
    OutOfScopeConfigurationError,
    exact_quotient,
)
from .exactalg import determinant
from .formulas import (
    ad_adjacent_row,
    ar_gamma_nw_row,
    ar_gamma_se_row,
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_se_block_nw_defect,
    count_ar_se_nw_defects,
    count_aztec_diamond,
)
from .geometry import Cell, DefectConfiguration, DefectSpec, Region, is_white, perimeter_index

KUO_SURPLUS = {"AABB": 0, "AAAA": 2, "ABAB": 0, "AAAB": 1}  # #A - #B each pattern needs
# the counters count_configuration picks from; the first is the default
ENGINES = ("pfaffian", "paths", "dp", "brute", "formula")
BRUTE_CELLS = 36  # the largest configuration the brute-force engine counts


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
        raise InvalidParameterError(f"{exc.args[0]} is not on the outer face") from None
    if len(set(idx)) != len(idx):
        raise InvalidParameterError("face vertices must be distinct")
    n = len(idx)
    descents = sum(1 for t in range(n) if idx[t] > idx[(t + 1) % n])
    ascents = n - descents
    if descents > 1 and ascents > 1:
        raise InvalidParameterError(f"{chosen} is not in cyclic order on the outer face")


def _pfaffian_quotient(
    labels: Sequence,
    in_rows: Callable[..., bool],
    entries: Callable[..., list[list[int]]],
    divisor: int,
    what: str,
    scale: int = 1,
) -> int:
    """scale Pf[(m(x, y))] / divisor^(h-1) over 2h labels in cyclic order, for a matrix that ``in_rows`` splits.

    m(x, y), x before y, must be 0 when ``in_rows`` puts x and y in the same
    class; only the other entries are computed, by one call for the whole
    block: entries(rows, cols) lists, for each row label x in cyclic order, a
    new list of m of x and each column label, in cyclic order, as if x came
    first.  Listing the row class first makes the matrix [[0, B], [-B^T, 0]]
    for an h x h block B, whose entry (x, y) is m(x, y), or -m(y, x) for a
    column y before x, so each row's entries of the columns before it are
    negated in place.  Then Pf = (-1)^(s + h(h-1)/2) det B, where s counts
    the pairs of a column label followed by a row label, which the listing
    swaps.  Classes of unequal size give 0, and no labels give
    scale * divisor.

    Entries that all share a factor s can be passed divided by it: with
    scale = s and divisor D / s the quotient is Pf[(s m)] / D^(h-1), the same
    rational, so the exactness check is the same.  The entries of one label,
    its row and its column, can likewise be passed divided by a factor t,
    with t in scale, as the Pfaffian is linear in them.  The quotient is a
    tiling count, so it must be a nonnegative integer.
    """
    rows, cols, before = [], [], []  # before: the number of columns ahead of each row label
    for x in labels:
        if in_rows(x):
            rows.append(x)
            before.append(len(cols))
        else:
            cols.append(x)
    h = len(rows)
    if len(cols) != h:
        return 0
    block = entries(rows, cols)
    for n, row in zip(before, block):
        row[:n] = map(neg, row[:n])
    pf = (-1) ** (sum(before) + h * (h - 1) // 2) * determinant(block)
    value = exact_quotient(scale * pf * divisor, divisor**h, what)
    if value < 0:
        raise InternalInconsistencyError(f"{what}: negative Pfaffian {pf:#x}")  # hex: no digit limit
    return value


def condensation_count(region: Region, face_vertices: Sequence[Cell]) -> int:
    """Count M(G minus the 2k face vertices) through the Pfaffian quotient."""
    return condensation_count_symdiff(region, region.cells, face_vertices)


def condensation_count_symdiff(
    host: Region, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> int:
    """Count M(G + {a_1..a_2k}) where G is the host's base_vertices and + toggles.

    Raises ``InvalidParameterError`` when a base vertex lies outside the host,
    and ``InvalidConfigurationError`` when M(G) = 0, as the quotient then
    divides by 0.
    """
    if len(face_vertices) % 2 == 1:
        raise InvalidParameterError("need an even number of face vertices")
    base = _checked_base(host, base_vertices, face_vertices)
    base_count = _cells_count(base)
    if base_count == 0:
        raise InvalidConfigurationError("M(G) = 0")
    # M(G) != 0 makes G colour-balanced.  Toggling a row-class cell (a white
    # one added or a black one removed) raises #white - #black by 1 and toggling
    # any other lowers it by 1, so within a class G + {x, y} is unbalanced: M = 0
    return _pfaffian_quotient(
        face_vertices,
        lambda x: is_white(x) != (x in base),
        lambda rows, cols: [[_cells_count(base ^ {x, y}) for y in cols] for x in rows],
        base_count,
        "condensation",
    )


def check_face_alternating_identity(
    host: Region, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> bool:
    """Alternating-product identity behind the symdiff condensation induction.

    With a_1..a_2k in cyclic order on the host's outer face and G the host's
    base_vertices (``InvalidParameterError`` otherwise), checks the one
    signed sum, the first-row expansion of the Pfaffian behind the quotient,

        M(G) M(G + all) + sum_{j=1..2k-1} (-1)^j M(G + {a_1, a_{j+1}}) M(G + rest) == 0

    where rest is the complement of the pair within {a_1..a_2k}.
    """
    verts = list(face_vertices)
    if len(verts) % 2 == 1 or not verts:
        raise InvalidParameterError("need a nonempty even vertex list")
    base = _checked_base(host, base_vertices, verts)
    all_set = set(verts)

    def m_of(toggle: set[Cell]) -> int:
        return _cells_count(base ^ toggle)

    total = m_of(set()) * m_of(all_set)
    for j in range(1, len(verts)):
        pair = {verts[0], verts[j]}
        total += (-1) ** j * m_of(pair) * m_of(all_set - pair)
    return total == 0


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


def _three_sided_block(a: int, b: int, rows: Sequence[DefectSpec], cols: Sequence[DefectSpec]) -> list[list[int]]:
    """The row labels' entries against alphas and missing gammas over the gamma host, / 2^(a(a-1)/2).

    A gather from ``_side_row``.  The columns, in perimeter order, come in
    runs of one side, SW alphas, missing gammas and NE alphas, and each row
    takes one ``_side_row`` lookup per run and reads the run's positions off
    it by one ``map``, a loop in C: entry y is the y.position-th entry of the
    label's row against y's side.  These are the only pairs
    ``_pfaffian_quotient`` asks for, since a same-colour pair's count is 0.
    """
    block = [[] for _ in rows]
    for side, run in groupby(cols, attrgetter("side")):
        at = [y.position - 1 for y in run]
        for x, row in zip(rows, block):
            row += map(_side_row(a, b, x, side).__getitem__, at)
    return block


@functools.lru_cache(maxsize=2048)
def _side_row(a: int, b: int, label: DefectSpec, side: str) -> tuple[int, ...]:
    """A row label's entries against one column side over the gamma host, / 2^(a(a-1)/2).

    The side is NE or SW, positions 1..a, or "gamma", the gammas 1..k,
    k = b - a, and entry p is the count of the host minus the label and the
    side's cell p.  A gamma's entry is also divided by 2^a.  An added gamma
    t past k takes the beta's place: the host plus gamma t minus y pairs
    gamma t with one of its two neighbours, SE t - 1 (none when t = 1) and
    SE t, so its row is the sum of those two betas' rows.  A beta's NE and
    gamma pairs reduce, after the forced staircase strips, to the two-defect
    diamond and one-defect rectangle families, whose counts carry
    2^(a(a-1)/2) and 2^(a(a+1)/2): a (beta, alpha) entry is the diamond's
    unscaled sum, and a (beta, gamma) entry the rectangle's.  Every column
    side is one row evaluator.  ``ar_gamma_nw_row`` or ``ar_gamma_se_row``
    gives a beta's k gamma entries at once, by binomial sums or prefix sums,
    0 past the beta's position.  The diamond is AD(a) minus SE i and NE j, and
    ``ad_adjacent_row`` gives a beta's a entries, j = 1..a, at once: the
    colour-preserving symmetry that takes the beta to SE and the alpha to NE
    reverses positions along the beta's side when the alpha is on SW, which
    picks i, and along the alpha's side when exactly one of "beta on NW" and
    "alpha on SW" holds, which reverses the row.

    A beta against SW 1..a is a walk of n steps from one start row e.
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
    suffix sums, over q >= p, of T^n d for the differences
    d(q) = e(q) - e(q + 1), e(a + 1) = 0, of the start row e whose
    differences weigh where the walk ends.  A step of T takes u to
    S(q) + S(q + 1) for the suffix sums S of u, so the walk keeps the suffix
    sums alone: n times, e becomes the suffix sums of e(q) + e(q + 1), O(n a)
    additions for all a entries.

    A beta past SE k leaves AD(a) after all k pairs, minus the turned beta,
    with the white beside NE q and NE q + 1: its weight e(q) + e(q + 1), for
    the diamond entry e(q) of the turned beta and NE q, is one step of T
    from the differences of the diamond row e, so n = k.  At k = 0 no pair
    is peeled, n = 0, and the entries are the diamond row itself.  An NW
    beta at pos <= k turns into SE s = b+1-pos, whose pair absorbs the
    white, 2 ways for q < a and 1 for q = a, and leaves AR(a, s - 1) minus
    NW a+1..s-1, which counts 2^a.  That weight is one step of T from 2^a
    at q = a alone, the differences of the constant row e = 2^a, after the
    b - s - 1 steps of the pairs between, so n = pos - 1, which gives 2^a
    for every alpha at s = b.  An SE beta at pos <= k starts from e = 0.

    This is the one memo of the entries, for the 2,048 latest (a, b, label,
    side): the counts over one host ask for the same rows again.  A host
    has at most 3(2b + a) rows, 378 for AR(40, 43), so the memo holds every
    row of a few such hosts at once, and the bound keeps a long run of
    counts over many hosts from growing it past 2,048 rows of a ints.
    """
    k = b - a
    pos, nw = label.position, label.side == "NW"
    if label.kind == "gamma":
        rows = [_side_row(a, b, DefectSpec("SE", s), side) for s in (pos - 1, pos) if s]
        return tuple(map(sum, zip(*rows)))
    if side == "gamma":
        return (ar_gamma_nw_row if nw else ar_gamma_se_row)(a, k, pos)
    if side == "NE":
        return ad_adjacent_row(a, pos - k)[:: -1 if nw else 1] if pos > k else (0,) * a
    if pos <= k:  # 0 for an SE beta, which the gammas force
        e, n = (nw << a,) * a, pos - 1
    else:
        e, n = ad_adjacent_row(a, b + 1 - pos)[:: 1 if nw else -1], k
    for _ in range(n):  # the suffix sums of e(q) + e(q + 1), e(a + 1) = 0: one step of T
        e = tuple(accumulate(map(add, e[::-1], (0,) + e[:0:-1])))[::-1]
    return e


def _pfaffian_count(config: DefectConfiguration) -> int:
    """The paper's count of a colour-balanced configuration: one Pfaffian over the gamma host.

    The gamma labels are the symmetric difference of the host's gammas
    1..k and the configuration's string, taken as intervals: the g missing
    ones, removed black cells that join the alphas' class, and the added
    ones past k, added black cells that join the betas'.  The host's count
    is D = 2^(a(a+1)/2) = s 2^a with s = 2^(a(a-1)/2).  Every entry is s
    times ``_three_sided_block``'s, and an entry of a missing gamma 2^a times
    more, so the quotient takes the rows with divisor 2^a and scale s 2^(ag).
    """
    a, b, kept = config.a, config.b, config.gammas
    k = b - a
    # the gammas of 1..k that the string kept.start..kept.stop-1 leaves out, and those past k it adds
    missing = [*range(1, min(k + 1, kept.start)), *range(kept.stop, k + 1)]
    added = range(max(k + 1, kept.start), kept.stop)
    gammas = tuple(DefectSpec("gamma", t) for t in (*missing, *added))
    labels = sorted(config.betas + config.alphas + gammas, key=functools.partial(perimeter_index, a, b))
    block = functools.partial(_three_sided_block, a, b)
    scale = 2 ** (a * (a - 1) // 2 + a * len(missing))

    def in_rows(d: DefectSpec) -> bool:  # the betas and the added gammas
        return d.kind == "beta" or d.kind == "gamma" and d.position > k

    return _pfaffian_quotient(labels, in_rows, block, 2**a, "Pfaffian count", scale)


def _formula_count(config: DefectConfiguration) -> int:
    """Closed-form count of a colour-balanced configuration in one of the formulas module's families.

    This is the one map from a configuration to its closed form: AR(a, b)
    plus gammas 1..k, k = b - a, and no defect (``count_aztec_diamond``);
    SE cells alone removed (``count_ar_kept_se``, which takes one SE cell off
    AR(a, a + 1) and the SE block 2..k + 1 too); gammas 2..k and one SE or NW
    cell removed (``count_ar_gamma_se_defect``, ``count_ar_gamma_nw_defect``);
    AD(a) minus one beta and one alpha (``count_ad_adjacent_defects``);
    AR(a, a + 2) minus one SE and one NW cell (``count_ar_se_nw_defects``);
    and AR(a, a + k) minus SE 2..k and one NW cell
    (``count_ar_se_block_nw_defect``).  Every other gamma string and every
    other family raises ``OutOfScopeConfigurationError``.
    """
    a, b, gammas = config.a, config.b, config.gammas
    k = b - a
    removed = sorted((d.side, d.position) for d in config.betas + config.alphas)
    if not removed and gammas == range(1, k + 1):
        return count_aztec_diamond(a)  # AD(a) plus its gammas; balance forces k = 0 without them
    if gammas:
        if gammas == range(2, k + 1) and len(config.betas) == 1:  # balance leaves no alpha
            (beta,) = config.betas
            family = count_ar_gamma_se_defect if beta.side == "SE" else count_ar_gamma_nw_defect
            return family(a, k, beta.position)
        raise OutOfScopeConfigurationError("no closed form for this augmented family")
    sides = {s for s, _ in removed}
    if sides == {"SE"}:
        # colour balance guarantees exactly a kept positions
        kept = sorted(set(range(1, b + 1)).difference(p for _, p in removed))
        return count_ar_kept_se(a, b, kept)
    if k == 0 and len(config.betas) == 1 and len(config.alphas) == 1:
        # the colour-preserving symmetries of AD(a) take the beta to SE i and the alpha to NE j:
        # one reverses positions along the beta's side for an SW alpha, and one along the
        # alpha's side when exactly one of "alpha on NE" and "beta on SE" holds
        (beta,), (alpha,) = config.betas, config.alphas
        ne = alpha.side == "NE"
        i = beta.position if ne else a + 1 - beta.position
        j = alpha.position if ne == (beta.side == "SE") else a + 1 - alpha.position
        return count_ad_adjacent_defects(a, i, j)
    if sides <= {"SE", "NW"}:
        se = [p for s, p in removed if s == "SE"]
        nw = [p for s, p in removed if s == "NW"]
        if k == 2 and len(se) == 1 and len(nw) == 1:
            return count_ar_se_nw_defects(a, se[0], nw[0])
        if len(nw) == 1 and se == list(range(2, k + 1)):
            return count_ar_se_block_nw_defect(a, k, nw[0])
    raise OutOfScopeConfigurationError("no closed form for this family")


def count_configuration(config: DefectConfiguration, engine: str = "pfaffian") -> int:
    """Tilings of the configuration's region minus its defects, by one engine.

    Every engine gives 0 when the colours do not balance, from
    ``config.balanced`` alone, before any label or cell is built.
    ``pfaffian``, the default, counts every configuration by one Pfaffian
    over the gamma host.  ``paths`` (the determinant of lattice-path counts,
    polynomial) and ``dp`` (the sweep, exponential in the order) count any
    configuration, since every configuration's region is hole-free, and
    ``brute`` (the matching oracle, exponential) any of at most
    ``BRUTE_CELLS`` cells; past that it raises
    ``OutOfScopeConfigurationError`` before any cell is built.  ``paths``
    shares only ``exactalg.determinant`` with ``pfaffian``, and ``dp``
    shares no code with either.  ``formula`` is the one map from a
    configuration to its closed form, over the families ``_formula_count``
    lists, the two gamma-augmented ones among them, and raises
    ``OutOfScopeConfigurationError`` outside them.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if not config.balanced:
        return 0
    if engine == "pfaffian":
        return _pfaffian_count(config)
    if engine == "paths":
        return count_tilings_paths(config.region())
    if engine == "dp":
        return count_tilings_dp(config.region())
    if engine == "brute":
        if config.size > BRUTE_CELLS:
            raise OutOfScopeConfigurationError(f"{config.size} cells exceeds the brute-force limit {BRUTE_CELLS}")
        return count_matchings_brute(config.region())
    return _formula_count(config)
