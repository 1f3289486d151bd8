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
returns 0 when the colours do not balance, and otherwise takes the
three-sided count for a diamond or for alphas on one black side, the
four-sided count for alphas on both black sides of a rectangle.  The
three-sided count is one Pfaffian whose host is the gamma-augmented rectangle
AR(a, b) plus gammas 1..k, k = b - a, with tiling count the pure power of two,
and every entry collapses to a closed form from the formulas module.  The
entries are taken as the closed forms' unscaled integer sums, and the power
of two they share is applied once, in the quotient.  Its
labels are the betas, the alphas and the gammas of 1..k the configuration does
not keep.  Alphas sit on one black side, SW ones reflected onto NE when no
gamma is kept; at k = 0 the host is AD(a) itself and alphas may sit on both
black sides, so the diamond count is that count.  The four-sided count nests
three-sided counts as the entries of an outer Pfaffian.  Both take only the
numbers of a configuration and build no cells; defects are put in
boundary order by ``geometry.perimeter_index``.  A four-sided configuration
where no balanced sub-rectangle has a tiling counts 0, by the proof in
``_four_sided_count``.  The Pfaffian counts refuse only three gamma cases,
raising ``OutOfScopeConfigurationError``: a gamma outside 1..k, SW alphas with
gammas, and a four-sided configuration with gammas.

``count_configuration`` picks the counter for a configuration: the Kasteleyn
determinant, the DP sweep or the brute-force oracle on ``config.region()``, a
closed form, or the Pfaffian counts.  The default, ``auto``, takes the
Pfaffian counts, the paper's route, for every spec, and falls back to the
determinant only on the three gamma cases they refuse.
``InternalInconsistencyError`` is never caught.

Every counter divides in ``_pfaffian_quotient``, which raises
``InternalInconsistencyError`` unless the quotient is a nonnegative integer.
Each caller splits its labels into two classes, and an entry within a class
counts a colour-unbalanced region, so it is 0: betas against alphas and
gammas in the defect counters, and in the symmetric-difference count the
cells whose toggle gains a white against those whose toggle loses one.  The
Pfaffian is then, up to a sign fixed by how the classes interleave, the
determinant of the block of mixed entries, taken by ``exactalg.determinant``
at half the dimension; only those entries are computed.
"""

from __future__ import annotations

import itertools
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
)
from .exactalg import determinant
from .formulas import (
    ad_adjacent_sum,
    ar_gamma_nw_sum,
    ar_gamma_se_sum,
    count_ad_adjacent_defects,
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
    labels: Sequence[T], in_rows: Callable[[T], bool], entry: Callable[[T, T], int]
) -> int:
    """Pf[(entry(x, y))] over labels in cyclic order, for a matrix that ``in_rows`` splits.

    entry(x, y), x before y, must be 0 when ``in_rows`` puts x and y in the
    same class; only the other entries are computed.  Listing the row class
    first makes the matrix [[0, B], [-B^T, 0]] for an h x h block B, so
    Pf = (-1)^(s + h(h-1)/2) det B, where s counts the pairs of a column
    label followed by a row label, which the listing swaps.  Classes of
    unequal size give 0.
    """
    rows: list[tuple[int, T]] = []
    cols: list[tuple[int, T]] = []
    swaps = 0
    for pos, x in enumerate(labels):
        if in_rows(x):
            rows.append((pos, x))
            swaps += len(cols)
        else:
            cols.append((pos, x))
    h = len(rows)
    if len(cols) != h:
        return 0
    block = [[entry(x, y) if i < j else -entry(y, x) for j, y in cols] for i, x in rows]
    return (-1) ** (swaps + h * (h - 1) // 2) * determinant(block)


def _pfaffian_quotient(
    labels: Sequence[T],
    in_rows: Callable[[T], bool],
    entry: Callable[[T, T], int],
    divisor: int,
    what: str,
    scale: int = 1,
) -> int:
    """scale Pf[(entry(x, y))] / divisor^(k-1) over 2k labels in cyclic order.

    The Pfaffian is ``_bipartite_pfaffian``'s, so entries within a class of
    ``in_rows`` must be 0.  Entries that all share a factor s can be passed
    divided by it: with scale = s and divisor D / s the quotient is
    Pf[(s e)] / D^(k-1), the same rational, so the exactness check is the
    same.  The quotient is a tiling count, so it must be a nonnegative
    integer.
    """
    pf = scale * _bipartite_pfaffian(labels, in_rows, entry)
    power = len(labels) // 2 - 1  # -1 for no labels: the count is scale * divisor
    value, remainder = divmod(pf, divisor**power) if power >= 0 else (pf * divisor, 0)
    if remainder:
        raise InternalInconsistencyError(f"{what}: {scale} Pf = {pf} not divisible by {divisor}^{power}")
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
        lambda x, y: _cells_count(base ^ {x, y}),
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


def _mirror_spec(spec: DefectSpec, a: int, b: int) -> DefectSpec:
    """Reflect u -> 2b - u, swapping the NE and SW sides."""
    if spec.side in ("NW", "SE"):
        return DefectSpec(spec.side, b - spec.position + 1, spec.kind)
    side = "NE" if spec.side == "SW" else "SW"
    return DefectSpec(side, a - spec.position + 1, spec.kind)


def _three_sided_entry(a: int, k: int, d1: DefectSpec, d2: DefectSpec) -> int:
    """Closed-form count of the gamma-augmented rectangle minus two defect cells, / 2^(a(a-1)/2).

    d1 and d2 are a beta and an alpha or gamma, in either order: the only
    pairs ``_bipartite_pfaffian`` asks for, since a same-colour pair's count
    is 0.  Alphas sit on the NE side unless k = 0.  The pairs reduce, after
    the forced staircase strips, to the two-defect diamond and one-defect
    rectangle families, whose counts carry 2^(a(a-1)/2) and 2^(a(a+1)/2):
    a (beta, alpha) entry is the diamond's unscaled sum and a (beta, gamma)
    entry 2^a times the rectangle's.
    """
    if d1.kind != "beta":
        d1, d2 = d2, d1
    side, pos = d1.side, d1.position
    if d2.kind == "alpha":
        i, j = diamond_normal_form(a, d1, d2)
        return ad_adjacent_sum(a, i - k, j) if i > k else 0
    p = d2.position
    if pos < p:
        return 0
    unscaled = ar_gamma_se_sum if side == "SE" else ar_gamma_nw_sum
    return unscaled(a, k - p + 1, pos - p + 1) << a


def _three_sided_count(
    a: int,
    b: int,
    betas: tuple[DefectSpec, ...],
    alphas: tuple[DefectSpec, ...],
    gammas: tuple[int, ...] = (),
) -> int:
    """Pfaffian count assuming, when k > 0, alphas on one black side, SW only if no gammas.

    The host's count is D = 2^(a(a+1)/2) = s 2^a with s = 2^(a(a-1)/2), and
    every entry is s times ``_three_sided_entry``, so the quotient takes the
    unscaled entries with divisor 2^a and scale s.
    """
    k = b - a
    if k and any(d.side == "SW" for d in alphas):
        betas = tuple(_mirror_spec(d, a, b) for d in betas)
        alphas = tuple(_mirror_spec(d, a, b) for d in alphas)
    missing = tuple(DefectSpec("SE", t, "gamma") for t in range(1, k + 1) if t not in gammas)
    deltas = sorted(betas + alphas + missing, key=lambda d: perimeter_index(a, b, d))

    def entry(x: DefectSpec, y: DefectSpec) -> int:
        return _three_sided_entry(a, k, x, y)

    s = 2 ** (a * (a - 1) // 2)
    return _pfaffian_quotient(deltas, lambda d: d.kind == "beta", entry, 2**a, "three-sided count", s)


def _cuts_balance(a: int, b: int, betas: Sequence[DefectSpec]) -> bool:
    """Whether the column cuts of AR(a, b) minus the b - a betas balance; they do if it has a tiling.

    The rule is necessary.  Black column u = 2j holds a cells and white
    column 2j - 1 holds a + 1, less the betas at position j.  With r_j betas
    at positions <= j, the cut after black column 2j leaves (j + 1) a blacks
    against j (a + 1) - r_j whites to its west, and those whites pair only
    with blacks there, so a - j + r_j dominoes cross from column 2j into
    white column 2j + 1: a tiling needs 0 <= a - j + r_j <= a.  That the rule
    is also sufficient is measured, not proven: it matched the Kasteleyn
    count on every k-subset of NW/SE betas for a <= 8, k <= 3.
    """
    return all(j - a <= sum(d.position <= j for d in betas) <= j for j in range(1, b))


def _four_sided_count(
    a: int, b: int, betas: tuple[DefectSpec, ...], alphas: tuple[DefectSpec, ...]
) -> int:
    """Tilings of AR(a, b) minus the betas and alphas, on any sides, by nested Pfaffians.

    There are k = b - a more betas than alphas.  Splits off k of the betas
    to form a balanced sub-rectangle G, the first k-subset in boundary order
    that passes ``_cuts_balance``, then runs condensation over the
    remaining n betas and n alphas; every entry is
    itself a three-sided Pfaffian count with at most one alpha.  Raises
    ``InternalInconsistencyError`` if that G counts 0, since the rule's
    sufficiency is only measured.

    When no k-subset passes, the count is 0.  Let T tile AR(a, b) minus the
    betas B and alphas A.  The cells T covers are independent in the
    matching matroid of AR(a, b), whose independent sets are the cell sets
    some matching covers.  AR(a, b) minus SE 1..k has a tiling, so its cells
    are a basis, and the exchange axiom extends T's cells by some of them to
    a basis covered by a matching.  That matching covers every black cell
    and all whites but k, which lie in B: a k-subset S of B with
    AR(a, b) - S tiled, so S passes the necessary rule.
    """

    def order(d: DefectSpec) -> int:
        return perimeter_index(a, b, d)

    betas_sorted = sorted(betas, key=order)
    subsets = itertools.combinations(betas_sorted, b - a)
    chosen = next((s for s in subsets if _cuts_balance(a, b, s)), None)
    if chosen is None:
        return 0
    m_base = _three_sided_count(a, b, chosen, ())
    if m_base == 0:
        raise InternalInconsistencyError(f"four-sided count: cut-rule base {chosen} counts 0")
    rest = [d for d in betas_sorted if d not in chosen]
    outer = sorted(rest + list(alphas), key=order)

    def entry(x: DefectSpec, y: DefectSpec) -> int:
        beta, alpha = (x, y) if x.kind == "beta" else (y, x)
        return _three_sided_count(a, b, chosen + (beta,), (alpha,))

    return _pfaffian_quotient(outer, lambda d: d.kind == "beta", entry, m_base, "four-sided count")


def _balanced(config: DefectConfiguration) -> bool:
    """Whether the colours balance; AR(a, b) has b - a more white cells than black, a gamma one more black."""
    return len(config.betas) - len(config.alphas) == config.b - config.a - len(config.gammas)


def _pfaffian_count(config: DefectConfiguration) -> int:
    """The paper's count: 0 unless the colours balance, else the three- or four-sided Pfaffian.

    Alphas on both black sides of a rectangle take the four-sided count, and
    everything else the three-sided one.  Raises
    ``OutOfScopeConfigurationError`` for the three gamma cases: a four-sided
    configuration with gammas, and else a gamma outside 1..b-a or SW alphas
    with gammas.
    """
    if not _balanced(config):
        return 0
    a, b, gammas = config.a, config.b, config.gammas
    sides = {d.side for d in config.alphas}
    if a != b and len(sides) == 2:
        if gammas:
            raise OutOfScopeConfigurationError("the four-sided count takes no gamma squares")
        return _four_sided_count(a, b, config.betas, config.alphas)
    if gammas and (gammas[-1] > b - a or "SW" in sides):
        raise OutOfScopeConfigurationError("gamma squares need positions in 1..b-a and no SW alphas")
    return _three_sided_count(a, b, config.betas, config.alphas, gammas)


def diamond_normal_form(a: int, beta: DefectSpec, alpha: DefectSpec) -> tuple[int, int]:
    """(i, j) with AD(a) minus beta and alpha congruent to AD(a) minus SE i and NE j.

    The color-preserving symmetry that takes the beta to SE and the alpha to NE
    reverses positions along the beta's side when the alpha is on SW, and along
    the alpha's side when exactly one of "beta on NW" and "alpha on SW" holds.
    """
    i, j = beta.position, alpha.position
    if alpha.side == "SW":
        i = a - i + 1
    if (beta.side == "NW") != (alpha.side == "SW"):
        j = a - j + 1
    return i, j


def _formula_count(config: DefectConfiguration) -> int:
    """Closed-form count of a colour-balanced configuration in a recognized family."""
    a, b, gammas = config.a, config.b, config.gammas
    k = b - a
    removed = sorted((d.side, d.position) for d in config.betas + config.alphas)
    if gammas:
        if not removed and gammas == tuple(range(1, k + 1)):
            return count_aztec_diamond(a)
        raise OutOfScopeConfigurationError("no closed form for this augmented family")
    if not removed:
        return count_aztec_diamond(a)  # balance forces a = b
    sides = {s for s, _ in removed}
    if sides == {"SE"}:
        # colour balance guarantees exactly a kept positions
        kept = [p for p in range(1, b + 1) if ("SE", p) not in removed]
        return count_ar_kept_se(a, b, kept)
    if k == 0 and len(config.betas) == 1 and len(config.alphas) == 1:
        return count_ad_adjacent_defects(a, *diamond_normal_form(a, config.betas[0], config.alphas[0]))
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

    ``auto`` (the default) counts by ``pfaffian``; a spec on which
    ``pfaffian`` raises ``OutOfScopeConfigurationError`` is counted by
    ``kasteleyn`` instead, and no other error is caught.
    ``kasteleyn`` (the determinant, polynomial), ``dp`` (the sweep,
    exponential in the order) and ``brute`` (the matching oracle,
    exponential) count any configuration, since every configuration's region
    is hole-free.  ``formula`` covers the closed-form families and
    ``pfaffian`` AD/AR regions, by the three- or four-sided count;
    both give 0 when the colours do not balance and raise
    ``OutOfScopeConfigurationError`` outside their families, for
    ``pfaffian`` only the three gamma cases the module docstring names.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine == "auto":
        try:
            return _pfaffian_count(config)
        except OutOfScopeConfigurationError:
            engine = "kasteleyn"
    if engine == "kasteleyn":
        return count_tilings_kasteleyn(config.region())
    if engine == "dp":
        return count_tilings_dp(config.region())
    if engine == "brute":
        return count_matchings_brute(config.region())
    if engine == "pfaffian":
        return _pfaffian_count(config)
    return _formula_count(config) if _balanced(config) else 0
