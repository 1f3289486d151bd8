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
alternating-product identity that drives its induction, and
``check_kuo_identity`` the four local three-product identities.

The defect counters specialize condensation to Aztec rectangles.  The
three-sided count is one Pfaffian whose host is the gamma-augmented rectangle,
with tiling count the pure power of two, and every entry collapses to a closed
form from the formulas module.  Alphas sit on one black side, SW ones reflected
onto NE; at k = b - a = 0 the host is AD(a) itself and alphas may sit on both
black sides, so the diamond counter is that count.  The four-sided count nests
three-sided counts as the entries of an outer Pfaffian.  Both read only the
numbers of a ``DefectConfiguration`` and build no cells; defects are put in
boundary order by ``geometry.perimeter_index``.  They refuse gamma squares
with ``OutOfScopeConfigurationError``.

``count_configuration`` picks the counter for a configuration: the DP sweep
or the brute-force oracle on ``config.region()``, a closed form, or the
Pfaffian counters.

Every counter divides in ``_pfaffian_quotient``, which raises
``InternalInconsistencyError`` unless the quotient is a nonnegative integer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence, TypeVar

from .counting import count_matchings_brute, count_tilings_dp
from .dualgraph import boundary_cycle
from .errors import (
    CondensationInapplicableError,
    InternalInconsistencyError,
    InvalidConfigurationError,
    InvalidOrderError,
    InvalidParameterError,
    OutOfScopeConfigurationError,
)
from .exactalg import pfaffian
from .formulas import (
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_se_block_nw_defect,
    count_ar_se_nw_defects,
    count_aztec_diamond,
)
from .geometry import Cell, DefectConfiguration, DefectSpec, Region, is_white, perimeter_index

T = TypeVar("T")

KUO_SURPLUS = {"AABB": 0, "AAAA": 2, "ABAB": 0, "AAAB": 1}  # #A - #B each pattern needs
ENGINES = ("dp", "brute", "formula", "pfaffian")  # the counters count_configuration picks from


def _cells_count(cells: Iterable[Cell]) -> int:
    return count_tilings_dp(Region.from_cells(cells))


def _base_in_host(host: Region, base_vertices: Iterable[Cell]) -> set[Cell]:
    base = set(base_vertices)
    if not base <= host.cells:
        raise InvalidParameterError(f"cells not in host: {sorted(base - host.cells)}")
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


def _pfaffian_quotient(
    labels: Sequence[T], entry: Callable[[T, T], int], divisor: int, power: int, what: str
) -> int:
    """Pf[(entry(x, y))] / divisor^power over labels in cyclic order.

    The quotient is a tiling count, so it must be a nonnegative integer.
    """
    m = len(labels)
    matrix = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            matrix[i][j] = entry(labels[i], labels[j])
            matrix[j][i] = -matrix[i][j]
    pf = pfaffian(matrix)
    scale = divisor ** abs(power)  # power is -1 for an empty defect set
    value, remainder = divmod(pf, scale) if power >= 0 else (pf * scale, 0)
    if remainder:
        raise InternalInconsistencyError(f"{what}: Pfaffian {pf} not divisible by {divisor}^{power}")
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
    base = _base_in_host(host, base_vertices)
    _validate_cyclic(boundary_cycle(host), face_vertices)
    base_count = _cells_count(base)
    if base_count == 0:
        raise CondensationInapplicableError("M(G) = 0")
    return _pfaffian_quotient(
        face_vertices,
        lambda x, y: _cells_count(base ^ {x, y}),
        base_count,
        len(face_vertices) // 2 - 1,
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
    base = _base_in_host(host, base_vertices)
    _validate_cyclic(boundary_cycle(host), verts)
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
    """Check one of the four local condensation identities on engine counts.

    ``pattern`` gives the color classes of (w, x, y, z) in cyclic face order,
    with A the class of w: "AABB", "AAAA" (needs #A = #B + 2), "ABAB", and
    "AAAB" (needs #A = #B + 1).  The balanced patterns need #A = #B.  Raises
    ``InvalidConfigurationError`` when the cells or the region miss the
    pattern's hypotheses.
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
    cells = region.cells
    n_a = sum(1 for c in cells if is_white(c) == a_class)
    n_b = len(cells) - n_a
    surplus = KUO_SURPLUS[pattern]
    if n_a != n_b + surplus:
        raise InvalidConfigurationError(
            f"pattern {pattern} needs #A = #B + {surplus}, region has {n_a} and {n_b}"
        )
    _validate_cyclic(boundary_cycle(region), quad)

    def m_minus(*gone: Cell) -> int:
        return _cells_count(cells - set(gone))

    if pattern == "AABB":
        return m_minus(w, z) * m_minus(x, y) == m_minus() * m_minus(w, x, y, z) + m_minus(
            w, y
        ) * m_minus(x, z)
    if pattern == "AAAA":
        return m_minus(w, y) * m_minus(x, z) == m_minus(w, x) * m_minus(y, z) + m_minus(
            w, z
        ) * m_minus(x, y)
    if pattern == "ABAB":
        return m_minus() * m_minus(w, x, y, z) == m_minus(w, x) * m_minus(y, z) + m_minus(
            w, z
        ) * m_minus(x, y)
    return m_minus(w) * m_minus(x, y, z) + m_minus(y) * m_minus(w, x, z) == m_minus(
        x
    ) * m_minus(w, y, z) + m_minus(z) * m_minus(w, x, y)


def _require_plain(config: DefectConfiguration) -> None:
    if config.gammas:
        raise OutOfScopeConfigurationError("pfaffian engine works on plain AD/AR specs")


def _require_balanced(config: DefectConfiguration) -> None:
    """Refuse gamma squares, and any defect set but #betas - #alphas = b - a."""
    _require_plain(config)
    k = config.b - config.a
    if len(config.betas) - len(config.alphas) != k:
        raise InvalidConfigurationError(
            f"need #betas - #alphas = b - a = {k}, got "
            f"{len(config.betas)} - {len(config.alphas)}"
        )


def _mirror_spec(spec: DefectSpec, a: int, b: int) -> DefectSpec:
    """Reflect u -> 2b - u, swapping the NE and SW sides."""
    if spec.side in ("NW", "SE"):
        return DefectSpec(spec.side, b - spec.position + 1, spec.kind)
    side = "NE" if spec.side == "SW" else "SW"
    return DefectSpec(side, a - spec.position + 1, spec.kind)


def _three_sided_entry(a: int, k: int, d1: DefectSpec, d2: DefectSpec) -> int:
    """Closed-form count of the gamma-augmented rectangle minus two defect cells.

    Defects are beta, alpha or gamma addresses; alphas sit on the NE side
    unless k = 0.  Same-color pairs vanish; mixed pairs reduce, after the
    forced staircase strips, to the two-defect diamond and one-defect
    rectangle families.
    """
    if (d1.kind == "beta") == (d2.kind == "beta"):
        return 0
    if d1.kind != "beta":
        d1, d2 = d2, d1
    side, pos = d1.side, d1.position
    if d2.kind == "alpha":
        i, j = diamond_normal_form(a, d1, d2)
        return count_ad_adjacent_defects(a, i - k, j) if i > k else 0
    p = d2.position
    if pos < p:
        return 0
    if side == "SE":
        return count_ar_gamma_se_defect(a, k - p + 1, pos - p + 1)
    return count_ar_gamma_nw_defect(a, k - p + 1, pos - p + 1)


def _three_sided_count(
    a: int, b: int, betas: tuple[DefectSpec, ...], alphas: tuple[DefectSpec, ...]
) -> int:
    """Pfaffian count assuming, when k > 0, alphas on one black side."""
    k = b - a
    if k and any(d.side == "SW" for d in alphas):
        betas = tuple(_mirror_spec(d, a, b) for d in betas)
        alphas = tuple(_mirror_spec(d, a, b) for d in alphas)
    gammas = tuple(DefectSpec("SE", t, "gamma") for t in range(1, k + 1))
    deltas = sorted(betas + alphas + gammas, key=lambda d: perimeter_index(a, b, d))
    return _pfaffian_quotient(
        deltas,
        lambda x, y: _three_sided_entry(a, k, x, y),
        2 ** (a * (a + 1) // 2),
        len(alphas) + k - 1,
        "three-sided count",
    )


def count_defects_three_sided(config: DefectConfiguration) -> int:
    """Tilings of AR(a, b) minus its beta and alpha defects, alphas on one black side.

    Assembles the (2n+2k) x (2n+2k) Pfaffian over betas, alphas and the k
    gamma squares in boundary-cyclic order, with closed-form entries, and
    divides by the augmented rectangle's count to the power n + k - 1.  SW
    alphas are reflected onto the NE side; at k = 0 the host is AD(a) itself
    and alphas may sit on both black sides.  Gamma squares are out of scope.
    """
    _require_balanced(config)
    a, b = config.a, config.b
    if a != b and {d.side for d in config.alphas} == {"NE", "SW"}:
        raise OutOfScopeConfigurationError("alpha defects on both the NE and SW sides need a = b")
    return _three_sided_count(a, b, config.betas, config.alphas)


def count_defects_four_sided(config: DefectConfiguration) -> int:
    """Tilings of AR(a, b) minus defects on arbitrary sides (nested Pfaffians).

    Splits off k of the betas to form a balanced sub-rectangle G, then runs
    condensation over the remaining n betas and n alphas; every entry is
    itself a three-sided Pfaffian count with at most one alpha.  Gamma
    squares are out of scope.
    """
    _require_balanced(config)
    a, b = config.a, config.b

    def order(d: DefectSpec) -> int:
        return perimeter_index(a, b, d)

    betas_sorted = sorted(config.betas, key=order)
    chosen = None
    for s in itertools.combinations(betas_sorted, b - a):
        m_g = _three_sided_count(a, b, s, ())
        if m_g:
            chosen, m_base = s, m_g
            break
    if chosen is None:
        raise CondensationInapplicableError("every balanced beta subset has count 0")
    rest = [d for d in betas_sorted if d not in chosen]
    outer = sorted(rest + list(config.alphas), key=order)

    def entry(x: DefectSpec, y: DefectSpec) -> int:
        if (x.kind == "beta") == (y.kind == "beta"):
            return 0
        beta, alpha = (x, y) if x.kind == "beta" else (y, x)
        return _three_sided_count(a, b, chosen + (beta,), (alpha,))

    return _pfaffian_quotient(outer, entry, m_base, len(config.alphas) - 1, "four-sided count")


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
    if sides == {"SE", "NW"}:
        se = sorted(p for s, p in removed if s == "SE")
        nw = [p for s, p in removed if s == "NW"]
        if k == 2 and len(se) == 1 and len(nw) == 1:
            return count_ar_se_nw_defects(a, se[0], nw[0])
        if len(nw) == 1 and se == list(range(2, k + 1)):
            return count_ar_se_block_nw_defect(a, k, nw[0])
    raise OutOfScopeConfigurationError("no closed form for this family")


def count_configuration(config: DefectConfiguration, engine: str = "dp") -> int:
    """Tilings of the configuration's region minus its defects, by one engine.

    ``dp`` (the sweep) and ``brute`` (the matching oracle, exponential) count
    any configuration.  ``formula`` covers the closed-form families and
    ``pfaffian`` plain AD/AR regions, choosing the three- or four-sided count;
    both give 0 when the colours do not balance and raise
    ``OutOfScopeConfigurationError`` outside their families.  ``pfaffian``
    raises ``CondensationInapplicableError`` when no balanced sub-rectangle has
    a tiling.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine == "dp":
        return count_tilings_dp(config.region())
    if engine == "brute":
        return count_matchings_brute(config.region())
    if engine == "pfaffian":
        _require_plain(config)
    # AR(a, b) has b - a more white cells than black, and each gamma square one more black
    k = config.b - config.a
    if len(config.betas) - len(config.alphas) != k - len(config.gammas):
        return 0
    if engine == "formula":
        return _formula_count(config)
    if k == 0 or len({d.side for d in config.alphas}) < 2:
        return count_defects_three_sided(config)
    return count_defects_four_sided(config)
