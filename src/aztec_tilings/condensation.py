"""Pfaffian graphical condensation and the boundary-defect counters.

``condensation_count`` implements the classical identity: for vertices
a_1..a_2k in cyclic order on a face of a planar graph G with M(G) != 0,

    M(G - {a_1..a_2k}) = Pf[(M(G - {a_i, a_j}))] / M(G)^(k-1).

``condensation_count_symdiff`` is the symmetric-difference generalization to
an induced subgraph G of a host H (entries M(G + {a_i, a_j}) with + meaning
toggle against H; G = H gives ``condensation_count``), and
``check_face_alternating_identity`` verifies the alternating-product identity
that drives its induction.

The defect counters specialize condensation to Aztec rectangles.  The
three-sided count is one Pfaffian whose host is the gamma-augmented rectangle,
with tiling count the pure power of two, and every entry collapses to a closed
form from the formulas module.  Alphas sit on one black side, SW ones reflected
onto NE; at k = b - a = 0 the host is AD(a) itself and alphas may sit on both
black sides, so the diamond counter is that count.  The four-sided count nests
three-sided counts as the entries of an outer Pfaffian.  Defects are put in
boundary order by ``geometry.perimeter_index``.

``count_configuration`` picks the counter for a configuration: the DP sweep,
the brute-force oracle, a closed form, or the Pfaffian counters.

Every counter divides in ``_pfaffian_quotient``, which raises
``InternalInconsistencyError`` unless a unit-weight quotient is a nonnegative
integer; weighted quotients keep their sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .counting import CountValue, count_matchings_brute, count_tilings_dp
from .dualgraph import (
    DualGraph,
    boundary_cycle,
    build_dual,
    induced_subgraph,
    symmetric_difference,
)
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
from .geometry import (
    Cell,
    DefectSpec,
    Region,
    is_white,
    make_aztec_rectangle,
    perimeter_index,
    remove_defects,
)

T = TypeVar("T")

KUO_SURPLUS = {"AABB": 0, "AAAA": 2, "ABAB": 0, "AAAB": 1}  # #A - #B each pattern needs
KUO_PATTERNS = tuple(KUO_SURPLUS)
ENGINES = ("dp", "brute", "formula", "pfaffian")  # the counters count_configuration picks from


def _graph_count(graph: DualGraph) -> CountValue:
    if graph.weights is not None:
        return count_matchings_brute(graph)
    return count_tilings_dp(Region.from_cells(graph.cells))


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
    labels: Sequence[T], entry: Callable[[T, T], CountValue], divisor: CountValue,
    power: int, what: str,
) -> CountValue:
    """Pf[(entry(x, y))] / divisor^power over labels in cyclic order.

    An int divisor means unit weights, so the quotient must be a nonnegative
    integer; a Fraction divisor means edge weights, and the quotient keeps its sign.
    """
    m = len(labels)
    matrix: list[list[CountValue]] = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            matrix[i][j] = entry(labels[i], labels[j])
            matrix[j][i] = -matrix[i][j]
    pf = pfaffian(matrix)
    value = pf / Fraction(divisor) ** power
    if isinstance(divisor, Fraction):
        return value
    if value.denominator != 1:
        raise InternalInconsistencyError(f"{what}: Pfaffian {pf} not divisible by {divisor}^{power}")
    if value < 0:
        raise InternalInconsistencyError(f"{what}: negative Pfaffian {pf}")
    return int(value)


def condensation_count(graph: DualGraph, face_vertices: Sequence[Cell]) -> CountValue:
    """Count M(G minus the 2k face vertices) through the Pfaffian quotient."""
    return condensation_count_symdiff(graph, graph.cells, face_vertices)


def condensation_count_symdiff(
    host: DualGraph, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> CountValue:
    """Count M(G + {a_1..a_2k}) where G is induced on base_vertices and + toggles."""
    if len(face_vertices) % 2 == 1:
        raise InvalidOrderError("need an even number of face vertices")
    base_set = set(base_vertices)
    _validate_cyclic(boundary_cycle(host.cells), face_vertices)
    base_graph = induced_subgraph(host, base_set)
    base_count = _graph_count(base_graph)
    if base_count == 0:
        raise CondensationInapplicableError("M(G) = 0")
    return _pfaffian_quotient(
        face_vertices,
        lambda x, y: _graph_count(symmetric_difference(host, base_set, {x, y})),
        base_count,
        len(face_vertices) // 2 - 1,
        "condensation",
    )


def check_face_alternating_identity(
    host: DualGraph, base_vertices: Iterable[Cell], face_vertices: Sequence[Cell]
) -> bool:
    """Alternating-product identity behind the symdiff condensation induction.

    With a_1..a_2k in cyclic order on a host face and G induced on
    base_vertices, checks

        M(G) M(G + all) + sum_{l=2..k} M(G + {a_1, a_{2l-1}}) M(G + rest)
            == sum_{l=1..k} M(G + {a_1, a_2l}) M(G + rest)

    where rest is the complement of the pair within {a_1..a_2k}.
    """
    verts = list(face_vertices)
    if len(verts) % 2 == 1 or not verts:
        raise InvalidOrderError("need a nonempty even vertex list")
    base_set = set(base_vertices)
    _validate_cyclic(boundary_cycle(host.cells), verts)
    all_set = set(verts)

    def m_of(toggle: set[Cell]) -> CountValue:
        return _graph_count(symmetric_difference(host, base_set, toggle))

    k = len(verts) // 2
    lhs = m_of(set()) * m_of(all_set)
    for l in range(2, k + 1):
        pair = {verts[0], verts[2 * l - 2]}
        lhs += m_of(pair) * m_of(all_set - pair)
    rhs: CountValue = 0
    for l in range(1, k + 1):
        pair = {verts[0], verts[2 * l - 1]}
        rhs += m_of(pair) * m_of(all_set - pair)
    return lhs == rhs


def check_kuo_identity(
    pattern: str, graph: DualGraph, w: Cell, x: Cell, y: Cell, z: Cell
) -> bool:
    """Check one of the four local condensation identities on engine counts.

    ``pattern`` gives the color classes of (w, x, y, z) in cyclic face order,
    with A the class of w: "AABB", "AAAA" (needs #A = #B + 2), "ABAB", and
    "AAAB" (needs #A = #B + 1).  The balanced patterns need #A = #B.
    """
    if pattern not in KUO_PATTERNS:
        raise InvalidConfigurationError(f"unknown pattern {pattern!r}")
    quad = (w, x, y, z)
    if len(set(quad)) != 4:
        raise InvalidConfigurationError("w, x, y, z must be distinct")
    _validate_cyclic(boundary_cycle(graph.cells), quad)
    a_class = is_white(w)
    actual = "".join("A" if is_white(c) == a_class else "B" for c in quad)
    if actual != pattern:
        raise InvalidConfigurationError(f"cells have pattern {actual}, expected {pattern}")
    n_a = sum(1 for c in graph.cells if is_white(c) == a_class)
    n_b = len(graph.cells) - n_a
    surplus = KUO_SURPLUS[pattern]
    if n_a != n_b + surplus:
        raise InvalidConfigurationError(
            f"pattern {pattern} needs #A = #B + {surplus}, graph has {n_a} and {n_b}"
        )
    cells = set(graph.cells)

    def m_minus(*gone: Cell) -> CountValue:
        return _graph_count(induced_subgraph(graph, cells - set(gone)))

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


@dataclass(frozen=True)
class DefectConfiguration:
    """A rectangle (possibly gamma-augmented) with beta and alpha removals."""

    region: Region
    betas: tuple[DefectSpec, ...]
    alphas: tuple[DefectSpec, ...]

    def sizes(self) -> tuple[int, int, int]:
        """Return (a, b, k)."""
        meta = self.region.meta
        if meta.kind not in ("AD", "AR") or meta.a is None or meta.b is None:
            raise InvalidConfigurationError("configuration needs an AD/AR region")
        return meta.a, meta.b, meta.b - meta.a

    def base_region(self) -> Region:
        """The canonical rectangle without gamma squares or removals."""
        a, b, _ = self.sizes()
        return make_aztec_rectangle(a, b)

    def target_region(self) -> Region:
        """The counted region: rectangle minus all beta and alpha cells."""
        return remove_defects(self.base_region(), self.betas + self.alphas)

    def validate(self) -> None:
        a, b, k = self.sizes()
        meta = self.region.meta
        if meta.gammas and meta.gammas != tuple(range(1, k + 1)):
            raise InvalidConfigurationError(
                f"gamma squares must occupy positions 1..{k}, got {meta.gammas}"
            )
        if meta.removed:
            raise InvalidConfigurationError("configuration region must carry no removals")
        if any(d.kind != "beta" for d in self.betas):
            raise InvalidConfigurationError("betas must be beta-class defects")
        if any(d.kind != "alpha" for d in self.alphas):
            raise InvalidConfigurationError("alphas must be alpha-class defects")
        if len(self.betas) - len(self.alphas) != k:
            raise InvalidConfigurationError(
                f"need #betas - #alphas = b - a = {k}, got "
                f"{len(self.betas)} - {len(self.alphas)}"
            )
        # Raises on duplicate or out-of-range defects; no side address names a gamma cell.
        remove_defects(self.region, self.betas + self.alphas)


def _mirror_spec(spec: DefectSpec, a: int, b: int) -> DefectSpec:
    """Reflect u -> 2b - u, swapping the NE and SW sides."""
    if spec.side in ("NW", "SE"):
        return DefectSpec(spec.side, b - spec.position + 1, spec.kind)
    side = "NE" if spec.side == "SW" else "SW"
    return DefectSpec(side, a - spec.position + 1, spec.kind)


def mirror_configuration(config: DefectConfiguration) -> DefectConfiguration:
    """The congruent configuration with the NE and SW sides exchanged."""
    a, b, _ = config.sizes()
    return DefectConfiguration(
        config.region,
        tuple(_mirror_spec(d, a, b) for d in config.betas),
        tuple(_mirror_spec(d, a, b) for d in config.alphas),
    )


def _three_sided_entry(a: int, k: int, d1: DefectSpec, d2: DefectSpec) -> int:
    """Closed-form count of the gamma-augmented rectangle minus two defect cells.

    Defects are beta, alpha or gamma addresses; alphas sit on the NE side
    unless k = 0.  Same-color pairs vanish; mixed pairs reduce, after the
    forced staircase strips, to the two-defect diamond and one-defect
    rectangle families.
    """
    base = 2 ** (a * (a + 1) // 2)
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
        if pos <= k:
            return base
        return count_ar_gamma_se_defect(a, k - p + 1, pos - p + 1)
    return count_ar_gamma_nw_defect(a, k - p + 1, pos - p + 1)


def _three_sided_count(config: DefectConfiguration) -> int:
    """Pfaffian count assuming, when k > 0, alphas on one black side."""
    a, b, k = config.sizes()
    if k and any(d.side == "SW" for d in config.alphas):
        config = mirror_configuration(config)
    gammas = tuple(DefectSpec("SE", t, "gamma") for t in range(1, k + 1))
    deltas = sorted(
        config.betas + config.alphas + gammas, key=lambda d: perimeter_index(a, b, d)
    )
    return _pfaffian_quotient(
        deltas,
        lambda x, y: _three_sided_entry(a, k, x, y),
        2 ** (a * (a + 1) // 2),
        len(config.alphas) + k - 1,
        "three-sided count",
    )


def count_defects_three_sided(config: DefectConfiguration) -> int:
    """Tilings of AR(a, b) minus its beta and alpha defects, alphas on one black side.

    Assembles the (2n+2k) x (2n+2k) Pfaffian over betas, alphas and the k
    gamma squares in boundary-cyclic order, with closed-form entries, and
    divides by the augmented rectangle's count to the power n + k - 1.  SW
    alphas are reflected onto the NE side; at k = 0 the host is AD(a) itself
    and alphas may sit on both black sides.
    """
    config.validate()
    if config.sizes()[2] and {d.side for d in config.alphas} == {"NE", "SW"}:
        raise OutOfScopeConfigurationError("alpha defects on both the NE and SW sides need a = b")
    return _three_sided_count(config)


def count_defects_four_sided(config: DefectConfiguration) -> int:
    """Tilings of AR(a, b) minus defects on arbitrary sides (nested Pfaffians).

    Splits off k of the betas to form a balanced sub-rectangle G, then runs
    condensation over the remaining n betas and n alphas; every entry is
    itself a three-sided Pfaffian count with at most one alpha.
    """
    config.validate()
    a, b, k = config.sizes()

    def order(d: DefectSpec) -> int:
        return perimeter_index(a, b, d)

    betas_sorted = sorted(config.betas, key=order)

    def three_sided(betas: tuple[DefectSpec, ...], alphas: tuple[DefectSpec, ...]) -> int:
        return _three_sided_count(DefectConfiguration(config.region, betas, alphas))

    chosen = None
    for s in itertools.combinations(betas_sorted, k):
        m_g = three_sided(s, ())
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
        return three_sided(chosen + (beta,), (alpha,))

    return _pfaffian_quotient(outer, entry, m_base, len(config.alphas) - 1, "four-sided count")


def count_diamond_defects(
    a: int, betas: Sequence[DefectSpec], alphas: Sequence[DefectSpec]
) -> int:
    """Tilings of AD(a) minus n beta and n alpha boundary defects.

    The k = 0 case of ``count_defects_three_sided``: a 2n x 2n Pfaffian with
    the adjacent-sides diamond formula for every mixed pair and 0 for
    same-color pairs, divided by the defect-free diamond count to the power
    n - 1.
    """
    config = DefectConfiguration(make_aztec_rectangle(a, a), tuple(betas), tuple(alphas))
    return count_defects_three_sided(config)


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
    a, b, k = config.sizes()
    gammas = config.region.meta.gammas
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
    if engine in ("dp", "brute"):
        residual = remove_defects(config.region, config.betas + config.alphas)
        if engine == "dp":
            return count_tilings_dp(residual)
        return count_matchings_brute(build_dual(residual))
    _, _, k = config.sizes()
    if engine == "pfaffian" and config.region.meta.gammas:
        raise OutOfScopeConfigurationError("pfaffian engine works on plain AD/AR specs")
    # AR(a, b) has b - a more white cells than black, and each gamma square one more black
    if len(config.betas) - len(config.alphas) != k - len(config.region.meta.gammas):
        return 0
    if engine == "formula":
        return _formula_count(config)
    if k == 0 or len({d.side for d in config.alphas}) < 2:
        return count_defects_three_sided(config)
    return count_defects_four_sided(config)
