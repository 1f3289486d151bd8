"""Condensation identities and the Pfaffian defect counters."""

import collections
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from aztec_tilings import (
    ENGINES,
    Cell,
    DefectConfiguration,
    DefectSpec,
    Region,
    boundary_cell,
    boundary_cycle,
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
    count_ad_adjacent_defects,
    count_tilings_dp,
    count_tilings_paths,
    is_white,
)
from aztec_tilings import condensation, exactalg
from aztec_tilings.condensation import _pfaffian_quotient
from aztec_tilings.errors import (
    InternalInconsistencyError,
    InvalidConfigurationError,
    InvalidDefectError,
    InvalidParameterError,
    OutOfScopeConfigurationError,
)
from aztec_tilings.geometry import perimeter_index
from oracles import determinant, pfaffian, pfaffian_expand_first_row


def direct_count(region, gone):
    return count_tilings_dp(Region.from_cells(region.cells - set(gone)))


def test_condensation_two_vertices_is_direct_count():
    region = DefectConfiguration(2, 2).region()
    cycle = boundary_cycle(region)
    verts = [cycle[0], cycle[3]]
    assert condensation_count(region, verts) == direct_count(region, verts)


def test_condensation_four_vertices_diamond():
    region = DefectConfiguration(2, 2).region()
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (0, 2, 5, 9)]
    assert condensation_count(region, verts) == direct_count(region, verts)


def test_condensation_orientation_and_rotation_invariance():
    region = DefectConfiguration(3, 3).region()
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (1, 4, 8, 11)]
    want = direct_count(region, verts)
    assert condensation_count(region, verts) == want
    assert condensation_count(region, verts[2:] + verts[:2]) == want
    assert condensation_count(region, verts[::-1]) == want


def test_condensation_rejects_bad_order():
    region = DefectConfiguration(3, 3).region()
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (0, 8, 4, 11)]
    with pytest.raises(InvalidParameterError, match="not in cyclic order"):
        condensation_count(region, verts)
    # a cell off the outer face, a repeated one, and an odd number of them
    with pytest.raises(InvalidParameterError, match=re.escape(f"{Cell(3, 2)} is not on the outer face")):
        condensation_count(region, [cycle[0], Cell(3, 2)])
    with pytest.raises(InvalidParameterError, match="^face vertices must be distinct$"):
        condensation_count(region, [cycle[0], cycle[0]])
    with pytest.raises(InvalidParameterError, match="^need an even number of face vertices$"):
        condensation_count_symdiff(region, region.cells, cycle[:3])


def test_condensation_rejects_zero_base():
    region = DefectConfiguration(1, 2).region()  # unbalanced, M = 0
    cycle = boundary_cycle(region)
    with pytest.raises(InvalidConfigurationError):
        condensation_count(region, [cycle[0], cycle[1]])


def _block(entries):
    """Block function of the labelled entries m(x, y) = entries[xy], x before y in the alphabet."""
    return lambda rows, cols: [[entries.get(min(x, y) + max(x, y), 0) for y in cols] for x in rows]


@pytest.mark.parametrize("entry,divisor", [(-1, 1), (1, 2), pytest.param(-(10**5000), 1, id="-10**5000-1")])
def test_pfaffian_quotient_rejects_impossible_tiling_count(entry, divisor):
    # four labels, rows a and c: Pf = m_ab m_cd - m_ac m_bd + m_ad m_bc = entry,
    # and the quotient is Pf / divisor^1; a Pfaffian past the int-to-str digit
    # limit is still reported, not turned into a ValueError by its message
    entries = {"ab": entry, "cd": 1}
    with pytest.raises(InternalInconsistencyError):
        _pfaffian_quotient("abcd", "ac".__contains__, _block(entries), divisor, "test")


def test_pfaffian_quotient_scale_covers_only_its_own_factor():
    # Pf = 1 over four labels, so the quotient is scale / divisor
    entries = {"ab": 1, "cd": 1}

    def quotient(divisor, scale):
        return _pfaffian_quotient("abcd", "ac".__contains__, _block(entries), divisor, "test", scale)

    with pytest.raises(InternalInconsistencyError):
        quotient(4, 2)
    with pytest.raises(InternalInconsistencyError):
        quotient(2, 3)
    assert quotient(2, 6) == 3
    assert quotient(4, 4) == 1
    assert _pfaffian_quotient("", bool, _block({}), 4, "test", 8) == 32  # no labels: scale * divisor


def test_bipartite_pfaffian_sign_rule():
    # random interleavings of two classes, some of unequal sizes; the block is
    # asked for only against the other class, and each entry it holds is
    # read on a mixed pair, earlier label first
    rng = random.Random(14)
    for _ in range(300):
        h = rng.randint(0, 5)
        classes = [True] * h + [False] * h
        if rng.random() < 0.2:
            classes = [rng.random() < 0.5 for _ in classes]
        rng.shuffle(classes)
        m = len(classes)
        matrix = [[0] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            if classes[i] != classes[j]:
                matrix[i][j] = rng.randint(-9, 9)
                matrix[j][i] = -matrix[i][j]

        def entry(x, y):
            assert x < y and classes[x] != classes[y]
            return matrix[x][y]

        def block(rows, cols):
            return [[entry(min(x, y), max(x, y)) for y in cols] for x in rows]

        want = pfaffian(matrix)
        assert want == pfaffian_expand_first_row(matrix)
        # divisor 1 leaves scale Pf, and scale -1 makes a negative Pfaffian a count
        scale = -1 if want < 0 else 1
        assert _pfaffian_quotient(range(m), classes.__getitem__, block, 1, "test", scale) == scale * want, classes


def test_symdiff_reduces_to_deletion():
    region = DefectConfiguration(2, 2).region()
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (0, 2, 5, 9)]
    cells = set(region.cells)
    assert condensation_count_symdiff(region, cells, verts) == condensation_count(region, verts)


def test_symdiff_adds_gamma_cells_back():
    # base = host minus a forced domino; toggling that pair back restores the host
    host = DefectConfiguration(2, 3, gammas=(1,)).region()
    gamma, se1 = Cell(0, 5), Cell(1, 4)
    base_cells = set(host.cells) - {gamma, se1}
    cycle = boundary_cycle(host)
    verts = [c for c in cycle if c in (gamma, se1)]
    got = condensation_count_symdiff(host, base_cells, verts)
    assert got == count_tilings_dp(host) == 8
    # and a mixed toggle: put the gamma pair back while deleting a white cell pair
    extra = [c for c in cycle if c in (Cell(5, 4), Cell(6, 3))]
    verts = [c for c in cycle if c in (gamma, se1, *extra)]
    got = condensation_count_symdiff(host, base_cells, verts)
    assert got == count_tilings_dp(Region.from_cells(base_cells ^ set(verts)))


def test_base_outside_host_is_rejected():
    # AD(1) plus a domino far away: the base is not part of the host
    host = DefectConfiguration(1, 1).region()
    stray = [Cell(10, 11), Cell(11, 12)]
    base = host.cells | set(stray)
    face = list(boundary_cycle(host)[:2])
    for check, verts in (
        (condensation_count_symdiff, []),
        (condensation_count_symdiff, face),
        (check_face_alternating_identity, face),
    ):
        with pytest.raises(InvalidParameterError, match=re.escape(f"cells not in host: {stray}")):
            check(host, base, verts)


def test_alternating_identity_trivial_and_random():
    region = DefectConfiguration(2, 2).region()
    cycle = boundary_cycle(region)
    assert check_face_alternating_identity(region, set(region.cells), [cycle[0], cycle[4]])
    for verts in ([], cycle[:3]):
        with pytest.raises(InvalidParameterError, match="^need a nonempty even vertex list$"):
            check_face_alternating_identity(region, region.cells, verts)
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(1, 3)
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * k))]
        off = set(rng.sample(sorted(region.cells), rng.randint(0, 2)))
        assert check_face_alternating_identity(region, set(region.cells) - off, verts)


def _quad_of_pattern(region, pattern, rng):
    cycle = boundary_cycle(region)
    first_white_options = (True, False)
    for _ in range(4000):
        quad = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 4))]
        for base_white in first_white_options:
            got = "".join("A" if is_white(c) == base_white else "B" for c in quad)
            if got == pattern and is_white(quad[0]) == base_white:
                n_a = sum(1 for c in region.cells if is_white(c) == base_white)
                n_b = len(region.cells) - n_a
                need = {"AABB": 0, "ABAB": 0, "AAAB": 1, "AAAA": 2}[pattern]
                if n_a == n_b + need:
                    return quad
    return None


@pytest.mark.parametrize("pattern", ["AABB", "ABAB"])
def test_kuo_balanced_patterns(pattern):
    rng = random.Random(17)
    region = DefectConfiguration(3, 3).region()
    for _ in range(25):
        quad = _quad_of_pattern(region, pattern, rng)
        assert quad is not None
        assert check_kuo_identity(pattern, region, *quad)


def test_kuo_surplus_patterns():
    rng = random.Random(23)
    diamond = DefectConfiguration(3, 3).region()
    blacks = sorted(c for c in diamond.cells if not is_white(c))
    one_off = Region.from_cells(diamond.cells - {blacks[0]})
    two_off = Region.from_cells(diamond.cells - {blacks[0], blacks[-1]})
    for region, pattern in ((one_off, "AAAB"), (two_off, "AAAA")):
        for _ in range(15):
            quad = _quad_of_pattern(region, pattern, rng)
            assert quad is not None
            assert check_kuo_identity(pattern, region, *quad)


# pattern -> (planted term, its partner in the same product), each named by the cells of
# (w, x, y, z) that it removes from the region
KUO_PLANTS = {"AABB": ("wz", "xy"), "AAAA": ("wy", "xz"), "ABAB": ("", "wxyz"), "AAAB": ("w", "xyz")}


@pytest.mark.parametrize("pattern", sorted(KUO_PLANTS))
def test_kuo_check_fails_on_a_planted_count(monkeypatch, pattern):
    # one count off by 1, in a product whose other factor is nonzero, must break the identity
    surplus = condensation.KUO_SURPLUS[pattern]
    diamond = DefectConfiguration(3, 3).region()
    blacks = sorted(c for c in diamond.cells if not is_white(c))
    region = Region.from_cells(diamond.cells - set((blacks[0], blacks[-1])[:surplus]))
    plant, partner = KUO_PLANTS[pattern]

    def minus(quad, names):
        return region.cells - {quad["wxyz".index(n)] for n in names}

    quad = next(
        q for q in itertools.combinations(boundary_cycle(region), 4)
        if "".join("A" if is_white(c) == is_white(q[0]) else "B" for c in q) == pattern
        and (surplus == 0 or is_white(q[0]))  # the surplus class, white here, is A
        and count_tilings_dp(Region.from_cells(minus(q, partner)))
    )
    assert check_kuo_identity(pattern, region, *quad)
    original, planted = condensation._cells_count, minus(quad, plant)
    monkeypatch.setattr(condensation, "_cells_count", lambda cells: original(cells) + (cells == planted))
    assert not check_kuo_identity(pattern, region, *quad)


def test_kuo_rejects_wrong_hypotheses():
    region = DefectConfiguration(2, 2).region()
    cycle = boundary_cycle(region)
    quad = [cycle[i] for i in (0, 1, 2, 3)]
    actual = "".join("A" if is_white(c) == is_white(quad[0]) else "B" for c in quad)
    wrong = next(p for p in ("AAAA", "AABB", "ABAB", "AAAB") if p != actual)
    with pytest.raises(InvalidConfigurationError):
        check_kuo_identity(wrong, region, *quad)
    with pytest.raises(InvalidConfigurationError, match="^w, x, y, z must be distinct$"):
        check_kuo_identity("AABB", region, quad[0], quad[0], quad[2], quad[3])
    # the cells' own pattern, on a balanced region that misses its colour surplus
    for pattern in ("AAAB", "AAAA"):
        quad = next(
            q for q in itertools.combinations(cycle, 4)
            if "".join("A" if is_white(c) == is_white(q[0]) else "B" for c in q) == pattern
        )
        with pytest.raises(InvalidConfigurationError, match="needs #A = #B"):
            check_kuo_identity(pattern, region, *quad)


def _config(a, b, betas, alphas, gammas=()):
    return DefectConfiguration(
        a,
        b,
        tuple(DefectSpec(s, p) for s, p in betas),
        tuple(DefectSpec(s, p) for s, p in alphas),
        gammas,
    )


def test_three_sided_no_defects_is_diamond_count():
    cfg = _config(3, 3, [], [])
    count = count_configuration(cfg, "pfaffian")
    assert count == 64 and type(count) is int  # Pf of the empty matrix times M(AD(3))


def test_three_sided_matches_engine_anchor():
    cfg = _config(2, 3, [("SE", 3), ("NW", 1)], [("NE", 2)])
    want = count_tilings_dp(cfg.region())
    assert count_configuration(cfg, "pfaffian") == want


# gamma strings past b - a or starting past 1, colour-balanced with tilings: each
# added gamma past b - a is a row label beside the betas
GAMMAS_PAST_K = (
    _config(2, 3, [("NW", 2)], [("NE", 1)], (2,)),  # gamma 2 past b - a = 1, gamma 1 missing
    _config(2, 3, [], [("NE", 1)], (1, 2)),  # the CLI's "AR a=2 b=3 gamma=2 remove=NE:1"
    _config(3, 3, [], [("SW", 2)], (1,)),  # k = 0: gamma 1's only neighbour is SE 1
    _config(2, 4, [("SE", 1)], [("NE", 2), ("SW", 1)], (2, 3, 4)),  # from past 1 up to b
    _config(3, 4, [("NW", 2)], [("NE", 1), ("SW", 3)], (2, 3)),
)


def test_pfaffian_counts_gammas_past_b_minus_a_as_paths_does():
    counts = [count_configuration(cfg, "pfaffian") for cfg in GAMMAS_PAST_K]
    assert counts == [count_configuration(cfg, "paths") for cfg in GAMMAS_PAST_K] == [10, 2, 32, 8, 48]
    # AR(2,3) + gamma 1 minus SE 3, NW 2, NE 1 has one white cell fewer than black
    cfg = _config(2, 3, [("SE", 3), ("NW", 2)], [("NE", 1)], gammas=(1,))
    assert count_configuration(cfg, "pfaffian") == count_configuration(cfg, "paths") == 0


def test_pfaffian_counts_sw_alphas_with_gammas_as_paths_does():
    # once refused: SW alphas with gammas, and alphas on both black sides with gammas
    for cfg in (
        _config(2, 4, [("SE", 2), ("SE", 3)], [("SW", 1)], (1,)),
        _config(2, 4, [("SE", 2), ("SE", 3), ("SE", 4)], [("NE", 1), ("SW", 1)], (1,)),
    ):
        assert count_configuration(cfg, "pfaffian") == count_configuration(cfg, "paths") > 0, cfg


def test_pfaffian_counts_gamma_configurations_as_paths_does():
    # AR(a, b) plus the gamma string, NE alphas: the three-sided Pfaffian over the
    # host AR(a, b) + gammas 1..k with the missing gammas among its labels
    rng = random.Random(16)
    nonzero = 0
    for _ in range(300):
        a, k = rng.randint(1, 6), rng.randint(1, 3)
        b = a + k
        g = rng.randint(1, k)
        first = rng.randint(1, k - g + 1)
        n = rng.randint(0, min(2, a))
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        alphas = tuple(DefectSpec("NE", p) for p in rng.sample(range(1, a + 1), n))
        betas = tuple(rng.sample(whites, n + k - g))
        cfg = DefectConfiguration(a, b, betas, alphas, tuple(range(first, first + g)))
        want = count_tilings_paths(cfg.region())
        assert count_configuration(cfg, "pfaffian") == want, cfg
        nonzero += want > 0
    assert nonzero > 150


def test_pfaffian_counts_gamma_strings_past_b_minus_a_as_paths_does():
    # a string ending past b - a or starting past 1, with alphas on both black
    # sides: the added gammas' rows are sums of two SE beta rows
    rng = random.Random(25)
    kinds = collections.Counter()
    for _ in range(400):
        a, k = rng.randint(1, 5), rng.randint(0, 3)
        b = a + k
        first = rng.randint(1, b)
        last = rng.randint(first if first > 1 else k + 1, b)
        surplus = last - first + 1 - k  # #alphas - #betas, for the colours to balance
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        alphas = tuple(rng.sample(blacks, rng.randint(max(0, surplus), 2 * a)))
        betas = tuple(rng.sample(whites, len(alphas) - surplus))
        cfg = DefectConfiguration(a, b, betas, alphas, tuple(range(first, last + 1)))
        want = count_tilings_paths(cfg.region())
        assert count_configuration(cfg, "pfaffian") == want, cfg
        kinds.update({"nonzero": want > 0, "past b - a": last > k, "past 1": first > 1, "k = 0": k == 0})
        kinds.update({side: any(d.side == side for d in alphas) for side in ("NE", "SW")})
    assert min(kinds.values()) > 50, kinds


def test_gamma_labels_take_one_pass_over_the_string():
    # a short spec with a long kept string: AR(1, 20001) plus gammas 1..20000 is
    # AD(1) after the forced dominoes; a scan of the string per position of 1..k
    # took 0.6 s at k = 8,000 and grows as k^2
    cfg = DefectConfiguration(1, 20001, gammas=tuple(range(1, 20001)))
    start = time.perf_counter()
    assert count_configuration(cfg, "pfaffian") == 2
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("gammas", [0, 2])
def test_validate_rejects_duplicate_and_out_of_range_defects(gammas):
    string = tuple(range(1, gammas + 1))
    DefectConfiguration(3, 5, (DefectSpec("SE", 4), DefectSpec("NW", 2)), (), string)
    for betas, alpha in [
        ((("SE", 4), ("SE", 4), ("NW", 5)), ("NE", 1)),  # duplicate
        ((("SE", 4), ("NW", 2), ("NW", 5)), ("NE", 4)),  # NE runs 1..a = 1..3
        ((("SE", 4), ("NW", 2), ("NW", 6)), ("SW", 3)),  # NW runs 1..b = 1..5
    ]:
        with pytest.raises(InvalidDefectError):
            DefectConfiguration(
                3, 5, tuple(DefectSpec(*d) for d in betas), (DefectSpec(*alpha),), string
            )


def test_pfaffian_counts_sw_alphas():
    # SW-only alphas take the (beta, SW alpha) entries; test_four_sided_all_sides_anchor
    # counts the same rectangle with alphas on both black sides
    cfg = _config(2, 3, [("SE", 1), ("NW", 2)], [("SW", 1)])
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region())


def _row_entry(a, b, x, y):
    """The count of the gamma host minus x and y, a beta and an alpha or gamma in either order.

    It is the beta's row entry times 2^(a(a-1)/2), and a gamma's also times 2^a.
    """
    beta, other = (x, y) if x.kind == "beta" else (y, x)
    [[entry]] = condensation._three_sided_block(a, b, [beta], [other])
    return entry << a * (a - 1) // 2 + (a if other.kind == "gamma" else 0)


def test_three_sided_entries_match_engine():
    # every mixed Pfaffian entry, times 2^(a(a-1)/2) and a gamma's also times
    # 2^a, is the engine count of the gamma host minus two cells; a same-class
    # pair counts 0, which _pfaffian_quotient relies on when it never asks
    # for that entry
    for a in range(1, 6):
        for k in range(4):
            host = DefectConfiguration(a, a + k, gammas=tuple(range(1, k + 1))).region()
            deltas = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + k + 1)]
            deltas += [DefectSpec(s, p) for s in ("NE", "SW")[: 1 if k else 2] for p in range(1, a + 1)]
            deltas += [DefectSpec("gamma", t) for t in range(1, k + 1)]
            for x, y in itertools.combinations(deltas, 2):
                want = direct_count(host, (boundary_cell(a, a + k, x), boundary_cell(a, a + k, y)))
                if (x.kind == "beta") == (y.kind == "beta"):
                    assert want == 0, (a, k, x, y)
                else:
                    assert _row_entry(a, a + k, x, y) == want, (a, k, x, y)


def test_sw_entries_match_engine():
    # every (beta, SW alpha) entry over the gamma host, times 2^(a(a-1)/2), is the
    # engine count of the host minus the two cells: 0 for a beta in SE 1..k
    for a in range(1, 7):
        for k in range(1, 5):
            b = a + k
            host = DefectConfiguration(a, b, gammas=range(1, k + 1)).region()
            alphas = [boundary_cell(a, b, DefectSpec("SW", p)) for p in range(1, a + 1)]
            for beta in [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]:
                cells = host.cells - {boundary_cell(a, b, beta)}
                want = [count_tilings_paths(Region(cells - {alpha})) for alpha in alphas]
                row = condensation._side_row(a, b, beta, "SW")
                assert [e << a * (a - 1) // 2 for e in row] == want, (a, k, beta)
                assert not any(want) or beta.side == "NW" or beta.position > k


def test_gamma_row_entries_count_their_regions():
    # entry p of a beta's row against the missing gammas, times 2^(a(a-1)/2) and
    # 2^a, is the paths count of the gamma host minus the beta and gamma p
    entries = 0
    for a in range(1, 5):
        for k in range(1, 6):
            b = a + k
            host = DefectConfiguration(a, b, gammas=range(1, k + 1)).region()
            gammas = [boundary_cell(a, b, DefectSpec("gamma", p)) for p in range(1, k + 1)]
            for beta in [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]:
                cells = host.cells - {boundary_cell(a, b, beta)}
                want = [count_tilings_paths(Region(cells - {gamma})) for gamma in gammas]
                row = condensation._side_row(a, b, beta, "gamma")
                assert [e << a * (a - 1) // 2 + a for e in row] == want, (a, k, beta)
                entries += len(row)
    assert entries == 740


def test_gathered_block_holds_each_side_row_entry(monkeypatch):
    # entry (x, y) of the block the Pfaffian eliminates is entry y.position of
    # row x's row against y's side, negated where column y precedes row x on the
    # perimeter; the draws take every column side, kept gamma strings that start
    # past 1 or run past k, whose added gammas are rows, and k = 0 hosts
    gather = condensation._three_sided_block
    blocks = []

    def recorded(*args):
        blocks.append((args, gather(*args)))
        return blocks[-1][1]

    monkeypatch.setattr(condensation, "_three_sided_block", recorded)
    rng = random.Random(44)
    sides, shapes = set(), set()
    for _ in range(300):
        a, k = rng.randint(1, 5), rng.randint(0, 3)
        b = a + k
        g = rng.randint(0, min(b, k + 2))
        first = rng.randint(1, b - g + 1)
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        n = rng.randint(max(0, g - k), min(3, a))
        cfg = DefectConfiguration(
            a, b, tuple(rng.sample(whites, n + k - g)), tuple(rng.sample(blacks, n)), tuple(range(first, first + g))
        )
        blocks.clear()
        count_configuration(cfg, "pfaffian")
        [((_, _, rows, cols), block)] = blocks
        assert len(block) == len(rows) == len(cols), cfg
        for x, row in zip(rows, block):
            assert len(row) == len(cols), (cfg, x)
            for y, entry in zip(cols, row):
                want = condensation._side_row(a, b, x, y.side)[y.position - 1]
                before = perimeter_index(a, b, y) < perimeter_index(a, b, x)
                assert entry == (-want if before else want), (cfg, x, y)
        sides.update(y.side for y in cols)
        shapes.update(("k = 0",) * (k == 0) + ("added gamma row",) * any(x.side == "gamma" for x in rows))
        shapes.update(("string past 1",) * (first > 1 and g > 0))
    assert sides == {"SW", "NE", "gamma"}
    assert shapes == {"k = 0", "added gamma row", "string past 1"}


def test_row_memo_holds_the_closed_forms_and_a_recount_calls_no_formula(monkeypatch):
    # warm the memo with counts that take every kind of row: betas and added gammas
    # against NE, SW and missing gammas; every row it then holds must be the one
    # taken afresh from the closed forms, and a recount must read only the memo
    rng = random.Random(38)
    specs = []
    for _ in range(40):
        a, k = rng.randint(1, 6), rng.randint(0, 3)
        b = a + k
        g = rng.randint(0, k)
        first = rng.randint(1, b - g + 1)  # the kept string may run past k
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        n = rng.randint(0, min(3, a))
        alphas = tuple(rng.sample(blacks, n))
        betas = tuple(rng.sample(whites, n + k - g))
        specs.append(DefectConfiguration(a, b, betas, alphas, tuple(range(first, first + g))))
    memo = condensation._side_row
    memo.cache_clear()
    keys = set()
    monkeypatch.setattr(condensation, "_side_row", lambda *key: keys.add(key) or memo(*key))
    want = [count_configuration(cfg, "pfaffian") for cfg in specs]
    monkeypatch.setattr(condensation, "_side_row", memo)
    assert want == [count_configuration(cfg, "paths") for cfg in specs]
    assert {(label.kind, side, a < b) for a, b, label, side in keys} >= {
        ("beta", "NE", True), ("beta", "SW", True), ("beta", "SW", False),
        ("beta", "gamma", True), ("gamma", "NE", True), ("gamma", "SW", True),
    }
    hits = memo.cache_info().hits
    rows = {key: memo(*key) for key in keys}
    assert memo.cache_info().hits == hits + len(keys)  # every row asked for is held
    for key, row in rows.items():
        assert row == memo.__wrapped__(*key), key

    def refused(*args):
        raise AssertionError("a recount called a formulas function")

    for name, value in vars(condensation).items():
        if getattr(value, "__module__", None) == "aztec_tilings.formulas":
            monkeypatch.setattr(condensation, name, refused)
    assert [count_configuration(cfg, "pfaffian") for cfg in specs] == want


def test_a_fault_planted_after_the_memos_are_warm_still_fails(monkeypatch):
    # a fault planted in _three_sided_block once the rows below it are memoized
    # must still change the counts, the (beta, SW alpha) ones among them
    specs = [
        _config(4, 6, [("SE", 1), ("SE", 4), ("NW", 3)], [("SW", 2)]),
        _config(4, 6, [("SE", 3), ("SE", 5), ("NW", 2)], [("SW", 4)]),
        _config(6, 6, [("SE", 2)], [("NE", 3)]),
        _config(6, 6, [("SE", 2), ("NW", 4)], [("NE", 3), ("SW", 5)]),
        _config(6, 6, [("SE", 1), ("SE", 5), ("NW", 3)], [("NE", 2), ("SW", 1), ("SW", 6)]),
    ]
    want = [count_configuration(cfg, "paths") for cfg in specs]
    assert [count_configuration(cfg, "pfaffian") for cfg in specs] == want
    original = condensation._three_sided_block

    def off_by_one(*args):
        return [[value + 1 if value else value for value in row] for row in original(*args)]

    monkeypatch.setattr(condensation, "_three_sided_block", off_by_one)
    for cfg, count in zip(specs, want):
        assert count_configuration(cfg, "pfaffian") != count, cfg


def test_pfaffian_matches_paths_on_seeded_draws():
    # the routes through the (beta, SW alpha) entries: alphas on both black sides,
    # SW alphas keeping gammas, and alphas on both sides keeping gammas
    rng = random.Random(21)
    nonzero = 0
    for draw in range(300):
        a, k = rng.randint(1, 6), rng.randint(1, 4)
        b = a + k
        sides = ("SW",) if draw % 3 == 1 else ("NE", "SW")
        g = rng.randint(1, k) if draw % 3 else 0
        first = rng.randint(1, k - g + 1)
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in sides for p in range(1, a + 1)]
        n = rng.randint(len(sides) - 1, min(4, len(blacks)))
        alphas = tuple(rng.sample(blacks, n))
        betas = tuple(rng.sample(whites, n + k - g))
        cfg = DefectConfiguration(a, b, betas, alphas, tuple(range(first, first + g)))
        want = count_configuration(cfg, "paths")
        assert count_configuration(cfg, "pfaffian") == want, cfg
        nonzero += want > 0
    assert nonzero > 200


def _mirror(config):
    """The reflection that trades NW and SE: alphas keep their side and reverse their positions."""
    a, flip = config.a, {"NW": "SE", "SE": "NW"}
    return DefectConfiguration(
        a, config.b,
        tuple(DefectSpec(flip[d.side], d.position) for d in config.betas),
        tuple(DefectSpec(d.side, a + 1 - d.position) for d in config.alphas),
    )


def test_pfaffian_counts_a_configuration_and_its_mirror_alike():
    # the mirror goes through other labels, other entry zones and another perimeter order
    rng = random.Random(31)
    nonzero = 0
    for _ in range(150):
        a, k = rng.randint(1, 6), rng.randint(0, 3)
        b = a + k
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        n = rng.randint(0, min(4, 2 * a))
        cfg = DefectConfiguration(a, b, tuple(rng.sample(whites, n + k)), tuple(rng.sample(blacks, n)))
        count = count_configuration(cfg, "pfaffian")
        assert count_configuration(_mirror(cfg), "pfaffian") == count, cfg
        nonzero += count > 0
    assert nonzero > 100


def test_three_sided_mixed_entries_match_paths_at_larger_order():
    # past the DP's reach above: every beta against every alpha and gamma;
    # k = 1 is left out to keep the test under a second
    for a in (6, 7):
        for k in (0, 2):
            b = a + k
            host = DefectConfiguration(a, b, gammas=tuple(range(1, k + 1))).region()
            betas = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
            others = [DefectSpec(s, p) for s in ("NE", "SW")[: 1 if k else 2] for p in range(1, a + 1)]
            others += [DefectSpec("gamma", t) for t in range(1, k + 1)]
            for x, y in itertools.product(betas, others):
                gone = {boundary_cell(a, b, x), boundary_cell(a, b, y)}
                want = count_tilings_paths(Region.from_cells(host.cells - gone))
                assert _row_entry(a, b, x, y) == want, (a, k, x, y)


def test_pfaffian_counts_unbalanced_as_zero(monkeypatch):
    # one beta and one alpha on AR(2,3) leave one white cell too many
    cfg = _config(2, 3, [("SE", 1)], [("NE", 1)])
    assert count_configuration(cfg, "pfaffian") == count_configuration(cfg, "paths") == 0
    # AR(1, 10^5) minus SE 1 and SE 2 has 10^5 - 3 white cells too many: every
    # engine counts 0 before any label or cell is built, brute before its cell bound
    cfg = _config(1, 10**5, [("SE", 1), ("SE", 2)], [])
    monkeypatch.setattr(condensation, "DefectSpec", None)
    monkeypatch.setattr(DefectConfiguration, "region", None)
    for engine in ENGINES:
        start = time.perf_counter()
        assert count_configuration(cfg, engine) == 0, engine
        assert time.perf_counter() - start < 0.05, engine


def _diamond_sides(a):
    whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + 1)]
    blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
    return whites, blacks


def test_three_sided_agrees_with_diamond_counter():
    # at k = 0 the three-sided count takes alphas on both black sides
    rng = random.Random(31)
    for _ in range(30):
        a = rng.randint(1, 4)
        n = rng.randint(1, min(3, a))
        whites, blacks = _diamond_sides(a)
        betas, alphas = tuple(rng.sample(whites, n)), tuple(rng.sample(blacks, n))
        cfg = DefectConfiguration(a, a, betas, alphas)
        want = count_tilings_dp(cfg.region())
        assert count_configuration(cfg, "pfaffian") == want


def test_diamond_normal_form_exhaustive(monkeypatch):
    # formula counts every one-pair diamond by count_ad_adjacent_defects, not by the Pfaffian's rows
    def refused(*args):
        raise AssertionError("formula asked for a Pfaffian row")

    monkeypatch.setattr(condensation, "_three_sided_block", refused)
    for a in range(1, 6):
        whites, blacks = _diamond_sides(a)
        for beta in whites:
            for alpha in blacks:
                want = count_tilings_dp(DefectConfiguration(a, a, (beta,), (alpha,)).region())
                got = count_configuration(DefectConfiguration(a, a, (beta,), (alpha,)), "formula")
                assert got == want, (a, beta, alpha)


def test_diamond_engine_entries_with_sw_alpha():
    betas = (DefectSpec("SE", 1), DefectSpec("NW", 3))
    alphas = (DefectSpec("SW", 2), DefectSpec("NE", 3))
    cfg = DefectConfiguration(3, 3, betas, alphas)
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region())


def test_four_sided_degenerate_equals_three_sided():
    # one-side alphas: the SW spec, the NE one's mirror image, counts the same by its SW entries
    cfg = _config(2, 3, [("SE", 3), ("NW", 1)], [("NE", 2)])
    mirrored = _config(2, 3, [("SE", 1), ("NW", 3)], [("SW", 1)])
    assert count_configuration(cfg, "pfaffian") == count_configuration(mirrored, "pfaffian")
    assert count_configuration(mirrored, "pfaffian") == count_tilings_dp(mirrored.region())


def test_four_sided_single_alpha_outer_is_single_entry():
    cfg = _config(2, 3, [("SE", 2), ("NW", 3)], [("SW", 2)])
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region())
    # with gamma 1 kept, the Pfaffian is the one (beta, SW alpha) entry
    cfg = _config(2, 3, [("NW", 3)], [("SW", 2)], (1,))
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region()) > 0


def test_four_sided_all_sides_anchor():
    cfg = _config(2, 3, [("SE", 1), ("NW", 2), ("SE", 3)], [("NE", 1), ("SW", 2)])
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region())


def test_pfaffian_takes_sw_entries_exactly_when_a_rectangle_has_sw_alphas(monkeypatch):
    # the SW rows are asked for exactly when an SW alpha is a column, and their walk, the
    # one caller of accumulate, takes its n = k or pos - 1 steps, so none at k = 0
    sides, calls = [], []
    side_row = condensation._side_row
    monkeypatch.setattr(condensation, "_side_row", lambda *args: sides.append(args[3]) or side_row(*args))
    monkeypatch.setattr(condensation, "accumulate", lambda *args: calls.append(args) or itertools.accumulate(*args))
    rng = random.Random(18)
    with_sw = walked = 0
    for _ in range(300):
        a, k = rng.randint(1, 4), rng.randint(0, 2)
        b = a + k
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        n = rng.randint(0, min(3, a))
        cfg = DefectConfiguration(a, b, tuple(rng.sample(whites, n + k)), tuple(rng.sample(blacks, n)))
        before, sides[:] = len(calls), []
        side_row.cache_clear()
        count = count_configuration(cfg, "pfaffian")
        sw = any(d.side == "SW" for d in cfg.alphas)
        assert ("SW" in sides) == sw, cfg
        assert len(calls) == before or sw and k > 0, cfg
        assert count == count_tilings_dp(cfg.region()), cfg
        with_sw += sw
        walked += len(calls) > before
    assert with_sw > 30 and walked > 30


def test_pfaffian_counts_every_beta_subset_of_small_rectangles():
    # AR(a, b) minus k = b - a of its whites, tileable or not
    zeros = 0
    for a in range(1, 5):
        for k in range(4):
            b = a + k
            cells = [DefectSpec(side, p) for side in ("NW", "SE") for p in range(1, b + 1)]
            for s in itertools.combinations(cells, k):
                cfg = DefectConfiguration(a, b, s)
                count = count_configuration(cfg, "pfaffian")
                assert count == count_tilings_paths(cfg.region()), (a, b, s)
                zeros += count == 0
    assert zeros > 0


def test_four_sided_spec_without_a_passing_subset_counts_0_quickly():
    # no 10 of its betas leave a tileable AR(6, 16), so the count is 0
    nw_se = [(side, p) for side in ("NW", "SE") for p in range(1, 9)]
    ne_sw = [(side, p) for side in ("NE", "SW") for p in range(1, 4)]
    cfg = _config(6, 16, nw_se, ne_sw)
    start = time.perf_counter()
    count = count_configuration(cfg)
    assert time.perf_counter() - start < 1.0
    assert count == count_configuration(cfg, "paths") == 0


def test_four_sided_counts_every_beta_set_of_a_thin_rectangle():
    # AR(1, 5) minus NE 1, SW 1 and 6 of its 10 whites: every beta set, those
    # without a tiling among them, counts as the determinant does
    alphas = [("NE", 1), ("SW", 1)]
    whites = [(side, p) for side in ("NW", "SE") for p in range(1, 6)]
    zeros = 0
    for betas in itertools.combinations(whites, 6):
        cfg = _config(1, 5, betas, alphas)
        count = count_configuration(cfg, "pfaffian")
        assert count == count_configuration(cfg, "paths"), betas
        zeros += count == 0
    assert zeros > 0


def test_formula_counts_one_nw_defect_with_no_se_block():
    # k = 1: the SE block 2..k of count_ar_se_block_nw_defect is empty
    for a in range(1, 6):
        for i in range(1, a + 2):
            cfg = _config(a, a + 1, [("NW", i)], [])
            assert count_configuration(cfg, "formula") == count_configuration(cfg, "paths"), (a, i)


def test_formula_counts_the_gamma_families():
    # gammas 2..k and one SE or NW cell removed; no other gamma string has a closed form
    cfg = DefectConfiguration(3, 7, (DefectSpec("SE", 5),), gammas=range(2, 5))
    assert count_configuration(cfg, "formula") == 2176 == count_configuration(cfg, "paths")
    shifted = DefectConfiguration(3, 7, (DefectSpec("SE", 5),), gammas=range(3, 6))
    with pytest.raises(OutOfScopeConfigurationError, match="^no closed form for this augmented family$"):
        count_configuration(shifted, "formula")


def test_formula_counts_se_nw_pairs_by_their_closed_form(monkeypatch):
    # AR(a, a+2) minus SE i and NW j is count_ar_se_nw_defects' family
    calls = []
    real = condensation.count_ar_se_nw_defects

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(condensation, "count_ar_se_nw_defects", spy)
    for a in range(1, 5):
        for i, j in itertools.product(range(1, a + 3), repeat=2):
            cfg = _config(a, a + 2, [("SE", i), ("NW", j)], [])
            assert count_configuration(cfg, "formula") == count_configuration(cfg, "paths"), (a, i, j)
            assert calls.pop() == (a, i, j)


def test_diamond_counter_single_pair_is_formula():
    got = count_configuration(_config(2, 2, [("SE", 2)], [("NE", 2)]), "pfaffian")
    assert got == count_ad_adjacent_defects(2, 2, 2) == 6


def test_diamond_counter_same_type_pairs_vanish():
    # two betas on the same side force a zero entry; the count is still exact
    betas = (DefectSpec("SE", 1), DefectSpec("SE", 2))
    alphas = (DefectSpec("NE", 1), DefectSpec("NE", 2))
    cfg = DefectConfiguration(3, 3, betas, alphas)
    assert count_configuration(cfg, "pfaffian") == count_tilings_dp(cfg.region())


def test_diamond_counter_rotation_invariance():
    """Counts agree across the color-preserving symmetries of the diamond."""
    a = 3
    betas = (DefectSpec("SE", 1), DefectSpec("NW", 2))
    alphas = (DefectSpec("NE", 2), DefectSpec("SW", 3))

    def rot(side, p, mapping):
        s2, flip = mapping[side]
        return (s2, a - p + 1 if flip else p)

    # reflection swapping NW and SE, reversing NE
    m1 = {"NW": ("SE", False), "SE": ("NW", False), "NE": ("NE", True), "SW": ("SW", True)}
    # half turn
    m2 = {"NW": ("SE", True), "SE": ("NW", True), "NE": ("SW", False), "SW": ("NE", False)}
    base = count_configuration(DefectConfiguration(a, a, betas, alphas), "pfaffian")
    for mapping in (m1, m2):
        bet = tuple(DefectSpec(*rot(d.side, d.position, mapping)) for d in betas)
        alp = tuple(DefectSpec(*rot(d.side, d.position, mapping)) for d in alphas)
        assert count_configuration(DefectConfiguration(a, a, bet, alp), "pfaffian") == base


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_count_configuration_engines_agree(a, k, data):
    b = a + k
    whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
    blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
    n = data.draw(st.integers(0, min(3, a)))
    g = data.draw(st.integers(0, k))  # a gamma string of g squares somewhere along SE 1..b
    first = data.draw(st.integers(1, b - g + 1))
    gammas = tuple(range(first, first + g))
    alphas = data.draw(st.lists(st.sampled_from(blacks), min_size=n, max_size=n, unique=True))
    nb = n + k - g
    betas = data.draw(st.lists(st.sampled_from(whites), min_size=nb, max_size=nb, unique=True))
    cfg = DefectConfiguration(a, b, tuple(betas), tuple(alphas), gammas)
    cells = cfg.size
    counts = {}
    for engine in ENGINES:
        try:
            counts[engine] = count_configuration(cfg, engine)
        except OutOfScopeConfigurationError:
            # every other engine counts every configuration, brute any of at most BRUTE_CELLS cells
            assert engine == "formula" or engine == "brute" and cells > condensation.BRUTE_CELLS
    assert all(type(c) is int for c in counts.values()), counts
    assert len({(type(c), c) for c in counts.values()}) == 1, counts


def test_count_configuration_rejects_unknown_engine():
    with pytest.raises(InvalidParameterError):
        count_configuration(_config(1, 1, [], []), "permanent")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 3), st.data())
def test_paths_matches_pfaffian_four_sided(a, k, data):
    # beyond the DP's reach; at least k betas on SE, as in the benchmark, so
    # the four-sided Pfaffian has a balanced sub-rectangle with a tiling
    b = a + k
    ne = data.draw(st.integers(1, min(3, a)))
    sw = data.draw(st.integers(1, min(3, a)))
    n_betas = ne + sw + k
    n_se = data.draw(st.integers(max(k, n_betas - b), min(n_betas, b)))
    positions = st.integers(1, b)
    se = data.draw(st.lists(positions, min_size=n_se, max_size=n_se, unique=True))
    nw = data.draw(st.lists(positions, min_size=n_betas - n_se, max_size=n_betas - n_se, unique=True))
    alphas = [("NE", p) for p in data.draw(st.lists(st.integers(1, a), min_size=ne, max_size=ne, unique=True))]
    alphas += [("SW", p) for p in data.draw(st.lists(st.integers(1, a), min_size=sw, max_size=sw, unique=True))]
    betas = [("SE", p) for p in se] + [("NW", p) for p in nw]
    cfg = _config(a, b, betas, alphas)
    assert count_configuration(cfg, "paths") == count_configuration(cfg, "pfaffian")


def _seeded_diamond(rng, a, per_side):
    """AD(a) minus per_side NE and per_side SW alphas and 2 per_side betas on SE and NW."""
    betas = rng.sample([(side, p) for side in ("SE", "NW") for p in range(1, a + 1)], 2 * per_side)
    alphas = [(side, p) for side in ("NE", "SW") for p in rng.sample(range(1, a + 1), per_side)]
    return _config(a, a, betas, alphas)


def test_paths_matches_pfaffian_at_large_order():
    for cfg in (
        _config(24, 24, [("SE", 3), ("NW", 8)], [("NE", 5), ("SW", 2)]),
        _config(18, 21, [("SE", 1), ("SE", 5), ("SE", 9), ("NW", 2), ("NW", 7)], [("NE", 3), ("SW", 4)]),
        _seeded_diamond(random.Random(16), 16, 4),  # an 8 x 8 block
        _seeded_diamond(random.Random(40), 40, 10),  # a 20 x 20 block, and paths' 40 x 40 matrix
    ):
        paths = count_configuration(cfg, "paths")
        assert paths == count_configuration(cfg, "pfaffian") > 0
        assert count_configuration(cfg) == paths


def test_paths_takes_the_fewer_lines():
    # AR(2, 1002) with gammas 2..1001 spans 6 lines of constant v and 2,005 of
    # constant u: paths on the v lines is a few sources, on the u lines about 1,000
    cfg = _config(2, 1002, [("SE", 1)], [("SW", 1)], range(2, 1002))
    start = time.perf_counter()
    count = count_configuration(cfg, "paths")
    assert time.perf_counter() - start < 2.0
    assert count == count_configuration(cfg, "pfaffian") > 0


def test_pfaffian_block_at_benchmark_size_matches_fraction_elimination(monkeypatch):
    # the largest block the Pfaffian counter eliminates in the benchmark: AD(40)
    # minus 10 NE, 10 SW and 20 betas gives a 20 x 20 block of entries up to ~70 bits
    blocks = []
    monkeypatch.setattr(condensation, "determinant", lambda m: blocks.append(m) or exactalg.determinant(m))
    count_configuration(_seeded_diamond(random.Random(40), 40, 10), "pfaffian")
    [block] = blocks
    assert len(block) == 20
    assert exactalg.determinant(block) == determinant(block) != 0


def test_default_counts_gamma_specs_by_pfaffian_alone(monkeypatch):
    # no gamma spec reaches the determinant, in 1..b-a or past it
    want = [count_configuration(cfg, "paths") for cfg in GAMMAS_PAST_K]
    monkeypatch.setattr(condensation, "count_tilings_paths", None)
    for cfg, count in zip(GAMMAS_PAST_K, want):
        assert count_configuration(cfg) == count_configuration(cfg, "pfaffian") == count, cfg
    cfg = _config(2, 4, [("SE", 3)], [("NE", 1)], (1, 2))
    assert count_configuration(cfg) == count_configuration(cfg, "pfaffian") == 2


def test_default_does_not_mask_an_inconsistent_pfaffian(monkeypatch):
    def inconsistent(*args):
        raise InternalInconsistencyError("injected")

    monkeypatch.setattr(condensation, "_pfaffian_quotient", inconsistent)
    cfg = _config(3, 3, [("SE", 1)], [("NE", 2)])
    assert count_configuration(cfg, "paths") == count_ad_adjacent_defects(3, 1, 2)
    with pytest.raises(InternalInconsistencyError, match="injected"):
        count_configuration(cfg)


def test_brute_engine_owns_its_cell_bound(monkeypatch):
    # the bound is tested before any cell is built, so past it the oracle is never called
    calls = []
    oracle = condensation.count_matchings_brute
    monkeypatch.setattr(condensation, "count_matchings_brute", lambda region: calls.append(len(region)) or oracle(region))
    with pytest.raises(OutOfScopeConfigurationError, match="^40 cells exceeds the brute-force limit 36$"):
        count_configuration(DefectConfiguration(4, 4), "brute")
    assert calls == []
    # AD(4) minus two betas and two alphas has BRUTE_CELLS cells, which brute still counts
    cfg = _config(4, 4, [("SE", 1), ("NW", 2)], [("NE", 1), ("SW", 3)])
    assert cfg.size == condensation.BRUTE_CELLS == 36
    assert count_configuration(cfg, "brute") == count_configuration(cfg, "pfaffian") > 0
    assert calls == [36]
    # an unbalanced configuration of any size counts 0 before the bound is asked
    assert count_configuration(DefectConfiguration(1, 300000), "brute") == 0
    assert calls == [36]
