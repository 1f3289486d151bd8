"""Condensation identities and the Pfaffian defect counters."""

import itertools
import random
import re

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
    count_defects_four_sided,
    count_ad_adjacent_defects,
    count_defects_three_sided,
    count_tilings_dp,
    is_white,
    make_aztec_rectangle,
)
from aztec_tilings import condensation
from aztec_tilings.condensation import _pfaffian_quotient, diamond_normal_form
from aztec_tilings.errors import (
    CondensationInapplicableError,
    InternalInconsistencyError,
    InvalidConfigurationError,
    InvalidDefectError,
    InvalidOrderError,
    InvalidParameterError,
    OutOfScopeConfigurationError,
)


def direct_count(region, gone):
    return count_tilings_dp(Region.from_cells(region.cells - set(gone)))


def test_condensation_two_vertices_is_direct_count():
    region = make_aztec_rectangle(2, 2)
    cycle = boundary_cycle(region)
    verts = [cycle[0], cycle[3]]
    assert condensation_count(region, verts) == direct_count(region, verts)


def test_condensation_four_vertices_diamond():
    region = make_aztec_rectangle(2, 2)
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (0, 2, 5, 9)]
    assert condensation_count(region, verts) == direct_count(region, verts)


def test_condensation_orientation_and_rotation_invariance():
    region = make_aztec_rectangle(3, 3)
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (1, 4, 8, 11)]
    want = direct_count(region, verts)
    assert condensation_count(region, verts) == want
    assert condensation_count(region, verts[2:] + verts[:2]) == want
    assert condensation_count(region, verts[::-1]) == want


def test_condensation_rejects_bad_order():
    region = make_aztec_rectangle(3, 3)
    cycle = boundary_cycle(region)
    verts = [cycle[i] for i in (0, 8, 4, 11)]
    with pytest.raises(InvalidOrderError):
        condensation_count(region, verts)


def test_condensation_rejects_zero_base():
    region = make_aztec_rectangle(1, 2)  # unbalanced, M = 0
    cycle = boundary_cycle(region)
    with pytest.raises(CondensationInapplicableError):
        condensation_count(region, [cycle[0], cycle[1]])


@pytest.mark.parametrize("entry,divisor", [(-1, 1), (1, 2)])
def test_pfaffian_quotient_rejects_impossible_tiling_count(entry, divisor):
    with pytest.raises(InternalInconsistencyError):
        _pfaffian_quotient("xy", lambda x, y: entry, divisor, 1, "test")


def test_symdiff_reduces_to_deletion():
    region = make_aztec_rectangle(2, 2)
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
    host = make_aztec_rectangle(1, 1)
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
    region = make_aztec_rectangle(2, 2)
    cycle = boundary_cycle(region)
    assert check_face_alternating_identity(region, set(region.cells), [cycle[0], cycle[4]])
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
    region = make_aztec_rectangle(3, 3)
    for _ in range(25):
        quad = _quad_of_pattern(region, pattern, rng)
        assert quad is not None
        assert check_kuo_identity(pattern, region, *quad)


def test_kuo_surplus_patterns():
    rng = random.Random(23)
    diamond = make_aztec_rectangle(3, 3)
    blacks = sorted(c for c in diamond.cells if not is_white(c))
    one_off = Region.from_cells(diamond.cells - {blacks[0]})
    two_off = Region.from_cells(diamond.cells - {blacks[0], blacks[-1]})
    for region, pattern in ((one_off, "AAAB"), (two_off, "AAAA")):
        for _ in range(15):
            quad = _quad_of_pattern(region, pattern, rng)
            assert quad is not None
            assert check_kuo_identity(pattern, region, *quad)


def test_kuo_rejects_wrong_hypotheses():
    region = make_aztec_rectangle(2, 2)
    cycle = boundary_cycle(region)
    quad = [cycle[i] for i in (0, 1, 2, 3)]
    actual = "".join("A" if is_white(c) == is_white(quad[0]) else "B" for c in quad)
    wrong = next(p for p in ("AAAA", "AABB", "ABAB", "AAAB") if p != actual)
    with pytest.raises(InvalidConfigurationError):
        check_kuo_identity(wrong, region, *quad)
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
    count = count_defects_three_sided(cfg)
    assert count == 64 and type(count) is int  # Pf of the empty matrix times M(AD(3))


def test_three_sided_matches_engine_anchor():
    cfg = _config(2, 3, [("SE", 3), ("NW", 1)], [("NE", 2)])
    want = count_tilings_dp(cfg.region())
    assert count_defects_three_sided(cfg) == want


def test_gamma_configuration_is_out_of_scope_for_the_pfaffian_counters():
    # AR(2,3) + gamma 1 minus SE 3, NW 2, NE 1 has one white cell fewer than black
    cfg = _config(2, 3, [("SE", 3), ("NW", 2)], [("NE", 1)], gammas=(1,))
    for counter in (count_defects_three_sided, count_defects_four_sided):
        with pytest.raises(OutOfScopeConfigurationError):
            counter(cfg)
    assert count_configuration(cfg, "dp") == count_configuration(cfg, "brute") == 0


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


def test_three_sided_rejects_sw_alpha():
    # SW-only alphas are reflected onto NE; alphas on both black sides need a = b
    cfg = _config(2, 3, [("SE", 1), ("NW", 2)], [("SW", 1)])
    assert count_defects_three_sided(cfg) == count_tilings_dp(cfg.region())
    cfg = _config(2, 3, [("SE", 1), ("NW", 2), ("SE", 3)], [("NE", 1), ("SW", 2)])
    with pytest.raises(OutOfScopeConfigurationError):
        count_defects_three_sided(cfg)


def test_three_sided_entries_match_engine():
    # every Pfaffian entry is the engine count of the gamma host minus two cells
    for a in range(1, 6):
        for k in range(4):
            host = DefectConfiguration(a, a + k, gammas=tuple(range(1, k + 1))).region()
            deltas = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + k + 1)]
            deltas += [DefectSpec(s, p) for s in ("NE", "SW")[: 1 if k else 2] for p in range(1, a + 1)]
            deltas += [DefectSpec("SE", t, "gamma") for t in range(1, k + 1)]
            for x, y in itertools.combinations(deltas, 2):
                want = direct_count(host, (boundary_cell(a, a + k, x), boundary_cell(a, a + k, y)))
                assert condensation._three_sided_entry(a, k, x, y) == want, (a, k, x, y)


def test_three_sided_rejects_unbalanced():
    with pytest.raises(InvalidConfigurationError):
        count_defects_three_sided(_config(2, 3, [("SE", 1)], [("NE", 1)]))


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
        assert count_defects_three_sided(cfg) == want


def test_diamond_normal_form_exhaustive():
    for a in range(1, 6):
        whites, blacks = _diamond_sides(a)
        for beta in whites:
            for alpha in blacks:
                want = count_tilings_dp(DefectConfiguration(a, a, (beta,), (alpha,)).region())
                got = count_ad_adjacent_defects(a, *diamond_normal_form(a, beta, alpha))
                assert got == want, (a, beta, alpha)


def test_diamond_engine_entries_with_sw_alpha():
    betas = (DefectSpec("SE", 1), DefectSpec("NW", 3))
    alphas = (DefectSpec("SW", 2), DefectSpec("NE", 3))
    cfg = DefectConfiguration(3, 3, betas, alphas)
    assert count_defects_three_sided(cfg) == count_tilings_dp(cfg.region())


def test_four_sided_degenerate_equals_three_sided():
    cfg = _config(2, 3, [("SE", 3), ("NW", 1)], [("NE", 2)])
    assert count_defects_four_sided(cfg) == count_defects_three_sided(cfg)


def test_four_sided_single_alpha_outer_is_single_entry():
    cfg = _config(2, 3, [("SE", 2), ("NW", 3)], [("SW", 2)])
    assert count_defects_four_sided(cfg) == count_tilings_dp(cfg.region())


def test_four_sided_all_sides_anchor():
    cfg = _config(2, 3, [("SE", 1), ("NW", 2), ("SE", 3)], [("NE", 1), ("SW", 2)])
    assert count_defects_four_sided(cfg) == count_tilings_dp(cfg.region())


def test_diamond_counter_single_pair_is_formula():
    got = count_defects_three_sided(_config(2, 2, [("SE", 2)], [("NE", 2)]))
    assert got == count_ad_adjacent_defects(2, 2, 2) == 6


def test_diamond_counter_same_type_pairs_vanish():
    # two betas on the same side force a zero entry; the count is still exact
    betas = (DefectSpec("SE", 1), DefectSpec("SE", 2))
    alphas = (DefectSpec("NE", 1), DefectSpec("NE", 2))
    cfg = DefectConfiguration(3, 3, betas, alphas)
    assert count_defects_three_sided(cfg) == count_tilings_dp(cfg.region())


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
    base = count_defects_three_sided(DefectConfiguration(a, a, betas, alphas))
    for mapping in (m1, m2):
        bet = tuple(DefectSpec(*rot(d.side, d.position, mapping)) for d in betas)
        alp = tuple(DefectSpec(*rot(d.side, d.position, mapping)) for d in alphas)
        assert count_defects_three_sided(DefectConfiguration(a, a, bet, alp)) == base


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_count_configuration_engines_agree(a, k, data):
    b = a + k
    whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
    blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
    n = data.draw(st.integers(0, min(3, a)))
    alphas = data.draw(st.lists(st.sampled_from(blacks), min_size=n, max_size=n, unique=True))
    betas = data.draw(st.lists(st.sampled_from(whites), min_size=n + k, max_size=n + k, unique=True))
    cfg = DefectConfiguration(a, b, tuple(betas), tuple(alphas))
    cells = len(cfg)
    counts = {}
    for engine in ENGINES:
        if engine == "brute" and cells > 30:
            continue
        try:
            counts[engine] = count_configuration(cfg, engine)
        except OutOfScopeConfigurationError:
            assert engine == "formula"
    assert all(type(c) is int for c in counts.values()), counts
    assert len({(type(c), c) for c in counts.values()}) == 1, counts


def test_count_configuration_rejects_unknown_engine():
    with pytest.raises(InvalidParameterError):
        count_configuration(_config(1, 1, [], []), "kasteleyn")
