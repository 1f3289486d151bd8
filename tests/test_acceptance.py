"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are wall-clock budgets.
"""

import itertools
import random
import time

from aztec_tilings import (
    DefectConfiguration,
    DefectSpec,
    Region,
    binomial_ext,
    boundary_cycle,
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_se_block_nw_defect,
    count_ar_se_nw_defects,
    count_aztec_diamond,
    count_defects_four_sided,
    count_defects_three_sided,
    count_matchings_brute,
    count_tilings_dp,
    determinant,
    is_white,
    make_aztec_rectangle,
    pfaffian,
    pfaffian_expand_first_row,
)
from aztec_tilings.cli import main
from aztec_tilings.errors import CondensationInapplicableError


def report(criterion, detail, ok=True):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_diamond_law():
    start = time.monotonic()
    for n in range(1, 13):
        assert count_tilings_dp(make_aztec_rectangle(n, n)) == count_aztec_diamond(n), n
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (diamond law)",
        f"orders 1..12 match 2^(n(n+1)/2) in {elapsed:.2f}s",
        ok=elapsed < 5.0,
    )


def test_criterion_2_product_formula_sweep():
    checks = 0
    for a in range(1, 6):
        for b in range(a + 1, 7):
            for kept in itertools.combinations(range(1, b + 1), a):
                removed = tuple(DefectSpec("SE", p) for p in range(1, b + 1) if p not in kept)
                residual = DefectConfiguration(a, b, removed).region()
                expected = count_ar_kept_se(a, b, kept)
                assert count_tilings_dp(residual) == expected, (a, b, kept)
                if len(residual) <= 36:
                    assert count_matchings_brute(residual) == expected, (a, b, kept)
                checks += 1
    report("criterion 2 (product-formula sweep)", f"{checks} kept-position subsets, 0 mismatches")


def test_criterion_3_closed_form_family_sweeps():
    checks = 0
    for a in range(1, 6):
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                residual = DefectConfiguration(
                    a, a, (DefectSpec("SE", i),), (DefectSpec("NE", j),)
                ).region()
                assert count_ad_adjacent_defects(a, i, j) == count_tilings_dp(residual)
                checks += 1
    for a in range(1, 5):
        for i in range(1, a + 3):
            for j in range(1, a + 3):
                residual = DefectConfiguration(
                    a, a + 2, (DefectSpec("SE", i), DefectSpec("NW", j))
                ).region()
                assert count_ar_se_nw_defects(a, i, j) == count_tilings_dp(residual)
                checks += 1
    for a in range(1, 4):
        for k in range(1, 4):
            b = a + k
            gammas = tuple(range(2, k + 1))
            for j in range(1, b + 1):
                residual = DefectConfiguration(a, b, (DefectSpec("SE", j),), gammas=gammas).region()
                assert count_ar_gamma_se_defect(a, k, j) == count_tilings_dp(residual)
                checks += 1
            for i in range(1, b + 1):
                removed = tuple(DefectSpec("SE", p) for p in range(2, k + 1))
                removed += (DefectSpec("NW", i),)
                residual = DefectConfiguration(a, b, removed).region()
                assert count_ar_se_block_nw_defect(a, k, i) == count_tilings_dp(residual)
                residual = DefectConfiguration(a, b, (DefectSpec("NW", i),), gammas=gammas).region()
                assert count_ar_gamma_nw_defect(a, k, i) == count_tilings_dp(residual)
                checks += 2
    # the calibrated evaluators make the formulas verifier run clean
    assert main(["verify", "formulas", "--max-a", "3", "--max-b", "5"]) == 0
    report("criterion 3 (closed-form family sweeps)", f"{checks} grid points, 0 mismatches")


def test_criterion_4_condensation_identities():
    start = time.monotonic()
    rng = random.Random(2024)

    checks = 0
    while checks < 100:
        a = rng.randint(2, 4)
        region = make_aztec_rectangle(a, a)
        cycle = boundary_cycle(region)
        k = rng.randint(1, 3)
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * k))]
        direct = count_tilings_dp(Region.from_cells(region.cells - set(verts)))
        assert condensation_count(region, verts) == direct, (a, verts)
        checks += 1

    sym_checks = alt_checks = 0
    while sym_checks < 100:
        a = rng.randint(1, 3)
        k = rng.randint(1, 2)
        base = make_aztec_rectangle(a, a + k)
        host = DefectConfiguration(a, a + k, gammas=tuple(range(1, k + 1))).region()
        cycle = boundary_cycle(host)
        kk = rng.randint(1, 3)
        if 2 * kk > len(cycle):
            continue
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * kk))]
        drop_pair = rng.random() < 0.5
        base_cells = set(host.cells)
        if drop_pair:
            base_cells -= {boundary_cycle(base)[0], boundary_cycle(base)[1]}
        assert check_face_alternating_identity(host, base_cells, verts), (a, k, verts)
        alt_checks += 1
        direct = count_tilings_dp(Region.from_cells(base_cells ^ set(verts)))
        try:
            got = condensation_count_symdiff(host, base_cells, verts)
        except CondensationInapplicableError:
            continue
        assert got == direct, (a, k, verts)
        sym_checks += 1

    kuo_checks = {p: 0 for p in ("AABB", "ABAB", "AAAB", "AAAA")}
    pools = {}
    for a in (2, 3):
        diamond = make_aztec_rectangle(a, a)
        blacks = sorted(c for c in diamond.cells if not is_white(c))
        pools.setdefault("AABB", []).append(diamond)
        pools.setdefault("ABAB", []).append(diamond)
        pools.setdefault("AAAB", []).append(Region.from_cells(diamond.cells - {blacks[0]}))
        pools.setdefault("AAAA", []).append(
            Region.from_cells(diamond.cells - {blacks[0], blacks[-1]})
        )
    cycles = {p: [(r, boundary_cycle(r)) for r in rs] for p, rs in pools.items()}
    surplus = {"AABB": 0, "ABAB": 0, "AAAB": 1, "AAAA": 2}
    while min(kuo_checks.values()) < 100:
        pattern = min(kuo_checks, key=kuo_checks.get)
        region, cycle = cycles[pattern][rng.randrange(len(cycles[pattern]))]
        quad = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 4))]
        first_white = is_white(quad[0])
        got = "".join("A" if is_white(c) == first_white else "B" for c in quad)
        if got != pattern:
            continue
        n_a = sum(1 for c in region.cells if is_white(c) == first_white)
        if n_a != len(region.cells) - n_a + surplus[pattern]:
            continue
        assert check_kuo_identity(pattern, region, *quad), (pattern, quad)
        kuo_checks[pattern] += 1

    elapsed = time.monotonic() - start
    report(
        "criterion 4 (condensation identities)",
        f"{checks} quotients, {sym_checks} symdiff, {alt_checks} alternating, "
        f"{sum(kuo_checks.values())} local identities in {elapsed:.1f}s",
        ok=elapsed < 60.0,
    )


def test_criterion_5_defect_counters_end_to_end():
    start = time.monotonic()
    rng = random.Random(555)

    diamond_checks = 0
    while diamond_checks < 200:
        a = rng.randint(1, 6)
        n = rng.randint(1, min(3, a))
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        betas = tuple(rng.sample(whites, n))
        alphas = tuple(rng.sample(blacks, n))
        config = DefectConfiguration(a, a, betas, alphas)
        assert count_defects_three_sided(config) == count_tilings_dp(config.region())
        diamond_checks += 1

    three_checks = 0
    while three_checks < 150:
        a = rng.randint(1, 4)
        k = rng.randint(0, 2)
        b = a + k
        n = rng.randint(0 if k else 1, min(2, a))
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        config = DefectConfiguration(
            a,
            b,
            tuple(rng.sample(whites, n + k)),
            tuple(DefectSpec("NE", p) for p in rng.sample(range(1, a + 1), n)),
        )
        want = count_tilings_dp(config.region())
        assert count_defects_three_sided(config) == want, config
        three_checks += 1

    four_checks = 0
    while four_checks < 100:
        a = rng.randint(1, 3)
        k = rng.randint(0, 2)
        b = a + k
        n = rng.randint(1, min(2, 2 * a))
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        if n + k > len(whites) or n > len(blacks):
            continue
        config = DefectConfiguration(
            a, b, tuple(rng.sample(whites, n + k)), tuple(rng.sample(blacks, n))
        )
        want = count_tilings_dp(config.region())
        try:
            assert count_defects_four_sided(config) == want, config
        except CondensationInapplicableError:
            continue
        four_checks += 1

    elapsed = time.monotonic() - start
    report(
        "criterion 5 (defect counters)",
        f"{diamond_checks} diamond, {three_checks} three-sided, {four_checks} four-sided "
        f"configurations in {elapsed:.1f}s",
        ok=elapsed < 120.0,
    )


def test_criterion_6_peeling_recursion_and_recurrence():
    def bumped(a, k, j):
        config = DefectConfiguration(a, a + k, (DefectSpec("SE", j),), gammas=tuple(range(2, k + 1)))
        return count_tilings_dp(config.region())

    checks = 0
    for a in range(1, 4):
        for k in range(2, 5):
            b = a + k
            for j in range(k + 1, b + 1):
                lhs = bumped(a, k, j)
                first = bumped(a, k - 1, j - 1)
                removed = tuple(DefectSpec("SE", p) for p in (*range(2, k + 1), j))
                second = count_tilings_dp(DefectConfiguration(a, b, removed).region())
                assert lhs == first + second, (a, k, j)
                checks += 1

    for a in range(3, 6):
        for i in range(2, a):
            for j in range(2, a):
                big = count_tilings_dp(
                    DefectConfiguration(a, a, (DefectSpec("SE", i),), (DefectSpec("NE", j),)).region()
                )
                small = count_tilings_dp(
                    DefectConfiguration(
                        a - 1, a - 1, (DefectSpec("SE", i - 1),), (DefectSpec("NE", j - 1),)
                    ).region()
                )
                rhs = 2 ** a * small + 2 ** (a * (a - 1) // 2) * binomial_ext(
                    a - 1, j - 1
                ) * binomial_ext(a - 1, i - 1)
                assert big == rhs, (a, i, j)
                checks += 1
    report("criterion 6 (peeling recursion and diamond recurrence)", f"{checks} grid points")


def test_criterion_7_pfaffian_cross_checks():
    start = time.monotonic()
    rng = random.Random(77)
    for trial in range(500):
        n = 2 * rng.randint(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = rng.randint(-9, 9)
                m[j][i] = -m[i][j]
        pf = pfaffian(m)
        assert pf * pf == determinant(m), (trial, n)
        assert pf == pfaffian_expand_first_row(m), (trial, n)
    elapsed = time.monotonic() - start
    report(
        "criterion 7 (pfaffian cross-checks)",
        f"500 random skew matrices up to dim 12 in {elapsed:.2f}s",
        ok=elapsed < 5.0,
    )
