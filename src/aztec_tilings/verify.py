"""Cross-verification suites: the package's counts held to independent engines.

Each suite in ``SUITES`` takes ``(max_a, max_b, trials, rng)`` and yields
``(ok, description)`` checks in an order fixed by its arguments and the
state of ``rng``; a failed check is yielded, never raised.

- ``formulas``: every closed form on its small-parameter grid against the DP
  sweep, and against the brute-force oracle on regions of at most
  ``brute_limit`` cells, a keyword argument of this suite alone.
- ``kuo``: Kuo's four local identities on random quadruples of outer-face
  cells of AD(2..max_a), plain, minus the black cell SW a, or minus SW a
  and NE a.
- ``ciucu``: the condensation quotient and its symmetric-difference
  generalization against the DP count, and the alternating identity behind
  them, on random face vertices of diamonds and gamma-augmented hosts.
- ``mt``: ``count_configuration(config, "pfaffian")`` against the DP count
  on three-sided draws with NE alphas, four-sided draws with an alpha on
  each black side of a rectangle, draws with SW alphas, draws whose gamma
  string ends past b - a and may start past 1, with alphas on either black
  side, and diamonds; the first three may keep a gamma string 1..g, and
  the SW draws always do.

The module reads no environment variable and prints nothing.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from .condensation import (
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
    outer_face,
)
from .counting import count_matchings_brute, count_tilings_dp
from .errors import AztecError, CondensationInapplicableError, InvalidConfigurationError
from .formulas import (
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_one_se_removed,
    count_ar_se_block_nw_defect,
    count_ar_se_block_removed,
    count_ar_se_nw_defects,
    count_aztec_diamond,
)
from .geometry import (
    DefectConfiguration,
    DefectSpec,
    Region,
    boundary_cell,
    is_white,
    make_aztec_rectangle,
)

Check = tuple[bool, str]  # (passed, description)


def _verify_formulas(
    max_a: int, max_b: int, trials: int, rng: random.Random, *, brute_limit: int
) -> Iterator[Check]:
    def check(config: DefectConfiguration, expected: int, label: str) -> Check:
        region = config.region()
        dp = count_tilings_dp(region)
        ok = dp == expected
        if ok and len(region) <= brute_limit:
            ok = count_matchings_brute(region) == expected
        return ok, f"{label}: formula={expected} dp={dp}"

    def se(positions: Iterable[int]) -> tuple[DefectSpec, ...]:
        return tuple(DefectSpec("SE", p) for p in positions)

    for n in range(1, max_a + 1):
        yield check(DefectConfiguration(n, n), count_aztec_diamond(n), f"diamond n={n}")
    for a in range(1, max_a + 1):
        for b in range(a + 1, max_b + 1):
            for kept in itertools.combinations(range(1, b + 1), a):
                config = DefectConfiguration(a, b, se(p for p in range(1, b + 1) if p not in kept))
                yield check(config, count_ar_kept_se(a, b, kept), f"kept-se a={a} b={b} s={kept}")
    for a in range(1, max_a + 1):
        for i in range(1, a + 2):
            config = DefectConfiguration(a, a + 1, se([i]))
            yield check(config, count_ar_one_se_removed(a, i), f"one-se a={a} i={i}")
        for b in range(a, max_b + 1):
            config = DefectConfiguration(a, b, se(range(2, b - a + 2)))
            yield check(config, count_ar_se_block_removed(a, b), f"se-block a={a} b={b}")
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                config = DefectConfiguration(a, a, se([i]), (DefectSpec("NE", j),))
                yield check(config, count_ad_adjacent_defects(a, i, j), f"ad-adjacent a={a} i={i} j={j}")
        if a + 2 <= max_b:
            for i in range(1, a + 3):
                for j in range(1, a + 3):
                    config = DefectConfiguration(a, a + 2, se([i]) + (DefectSpec("NW", j),))
                    yield check(config, count_ar_se_nw_defects(a, i, j), f"se-nw a={a} i={i} j={j}")
        for k in range(1, max_b - a + 1):
            b = a + k
            gammas = tuple(range(2, k + 1))
            for j in range(1, b + 1):
                config = DefectConfiguration(a, b, se([j]), gammas=gammas)
                yield check(config, count_ar_gamma_se_defect(a, k, j), f"gamma-se a={a} k={k} j={j}")
            for i in range(1, b + 1):
                nw = (DefectSpec("NW", i),)
                config = DefectConfiguration(a, b, se(range(2, k + 1)) + nw)
                yield check(config, count_ar_se_block_nw_defect(a, k, i), f"se-block-nw a={a} k={k} i={i}")
                config = DefectConfiguration(a, b, nw, gammas=gammas)
                yield check(config, count_ar_gamma_nw_defect(a, k, i), f"gamma-nw a={a} k={k} i={i}")


def _verify_kuo(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    pool: list[Region] = []
    for a in range(2, max_a + 1):
        sw, ne = DefectSpec("SW", a), DefectSpec("NE", a)
        pool += (make_aztec_rectangle(a, a), DefectConfiguration(a, a, alphas=(sw,)).region(),
                 DefectConfiguration(a, a, alphas=(sw, ne)).region())
    done = 0
    attempts = 0
    while done < trials and attempts < trials * 200:
        attempts += 1
        region = pool[rng.randrange(len(pool))]
        cycle = outer_face(region)
        quad = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 4))]
        first_white = is_white(quad[0])
        pattern = "".join("A" if is_white(c) == first_white else "B" for c in quad)
        try:
            ok = check_kuo_identity(pattern, region, *quad)
        except InvalidConfigurationError:
            continue  # no identity for this pattern, or the region's colours miss it
        yield ok, f"kuo {pattern} on {len(region)} cells at {quad}"
        done += 1


def _verify_ciucu(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    for _ in range(trials):
        a = rng.randint(2, max_a)
        region = make_aztec_rectangle(a, a)
        cycle = outer_face(region)
        k = rng.randint(1, 3)
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * k))]
        direct = count_tilings_dp(Region.from_cells(region.cells - set(verts)))
        got = condensation_count(region, verts)
        yield got == direct, f"condensation a={a} verts={verts} {got}!={direct}"

        host = DefectConfiguration(a, a + 1, gammas=(1,)).region()
        hcycle = outer_face(host)
        kk = rng.randint(1, 2)
        verts = [hcycle[i] for i in sorted(rng.sample(range(len(hcycle)), 2 * kk))]
        # the host minus its forced domino {gamma 1, SE 1}: colour-balanced, with tilings
        forced = {boundary_cell(a, a + 1, DefectSpec(side, 1)) for side in ("SE", "gamma")}
        base_cells = host.cells - forced
        direct = count_tilings_dp(Region.from_cells(base_cells ^ set(verts)))
        try:
            got = condensation_count_symdiff(host, base_cells, verts)
        except CondensationInapplicableError:
            pass  # M(G) = 0 is outside the identity's hypothesis: no check
        else:
            yield got == direct, f"symdiff a={a} verts={verts} {got}!={direct}"
        ok = check_face_alternating_identity(host, base_cells, verts)
        yield ok, f"alternating a={a} verts={verts}"


def _compare(label: str, config: DefectConfiguration) -> Check:
    """The ``pfaffian`` count against the dp count; an error from the package fails the check."""
    label = f"{label} a={config.a} b={config.b} gammas={tuple(config.gammas)} {config.betas}/{config.alphas}"
    want = count_tilings_dp(config.region())
    try:
        got = count_configuration(config, "pfaffian")
    except AztecError as exc:
        return False, f"{label}: {exc}"
    return got == want, f"{label}: {got}!={want}"


def _verify_mt(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    for _ in range(trials):
        a = rng.randint(1, max_a)
        b = rng.randint(a, min(max_b, a + 2))
        k = b - a
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        # gamma=g keeps gammas 1..g, so #betas - #alphas = k - g; a draw with g > 0 takes the gamma route
        for g in (0, rng.randint(1, k)) if k else (0,):
            n = rng.randint(0 if k else 1, min(2, a))
            betas = tuple(rng.sample(whites, n + k - g))
            alphas = tuple(DefectSpec("NE", p) for p in rng.sample(range(1, a + 1), n))
            yield _compare("three-sided", DefectConfiguration(a, b, betas, alphas, tuple(range(1, g + 1))))

        # an alpha on each black side of a rectangle, then SW alphas only, keeping
        # gammas 1..g: both take the (beta, SW alpha) entries of the one Pfaffian
        for sides, g in ((("NE", "SW"), rng.randint(0, k)), (("SW",), rng.randint(1, k))) if k else ():
            alphas = tuple(DefectSpec(side, rng.randint(1, a)) for side in sides)
            betas = tuple(rng.sample(whites, len(sides) + k - g))
            yield _compare("+".join(sides), DefectConfiguration(a, b, betas, alphas, tuple(range(1, g + 1))))

        # a gamma string first..g past b - a, whose added gammas are row labels; only
        # a string starting past 1 reads the SE t - 1 term of an added gamma t's row
        g = rng.randint(k + 1, min(b, k + 2))
        first = rng.randint(1, g)
        surplus = g - first + 1 - k  # #alphas - #betas
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        alphas = tuple(rng.sample(blacks, max(0, surplus) + rng.randint(0, min(2, 2 * a - surplus))))
        betas = tuple(rng.sample(whites, len(alphas) - surplus))
        yield _compare("past b - a", DefectConfiguration(a, b, betas, alphas, tuple(range(first, g + 1))))

        nd = rng.randint(1, min(3, a))
        wd = tuple(rng.sample([DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + 1)], nd))
        yield _compare("diamond", DefectConfiguration(a, a, wd, tuple(rng.sample(blacks, nd))))


SUITES = {"formulas": _verify_formulas, "kuo": _verify_kuo, "ciucu": _verify_ciucu, "mt": _verify_mt}
