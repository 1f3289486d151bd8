"""Cross-verification suites: the package's counts held to independent engines.

Each suite in ``SUITES`` takes ``(max_a, max_b, trials, rng)`` and yields
``(ok, description)`` checks in an order fixed by its arguments and the
state of ``rng``; a failed check is yielded, never raised.

- ``formulas``: the ``formula`` engine, ``count_configuration(config,
  "formula")``, against the DP sweep and against the lattice-path
  determinant, so the engine's matching of a configuration to its family
  is checked along with the closed form it picks.  Its grid, b <= max_b,
  reaches every closed form the engine picks and holds each configuration
  once: AD(n) (``diamond``); AR(a, b), b > a, keeping each a-subset of its
  SE cells (``kept-se``, which holds one SE cell off AR(a, a + 1) and the
  SE block 2..b - a + 1); AD(a) minus SE i and NE j (``ad-adjacent``);
  AR(a, a + 2) minus SE i, i != 2, and NW j (``se-nw``); AR(a, a + k) minus
  SE 2..k and NW i (``se-block-nw``, which holds SE 2 at k = 2); and, for
  k >= 2, AR(a, a + k) plus gammas 2..k minus SE j or NW i (``gamma-se``,
  ``gamma-nw``; at k = 1 the string is empty and they are ``kept-se`` and
  ``se-block-nw``).
- ``kuo``: Kuo's four local identities on random quadruples of outer-face
  cells of AD(2..max_a), plain, minus the black cell SW a, or minus SW a
  and NE a.
- ``ciucu``: the condensation quotient and its symmetric-difference
  generalization against the DP count, and the alternating identity behind
  them, on random face vertices of diamonds and gamma-augmented hosts.
- ``mt``: ``count_configuration(config, "pfaffian")`` against the DP count
  on one draw per trial from the whole defect space: AR(a, b) with
  1 <= a <= max_a and a <= b <= max_b, a gamma string first..last anywhere
  in 1..b, possibly empty, n alphas from the NE and SW sides and
  n + (b - a) - g betas from the NW and SE sides, g the string's length,
  so that the colours balance.  An error from the package fails the check.

The module reads no environment variable and prints nothing.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator

from .condensation import (
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
)
from .counting import count_tilings_dp, count_tilings_paths
from .dualgraph import boundary_cycle
from .errors import AztecError, InvalidConfigurationError
from .geometry import Cell, DefectConfiguration, DefectSpec, Region, is_white

Check = tuple[bool, str]  # (passed, description)


def _verify_formulas(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    def check(config: DefectConfiguration, label: str) -> Check:
        expected = count_configuration(config, "formula")
        region = config.region()
        dp = count_tilings_dp(region)
        ok = dp == expected and count_tilings_paths(region) == expected
        return ok, f"{label}: formula={expected} dp={dp}"

    def se(positions: Iterable[int]) -> tuple[DefectSpec, ...]:
        return tuple(DefectSpec("SE", p) for p in positions)

    for n in range(1, max_a + 1):
        yield check(DefectConfiguration(n, n), f"diamond n={n}")
    for a in range(1, max_a + 1):
        for b in range(a + 1, max_b + 1):
            for kept in itertools.combinations(range(1, b + 1), a):
                config = DefectConfiguration(a, b, se(p for p in range(1, b + 1) if p not in kept))
                yield check(config, f"kept-se a={a} b={b} s={kept}")
    for a in range(1, max_a + 1):
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                config = DefectConfiguration(a, a, se([i]), (DefectSpec("NE", j),))
                yield check(config, f"ad-adjacent a={a} i={i} j={j}")
        if a + 2 <= max_b:
            for i in (1, *range(3, a + 3)):  # SE 2 and NW j is se-block-nw at k = 2
                for j in range(1, a + 3):
                    config = DefectConfiguration(a, a + 2, se([i]) + (DefectSpec("NW", j),))
                    yield check(config, f"se-nw a={a} i={i} j={j}")
        for k in range(1, max_b - a + 1):
            b = a + k
            gammas = range(2, k + 1)  # none at k = 1, where gamma-se is kept-se and gamma-nw se-block-nw
            for i in range(1, b + 1):
                nw = (DefectSpec("NW", i),)
                yield check(DefectConfiguration(a, b, se(gammas) + nw), f"se-block-nw a={a} k={k} i={i}")
                if gammas:
                    yield check(DefectConfiguration(a, b, se([i]), gammas=gammas), f"gamma-se a={a} k={k} j={i}")
                    yield check(DefectConfiguration(a, b, nw, gammas=gammas), f"gamma-nw a={a} k={k} i={i}")


def _verify_kuo(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    pool: list[Region] = []
    for a in range(2, max_a + 1):
        sw, ne = DefectSpec("SW", a), DefectSpec("NE", a)
        pool += (DefectConfiguration(a, a).region(), DefectConfiguration(a, a, alphas=(sw,)).region(),
                 DefectConfiguration(a, a, alphas=(sw, ne)).region())
    done = 0
    attempts = 0
    while done < trials and attempts < trials * 200:
        attempts += 1
        region = pool[rng.randrange(len(pool))]
        cycle = boundary_cycle(region)
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
    built: dict[int, tuple[Region, Region, frozenset[Cell]]] = {}  # an order's regions, on its first draw
    for _ in range(trials):
        a = rng.randint(2, max_a)
        if a not in built:
            # the base, AR(a, a + 1) minus SE 1, is the host minus its forced domino {gamma 1, SE 1},
            # with 2^(a(a+1)/2) tilings: never 0, so the symmetric-difference quotient always applies
            built[a] = (DefectConfiguration(a, a).region(), DefectConfiguration(a, a + 1, gammas=(1,)).region(),
                        DefectConfiguration(a, a + 1, (DefectSpec("SE", 1),)).region().cells)
        region, host, base_cells = built[a]
        cycle = boundary_cycle(region)
        k = rng.randint(1, 3)
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * k))]
        direct = count_tilings_dp(Region.from_cells(region.cells - set(verts)))
        got = condensation_count(region, verts)
        yield got == direct, f"condensation a={a} verts={verts} {got}!={direct}"

        hcycle = boundary_cycle(host)
        kk = rng.randint(1, 2)
        verts = [hcycle[i] for i in sorted(rng.sample(range(len(hcycle)), 2 * kk))]
        direct = count_tilings_dp(Region.from_cells(base_cells ^ set(verts)))
        got = condensation_count_symdiff(host, base_cells, verts)
        yield got == direct, f"symdiff a={a} verts={verts} {got}!={direct}"
        ok = check_face_alternating_identity(host, base_cells, verts)
        yield ok, f"alternating a={a} verts={verts}"


def _verify_mt(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    for _ in range(trials):
        a = rng.randint(1, max_a)
        b = rng.randint(a, max_b)
        first = rng.randint(1, b)
        gammas = range(first, rng.randint(first, b + 1))  # first..last, empty when last = first - 1
        surplus = len(gammas) - (b - a)  # #alphas - #betas, so that the colours balance
        n = rng.randint(max(0, surplus), min(2 * a, max(0, surplus) + 2))
        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        whites = [DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, b + 1)]
        betas, alphas = tuple(rng.sample(whites, n - surplus)), tuple(rng.sample(blacks, n))
        config = DefectConfiguration(a, b, betas, alphas, gammas)
        label = f"mt a={a} b={b} gammas={tuple(gammas)} {betas}/{alphas}"
        want = count_tilings_dp(config.region())
        try:
            got = count_configuration(config, "pfaffian")
        except AztecError as exc:
            yield False, f"{label}: {exc}"
        else:
            yield got == want, f"{label}: {got}!={want}"


SUITES = {"formulas": _verify_formulas, "kuo": _verify_kuo, "ciucu": _verify_ciucu, "mt": _verify_mt}
