"""Seeded count workloads and the second engines that check their counts.

A workload's pool of region specs is generated from the seed in cycles.  One
cycle holds one spec from each of five rungs, ordered from cheap to dear; a
rung fixes the region's shape and the number of defects on each side, and
the seed only moves the defects.  So every run of whole cycles has the same
mix whatever the seed, and the latency median and 90th percentile fall
inside a rung (the 3rd and 5th) rather than on the edge between two.

Every generated spec is one the engines it is timed with can count: defect
sets are colour-balanced, and a rectangle AR(a, a+k) always loses at least k
SE cells, so the four-sided Pfaffian finds a balanced sub-rectangle with a
nonzero count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from calibration import elimination_loop, mixed_loop, sweep_loop, walk_loop

Argv = tuple[str, ...]
Defect = tuple[str, int]


def spec_text(a: int, b: int, removed: Sequence[Defect]) -> str:
    head = f"AD n={a}" if a == b else f"AR a={a} b={b}"
    if not removed:
        return head
    return head + " remove=" + ",".join(f"{side}:{pos}" for side, pos in removed)


def parse_spec(spec: str) -> tuple[int, int, list[Defect]]:
    """Inverse of spec_text: (a, b, removed)."""
    tokens = spec.split()
    values = dict(t.split("=", 1) for t in tokens[1:])
    a = int(values["n"] if tokens[0] == "AD" else values["a"])
    b = int(values["n"] if tokens[0] == "AD" else values["b"])
    removed = []
    if "remove" in values:
        for item in values["remove"].split(","):
            side, pos = item.split(":")
            removed.append((side, int(pos)))
    return a, b, removed


def mirror_spec(spec: str) -> str:
    """The reflection v -> 2a - v of the spec: NW and SE trade places.

    It maps the region onto a congruent one with the same cell colours, so
    the count is unchanged, yet the Pfaffian counters see a different defect
    order and different entries.  Alphas stay on their side, so a
    three-sided spec stays three-sided instead of being reflected straight
    back by the counter's own NE/SW mirror.
    """
    a, b, removed = parse_spec(spec)
    flip = {"NW": "SE", "SE": "NW"}
    mirrored = [
        (flip[side], pos) if side in flip else (side, a - pos + 1) for side, pos in removed
    ]
    return spec_text(a, b, mirrored)


def count_argv(spec: str, engine: str | None = None) -> Argv:
    return ("count", spec) if engine is None else ("count", spec, "--engine", engine)


def _defects(rng: random.Random, rung: tuple[int, int, int, int]) -> str:
    """AR(a, b) minus ne NE cells, sw SW cells and ne + sw + b - a white cells.

    rung = (a, b, ne, sw).  At least b - a of the white cells are on the SE
    side; the seed picks how many more, and every position.
    """
    a, b, ne, sw = rung
    k = b - a
    d = ne + sw
    n_se = rng.randint(k, d + k)
    removed = (
        [("SE", p) for p in rng.sample(range(1, b + 1), n_se)]
        + [("NW", p) for p in rng.sample(range(1, b + 1), d + k - n_se)]
        + [("NE", p) for p in rng.sample(range(1, a + 1), ne)]
        + [("SW", p) for p in rng.sample(range(1, a + 1), sw)]
    )
    rng.shuffle(removed)
    return spec_text(a, b, removed)


def _default_ladder_check(spec: str) -> tuple[Argv, ...]:
    _, _, removed = parse_spec(spec)
    # Plain diamonds and SE-only rectangles have closed forms; the rest go
    # through the Pfaffian counters.
    engine = "formula" if all(side == "SE" for side, _ in removed) else "pfaffian"
    return (count_argv(spec, engine),)


def _mirror_check(spec: str) -> tuple[Argv, ...]:
    return (count_argv(mirror_spec(spec), "pfaffian"),)


ORACLE_ENGINES = ("brute", "dp", "pfaffian")


def _oracle_check(spec: str) -> tuple[Argv, ...]:
    return tuple(count_argv(spec, e) for e in ORACLE_ENGINES)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rungs: tuple[tuple[int, int, int, int], ...]  # (a, b, ne, sw), cheapest first
    engines: tuple[str | None, ...]  # each spec is counted once per engine
    check: Callable[[str], tuple[Argv, ...]]  # the majority of these counts is the reference
    calibration: Callable[[], None]  # loop shaped like the workload's hot path
    warmup: Argv
    pool_cycles: int
    trace_cycles: int

    @property
    def cycle(self) -> int:
        """Counts in one cycle of the pool."""
        return len(self.rungs) * len(self.engines)

    def specs(self, seed: int) -> list[str]:
        rng = random.Random(f"{self.name}:{seed}")
        return [_defects(rng, rung) for _ in range(self.pool_cycles) for rung in self.rungs]

    def jobs(self, specs: Sequence[str]) -> list[tuple[str, Argv]]:
        return [(s, count_argv(s, e)) for s in specs for e in self.engines]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default-ladder",
            why="the most common call: default engine (DP sweep) on plain and defected "
            "AD/AR of order 6-10; counting dominates and no Pfaffian runs",
            # defected AD(6), three-sided AR(7,9), SE-only AR(8,9), three-sided
            # AR(9,11), plain AD(10).  The median and 90th percentile rungs
            # have shapes whose sweep cost does not depend on the seed.
            rungs=((6, 6, 1, 1), (7, 9, 2, 0), (8, 9, 0, 0), (9, 11, 2, 0), (10, 10, 0, 0)),
            engines=(None,),
            check=_default_ladder_check,
            calibration=sweep_loop,
            warmup=count_argv("AD n=6"),
            pool_cycles=400,
            trace_cycles=10,
        ),
        Workload(
            name="pfaffian-large",
            why="one large Pfaffian per count (a = 16-40) where the DP is infeasible; "
            "Fraction elimination (exactalg) and hyp_terminating (formulas) dominate",
            # diamonds AD(a) minus a/2 + a/2 cells alternate with three-sided
            # AR(a, a+2..3) minus a/3 NE alphas
            rungs=((16, 16, 4, 4), (28, 30, 9, 0), (28, 28, 7, 7), (40, 43, 13, 0), (40, 40, 10, 10)),
            engines=("pfaffian",),
            check=_mirror_check,
            calibration=elimination_loop,
            warmup=count_argv("AD n=8 remove=SE:2,NE:3", "pfaffian"),
            pool_cycles=100,
            trace_cycles=4,
        ),
        Workload(
            name="four-sided",
            why="nested Pfaffians of three-sided counts on AR(a, a+1..3), a = 8-18, alphas "
            "on NE and SW; boundary walks (dualgraph) and region rebuilds (geometry) dominate",
            rungs=((8, 9, 1, 1), (10, 12, 2, 1), (13, 15, 1, 2), (15, 16, 2, 2), (18, 21, 2, 2)),
            engines=("pfaffian",),
            check=_mirror_check,
            calibration=walk_loop,
            warmup=count_argv("AR a=4 b=5 remove=SE:1,SE:3,NW:2,NE:1,SW:2", "pfaffian"),
            pool_cycles=200,
            trace_cycles=6,
        ),
        Workload(
            name="oracle-small",
            why="regions of 10-26 cells, each counted by brute, dp and pfaffian; per-call "
            "cost (argparse in cli) dominates; the only workload that runs brute force",
            # the last three rungs are four-sided, so their Pfaffian counts are
            # the dearest fifth of the cycle
            rungs=((2, 2, 1, 0), (3, 3, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1), (3, 4, 1, 1)),
            engines=ORACLE_ENGINES,
            check=_oracle_check,
            calibration=mixed_loop,
            warmup=count_argv("AD n=2", "brute"),
            pool_cycles=200,
            trace_cycles=80,
        ),
    )
}
