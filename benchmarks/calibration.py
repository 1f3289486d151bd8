"""Calibration loops that put every timing on one reference speed.

A shared host can change speed by 1.8x from one second to the next, and CPU
time moves with wall time.  So the benchmark times a fixed calibration loop
before and after each timed interval and scales the interval by
REFERENCE_S / (mean calibration time): times are given at the speed at which
the loop takes REFERENCE_S, about the median speed of the host that set it.

Kinds of work slow down by different amounts (a large table of big integers
more than argument parsing), so each workload uses the loop shaped like its
own hot path.  The loops are the benchmark's own code: they slow down with
the host as the counts do and never speed up with a change to the package.
"""

from __future__ import annotations

import argparse
import math
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

REFERENCE_S = 0.85e-3


def sweep_loop() -> None:
    """Domino tilings of a 6 x 14 board by a bit-profile sweep over big integers."""
    rows = 6
    states = {0: 3**100}
    for _ in range(14):
        nxt_states: dict[int, int] = {}
        for mask, ways in states.items():
            stack = [(0, 0)]
            while stack:
                r, nxt = stack.pop()
                if r >= rows:
                    nxt_states[nxt] = nxt_states.get(nxt, 0) + ways
                elif mask >> r & 1:
                    stack.append((r + 1, nxt))
                else:
                    stack.append((r + 1, nxt | 1 << r))
                    if r + 1 < rows and not mask >> (r + 1) & 1:
                        stack.append((r + 2, nxt))
        states = nxt_states


def elimination_loop() -> None:
    """Fraction elimination of a fixed 6 x 6 matrix, then a hypergeometric-style sum."""
    n = 6
    rows = [[Fraction((i + 2) ** (j + 40) + j, i + j + 1) for j in range(n)] for i in range(n)]
    for col in range(n):
        inverse = 1 / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inverse
            for j in range(col, n):
                rows[i][j] -= factor * rows[col][j]
    total = Fraction(0)
    for k in range(30):
        total += Fraction(math.prod(range(k + 1, 2 * k + 20)), math.factorial(k)) * 2**k


class _Point(NamedTuple):
    u: int
    v: int


def walk_loop() -> None:
    """Build a set of 200 lattice cells and walk it depth-first, as a connectivity check does."""
    cells = frozenset(_Point(u, v) for u in range(20) for v in range(20) if (u + v) % 2)
    seen: set[_Point] = set()
    stack = [min(cells)]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        for du, dv in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
            near = _Point(cell.u + du, cell.v + dv)
            if near in cells and near not in seen:
                stack.append(near)


def mixed_loop() -> None:
    """Small-dict updates, rational sums, string splitting and argument parsing."""
    table: dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i, i + 7)
    for i in range(150):
        f"NW:{i},SE:{i + 1}".split(",")[0].partition(":")
    parser = argparse.ArgumentParser(prog="calibration")
    count = parser.add_subparsers(dest="command").add_parser("count")
    count.add_argument("spec")
    count.add_argument("--engine", choices=("a", "b"))
    parser.parse_args(["count", "AD n=3", "--engine", "a"])


def calibrate(loop: Callable[[], None]) -> float:
    """Seconds the loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REFERENCE_S / (before + after)
