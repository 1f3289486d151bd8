"""Time a fixed ladder of counts, cold and warm, and split each into the package's layers.

    python3 tools/bench_ladder.py [BENCH_N.json]

Each rung in ``RUNGS`` is a region spec and the engine that counts it; the
spec grammar has no ranges, so runs of positions such as ``SE:1..h`` are
spelled out here, one ``SIDE:POS`` token each.  A rung's time is that of
``count_configuration(parse_region_spec(spec), engine)``, on
``time.perf_counter``: cold, with the package's two memos
(``condensation._side_row`` and ``dualgraph.boundary_cycle``) cleared
before each call, and warm, after one untimed call; each is reported as the
best and the median of ``REPEATS`` calls.  Every count is also taken by
``CHECK_ENGINE`` and the two compared by the sha256 of their hex digits,
which the file records in place of the count.  One cold call under
``cProfile`` splits a rung's time into ``LAYERS``: each package function's
own time goes to its layer, and a builtin's to the layers of its callers, in
the shares the profile gives them.  cProfile slows Python calls but not the
native code inside them, so the split is a guide to where the time goes,
not a second timing.

Records the Python version, the number of CPUs this process may run on
(``nproc``) and the load average before and after the ladder.  Prints one
line per rung to stderr, writes the whole record as JSON to the named file
(or to stdout), and exits 1 if any count differs from its check.
Process-local clocks only.  Stdlib only.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import random
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from aztec_tilings import condensation, dualgraph  # noqa: E402
from aztec_tilings.cli import parse_region_spec  # noqa: E402

CHECK_ENGINE = "paths"  # polynomial and independent of the Pfaffian; every rung below fits it
REPEATS = 3


def _run(side: str, first: int, last: int) -> str:
    return ",".join(f"{side}:{p}" for p in range(first, last + 1))


def _one_sided(h: int) -> tuple[str, str, str]:
    return f"AR a=4 b={4 + h} remove=SE:1..{h}", f"AR a=4 b={4 + h} remove={_run('SE', 1, h)}", "pfaffian"


def _seeded_diamond(a: int) -> tuple[str, str, str]:
    """AD(a) minus a/4 cells on each side, drawn by random.Random(a)."""
    rng = random.Random(a)
    picks = [f"{s}:{p}" for s in ("NW", "NE", "SE", "SW") for p in sorted(rng.sample(range(1, a + 1), a // 4))]
    return f"AD n={a} remove={a // 4} seeded cells per side", f"AD n={a} remove={','.join(picks)}", "pfaffian"


# (name, spec, engine): the name is the rung's key in the written file
RUNGS = (
    *(_one_sided(h) for h in (100, 300, 500)),  # each SE beta a row against h missing gammas
    ("AR a=4 b=404 gamma=200 remove=NW:205..404", f"AR a=4 b=404 gamma=200 remove={_run('NW', 205, 404)}",
     "pfaffian"),  # a staircase block: NW beta i is nonzero on the missing gammas up to i
    ("AR a=6 b=66 gamma=30 remove=NW:37..66", f"AR a=6 b=66 gamma=30 remove={_run('NW', 37, 66)}", "pfaffian"),
    ("AR a=2 b=102 gamma=99 remove=SW:1,SE:101,NW:3", "AR a=2 b=102 gamma=99 remove=SW:1,SE:101,NW:3",
     "pfaffian"),  # the SW walk over k = 100 peeled column pairs
    ("AR a=9 b=12 gamma=3 remove=NE:2,NE:7,SE:5,NW:4", "AR a=9 b=12 gamma=3 remove=NE:2,NE:7,SE:5,NW:4",
     "pfaffian"),  # in-scope gammas with NE alphas
    *(_seeded_diamond(a) for a in (40, 80, 120)),  # dense blocks of a/2 rows
    ("AD n=14", "AD n=14", "dp"),
    ("AR a=4 b=10004 remove=SE:1..10000", f"AR a=4 b=10004 remove={_run('SE', 1, 10000)}", "formula"),
)

# the north star's layers, by module; FUNCTIONS overrides a module's layer for one function
LAYERS = ("geometry", "boundary", "entries", "elimination", "quotient", "sweep", "other")
MODULES = {"cli": "geometry", "geometry": "geometry", "dualgraph": "boundary", "formulas": "entries",
           "exactalg": "elimination", "errors": "quotient", "counting": "sweep"}
FUNCTIONS = {
    ("geometry", "perimeter_index"): "boundary",
    ("condensation", "_pfaffian_count"): "boundary",  # builds the labels and sorts them along the boundary
    ("condensation", "_side_row"): "entries",
    ("condensation", "_three_sided_block"): "entries",
    ("condensation", "_formula_count"): "entries",
    ("condensation", "_pfaffian_quotient"): "quotient",
}


def clear_memos() -> None:
    condensation._side_row.cache_clear()
    dualgraph.boundary_cycle.cache_clear()


def count(spec: str, engine: str) -> int:
    return condensation.count_configuration(parse_region_spec(spec), engine)


def digest(n: int) -> str:
    return hashlib.sha256(format(n, "x").encode()).hexdigest()


def timed(spec: str, engine: str, cold: bool) -> dict[str, float]:
    """Best and median seconds of ``REPEATS`` counts, each after a collection and, if cold, cleared memos."""
    if not cold:
        count(spec, engine)
    seconds = []
    for _ in range(REPEATS):
        if cold:
            clear_memos()
        gc.collect()
        start = time.perf_counter()
        count(spec, engine)
        seconds.append(time.perf_counter() - start)
    return {"best": round(min(seconds), 6), "median": round(statistics.median(seconds), 6)}


def _layer(key: tuple[str, int, str]) -> str:
    path, _, name = key
    module = Path(path).stem if Path(path).parent == REPO / "src" / "aztec_tilings" else ""
    return FUNCTIONS.get((module, name), MODULES.get(module, "other"))


def profiled(spec: str, engine: str) -> dict[str, float]:
    """Seconds per layer, and their total, of one cold count under cProfile."""
    clear_memos()
    profile = cProfile.Profile()
    profile.runcall(count, spec, engine)
    layers = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, own, _, callers) in pstats.Stats(profile).stats.items():
        if key[0] == "~":  # a builtin: its time, split by caller, goes to each caller's layer
            for caller, (_, _, share, _) in callers.items():
                layers[_layer(caller)] += share
        else:
            layers[_layer(key)] += own
    return {name: round(seconds, 6) for name, seconds in {"total": sum(layers.values()), **layers}.items()}


def load() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def main(argv: list[str]) -> int:
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "load_before": load(),
        "repeats": REPEATS,
        "check_engine": CHECK_ENGINE,
        "rungs": [],
    }
    ok = True
    for name, spec, engine in RUNGS:
        clear_memos()
        got, want = digest(count(spec, engine)), digest(count(spec, CHECK_ENGINE))
        ok = ok and got == want
        rung = {
            "name": name,
            "engine": engine,
            "cells": parse_region_spec(spec).size,
            "sha256": got,
            "matches_check": got == want,
            "cold_s": timed(spec, engine, cold=True),
            "warm_s": timed(spec, engine, cold=False),
            "profile_s": profiled(spec, engine),
        }
        record["rungs"].append(rung)
        cold, warm = rung["cold_s"], rung["warm_s"]
        print(f"{name} --engine {engine}: cold {cold['best'] * 1e3:.2f}/{cold['median'] * 1e3:.2f} ms, "
              f"warm {warm['best'] * 1e3:.2f}/{warm['median'] * 1e3:.2f} ms (best/median), "
              f"{'matches' if got == want else 'DIFFERS FROM'} {CHECK_ENGINE}", file=sys.stderr, flush=True)
    record["load_after"] = load()
    text = json.dumps(record, indent=1) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
