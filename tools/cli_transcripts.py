"""Print a digest of aztec-tilings command-line transcripts, one line per run.

    PYTHONPATH=src python3 tools/cli_transcripts.py > transcripts.txt

Calls ``aztec_tilings.cli.main`` in-process, so the package that PYTHONPATH
selects is the one exercised.  The runs are a fixed, seeded list of region
specs (AD/AR with a <= 4 and b - a <= 3, some with gamma squares, some
colour-unbalanced), then one malformed spec for every spec-parse message; each
is rendered once and counted under every engine in ``ENGINES``, in ``dec`` and
``json`` format, with AZTEC_ORACLE_CELL_LIMIT unset and set to 20.  Then the
four verify suites run.  Each line holds the argv, the cell-limit setting, the
exit code and the sha256 of stdout followed by stderr, with the ``millis``
field of JSON output zeroed.  Diffing the output of two checkouts shows
whether a change altered any transcript.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import shlex
from typing import Iterable, Iterator

from aztec_tilings.cli import main as cli_main
from aztec_tilings.condensation import ENGINES

LIMIT_VAR = "AZTEC_ORACLE_CELL_LIMIT"
LIMITS = (None, "20")
MALFORMED = ("", "AD", "AX n=3", "AD x=3", "AD n=zero", "AD n=0", "AR a=3", "AR a=3 b=2",
             "AD n=2 gamma=-1", "AR a=2 b=3 gamma=5", "AD n=2 remove=SE", "AD n=2 remove=SE:x",
             "AD n=2 remove=SE:0", "AD n=2 remove=SE:9", "AD n=2 remove=XX:1",
             "AD n=2 remove=SE:1,SE:1", "AD n=2 trailing")
VERIFY = [["verify", "formulas"]] + [
    ["verify", suite, "--max-a", "6", "--max-b", "9", "--trials", "400", "--seed", "11"]
    for suite in ("kuo", "ciucu", "mt")
]
_MILLIS = re.compile(r'"millis": \d+')


def seeded_specs() -> list[str]:
    """Two specs per (a, b) with a <= 4 and b - a <= 3, then the malformed ones.

    The first spec of a pair is colour-balanced (#betas - #alphas = k - gamma),
    the second is balanced or off by one cell, at random.
    """
    rng = random.Random(7)
    specs = []
    for a in range(1, 5):
        for b in range(a, a + 4):
            k = b - a
            whites = [f"{s}:{p}" for s in ("NW", "SE") for p in range(1, b + 1)]
            blacks = [f"{s}:{p}" for s in ("NE", "SW") for p in range(1, a + 1)]
            for skew in (0, rng.choice((-1, 0, 1))):
                gamma = rng.randint(0, k)
                n = rng.randint(0, min(2, a))
                n_betas = max(0, n + k - gamma + skew)
                removed = rng.sample(whites, n_betas) + rng.sample(blacks, n)
                head = f"AD n={a}" if a == b else f"AR a={a} b={b}"
                spec = head + (f" gamma={gamma}" if gamma else "")
                specs.append(spec + (f" remove={','.join(removed)}" if removed else ""))
    return specs + list(MALFORMED)


def run(argv: list[str], limit: str | None) -> str:
    """One digest line for ``cli.main(argv)`` with the cell limit set to ``limit``."""
    saved = os.environ.pop(LIMIT_VAR, None)
    if limit is not None:
        os.environ[LIMIT_VAR] = limit
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught error is an outcome too
        code = f"raised:{type(exc).__name__}"
        err.write(str(exc))
    finally:
        os.environ.pop(LIMIT_VAR, None)
        if saved is not None:
            os.environ[LIMIT_VAR] = saved
    digest = hashlib.sha256((_MILLIS.sub('"millis": 0', out.getvalue()) + err.getvalue()).encode())
    setting = f"{LIMIT_VAR}={limit}" if limit is not None else f"{LIMIT_VAR} unset"
    return f"{shlex.join(argv)} | {setting} | exit={code} | {digest.hexdigest()}"


def spec_lines(specs: Iterable[str]) -> Iterator[str]:
    """Digest lines for every spec: one ``render``, then ``count`` under every
    engine, format and cell limit."""
    for spec in specs:
        yield run(["render", spec], None)
        for engine in ENGINES:
            for fmt in ("dec", "json"):
                for limit in LIMITS:
                    yield run(["count", spec, "--engine", engine, "--format", fmt], limit)


def main() -> None:
    for line in spec_lines(seeded_specs()):
        print(line)
    for argv in VERIFY:
        print(run(argv, None))


if __name__ == "__main__":
    main()
