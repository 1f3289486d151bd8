"""Print a digest of aztec-tilings command-line transcripts, one line per run.

    PYTHONPATH=src python3 tools/cli_transcripts.py > transcripts.txt

Calls ``aztec_tilings.cli.main`` in-process, so the package that PYTHONPATH
selects is the one exercised.  The runs are a fixed, seeded list of region
specs (AD/AR with a <= 4 and b - a <= 3, some with a gamma string of up to b
squares, strings past SE position b - a among them, some colour-unbalanced),
then one malformed spec for every spec-parse message; each is rendered once
and counted under every engine in ``ENGINES``, in ``dec`` and ``json`` format.
Then every suite in ``aztec_tilings.verify.SUITES``, the table the ``verify``
command reads, runs through ``cli.main``: ``formulas`` with its defaults, the
others with fixed seeded flags.  Then ``--help`` runs for the root and for
each command; argparse wraps help at the terminal width (COLUMNS when set), so
those lines compare only between runs in one environment.  Then ``SHAPES``
runs: the calls that ``cli.main`` parses with the full parser (no arguments,
an unknown command, a leading option or ``--``) and command calls that end in
a usage error of their one subparser.  Last, ``LONG`` runs: one count of NW
betas past a missing gamma string of 20 squares.  Each line holds the argv,
the exit code and the sha256 of stdout followed by stderr, with the
``millis`` field of JSON output zeroed.  Diffing the output of two checkouts
shows whether a change altered any transcript.
Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import shlex
from typing import Iterable, Iterator

from aztec_tilings.cli import main as cli_main
from aztec_tilings.condensation import ENGINES
from aztec_tilings.verify import SUITES

MALFORMED = ("", "AD", "AX n=3", "AD x=3", "AD n=zero", "AD n=0", "AR a=3", "AR a=3 b=2",
             "AD n=2 gamma=-1", "AR a=2 b=3 gamma=5", "AD n=2 remove=SE", "AD n=2 remove=SE:x",
             "AD n=2 remove=SE:0", "AD n=2 remove=SE:9", "AD n=2 remove=XX:1",
             "AD n=2 remove=SE:1,SE:1", "AD n=2 trailing", "AD n=1_0", "AD n=+2 remove=SE:0_1",
             "AD n=\uff12", "AD n=" + "9" * 4400)
SEEDED = ["--max-a", "6", "--max-b", "9", "--trials", "400", "--seed", "11"]
VERIFY = [["verify", suite] + ([] if suite == "formulas" else SEEDED) for suite in SUITES]
HELP = [["--help"]] + [[command, "--help"] for command in ("count", "verify", "render")]
SHAPES = [[], ["frobnicate"], ["-h", "count"], ["--", "count", "AD n=2"],
          ["count"], ["verify"], ["count", "AD n=2", "--engine", "nope"], ["count", "AD n=2", "--bogus"],
          ["render", "AD n=1", "extra"]]
LONG = [["count", "AR a=4 b=44 gamma=20 remove=" + ",".join(f"NW:{p}" for p in range(25, 45))]]
_MILLIS = re.compile(r'"millis": \d+')


def _draw(rng: random.Random, a: int, b: int, skew: int) -> str:
    """A spec on AD/AR(a, b) with gamma in 0..b and #betas - #alphas = k - gamma + skew."""
    k = b - a
    whites = [f"{s}:{p}" for s in ("NW", "SE") for p in range(1, b + 1)]
    blacks = [f"{s}:{p}" for s in ("NE", "SW") for p in range(1, a + 1)]
    gamma = rng.randint(0, b)
    n = rng.randint(0, min(2, a))
    n_betas = n + k - gamma + skew  # when negative, that many more alphas instead
    removed = rng.sample(whites, max(0, n_betas)) + rng.sample(blacks, n - min(0, n_betas))
    head = f"AD n={a}" if a == b else f"AR a={a} b={b}"
    spec = head + (f" gamma={gamma}" if gamma else "")
    return spec + (f" remove={','.join(removed)}" if removed else "")


def seeded_specs() -> list[str]:
    """Two distinct specs per (a, b) with a <= 4 and b - a <= 3, then the malformed ones.

    The first spec of a pair is colour-balanced, the second is balanced or off
    by one cell, at random.  A second spec equal to the first is redrawn from
    a separate stream, so the specs after it do not change.
    """
    rng, redraw = random.Random(7), random.Random(8)
    specs = []
    for a in range(1, 5):
        for b in range(a, a + 4):
            skew = rng.choice((-1, 0, 1))
            first = _draw(rng, a, b, 0)
            second = _draw(rng, a, b, skew)
            while second == first:
                second = _draw(redraw, a, b, skew)
            specs += [first, second]
    return specs + list(MALFORMED)


def run(argv: list[str]) -> str:
    """One digest line for ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught error is an outcome too
        code = f"raised:{type(exc).__name__}"
        err.write(str(exc))
    digest = hashlib.sha256((_MILLIS.sub('"millis": 0', out.getvalue()) + err.getvalue()).encode())
    return f"{shlex.join(argv)} | exit={code} | {digest.hexdigest()}"


def spec_lines(specs: Iterable[str]) -> Iterator[str]:
    """Digest lines for every spec: one ``render``, then ``count`` under every
    engine and format."""
    for spec in specs:
        yield run(["render", spec])
        for engine in ENGINES:
            for fmt in ("dec", "json"):
                yield run(["count", spec, "--engine", engine, "--format", fmt])


def main() -> None:
    for line in spec_lines(seeded_specs()):
        print(line)
    for argv in VERIFY + HELP + SHAPES + LONG:
        print(run(argv))


if __name__ == "__main__":
    main()
