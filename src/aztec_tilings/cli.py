"""Command-line interface: exact counts, verify reports, rendering.

Region specs are single-line strings:

    ("AD" "n=" INT | "AR" "a=" INT "b=" INT) ["gamma=" INT] ["remove=" defect ("," defect)*]

with defect = SIDE ":" POSITION and SIDE one of NW, NE, SE, SW (case
sensitive), e.g. "AR a=4 b=7 remove=SE:2,SE:4,SE:7".  ``gamma=k`` glues the
string of k extra squares under the SE side starting at the south corner.

Exit codes: 0 success, 1 usage, parse or semantic error, 2 spec outside the
engine's scope (``formula`` off its families, ``brute`` past the cell limit),
3 verification failure.
AZTEC_ORACLE_CELL_LIMIT (ASCII digits, default 36) bounds the brute-force
engine.

The commands only parse, call the library and print; they raise on error.
``main`` is the one place that turns an error into a message and an exit
code: ``SpecError``, argparse's usage errors among them, exits 1, and
``OutOfScopeConfigurationError`` exits 2.  ``cmd_verify`` folds the checks
of a suite from ``verify.SUITES`` into one report line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from typing import NoReturn, Sequence

from .condensation import ENGINES, count_configuration
from .counting import count_tilings_dp
from .errors import AztecError, InvalidDefectError, OutOfScopeConfigurationError
from .geometry import SIDES, DefectConfiguration, DefectSpec, boundary_cell, is_white
from .verify import SUITES

DEFAULT_CELL_LIMIT = 36


class SpecError(ValueError):
    """Parse or semantic error in a region spec or setting; message names the token."""


INT = re.compile(r"-?[0-9]+")


def _int(text: str, index: int, item: str) -> int:
    """The spec grammar's INT, ASCII -?[0-9]+; int() alone would also take '1_0', '+2' or '２'."""
    if not INT.fullmatch(text):
        raise SpecError(f"token {index} {item!r}: {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise SpecError(f"token {index} {item!r}: too many digits for an integer") from None


def _int_value(tokens: list[str], index: int, key: str) -> int:
    token, prefix = tokens[index], key + "="
    if not token.startswith(prefix):
        raise SpecError(f"token {index} {token!r}: expected {prefix}INT")
    return _int(token[len(prefix):], index, token)


def parse_region_spec(text: str) -> DefectConfiguration:
    """Parse a region spec into a defect configuration; no cells are built.

    Every token is read once, here, and every defect checked once, by
    ``DefectSpec`` and then ``DefectConfiguration``; each message names the
    token at fault.  A spec with several faults reports the first token that
    does not parse, else the first defect the configuration rejects, betas
    before alphas.
    """
    tokens = text.split()
    if not tokens:
        raise SpecError("empty region spec")
    if tokens[0] == "AD":
        if len(tokens) < 2:
            raise SpecError("token 0 'AD': missing n=INT")
        a = b = _int_value(tokens, 1, "n")
        if a < 1:
            raise SpecError(f"token 1 {tokens[1]!r}: need n >= 1")
        index = 2
    elif tokens[0] == "AR":
        if len(tokens) < 3:
            raise SpecError("token 0 'AR': needs a=INT b=INT")
        a, b = _int_value(tokens, 1, "a"), _int_value(tokens, 2, "b")
        if not 1 <= a <= b:
            raise SpecError(f"token 2 {tokens[2]!r}: need 1 <= a <= b")
        index = 3
    else:
        raise SpecError(f"token 0 {tokens[0]!r}: expected AD or AR")

    gammas = range(0)
    if index < len(tokens) and tokens[index].startswith("gamma="):
        k = _int_value(tokens, index, "gamma")
        if k < 0:
            raise SpecError(f"token {index} {tokens[index]!r}: need gamma >= 0")
        gammas = range(1, k + 1)
        try:
            DefectConfiguration(a, b, gammas=gammas)  # checks the string fits
        except AztecError as exc:
            raise SpecError(f"token {index} {tokens[index]!r}: {exc}") from None
        index += 1

    defects: list[tuple[DefectSpec, str]] = []  # each with its item of the remove= token
    if index < len(tokens) and tokens[index].startswith("remove="):
        for item in tokens[index][len("remove="):].split(","):
            side, _, pos_text = item.partition(":")
            if side not in SIDES or not pos_text:
                raise SpecError(f"token {index} {item!r}: expected SIDE:INT")
            try:
                defects.append((DefectSpec(side, _int(pos_text, index, item)), item))
            except AztecError as exc:
                raise SpecError(f"token {index} {item!r}: {exc}") from None
        index += 1
    betas = tuple(d for d, _ in defects if d.kind == "beta")
    alphas = tuple(d for d, _ in defects if d.kind == "alpha")
    try:
        config = DefectConfiguration(a, b, betas, alphas, gammas)
    except InvalidDefectError as exc:  # a defect's, so the remove= token was the last one read
        item = next(item for spec, item in defects if spec is exc.defect)
        raise SpecError(f"token {index - 1} {item!r}: {exc}") from None
    if index < len(tokens):
        raise SpecError(f"token {index} {tokens[index]!r}: unexpected trailing token")
    return config


def _cell_limit() -> int:
    raw = os.environ.get("AZTEC_ORACLE_CELL_LIMIT", "")
    if not raw:
        return DEFAULT_CELL_LIMIT
    if not re.fullmatch(r"[0-9]+", raw):
        raise SpecError(f"AZTEC_ORACLE_CELL_LIMIT={raw!r} is not a nonnegative integer")
    return int(raw)


DIRECT_BITS = 4096  # Decimal(n), quadratic in the bits, is fast enough below this


def decimal_digits(n: int) -> str:
    """The decimal digits of n >= 0 in subquadratic time, past sys.get_int_max_str_digits() too.

    str(n) refuses more digits than that limit (4,300 by default, which AD(169)
    exceeds), and Decimal(n) converts exactly but in quadratic time.  Past
    DIRECT_BITS, n = hi 2^w + lo with w half its bits, and the halves are
    joined in exact Decimal arithmetic, whose large products are subquadratic.
    """
    if n.bit_length() <= DIRECT_BITS:
        return str(Decimal(n))
    powers: dict[int, Decimal] = {}

    def convert(m: int, bits: int) -> Decimal:
        if bits <= DIRECT_BITS:
            return Decimal(m)
        w = bits // 2
        if w not in powers:
            powers[w] = Decimal(2) ** w
        hi = m >> w
        return convert(hi, bits - w) * powers[w] + convert(m - (hi << w), w)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        return str(convert(n, n.bit_length()))


def cmd_count(args: argparse.Namespace) -> int:
    config = parse_region_spec(args.spec)
    if args.engine == "brute" and len(config) > (limit := _cell_limit()):
        raise OutOfScopeConfigurationError(f"{len(config)} cells exceeds the brute-force limit {limit}")
    start = time.monotonic()
    if args.engine == "dp":
        # counted here so that patching cli.count_tilings_dp, as the benchmark's
        # fault-injection test does, reaches every dp count
        count = count_tilings_dp(config.region())
    else:
        count = count_configuration(config, args.engine)
    millis = int((time.monotonic() - start) * 1000)
    digits = decimal_digits(count)
    if args.format == "json":
        payload = {
            "region": args.spec.strip(),
            "engine": args.engine,
            "count": digits,
            "millis": millis,
        }
        print(json.dumps(payload))
    else:
        print(digits)
    return 0


def _render(config: DefectConfiguration) -> list[str]:
    a, b = config.a, config.b
    removed = {boundary_cell(a, b, d): "B" for d in config.betas}
    removed.update((boundary_cell(a, b, d), "A") for d in config.alphas)
    canvas: dict[tuple[int, int], str] = {}
    for cell in itertools.chain(config.region().cells, removed):
        if cell in removed:
            ch = removed[cell]
        elif cell.v > 2 * a:  # the gamma row, v = 2a + 1
            ch = "g"
        else:
            ch = "." if is_white(cell) else "#"
        x = (cell.u + cell.v - 1) // 2
        y = (cell.u - cell.v - 1) // 2
        canvas[(x, y)] = ch
    xs = [x for x, _ in canvas]
    ys = [y for _, y in canvas]
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        row = "".join(canvas.get((x, y), " ") for x in range(min(xs), max(xs) + 1))
        lines.append(row.rstrip())
    return lines


def cmd_render(args: argparse.Namespace) -> int:
    config = parse_region_spec(args.spec)
    if config.a + config.b > 200:
        raise SpecError("region exceeds the 200x200 rendering box")
    for line in _render(config):
        print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run one suite; the report names the checked samples by a sha256 of their descriptions."""
    least_a = 2 if args.suite in ("kuo", "ciucu") else 1  # the two suites build AD(2) and up
    if args.max_a < least_a:
        raise SpecError(f"--max-a {args.max_a}: need at least {least_a}")
    if args.suite in ("formulas", "mt") and args.max_b < args.max_a:
        raise SpecError(f"--max-b {args.max_b}: need at least --max-a {args.max_a}")
    if args.suite in ("kuo", "ciucu", "mt") and args.trials < 1:
        raise SpecError(f"--trials {args.trials}: need at least 1")
    checks = failures = 0
    first_failure = ""
    samples = hashlib.sha256()
    # only formulas runs the brute-force oracle, so only it reads the cell limit
    bound = {"brute_limit": min(_cell_limit(), 30)} if args.suite == "formulas" else {}
    suite = SUITES[args.suite](args.max_a, args.max_b, args.trials, random.Random(args.seed), **bound)
    for ok, description in suite:
        checks += 1
        samples.update(description.encode() + b"\n")
        if not ok:
            failures += 1
            first_failure = first_failure or description
    print(f"suite={args.suite} checks={checks} failures={failures} samples={samples.hexdigest()[:12]}")
    if failures:
        print(f"first counterexample: {first_failure}")
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``SpecError`` rather than exit 2."""

    def error(self, message: str) -> NoReturn:
        raise SpecError(message)


def integer(text: str) -> int:
    """A flag's value as the spec grammar's INT; argparse names it in "invalid integer value"."""
    return _int(text, 0, text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aztec-tilings",
        description="Exact domino-tiling counts for Aztec diamonds and rectangles with defects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count tilings of a region spec")
    p_count.add_argument("spec")
    p_count.add_argument("--engine", choices=ENGINES, default=ENGINES[0])
    p_count.add_argument("--format", choices=("dec", "json"), default="dec")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run a cross-verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--max-a", type=integer, default=3, dest="max_a")
    p_verify.add_argument("--max-b", type=integer, default=5, dest="max_b")
    p_verify.add_argument("--seed", type=integer, default=0)
    p_verify.add_argument("--trials", type=integer, default=100)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="ASCII checkerboard rendering of a region spec")
    p_render.add_argument("spec")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the only place where an error becomes a message and an exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SpecError, OutOfScopeConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SpecError) else 2


if __name__ == "__main__":
    sys.exit(main())
