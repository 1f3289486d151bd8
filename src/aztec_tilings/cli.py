"""Command-line interface: exact counts, verify reports, rendering.

Region specs are single-line strings:

    ("AD" "n=" INT | "AR" "a=" INT "b=" INT) ["gamma=" INT] ["remove=" defect ("," defect)*]

with defect = SIDE ":" POSITION and SIDE one of NW, NE, SE, SW (case
sensitive), e.g. "AR a=4 b=7 remove=SE:2,SE:4,SE:7".  ``gamma=k`` glues the
string of k extra squares under the SE side starting at the south corner.

Exit codes: 0 success, 1 usage, parse or semantic error, 2 spec outside the
engine's scope, as the library rules it (``formula`` off its families,
``brute`` past ``condensation.BRUTE_CELLS`` cells), 3 verification failure.
Apart from the help width (``COLUMNS``, through ``shutil.get_terminal_size``),
the package reads no environment variable.

The commands only parse, call the library and print; they raise on error.
``main`` is the one place that turns an error into a message and an exit
code: ``SpecError``, argparse's usage errors among them, exits 1, and
``OutOfScopeConfigurationError`` exits 2.  ``cmd_count`` counts the ``dp``
engine as ``count_tilings_dp`` on ``config.region()``, after the same
colour-balance test as ``count_configuration``, and every other engine as one
``count_configuration`` call, which owns the engine rules: the default,
``pfaffian``, and ``brute``'s cell bound among them.  ``cmd_verify`` folds the checks of a
suite from ``verify.SUITES`` into one report line.

The parser is built on every call, but a command call builds only the root
and that command's subparser, and a root-level call (``--help``, no
arguments, an unknown command, a leading option or ``--``) every subparser.
The root's own ``-h`` is built on root-level calls alone: a command call's
first token is its command, and argparse hands every later token, ``-h``
too, to that command's subparser.
The help width is read from the terminal once, at import.  A call imports
only what it runs: ``verify``, ``hashlib`` and ``random`` where the verify
subparser is built or run, ``json`` for ``--format json``, and ``decimal``
for counts of 640 digits or more.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import shutil
import sys
import time
from collections.abc import Sequence

from .condensation import ENGINES, count_configuration
from .counting import count_tilings_dp
from .errors import AztecError, InvalidDefectError, OutOfScopeConfigurationError
from .geometry import SIDES, DefectConfiguration, DefectSpec, boundary_cell, is_white


class SpecError(ValueError):
    """Parse or semantic error in a region spec or setting; message names the token."""


def _int(text: str, index: int, item: str) -> int:
    """The spec grammar's INT, ASCII -?[0-9]+, tested by str methods.

    int() alone would also take '1_0', '+2' or '２', and ``isdigit`` alone
    '٣' or '²', so the digits after at most one '-' must be ASCII too.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
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


STR_SAFE = 10 ** (sys.int_info.str_digits_check_threshold - 1)  # the least 640-digit int; no limit refuses less
DIRECT_BITS = 4096  # Decimal(n), quadratic in the bits, is fast enough below this


def decimal_digits(n: int) -> str:
    """The decimal digits of n >= 0 in subquadratic time, past sys.get_int_max_str_digits() too.

    Below STR_SAFE it is str(n), which no setting of that limit refuses, and
    ``decimal`` is imported only past it.  str(n) refuses more digits than the
    limit (4,300 by default, which AD(169) exceeds), and Decimal(n) converts
    exactly but in quadratic time.  Past DIRECT_BITS, n = hi 2^w + lo with w
    half its bits, and the halves are joined in exact Decimal arithmetic, whose
    large products are subquadratic.
    """
    if n < STR_SAFE:
        return str(n)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext

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
    start = time.monotonic()
    if args.engine == "dp":
        # counted here so that patching cli.count_tilings_dp, as the benchmark's
        # fault-injection test does, reaches every dp count; 0 first when the colours do not balance
        count = count_tilings_dp(config.region()) if config.balanced else 0
    else:
        count = count_configuration(config, args.engine)
    millis = int((time.monotonic() - start) * 1000)
    digits = decimal_digits(count)
    if args.format == "json":
        import json

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
    import hashlib
    import random

    from .verify import SUITES

    checks = failures = 0
    first_failure = ""
    samples = hashlib.sha256()
    suite = SUITES[args.suite](args.max_a, args.max_b, args.trials, random.Random(args.seed))
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


# argparse's own default width, read once: HelpFormatter() alone queries the
# terminal, and building the full parser makes 14 of them
HELP_FORMATTER = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``SpecError`` rather than exit 2.

    Every ``_Parser``, the subparsers that argparse makes of its class among
    them, formats with ``HELP_FORMATTER``.
    """

    __init__ = functools.partialmethod(argparse.ArgumentParser.__init__, formatter_class=HELP_FORMATTER)

    def error(self, message: str):  # never returns
        raise SpecError(message)


def integer(text: str) -> int:
    """A flag's value as the spec grammar's INT; argparse names it in "invalid integer value"."""
    return _int(text, 0, text)


COMMANDS = {"count": cmd_count, "verify": cmd_verify, "render": cmd_render}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the subparser of ``command`` alone, or of every command when it is None.

    ``main`` names the command when its first argument is one, so a command
    call builds one subparser rather than all of ``COMMANDS``; a root-level
    call (``--help``, no arguments, an unknown command, a leading option or
    ``--``) takes the full parser, whose usage and help list every command.
    Only the full parser has the root's ``-h``: with the command first, every
    later token, ``-h`` too, goes to the command's subparser, so a command
    call could never reach it.
    """
    parser = _Parser(
        prog="aztec-tilings", add_help=command is None,
        description="Exact domino-tiling counts for Aztec diamonds and rectangles with defects.",
    )
    # with prog given, argparse formats no usage line to learn the subcommands' prefix
    sub = parser.add_subparsers(prog=parser.prog, dest="command", required=True)

    if command in (None, "count"):
        p_count = sub.add_parser("count", help="count tilings of a region spec")
        p_count.add_argument("spec")
        p_count.add_argument("--engine", choices=ENGINES, default=ENGINES[0], metavar="ENGINE",
                             help=f"one of {', '.join(ENGINES)} (default {ENGINES[0]})")
        p_count.add_argument("--format", choices=("dec", "json"), default="dec")

    if command in (None, "verify"):
        from .verify import SUITES

        p_verify = sub.add_parser("verify", help="run a cross-verification suite")
        p_verify.add_argument("suite", choices=SUITES)
        p_verify.add_argument("--max-a", type=integer, default=3, dest="max_a")
        p_verify.add_argument("--max-b", type=integer, default=5, dest="max_b")
        p_verify.add_argument("--seed", type=integer, default=0)
        p_verify.add_argument("--trials", type=integer, default=100)

    if command in (None, "render"):
        p_render = sub.add_parser("render", help="ASCII checkerboard rendering of a region spec")
        p_render.add_argument("spec")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the only place where an error becomes a message and an exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        return COMMANDS[args.command](args)
    except (SpecError, OutOfScopeConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SpecError) else 2


if __name__ == "__main__":
    sys.exit(main())
