"""Command-line interface: exact counts, cross-verification suites, rendering.

Region specs are single-line strings:

    ("AD" "n=" INT | "AR" "a=" INT "b=" INT) ["gamma=" INT] ["remove=" defect ("," defect)*]

with defect = SIDE ":" POSITION and SIDE one of NW, NE, SE, SW (case
sensitive), e.g. "AR a=4 b=7 remove=SE:2,SE:4,SE:7".  ``gamma=k`` glues the
string of k extra squares under the SE side starting at the south corner.

Exit codes: 0 success, 1 usage, parse or semantic error, 2 engine
inapplicable, 3 verification failure.  AZTEC_ORACLE_CELL_LIMIT (ASCII
digits, default 36) bounds the brute-force engine.

The commands only parse, call the library and print; they raise on error.
``main`` is the one place that turns an error into a message and an exit
code: ``SpecError``, argparse's usage errors among them, exits 1,
``OutOfScopeConfigurationError`` and ``CondensationInapplicableError`` exit
2.  A verify suite is a generator of ``(ok, description)`` checks that
``cmd_verify`` folds into one report line.
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
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from typing import Iterable, Iterator, NoReturn, Sequence

from .condensation import (
    ENGINES,
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
)
from .counting import count_matchings_brute, count_tilings_dp
from .dualgraph import boundary_cycle
from .errors import (
    AztecError,
    CondensationInapplicableError,
    InvalidConfigurationError,
    OutOfScopeConfigurationError,
)
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

DEFAULT_CELL_LIMIT = 36


class SpecError(ValueError):
    """Parse or semantic error in a region spec or setting; message names the token."""


def _int(text: str, index: int, item: str) -> int:
    """The spec grammar's INT, ASCII -?[0-9]+; int() alone would also take '1_0', '+2' or '２'."""
    if not re.fullmatch(r"-?[0-9]+", text):
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

    Every number is checked once, here, and the message names its token, so
    the final ``DefectConfiguration`` cannot fail.
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

    gammas: tuple[int, ...] = ()
    if index < len(tokens) and tokens[index].startswith("gamma="):
        k = _int_value(tokens, index, "gamma")
        if k < 0:
            raise SpecError(f"token {index} {tokens[index]!r}: need gamma >= 0")
        gammas = tuple(range(1, k + 1))
        try:
            DefectConfiguration(a, b, gammas=gammas)  # checks the string fits
        except AztecError as exc:
            raise SpecError(f"token {index} {tokens[index]!r}: {exc}") from None
        index += 1

    defects: dict[DefectSpec, None] = {}  # ordered set
    if index < len(tokens) and tokens[index].startswith("remove="):
        for item in tokens[index][len("remove="):].split(","):
            side, _, pos_text = item.partition(":")
            if side not in ("NW", "NE", "SE", "SW") or not pos_text:
                raise SpecError(f"token {index} {item!r}: expected SIDE:INT")
            pos = _int(pos_text, index, item)
            try:
                spec = DefectSpec(side, pos)
                boundary_cell(a, b, spec)
            except AztecError as exc:
                raise SpecError(f"token {index} {item!r}: {exc}") from None
            if spec in defects:
                raise SpecError(f"token {index} {item!r}: duplicate defect")
            defects[spec] = None
        index += 1
    if index < len(tokens):
        raise SpecError(f"token {index} {tokens[index]!r}: unexpected trailing token")
    betas = tuple(d for d in defects if d.kind == "beta")
    alphas = tuple(d for d in defects if d.kind == "alpha")
    return DefectConfiguration(a, b, betas, alphas, gammas)


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

    with localcontext(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact]):
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


Check = tuple[bool, str]  # (passed, description)


def _verify_formulas(max_a: int, max_b: int, trials: int, rng: random.Random) -> Iterator[Check]:
    brute_limit = min(_cell_limit(), 30)

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
        diamond = make_aztec_rectangle(a, a)
        pool.append(diamond)
        black = sorted(c for c in diamond.cells if not is_white(c))
        pool.append(Region.from_cells(diamond.cells - {black[0]}))
        pool.append(Region.from_cells(diamond.cells - {black[0], black[-1]}))
    done = 0
    attempts = 0
    while done < trials and attempts < trials * 200:
        attempts += 1
        region = pool[rng.randrange(len(pool))]
        cycle = boundary_cycle(region)
        if len(cycle) < 4:
            continue
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
        cycle = boundary_cycle(region)
        k = rng.randint(1, 3)
        if 2 * k > len(cycle):
            continue
        verts = [cycle[i] for i in sorted(rng.sample(range(len(cycle)), 2 * k))]
        direct = count_tilings_dp(Region.from_cells(region.cells - set(verts)))
        got = condensation_count(region, verts)
        yield got == direct, f"condensation a={a} verts={verts} {got}!={direct}"

        host = DefectConfiguration(a, a + 1, gammas=(1,)).region()
        hcycle = boundary_cycle(host)
        kk = rng.randint(1, 2)
        verts = [hcycle[i] for i in sorted(rng.sample(range(len(hcycle)), 2 * kk))]
        # the host minus its forced domino {gamma 1, SE 1}: colour-balanced, with tilings
        forced = {boundary_cell(a, a + 1, DefectSpec("SE", 1, kind)) for kind in ("beta", "gamma")}
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


def _compare(label: str, config: DefectConfiguration) -> Iterator[Check]:
    """The ``pfaffian`` count against the dp count.

    An exactness error fails the check; an inapplicable identity is no check.
    """
    want = count_tilings_dp(config.region())
    try:
        got = count_configuration(config, "pfaffian")
    except CondensationInapplicableError:
        return
    except AztecError as exc:
        yield False, f"{label}: {exc}"
        return
    yield got == want, f"{label}: {got}!={want}"


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
            config = DefectConfiguration(a, b, betas, alphas, tuple(range(1, g + 1)))
            label = f"three-sided a={a} b={b} gamma={g} {betas}/{alphas}"
            yield from _compare(label, config)

        blacks = [DefectSpec(s, p) for s in ("NE", "SW") for p in range(1, a + 1)]
        if k:  # alphas on both black sides of a rectangle: the nested four-sided route
            alphas = (DefectSpec("NE", rng.randint(1, a)), DefectSpec("SW", rng.randint(1, a)))
        else:
            alphas = tuple(rng.sample(blacks, rng.randint(1, 2)))
        config = DefectConfiguration(a, b, tuple(rng.sample(whites, len(alphas) + k)), alphas)
        yield from _compare(f"four-sided a={a} b={b}", config)

        nd = rng.randint(1, min(3, a))
        wd = tuple(rng.sample([DefectSpec(s, p) for s in ("NW", "SE") for p in range(1, a + 1)], nd))
        config = DefectConfiguration(a, a, wd, tuple(rng.sample(blacks, nd)))
        yield from _compare(f"diamond a={a} {wd}/{config.alphas}", config)


# each suite takes (max_a, max_b, trials, rng) and yields its checks in a fixed order
SUITES = {"formulas": _verify_formulas, "kuo": _verify_kuo, "ciucu": _verify_ciucu, "mt": _verify_mt}


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
    except (SpecError, OutOfScopeConfigurationError, CondensationInapplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SpecError) else 2


if __name__ == "__main__":
    sys.exit(main())
