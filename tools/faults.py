"""Plant each catalogued fault in a copy of the package and check that tier-1 fails.

    python3 tools/faults.py [NAME ...]

``FAULTS`` lists (name, module, old text, new text).  For each fault, or only
the named ones, the script copies src/, tests/, tools/, pyproject.toml,
README.md and the BENCH_*.json records into a temporary directory, replaces
the old text, which must occur exactly once in src/aztec_tilings/MODULE, and
runs ``python -m pytest -x -q`` there, less the test that checks this table
against the source, which any planted fault would fail.  A failing test
kills the fault.  The unchanged copy runs first and must pass.  Prints one
line per run with the seconds it took and the test that killed the fault, or
the test module that no longer collects under it, and exits 1 if any fault
survived or a run ended otherwise (a collection error, say), 2 for an
unknown name or a stale old text.  Stdlib only; the suite itself needs
pytest and hypothesis.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml", "README.md")
TABLE_TEST = "tests/test_package.py::test_every_catalogued_fault_names_text_of_todays_source"

FAULTS = (
    # the (beta, SW alpha) walk: an NW beta turned to SE s absorbs the white 2
    # ways below the top and 1 at q = a, which is one step of T from the constant
    # start row 2^a; the fault's weight 1 at every q is one step fewer from its suffix sums
    ("absorbed weight 2 made 1", "condensation.py",
     "(nw << a,) * a, pos - 1", "tuple((a - q) * nw << a for q in range(a)), pos - 2"),
    ("T's second term dropped", "condensation.py",
     "map(add, e[::-1], (0,) + e[:0:-1])", "iter(e[::-1])"),
    # a beta past k walks one step from its diamond row for each of the k peeled pairs
    ("the diamond start row walked k - 1 steps", "condensation.py",
     "b + 1 - pos)[:: 1 if nw else -1], k", "b + 1 - pos)[:: 1 if nw else -1], k - 1"),
    # the two-step Bareiss multipliers
    ("c1 dropped in _bareiss", "exactalg.py",
     "c0 * row_i[j] + c1 * rk1[j] + c2 * rk[j]", "c0 * row_i[j] + c2 * rk[j]"),
    ("c2's sign flipped in _bareiss", "exactalg.py",
     "c2, r2 = divmod(row_i[k + 1] * rk1[k] - row_i[k] * rk1[k + 1], p_prev)",
     "c2, r2 = divmod(row_i[k] * rk1[k + 1] - row_i[k + 1] * rk1[k], p_prev)"),
    ("a multiplier remainder ignored in _bareiss", "exactalg.py", "if r1 or r2:", "if r1:"),
    ("p_prev left behind in _bareiss", "exactalg.py",
     "        p_prev = c0\n", "        pass\n"),
    # the quotient and the Pfaffian's block
    ("2^(a g) dropped from the quotient's scale", "condensation.py",
     "scale = 2 ** (a * (a - 1) // 2 + a * len(missing))", "scale = 2 ** (a * (a - 1) // 2)"),
    ("column sign flip of _pfaffian_quotient reversed", "condensation.py",
     "row[:n] = map(neg, row[:n])", "row[n:] = map(neg, row[n:])"),
    # the gather: one _side_row lookup per run of one column side, read at the run's positions
    ("a side run drops its last position", "condensation.py",
     "[y.position - 1 for y in run]", "[y.position - 1 for y in run][:-1]"),
    # an added gamma t's row is the sum of the rows of SE t - 1 and SE t
    ("SE t - 1 dropped from an added gamma's row", "condensation.py",
     "for s in (pos - 1, pos) if s", "for s in (pos,) if s"),
    ("added gammas put in the column class", "condensation.py",
     'return d.kind == "beta" or d.kind == "gamma" and d.position > k', 'return d.kind == "beta"'),
    ("+1 on every (beta, SW alpha) entry", "condensation.py",
     "    return e\n", "    return tuple(x + 1 for x in e)\n"),
    ("the balance test removed", "condensation.py",
     "    if not config.balanced:\n        return 0\n", ""),
    ("SE t - 1 replaced by SE t + 1 in an added gamma's row", "condensation.py",
     "for s in (pos - 1, pos) if s", "for s in (pos + 1, pos) if s"),
    # one fault per entry zone of the row builder _side_row
    ("NE row not reversed for an NW beta", "condensation.py",
     "[:: -1 if nw else 1] if pos > k", "[::1] if pos > k"),
    ("diamond index off by one against NE", "condensation.py",
     "ad_adjacent_row(a, pos - k)", "ad_adjacent_row(a, pos - k + 1)"),
    ("diamond index off by one against SW", "condensation.py",
     "ad_adjacent_row(a, b + 1 - pos)", "ad_adjacent_row(a, b - pos)"),
    ("SW diamond row not reversed for an SE beta", "condensation.py",
     "[:: 1 if nw else -1]", "[::1]"),
    ("+1 on every (beta, NE alpha) entry", "condensation.py",
     "ad_adjacent_row(a, pos - k)[:: -1 if nw else 1] if pos > k",
     "tuple(e + 1 for e in ad_adjacent_row(a, pos - k)[:: -1 if nw else 1]) if pos > k"),
    ("(beta, NE alpha) forcing zero made 1", "condensation.py",
     "if pos > k else (0,) * a", "if pos > k else (1,) * a"),
    ("+1 on every (beta, gamma) entry", "condensation.py",
     "return (ar_gamma_nw_row if nw else ar_gamma_se_row)(a, k, pos)",
     "return tuple(e + 1 for e in (ar_gamma_nw_row if nw else ar_gamma_se_row)(a, k, pos))"),
    ("NW and SE gamma rows swapped", "condensation.py",
     "ar_gamma_nw_row if nw else ar_gamma_se_row", "ar_gamma_se_row if nw else ar_gamma_nw_row"),
    # one fault per formulas helper
    ("_comb's zero below d = 0 made 1", "formulas.py",
     "if d >= 0 else 0", "if d >= 0 else 1"),
    # the power every count takes from the diamond's, and its order test
    ("count_aztec_diamond takes an order below 1", "formulas.py",
     "if type(n) is not int or n < 1:", "if type(n) is not int:"),
    # the gamma rows: the SE row's prefix sums and its d <= 0 zone, the NW row's
    # binomial sums, the block sum's, and the NW row's zeros past the beta
    ("ar_gamma_se_row's d <= 0 zone made 2", "formulas.py",
     "return (1,) * j", "return (2,) * j"),
    ("ar_gamma_se_row's second binomial shifted", "formulas.py",
     "math.comb(n + d - 1, d - 1)", "math.comb(n + d, d - 1)"),
    ("ar_gamma_se_row's prefix sums dropped", "formulas.py",
     "tuple(accumulate(terms))", "tuple(terms)"),
    ("the SE-block NW sum drops its t = 1 term", "formulas.py",
     "range(max(1, i - a), min(k, i) + 1)", "range(max(2, i - a), min(k, i) + 1)"),
    ("the SE-block NW sum's second binomial shifted", "formulas.py",
     "math.comb(a + t - 2, a - 1)", "math.comb(a + t - 1, a - 1)"),
    ("ar_gamma_nw_row's second binomial shifted", "formulas.py",
     "math.comb(a + t - p, a)", "math.comb(a + t - p - 1, a)"),
    ("(NW beta, gamma) forcing zero made 1", "formulas.py",
     "+ (0,) * (k - m)", "+ (1,) * (k - m)"),
    ("ad_adjacent_row drops the 2^m weight", "formulas.py",
     "<< m << w * m", "<< w * m"),
    ("ad_adjacent_row's slot too narrow for its entries", "formulas.py",
     "w, p = 2 * a, 0", "w, p = a + 1, 0"),
    # the two faults of the row memo: a key that leaves out the label's side, and no bound
    ("the row memo keyed by (a, b, position, side)", "condensation.py",
     "@functools.lru_cache(maxsize=2048)\ndef _side_row(",
     "MEMO: dict = {}\n\n\n@functools.lru_cache(maxsize=2048)\n"
     "@lambda f: lambda a, b, label, side: MEMO.setdefault((a, b, label.position, side), f(a, b, label, side))\n"
     "def _side_row("),
    ("the row memo given maxsize=None", "condensation.py",
     "@functools.lru_cache(maxsize=2048)", "@functools.lru_cache(maxsize=None)"),
    # a configuration's region is the AR(a, b) box 0 <= u <= 2b, 0 <= v <= 2a, odd u + v
    ("the box drops its NE column u = 2b", "geometry.py",
     "for u in range(2 * b + 1)", "for u in range(2 * b)"),
    # the side -> class table of DefectSpec
    ("SE mapped to alpha", "geometry.py", '"SE": "beta"', '"SE": "alpha"'),
    # a configuration takes only DefectSpecs of each tuple's class, each once
    ("the DefectSpec type test dropped", "geometry.py",
     "type(d) is not DefectSpec or d.kind != kind", "d.kind != kind"),
    ("the duplicate check keyed on the side alone", "geometry.py",
     "d in seen:\n" + " " * 20 + "_check_position(a, b, d)  # raises when out of range\n" + " " * 20
     + 'raise InvalidDefectError("duplicate defect", d)\n' + " " * 16 + "seen.add(d)",
     "d.side in seen:\n" + " " * 20 + "_check_position(a, b, d)  # raises when out of range\n" + " " * 20
     + 'raise InvalidDefectError("duplicate defect", d)\n' + " " * 16 + "seen.add(d.side)"),
    # the help width, read once at import
    ("help formatter reads the terminal per formatter", "cli.py",
     "functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)",
     "argparse.HelpFormatter"),
    # a command call builds the root and its own subparser, a root-level call all of them
    ("a command call builds every subparser", "cli.py",
     'sub = parser.add_subparsers(prog=parser.prog, dest="command", required=True)\n',
     'sub = parser.add_subparsers(prog=parser.prog, dest="command", required=True)\n    command = None\n'),
    ("a root-level call builds one subparser", "cli.py",
     "argv[0] if argv and argv[0] in COMMANDS else None", 'argv[0] if argv and argv[0] in COMMANDS else "count"'),
    # only a root-level call can reach the root's -h, so only the full parser builds it
    ("the root parser builds -h on a command call", "cli.py",
     "add_help=command is None", "add_help=True"),
    # the brute-force oracle: the lowest unmatched cell against each free neighbour
    ("brute branches only on the lowest cell's first neighbour", "counting.py",
     "            nbrs ^= wbit\n", "            nbrs = 0\n"),
    ("brute adjacency misses the (u + 1, v - 1) edge", "counting.py",
     "for dv in (-1, 1):  # each edge once", "for dv in (1,):  # each edge once"),
    # the outer-face memo that condensation and verify share
    ("the outer-face memo given maxsize=None", "dualgraph.py",
     "@functools.lru_cache(maxsize=64)", "@functools.lru_cache(maxsize=None)"),
    # the profile sweep: each uncovered cell's two partners, and a covered cell's shift
    ("the sweep's (u + 1, v - 1) partner dropped", "counting.py",
     "for d in (width - 1, width + 1)", "for d in (width + 1,)"),
    ("a covered cell's bit kept instead of shifted out", "counting.py",
     "m = mask >> gap", "m = mask"),
    # the colour tests: a region whose white cells are not half of it counts 0 without a sweep
    ("count_tilings_dp's colour test removed", "counting.py",
     "if 2 * sum(u % 2 for u, _ in cells) != len(cells):", "if False:"),
    ("count_matchings_brute's colour test removed", "counting.py",
     "if 2 * sum(u % 2 for u, _ in cells) != n:", "if False:"),
    # the brute-force engine counts configurations of up to BRUTE_CELLS cells, that many included
    ("the brute-force bound refuses BRUTE_CELLS cells", "condensation.py",
     "if config.size > BRUTE_CELLS:", "if config.size >= BRUTE_CELLS:"),
    # the path determinant: its sources, its sinks, the steps to the next strip and the lines it takes
    ("paths' sources at a run's top", "counting.py",
     "x % 2 and (x - 1, y - 1) not in index", "x % 2 and (x - 1, y + 1) not in index"),
    ("paths' sinks at a run's foot", "counting.py",
     "not x % 2 and (x + 1, y + 1) not in index", "not x % 2 and (x + 1, y - 1) not in index"),
    ("paths' step to place y - 1 of the next strip dropped", "counting.py",
     "(x + 1, y - 1), (x + 1, y + 1)) if x % 2", "(x + 1, y + 1)) if x % 2"),
    ("paths takes the lines that are more", "counting.py",
     "len({v for _, v in cells}) < len({u for u, _ in cells})",
     "len({v for _, v in cells}) > len({u for u, _ in cells})"),
    # the outer-face walk's right-hand rule: right, straight, left, back
    ("boundary_cycle turns left first", "dualgraph.py",
     "for h in range(heading - 1, heading + 3)", "for h in range(heading + 1, heading - 3, -1)"),
    # gamma 1 hangs off the cut vertex SE 1, so it ranks right after SE 1
    ("perimeter_index ranks gamma 1 before SE 1", "geometry.py",
     "2 * u if u else 3", "2 * u if u else 1"),
    # the dp branch of cmd_count tests the colours before it builds the region
    ("the dp branch's balance test removed", "cli.py",
     "count_tilings_dp(config.region()) if config.balanced else 0", "count_tilings_dp(config.region())"),
    # formula's one-pair diamond: reverse i for an SW alpha, and j when exactly
    # one of "alpha on NE" and "beta on SE" holds
    ("formula's i flip keyed to the beta", "condensation.py",
     "i = beta.position if ne else", 'i = beta.position if beta.side == "SE" else'),
    ("formula's j flip dropped", "condensation.py",
     'j = alpha.position if ne == (beta.side == "SE") else a + 1 - alpha.position', "j = alpha.position"),
    # the alternating identity: M(G) M(G + all) plus the pair terms, a_{j+1} with sign (-1)^j
    ("the alternating identity's pair signs flipped", "condensation.py",
     "total += (-1) ** j * m_of", "total += (-1) ** (j + 1) * m_of"),
    # ciucu's symmetric-difference base is AR(a, a + 1) minus SE 1, the gamma host less its forced domino
    ("ciucu's base keeps SE 1", "verify.py",
     'DefectConfiguration(a, a + 1, (DefectSpec("SE", 1),))', "DefectConfiguration(a, a + 1, ())"),
    # a cell's coordinates are ints, bools excluded, with an odd sum
    ("Region.from_cells takes any coordinates", "geometry.py",
     "if type(c.u) is not int or type(c.v) is not int or (c.u + c.v) % 2 == 0:", "if (c.u + c.v) % 2 == 0:"),
    # formula's SE-only family keeps the positions no SE beta removes
    ("formula's kept positions skip one SE beta", "condensation.py",
     ".difference(p for _, p in removed)", ".difference(p for _, p in removed[1:])"),
    # verify formulas sends a configuration to every closed form: one family's loop dropped
    ("verify formulas drops the gamma-nw family", "verify.py",
     'yield check(DefectConfiguration(a, b, nw, gammas=gammas), f"gamma-nw a={a} k={k} i={i}")', "pass"),
    # formula's gamma families: the string 2..k with one SE cell removed, or one NW cell
    ("formula's gamma SE and NW closed forms swapped", "condensation.py",
     'family = count_ar_gamma_se_defect if beta.side == "SE" else count_ar_gamma_nw_defect',
     'family = count_ar_gamma_nw_defect if beta.side == "SE" else count_ar_gamma_se_defect'),
    ("formula's gamma string starts at 1", "condensation.py",
     "if gammas == range(2, k + 1) and", "if gammas == range(1, k + 1) and"),
    # the spec grammar's INT is ASCII -?[0-9]+
    ("the spec integer test takes any digit", "cli.py",
     "digits.isascii() and digits.isdigit()", "digits.isdigit()"),
    # gamma=k keeps gammas 1..k
    ("the spec parser drops gamma k", "cli.py",
     "gammas = range(1, k + 1)", "gammas = range(1, k)"),
)


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "aztec_tilings" / module


def occurrences(root: Path, module: str, old: str) -> int:
    """How many times the old text occurs in the module under root."""
    return module_path(root, module).read_text().count(old)


def run_suite(fault: tuple[str, str, str, str] | None) -> tuple[int, float, str]:
    """The exit code, seconds and first failed test or module of ``pytest -x -q`` on a faulted copy."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for item in COPIED + tuple(path.name for path in REPO.glob("BENCH_*.json")):
            if (REPO / item).is_dir():
                shutil.copytree(REPO / item, root / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(REPO / item, root / item)
        if fault:
            _, module, old, new = fault
            path = module_path(root, module)
            path.write_text(path.read_text().replace(old, new))
        start = time.perf_counter()
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--deselect", TABLE_TEST]
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, seconds, failed[0] if failed else ""


def main(names: list[str]) -> int:
    faults = [f for f in FAULTS if not names or f[0] in names]
    if names and len(faults) != len(names):
        print(f"unknown fault names; known: {[f[0] for f in FAULTS]}")
        return 2
    stale = [f[0] for f in faults if occurrences(REPO, f[1], f[2]) != 1]
    if stale:
        print(f"old text not found exactly once: {stale}")
        return 2
    code, seconds, _ = run_suite(None)
    print(f"baseline: {'passed' if code == 0 else f'exit {code}'} in {seconds:.1f} s")
    if code:
        return 1
    ok = True
    for fault in faults:
        code, seconds, failed = run_suite(fault)
        verdict = {0: "survived", 1: f"killed by {failed}"}.get(code, f"exit {code}")
        print(f"{fault[0]}: {verdict} in {seconds:.1f} s")
        ok = ok and code == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
