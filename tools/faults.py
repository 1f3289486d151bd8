"""Plant each catalogued fault in a copy of the package and check that tier-1 fails.

    python3 tools/faults.py [NAME ...]

``FAULTS`` lists (name, module, old text, new text).  For each fault, or only
the named ones, the script copies src/, tests/, tools/ and pyproject.toml
into a temporary directory, replaces the old text, which must occur exactly
once in src/aztec_tilings/MODULE, and runs ``python -m pytest -x -q`` there,
less the test that checks this table against the source, which any planted
fault would fail.  A failing test kills the fault.  The unchanged copy runs
first and must pass.  Prints one line per run with the seconds it took and
the test that killed the fault, and exits 1 if any fault survived or a run
ended otherwise (a collection error, say), 2 for an unknown name or a stale
old text.  Stdlib only; the suite itself needs pytest and hypothesis.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
TABLE_TEST = "tests/test_package.py::test_every_catalogued_fault_names_text_of_todays_source"

FAULTS = (
    # the (beta, SW alpha) walk: an NW beta turned to SE s absorbs the white 2
    # ways below the top and 1 at q = a, which is one step of T from q = a
    ("absorbed weight 2 made 1", "condensation.py",
     "[0] * (a - 1) + [nw << a], pos - 1", "[nw << a] * a, pos - 2"),
    ("T's second term dropped", "condensation.py",
     "v = list(map(add, s, s[1:]))", "v = s[:-1]"),
    ("e(q + 1) dropped", "condensation.py",
     "v, steps = list(map(add, e, e[1:])), k - 1", "v, steps = e[:-1], k - 1"),
    # the two-step Bareiss multipliers
    ("c1 dropped in _bareiss", "exactalg.py",
     "c0 * row_i[j] + c1 * rk1[j] + c2 * rk[j]", "c0 * row_i[j] + c2 * rk[j]"),
    ("c2's sign flipped in _bareiss", "exactalg.py",
     "c2 = exact_quotient(row_i[k + 1]", "c2 = -exact_quotient(row_i[k + 1]"),
    ("p_prev left behind in _bareiss", "exactalg.py",
     "        p_prev = c0\n", "        pass\n"),
    # the quotient and the Pfaffian's block
    ("2^(a g) dropped from the quotient's scale", "condensation.py",
     "scale = 2 ** (a * (a - 1) // 2 + a * len(missing))", "scale = 2 ** (a * (a - 1) // 2)"),
    ("column sign flip of _bipartite_pfaffian reversed", "condensation.py",
     "[-e for e in entries[:before]] + entries[before:]",
     "entries[:before] + [-e for e in entries[before:]]"),
    # an added gamma t's row is the sum of the rows of SE t - 1 and SE t
    ("SE t - 1 dropped from an added gamma's row", "condensation.py",
     "for s in (pos - 1, pos) if s", "for s in (pos,) if s"),
    ("added gammas put in the column class", "condensation.py",
     'return d.kind == "beta" or d.kind == "gamma" and d.position > k', 'return d.kind == "beta"'),
    ("+1 on every (beta, SW alpha) entry", "condensation.py",
     "entries.append(sw_row[p - 1])", "entries.append(sw_row[p - 1] + 1)"),
    ("the balance test removed", "condensation.py",
     "return _pfaffian_count(config) if _balanced(config) else 0", "return _pfaffian_count(config)"),
)


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "aztec_tilings" / module


def occurrences(root: Path, module: str, old: str) -> int:
    """How many times the old text occurs in the module under root."""
    return module_path(root, module).read_text().count(old)


def run_suite(fault: tuple[str, str, str, str] | None) -> tuple[int, float, str]:
    """The exit code, seconds and first failed test of ``pytest -x -q`` on a copy with the fault planted."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for item in COPIED:
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
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
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
