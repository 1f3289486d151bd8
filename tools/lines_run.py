"""Trace tier-1 and list the package's statements it never runs and its branches it takes one way only.

    python3 tools/lines_run.py

Runs tier-1 (``pytest -q`` over tests/) in this process under ``sys.settrace``
and ``threading.settrace``, tracing only frames whose file lies in
src/aztec_tilings, less those of comprehensions and lambdas, whose lines lie
inside their statements.  Statements come from ``ast``, docstrings left out.  A
statement ran if a line event fell on it: on any of its lines for a simple
statement, on its header for a compound one, decorators included.  An
``if``, ``for`` or ``while`` header went one way only if every step out of
it entered its body, or none did.  A step out is the frame's next line event
off the header, or the frame's return while on it; a step taken by an
exception is not counted.

A test that fails under the trace runs again untraced, as a time bound may
fail only for the trace's slowdown; if it fails there too, tier-1 fails.
Prints both lists, one ``MODULE:LINE  text`` a line, and exits 0 when each
equals its allowlist below, 1 when it does not or tier-1 fails.  Lines that
run only in a child process (the CLI tests that start ``python -m``) are not
seen.  The allowlists name lines by their text, so they outlast line shifts.
Stdlib only, but for pytest, which runs the suite here; the suite itself
needs pytest and hypothesis.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "aztec_tilings"
NEVER_RAN = {
    ("cli.py", "sys.exit(main())"),  # run as a script only, by the CLI tests' child processes
}
ONE_WAY = {
    ("cli.py", 'if __name__ == "__main__":'),  # true only in a child process
    ("dualgraph.py", "while True:"),  # the outer-face walk ends by its return
    ("dualgraph.py", "for h in range(heading - 1, heading + 3):"),  # a cell on a cycle always has a next step
}
BRANCHES = (ast.If, ast.For, ast.While)


class Failures:
    """A pytest plugin that keeps the node ids of the tests that fail."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.append(report.nodeid)


def trace_tier1() -> tuple[int, list[str], dict[str, set[tuple[int, int]]]]:
    """Pytest's exit code, the failed tests and each module's steps (from, to) between line events.

    A frame's first line event is a step from 0 and its return a step to 0;
    a line event after an exception is a step from -1.
    """
    steps: dict[str, set[tuple[int, int]]] = defaultdict(set)
    ours: dict[object, bool] = {}

    def call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            name = code.co_name
            ours[code] = Path(code.co_filename).resolve().parent == PACKAGE and (name == "<module>" or name[0] != "<")
        if not ours[code]:
            return None
        seen, last = steps[code.co_filename], 0

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                seen.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                seen.add((last, 0))
            elif event == "exception":
                last = -1
            return local

        return local

    os.chdir(REPO)
    sys.path.insert(0, str(REPO / "src"))
    failures = Failures()
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if Path(sys.modules["aztec_tilings"].__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"aztec_tilings was imported from outside {PACKAGE}")
    return code, failures.ids, steps


def first_line(node: ast.stmt) -> int:
    """A statement's first line, its decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def statements(tree: ast.Module):
    """Each statement but docstrings, with the lines on which it counts as run."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            first = first_line(node)
            body = getattr(node, "body", None)
            yield node, first, range(first, max(first, body[0].lineno - 1 if body else node.end_lineno) + 1)


def gaps(steps) -> tuple[list[tuple[str, int, str]], list[tuple[str, int, str]]]:
    """The statements that never ran and the branch headers that went one way only."""
    never, one_way = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        out = defaultdict(set)
        for line, to in steps.get(str(path), ()):
            out[line].add(to)
        ran = set().union(*out.values())
        for node, first, header in statements(ast.parse(source)):
            where = (path.name, first, text[first - 1].strip())
            if ran.isdisjoint(header):
                never.append(where)
            elif isinstance(node, BRANCHES) and node.body[0].lineno > header[-1]:
                entry = first_line(node.body[0])
                if len({to == entry for line in header for to in out[line] if to not in header}) < 2:
                    one_way.append(where)
    return sorted(never), sorted(one_way)


def main() -> int:
    start = time.perf_counter()
    code, failed, steps = trace_tier1()
    print(f"traced tier-1 in {time.perf_counter() - start:.1f} s, pytest exit {code}")
    if failed:  # a time bound may fail under the trace alone: such a test must pass untraced
        print(f"rerunning untraced the tests that failed under the trace: {failed}")
        code = pytest.main(["-q", "-p", "no:cacheprovider", *failed])
    if code:
        return 1
    never, one_way = gaps(steps)
    ok = True
    for title, found, allowed in (("never ran", never, NEVER_RAN), ("one way only", one_way, ONE_WAY)):
        print(f"{title}:")
        for module, line, source in found:
            print(f"  {module}:{line}  {source}{'' if (module, source) in allowed else '  <- not allowlisted'}")
        stale = allowed - {(module, source) for module, _, source in found}
        for module, source in sorted(stale):
            print(f"  allowlisted but not found: {module}  {source}")
        ok = ok and {(module, source) for module, _, source in found} == allowed and len(found) == len(allowed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
