"""The package's export list and the scripts in tools/."""

import ast
import hashlib
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import aztec_tilings
from aztec_tilings import ENGINES
from aztec_tilings.verify import SUITES

TOOLS = Path(__file__).resolve().parent.parent / "tools"
CODE_LINES = TOOLS / "code_lines.py"
CODE_LINE_CEILING = 1136


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from aztec_tilings import *", namespace)  # raises on a stale __all__ entry
    assert set(aztec_tilings.__all__) <= namespace.keys()
    assert len(set(aztec_tilings.__all__)) == len(aztec_tilings.__all__)


def test_no_module_imports_fractions():
    # every number the package computes is an int by construction
    for path in sorted(Path(aztec_tilings.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "fractions" for name in names), path.name


def test_every_module_level_cache_is_bounded():
    # a cache kept across counts must not grow with the number of counts
    caches = {}
    for info in pkgutil.iter_modules(aztec_tilings.__path__):
        module = importlib.import_module(f"aztec_tilings.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"formulas.ad_adjacent_sum", "formulas._ad_column", "condensation._sw_row"} <= caches.keys()
    assert all(maxsize is not None for maxsize in caches.values()), caches


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "mod.py").write_text(
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "import os\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        '    text = """a string that is\n'
        '    not a docstring"""\n'
        "    return x  # a trailing comment\n"
    )
    proc = subprocess.run(
        [sys.executable, str(CODE_LINES), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    counts = dict(line.split() for line in proc.stdout.splitlines())
    # import, def, the two lines of the string assigned to text, return
    assert counts == {"__init__.py": "0", "mod.py": "5", "total": "5"}


def test_package_stays_under_its_code_line_ceiling():
    # ROADMAP's ceiling: a change that grows the package past it fails here
    proc = subprocess.run([sys.executable, str(CODE_LINES)], capture_output=True, text=True)
    assert proc.returncode == 0
    total = int(proc.stdout.splitlines()[-1].split()[1])
    assert total <= CODE_LINE_CEILING, total


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _cli_transcripts():
    return _tool("cli_transcripts")


def test_every_catalogued_fault_names_text_of_todays_source():
    # tools/faults.py plants each fault by one text replacement; a fault whose
    # text has gone stale would plant nothing
    tool = _tool("faults")
    for name, module, old, new in tool.FAULTS:
        assert old != new and tool.occurrences(tool.REPO, module, old) == 1, name


def test_cli_transcripts_seeded_specs_are_distinct():
    tool = _cli_transcripts()
    specs = tool.seeded_specs()
    assert len(specs) == 32 + len(tool.MALFORMED)  # two per (a, b), then the malformed ones
    assert len(set(specs)) == len(specs)


def test_cli_transcripts_digest_every_engine_format_and_cell_limit(monkeypatch):
    tool = _cli_transcripts()
    monkeypatch.setenv("AZTEC_ORACLE_CELL_LIMIT", "7")
    lines = list(tool.spec_lines(["AD n=3", "AD n=0"]))
    assert os.environ["AZTEC_ORACLE_CELL_LIMIT"] == "7"  # restored after every run
    assert len(lines) == 2 * (1 + len(ENGINES) * 2 * 2)
    runs = {}
    for line in lines:
        argv, setting, code, digest = line.split(" | ")
        runs[argv, setting] = (code, digest)
    unset, twenty = "AZTEC_ORACLE_CELL_LIMIT unset", "AZTEC_ORACLE_CELL_LIMIT=20"
    diamond = "  .#\n .#.#\n.#.#.#\n#.#.#.\n #.#.\n  #.\n"
    assert runs["render 'AD n=3'", unset] == ("exit=0", _sha(diamond))
    for engine in ENGINES:
        assert runs[f"count 'AD n=3' --engine {engine} --format dec", unset] == ("exit=0", _sha("64\n"))
        json_run = runs[f"count 'AD n=3' --engine {engine} --format json", twenty]
        if engine != "brute":
            payload = f'{{"region": "AD n=3", "engine": "{engine}", "count": "64", "millis": 0}}\n'
            assert json_run == ("exit=0", _sha(payload))
        for fmt in ("dec", "json"):
            for setting in (unset, twenty):
                assert runs[f"count 'AD n=0' --engine {engine} --format {fmt}", setting][0] == "exit=1"
    # AD(3) has 24 cells: over a limit of 20, under the default 36
    assert runs["count 'AD n=3' --engine brute --format json", twenty][0] == "exit=2"


def test_cli_transcripts_run_every_verify_suite():
    tool = _cli_transcripts()
    assert [argv[:2] for argv in tool.VERIFY] == [["verify", suite] for suite in SUITES]
