"""The package's export list, the scripts in tools/ and the README's map of the package."""

import ast
import hashlib
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import aztec_tilings
from aztec_tilings import ENGINES
from aztec_tilings.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
CODE_LINES = TOOLS / "code_lines.py"
CODE_LINE_CEILING = 996


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
    assert caches.keys() == {"condensation._side_row", "dualgraph.boundary_cycle"}
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


def test_readme_lines_are_short_and_its_results_table_names_real_code():
    # the README is the map of the package: its rows stay short, and each result it
    # reproduces names the function that computes it and the tier-1 test that checks it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [line for line in readme.splitlines() if len(line) > 200] == []
    section = readme.split("## What it reproduces\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]  # past the header
    assert len(rows) >= 4
    for row in rows:
        (module, function), = re.findall(r"`aztec_tilings\.(\w+)\.(\w+)`", row)
        (path, test), = re.findall(r"`(tests/\w+\.py)::(\w+)`", row)
        assert callable(getattr(importlib.import_module(f"aztec_tilings.{module}"), function, None)), row
        assert re.search(rf"^def {test}\(", (ROOT / path).read_text(), re.MULTILINE), row


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


def test_cli_transcripts_digest_every_engine_and_format():
    tool = _cli_transcripts()
    lines = list(tool.spec_lines(["AD n=3", "AD n=0", "AD n=4"]))
    assert len(lines) == 3 * (1 + len(ENGINES) * 2)
    runs = {}
    for line in lines:
        argv, code, digest = line.split(" | ")
        runs[argv] = (code, digest)
    diamond = "  .#\n .#.#\n.#.#.#\n#.#.#.\n #.#.\n  #.\n"
    assert runs["render 'AD n=3'"] == ("exit=0", _sha(diamond))
    for engine in ENGINES:
        assert runs[f"count 'AD n=3' --engine {engine} --format dec"] == ("exit=0", _sha("64\n"))
        payload = f'{{"region": "AD n=3", "engine": "{engine}", "count": "64", "millis": 0}}\n'
        assert runs[f"count 'AD n=3' --engine {engine} --format json"] == ("exit=0", _sha(payload))
        for fmt in ("dec", "json"):
            assert runs[f"count 'AD n=0' --engine {engine} --format {fmt}"][0] == "exit=1"
    # AD(4) has 40 cells, over the brute-force engine's 36
    refused = _sha("error: 40 cells exceeds the brute-force limit 36\n")
    assert runs["count 'AD n=4' --engine brute --format json"] == ("exit=2", refused)


def test_cli_transcripts_run_every_verify_suite():
    tool = _cli_transcripts()
    assert [argv[:2] for argv in tool.VERIFY] == [["verify", suite] for suite in SUITES]


def test_cli_transcripts_run_the_root_and_every_command_help():
    tool = _cli_transcripts()
    assert tool.HELP[0] == ["--help"]
    lines = [tool.run(argv).split(" | ") for argv in tool.HELP]
    assert [line[:2] for line in lines] == [[" ".join(argv), "exit=0"] for argv in tool.HELP]
    assert len({line[2] for line in lines}) == len(lines)  # each prints its own help


def test_cli_transcripts_pin_the_root_level_and_command_usage_errors():
    # the calls that take the full parser, then command calls failing in their one subparser
    tool = _cli_transcripts()
    codes = [tool.run(argv).split(" | ")[1] for argv in tool.SHAPES]
    assert codes == ["exit=0" if argv == ["-h", "count"] else "exit=1" for argv in tool.SHAPES]
    assert {"count", "verify", "render"} <= {argv[0] for argv in tool.SHAPES if argv}


def test_cli_transcripts_count_nw_betas_past_a_missing_gamma_string():
    tool = _cli_transcripts()
    (argv,) = tool.LONG
    assert tool.run(argv).split(" | ")[1:] == ["exit=0", _sha("1024\n")]
