"""The package's export list and the code-line counter in tools/."""

import subprocess
import sys
from pathlib import Path

import aztec_tilings

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from aztec_tilings import *", namespace)  # raises on a stale __all__ entry
    assert set(aztec_tilings.__all__) <= namespace.keys()
    assert len(set(aztec_tilings.__all__)) == len(aztec_tilings.__all__)


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
