"""Command-line interface: parsing, engines, rendering, verify suites."""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from aztec_tilings import cli, condensation, geometry, verify
from aztec_tilings.cli import DIRECT_BITS, decimal_digits, main, parse_region_spec, SpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_plain_diamond():
    config = parse_region_spec("AD n=3")
    assert (config.a, config.b) == (3, 3)
    assert config.betas == () and config.alphas == () and config.gammas == range(0)


def test_parse_rectangle_with_removals():
    config = parse_region_spec("AR a=4 b=7 remove=SE:2,SE:4,SE:7")
    assert [d.position for d in config.betas] == [2, 4, 7]
    assert config.alphas == ()


def test_parse_gamma_augmented():
    config = parse_region_spec("AR a=4 b=9 gamma=5 remove=SE:3,NE:1")
    assert config.gammas == range(1, 6)
    assert len(config.betas) == 1 and len(config.alphas) == 1


BAD_SPECS = {  # a malformed spec and the start of its message, which names the token at fault
    "": "empty region spec",
    "AX n=3": "token 0 'AX': ",
    "AD x=3": "token 1 'x=3': ",
    "AD n=zero": "token 1 'n=zero': ",
    "AR a=3": "token 0 'AR': ",
    "AR a=3 b=2": "token 2 'b=2': ",
    "AD n=2 remove=SE:9": "token 2 'SE:9': ",
    "AD n=2 remove=XX:1": "token 2 'XX:1': ",
    "AD n=2 remove=SE:1,SE:1": "token 2 'SE:1': ",
    "AD n=2 extra=1": "token 2 'extra=1': ",
    "ad n=2": "token 0 'ad': ",
    "AD n=" + "9" * 4400: "token 1 'n=999",  # past Python's int-from-str digit limit
    "AD": "token 0 'AD': missing n=INT",
    "AD n=2 gamma=-1": "token 2 'gamma=-1': need gamma >= 0",
    "AR a=2 b=3 gamma=5": "token 3 'gamma=5': gamma string 1..5 does not fit",
    "AD n=2 remove=SE:0": "token 2 'SE:0': position must be >= 1",
}


@pytest.mark.parametrize("text", list(BAD_SPECS))
def test_parse_rejects_bad_specs(text):
    with pytest.raises(SpecError) as info:
        parse_region_spec(text)
    assert str(info.value).startswith(BAD_SPECS[text])


@pytest.mark.parametrize(
    "spec,token",
    [
        ("AD n=1_0", "token 1 'n=1_0'"),
        ("AD n=+2 remove=SE:0_1", "token 1 'n=+2'"),
        ("AD n=2 remove=SE:0_1", "token 2 'SE:0_1'"),
        ("AD n=\uff12", "token 1 'n=\uff12'"),
        ("AD n=-", "token 1 'n=-'"),
        ("AD n=--1", "token 1 'n=--1'"),
        ("AD n=\u0663", "token 1 'n=\u0663'"),
    ],
)
def test_spec_integers_are_ascii_digits(capsys, spec, token):
    # int() would read the first four as 10, 2, 1 and 2, and the last as 3;
    # a lone or doubled minus sign has no digits after the one "-" the grammar allows
    code, out, err = run_cli(capsys, "render", spec)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {token}: ") and err.endswith(" is not an integer\n")


def test_parse_duplicate_defect_names_its_token():
    with pytest.raises(SpecError, match=r"^token 2 'SE:1': duplicate"):
        parse_region_spec("AD n=2 remove=SE:1,SE:1")


def test_parse_builds_no_cells(monkeypatch):
    # each defect is checked once, by arithmetic: no boundary cell and no Cell at all
    def no_cells(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(geometry, "boundary_cell", no_cells)
    monkeypatch.setattr(geometry, "Cell", no_cells)
    items = [f"{side}:{p}" for side in ("NW", "SE", "NE", "SW") for p in range(3, 40, 4)]
    config = parse_region_spec("AD n=40 remove=" + ",".join(items))
    assert len(config.betas) == len(config.alphas) == 20
    assert [f"{d.side}:{d.position}" for d in config.betas + config.alphas] == items
    with pytest.raises(SpecError, match=r"^token 2 'SW:41': SW position 41 out of range 1\.\.40$"):
        parse_region_spec("AD n=40 remove=" + ",".join(items) + ",SW:41")


def test_count_dp_decimal(capsys):
    code, out, _ = run_cli(capsys, "count", "AD n=4")
    assert code == 0
    assert out == "1024\n"
    assert out.strip().isdigit()


def test_count_dp_goes_through_the_cli_binding(capsys, monkeypatch):
    # the benchmark's fault injection patches cli.count_tilings_dp and needs
    # every dp count to reach it
    monkeypatch.setattr(cli, "count_tilings_dp", lambda region: 12345)
    assert run_cli(capsys, "count", "AD n=4", "--engine", "dp") == (0, "12345\n", "")


def test_count_of_an_unbalanced_spec_builds_no_region(capsys):
    # 10^5 - 3 white cells too many: dp and brute print 0 from the colour test alone,
    # which comes before brute's cell bound
    spec = "AR a=1 b=100000 remove=SE:1,SE:2"
    for engine in ("dp", "brute"):
        start = time.perf_counter()
        assert run_cli(capsys, "count", spec, "--engine", engine) == (0, "0\n", ""), engine
        assert time.perf_counter() - start < 0.05, engine


@pytest.mark.parametrize("fmt", ["dec", "json"])
def test_count_past_the_int_str_digit_limit(capsys, fmt):
    # 2^14365 has 4,325 digits, more than Python's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "count", "AD n=169", "--format", fmt)
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    digits = json.loads(out)["count"] if fmt == "json" else out.rstrip("\n")
    assert len(digits) == 4325
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == 2 ** (169 * 170 // 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_digits_split_matches_direct_conversion():
    rng = random.Random(5)
    for bits in (0, 1, DIRECT_BITS, DIRECT_BITS + 1, 2 * DIRECT_BITS + 1, 5 * DIRECT_BITS + 3):
        for n in (2**bits, 2**bits - 1, rng.getrandbits(bits + 1) | 1):
            assert decimal_digits(n) == str(Decimal(n)), (bits, n.bit_length())


def test_decimal_digits_under_the_lowest_str_digit_limit():
    # str(n) is taken only below 640 digits, which no limit refuses; past them Decimal converts
    n = 3**2100 + 1  # 1,002 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    try:
        digits = [decimal_digits(m) for m in (n, cli.STR_SAFE - 1, cli.STR_SAFE)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert digits == [str(Decimal(m)) for m in (n, cli.STR_SAFE - 1, cli.STR_SAFE)]
    assert [len(d) for d in digits] == [1002, 639, 640]


def test_count_brute(capsys):
    code, out, _ = run_cli(capsys, "count", "AR a=2 b=3 remove=SE:2", "--engine", "brute")
    assert (code, out) == (0, "16\n")


def test_count_formula_families(capsys):
    assert run_cli(capsys, "count", "AD n=4", "--engine", "formula")[1] == "1024\n"
    assert run_cli(capsys, "count", "AR a=2 b=3 remove=SE:2", "--engine", "formula")[1] == "16\n"
    assert run_cli(capsys, "count", "AD n=2 remove=SE:2,NE:2", "--engine", "formula")[1] == "6\n"
    # unbalanced region: checkerboard zero
    assert run_cli(capsys, "count", "AR a=2 b=4", "--engine", "formula")[1] == "0\n"


def test_count_pfaffian(capsys):
    code, out, _ = run_cli(capsys, "count", "AD n=2 remove=SE:2,NE:2", "--engine", "pfaffian")
    assert (code, out) == (0, "6\n")
    code, out, _ = run_cli(
        capsys, "count", "AR a=2 b=3 remove=SE:1,NW:2,NE:1,SW:2", "--engine", "pfaffian"
    )
    assert code == 0
    want = run_cli(capsys, "count", "AR a=2 b=3 remove=SE:1,NW:2,NE:1,SW:2")[1]
    assert out == want


def test_count_sw_alpha_over_a_long_host_is_quick(capsys):
    # the (beta, SW alpha) entries take O(k a) additions per beta; as a bordered
    # determinant over a k x k block they took O(k^3): 2.0 s at b = 202 and
    # 330 s here (Python 3.11, one core)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", "AR a=2 b=1002 gamma=999 remove=SW:1,SE:1001,NW:3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "80\n")


def test_count_of_nw_betas_past_a_long_missing_gamma_string_is_quick(capsys):
    # 200 NW betas past the 200 gammas the string leaves out, 3,640 cells: each
    # beta's gamma row is one pass of suffix sums; entry by entry it took O(k^3)
    # binomials a row, 195 s (Python 3.11, one core), where paths takes 0.4 s
    spec = "AR a=4 b=404 gamma=200 remove=" + ",".join(f"NW:{p}" for p in range(205, 405))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", spec)
    assert time.perf_counter() - start < 5
    assert (code, out) == (0, "1024\n")
    assert run_cli(capsys, "count", spec, "--engine", "paths")[:2] == (0, "1024\n")


def test_formula_count_of_many_se_betas_is_quick(capsys):
    # the kept SE positions are one set difference; a membership test of each of the
    # b positions against the list of removed defects took 1.8 s here (Python 3.11, one core)
    spec = "AR a=4 b=10004 remove=" + ",".join(f"SE:{p}" for p in range(1, 10001))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", spec, "--engine", "formula")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (0, "1024\n")


@pytest.mark.parametrize("gamma", [10**9, 10**19])  # the second is past sys.maxsize
def test_count_of_a_long_gamma_string_is_quick(capsys, gamma):
    # the string is a range end to end; as a tuple, 4 * 10^5 squares took 90 MiB
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", f"AR a=1 b={gamma + 1} gamma={gamma}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "2\n")


def test_count_json_schema(capsys):
    code, out, _ = run_cli(capsys, "count", "AD n=4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["region", "engine", "count", "millis"]
    assert payload["region"] == "AD n=4"
    assert payload["engine"] == "pfaffian"
    assert payload["count"] == "1024"
    assert isinstance(payload["millis"], int)


def test_count_parse_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "count", "AD n=2 remove=SE:9")
    assert code == 1
    assert "SE:9" in err


def test_engines_agree_on_gamma_spec(capsys):
    spec = "AR a=2 b=4 gamma=2 remove=SE:3,NE:1"
    dp = run_cli(capsys, "count", spec)[1]
    brute = run_cli(capsys, "count", spec, "--engine", "brute")[1]
    assert dp == brute


def test_brute_cell_limit_exit_2(capsys):
    # the bound is the library's, condensation.BRUTE_CELLS; AD(4) has 40 cells, AD(3) 24
    refused = "error: 40 cells exceeds the brute-force limit 36\n"
    assert run_cli(capsys, "count", "AD n=4", "--engine", "brute") == (2, "", refused)
    assert run_cli(capsys, "count", "AD n=3", "--engine", "brute") == (0, "64\n", "")


def test_brute_cell_limit_past_sys_maxsize_exit_2():
    # the size is taken by arithmetic, so a balanced region past sys.maxsize cells is refused,
    # not a traceback: AR(1, b) has 3b + 1 cells and its b - 1 gammas make 4b = 2^64
    b = 2**62
    proc = subprocess.run(
        [sys.executable, "-m", "aztec_tilings.cli", "count", f"AR a=1 b={b} gamma={b - 1}", "--engine", "brute"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {2**64} cells exceeds the brute-force limit {condensation.BRUTE_CELLS}\n"


def test_formula_unrecognized_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "AD n=3 remove=SE:1,SE:2,NE:1,NE:2", "--engine", "formula")
    assert code == 2
    for spec in (
        "AR a=2 b=4 remove=SE:1,SE:3,NW:2,SW:2",  # SW-only alphas
        "AR a=2 b=3 remove=SE:1,NW:2,SE:3,NE:1,SW:2",  # NE and SW alphas
        "AD n=3 remove=SE:1,NW:3,SW:2,NE:3",  # diamond, two pairs, one alpha on SW
        "AR a=2 b=4 gamma=2 remove=SE:3,NE:1",  # gamma host with defects
    ):
        code, out, err = run_cli(capsys, "count", spec, "--engine", "formula")
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: no closed form"), spec


def test_pfaffian_counts_gamma_specs_past_b_minus_a(capsys):
    # once refused: a gamma string past SE position b - a, counted as paths does
    for spec, count in (
        ("AR a=2 b=3 gamma=2 remove=NE:1", "2\n"),  # gamma 2 past b - a = 1
        ("AD n=3 gamma=1 remove=SW:2", "32\n"),  # gamma 1 on a diamond
        ("AR a=2 b=4 gamma=4 remove=NE:1,NE:2", "1\n"),  # the string runs to b
    ):
        paths = run_cli(capsys, "count", spec, "--engine", "paths")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == paths == (0, count, ""), spec
        assert run_cli(capsys, "count", spec) == paths


def test_pfaffian_counts_sw_alphas_with_gammas(capsys):
    # once refused: SW alphas with gammas, and alphas on both black sides with gammas
    for spec in (
        "AR a=2 b=4 gamma=1 remove=SE:2,SE:3,SW:1",
        "AR a=2 b=4 gamma=1 remove=SE:2,SE:3,SE:4,NE:1,SW:1",
    ):
        paths = run_cli(capsys, "count", spec, "--engine", "paths")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == paths, spec
        assert paths[0] == 0 and paths[1] != "0\n", spec


def test_pfaffian_counts_in_scope_gamma_specs(capsys):
    # NE alphas and the gamma string inside 1..b-a; the last two do not balance, so 0
    for spec in ("AR a=2 b=4 gamma=2 remove=SE:3,NE:1", "AR a=2 b=4 gamma=2", "AR a=2 b=4 gamma=1"):
        paths = run_cli(capsys, "count", spec, "--engine", "paths")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == paths, spec
        assert paths[0] == 0, spec


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "formulas", "--max-a", "abc"),
        ("verify", "formulas", "--max-a", "1_0"),  # the spec grammar's INT, so no "_" or "+"
        ("verify", "mt", "--seed", "+2"),
        ("count",),
        ("count", "AD n=2", "--engine", "nope"),
        ("frobnicate",),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_count_engine_kasteleyn_is_an_invalid_choice(capsys):
    # neither the deleted engine nor the deleted second name of pfaffian
    for engine in ("kasteleyn", "auto"):
        code, out, err = run_cli(capsys, "count", "AD n=2", "--engine", engine)
        assert (code, out) == (1, ""), engine
        assert err.startswith(f"error: argument --engine: invalid choice: '{engine}'"), engine


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aztec-tilings count")


def test_commands_read_the_terminal_size_only_at_import(capsys, monkeypatch):
    # argparse's HelpFormatter() queries the terminal, and the full parser makes
    # 14 of them, a count's parsers 4; the width is read once, when cli is imported
    calls, get_terminal_size = [], shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls.append(args)
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    assert run_cli(capsys, "count", "AD n=2") == (0, "8\n", "")
    assert run_cli(capsys, "render", "AD n=1")[0] == 0
    assert calls == []


FULL_PARSER = ["-h", "count", "-h", "verify", "-h", "render", "-h"]


@pytest.mark.parametrize(
    "argv, built",
    [
        (["count", "AD n=2"], ["count", "-h"]),
        (["verify", "kuo", "--max-a", "2", "--trials", "1"], ["verify", "-h"]),
        (["render", "AD n=1"], ["render", "-h"]),
        (["--help"], FULL_PARSER),
        ([], FULL_PARSER),
        (["frobnicate"], FULL_PARSER),
    ],
)
def test_a_command_call_builds_only_its_subparser(capsys, monkeypatch, argv, built):
    # root-level calls take the full parser, so their usage lists every command;
    # each "-h" follows the subparser that builds it, and a leading one is the
    # root's, which a command call never reaches and so does not build
    added, add_parser = [], argparse._SubParsersAction.add_parser
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    def helping(self, *args, **kwargs):
        if "-h" in args:
            added.append("-h")
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", helping)
    try:
        main(argv)
    except SystemExit:  # --help
        pass
    capsys.readouterr()
    assert added == built


def _help(command, columns):
    proc = subprocess.run(
        [sys.executable, "-m", "aztec_tilings.cli", command, "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, COLUMNS=str(columns), PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    return proc.stdout.splitlines()


def test_columns_at_process_start_sets_the_help_wrap():
    # argparse wraps at COLUMNS - 2, breaking usage only between its groups
    narrow = _help("count", 60)
    indent = " " * len("usage: aztec-tilings count ")
    assert narrow[:2] == ["usage: aztec-tilings count [-h] [--engine ENGINE]", indent + "[--format {dec,json}]"]
    wide = _help("count", 200)
    assert wide[0] == "usage: aztec-tilings count [-h] [--engine ENGINE] [--format {dec,json}] spec"
    assert wide[1] == ""


@pytest.mark.parametrize("command", ["count", "verify", "render"])
def test_help_fits_a_60_column_terminal(command):
    # the --engine choices go in its help text, which wraps, rather than in the usage group, which does not
    lines = _help(command, 60)
    assert max(map(len, lines)) <= 58, [line for line in lines if len(line) > 58]
    if command == "count":
        text = " ".join(" ".join(lines).split())
        assert f"one of {', '.join(condensation.ENGINES)} (default pfaffian)" in text


def test_a_count_call_loads_neither_verify_nor_unused_stdlib():
    # a count runs no suite, hashes nothing, prints dec and a count of fewer than 640 digits
    code = (
        "import sys; from aztec_tilings.cli import main; main(['count', 'AD n=6 remove=SE:2,NE:3']); "
        "print(*sorted({'aztec_tilings.verify', 'dataclasses', 'hashlib', 'json', 'decimal', 'typing'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1900544\n\n", "")


def test_four_sided_spec_without_a_tileable_base_counts_0(capsys):
    # no 4-subset of the betas leaves a tileable AR(1, 5), so the spec has no tiling
    spec = "AR a=1 b=5 remove=NW:1,NW:2,NW:3,SE:1,SE:2,SE:3,NE:1,SW:1"
    for engine in ("pfaffian", "paths"):
        assert run_cli(capsys, "count", spec, "--engine", engine) == (0, "0\n", ""), engine


def test_render_diamond_order_one(capsys):
    code, out, _ = run_cli(capsys, "render", "AD n=1")
    assert code == 0
    assert out == ".#\n#.\n"


def test_render_rectangle_fixture(capsys):
    code, out, _ = run_cli(capsys, "render", "AR a=2 b=3")
    assert code == 0
    assert out == "  .#\n .#.#\n.#.#.\n#.#.\n #.\n"


def test_render_marks_defects_and_gammas(capsys):
    code, out, _ = run_cli(capsys, "render", "AR a=2 b=3 gamma=1 remove=SE:3,NE:1")
    assert code == 0
    assert out == "  .A\n .#.#\n.#.#B\n#.#.\n #.\n  g\n"


def test_render_shape_matches_rectangle_staircase(capsys):
    _, out, _ = run_cli(capsys, "render", "AR a=4 b=10")
    lines = out.splitlines()
    assert len(lines) == 14  # a + b rows
    assert max(len(l) for l in lines) == 14  # a + b columns
    assert lines[0].strip() == ".#"


def test_render_gamma_bumps_along_se_side(capsys):
    _, out, _ = run_cli(capsys, "render", "AR a=4 b=9 gamma=5")
    lines = out.splitlines()
    assert sum(line.count("g") for line in lines) == 5
    assert len(lines) == 14  # one extra row under the a + b staircase


def test_render_too_large_exit_1(capsys):
    code, _, err = run_cli(capsys, "render", "AR a=150 b=151")
    assert code == 1


@pytest.mark.parametrize("suite", ["formulas", "kuo", "ciucu", "mt"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(
        capsys, "verify", suite, "--max-a", "2", "--max-b", "4", "--trials", "20", "--seed", "1"
    )
    assert code == 0
    assert f"suite={suite}" in out
    assert "failures=0" in out


def test_verify_fault_injection_detected(capsys, monkeypatch):
    original = condensation._three_sided_block

    def off_by_one(*args):
        return [[value + 1 if value else value for value in row] for row in original(*args)]

    monkeypatch.setattr(condensation, "_three_sided_block", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "mt", "--trials", "5", "--seed", "1")
    assert code == 3
    assert "first counterexample" in out


def test_verify_ciucu_symdiff_fault_injection_detected(capsys, monkeypatch):
    original = condensation._pfaffian_quotient
    monkeypatch.setattr(condensation, "_pfaffian_quotient", lambda *args: original(*args) + 1)
    code, out, _ = run_cli(capsys, "verify", "ciucu", "--trials", "20", "--seed", "1")
    assert code == 3
    checks = verify.SUITES["ciucu"](3, 5, 20, random.Random(1))
    assert any(not ok and text.startswith("symdiff") for ok, text in checks)


def test_verify_kuo_fault_injection_detected(capsys, monkeypatch):
    original = condensation._cells_count
    monkeypatch.setattr(condensation, "_cells_count", lambda cells: original(cells) + 1)
    code, out, _ = run_cli(capsys, "verify", "kuo", "--trials", "20", "--seed", "1")
    assert code == 3
    assert "first counterexample: kuo " in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("mt", "--max-a", "0"), "--max-a"),
        (("formulas", "--max-a", "0"), "--max-a"),
        (("mt", "--max-a", "3", "--max-b", "1"), "--max-b"),
        (("kuo", "--trials", "0"), "--trials"),
        (("ciucu", "--trials", "0"), "--trials"),
        (("mt", "--trials", "0"), "--trials"),
    ],
)
def test_verify_rejects_empty_ranges_exit_1(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("suite", ["kuo", "ciucu"])
def test_verify_builds_diamonds_of_orders_2_to_max_a(capsys, suite):
    # each check names its order: ciucu's by a=, kuo's by the cell count of its host,
    # AD(a) with 0, 1 or 2 cells removed, and 2a(a + 1) - 2 > 2(a - 1)a for a >= 2
    def order(description):
        if suite == "ciucu":
            return int(re.search(r" a=(\d+) ", description)[1])
        cells = int(re.search(r" on (\d+) cells ", description)[1])
        (a,) = [a for a in range(2, cells) if 0 <= 2 * a * (a + 1) - cells <= 2]
        return a

    code, out, err = run_cli(capsys, "verify", suite, "--max-a", "1", "--trials", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--max-a" in err
    for max_a in (2, 3):
        code, out, _ = run_cli(capsys, "verify", suite, "--max-a", str(max_a), "--trials", "30", "--seed", "2")
        descriptions = [d for _, d in verify.SUITES[suite](max_a, max_a, 30, random.Random(2))]
        digest = hashlib.sha256("".join(d + "\n" for d in descriptions).encode()).hexdigest()[:12]
        assert code == 0 and f"failures=0 samples={digest}" in out
        assert {order(d) for d in descriptions} == set(range(2, max_a + 1))


def test_verify_formulas_ignores_trials(capsys):
    # the formulas suite never reads --trials, so 0 is no error there
    args = ("verify", "formulas", "--max-a", "2", "--max-b", "3", "--trials")
    code, out, err = run_cli(capsys, *args, "0")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *args, "1")
    assert out.startswith("suite=formulas ") and "failures=0" in out


@pytest.mark.parametrize("suite", ["kuo", "ciucu"])
def test_verify_ignores_max_b_where_unused(capsys, suite):
    # kuo and ciucu never read --max-b, so its default of 5 does not bound --max-a
    code, out, err = run_cli(capsys, "verify", suite, "--max-a", "6", "--trials", "5")
    assert (code, err) == (0, "")
    assert out.startswith(f"suite={suite} ") and "failures=0" in out


def test_verify_transcript_deterministic(capsys):
    args = ("verify", "mt", "--trials", "15", "--seed", "9")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_verify_report_names_its_samples(capsys):
    lines = []
    for seed in ("11", "12"):
        code, out, _ = run_cli(capsys, "verify", "kuo", "--max-a", "6", "--trials", "40", "--seed", seed)
        assert code == 0
        assert out.startswith("suite=kuo checks=40 failures=0 samples=")
        lines.append(out)
    assert lines[0] != lines[1]


@pytest.mark.parametrize(
    "spec,engines",
    [
        ("AD n=3", ("dp", "brute", "formula")),
        ("AR a=2 b=4 remove=SE:2,SE:3", ("dp", "brute", "formula")),
        ("AR a=2 b=4 remove=SE:2,SE:3,NW:1,NE:2", ("dp", "brute", "pfaffian")),
        ("AD n=2 remove=NW:1,SW:2", ("dp", "brute", "formula", "pfaffian")),
        ("AR a=2 b=3 remove=SE:1,NW:3,SW:1", ("dp", "brute", "pfaffian")),
        ("AR a=2 b=4 remove=SE:1", ("dp", "brute", "formula", "pfaffian")),  # unbalanced: 0
        ("AR a=2 b=4 gamma=2", ("dp", "brute", "formula")),
        ("AR a=2 b=4 remove=SE:1,SE:3,NW:2,SW:2", ("dp", "brute", "pfaffian")),
        ("AR a=2 b=3 remove=SE:1,NW:2,SE:3,NE:1,SW:2", ("dp", "brute", "pfaffian")),
        ("AD n=3 remove=SE:1,NW:3,SW:2,NE:3", ("dp", "brute", "pfaffian")),
    ],
)
def test_applicable_engines_agree(capsys, spec, engines):
    outputs = set()
    for engine in engines:
        code, out, _ = run_cli(capsys, "count", spec, "--engine", engine)
        assert code == 0, (spec, engine)
        outputs.add(out)
    assert len(outputs) == 1, (spec, outputs)


def test_console_entry_point():
    # the child imports the package this test imported, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "aztec_tilings.cli", "count", "AD n=2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert proc.stdout == "8\n"
