"""Command-line interface: parsing, engines, rendering, verify suites."""

import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal

import pytest

from aztec_tilings import cli, condensation, geometry, make_aztec_rectangle, verify
from aztec_tilings.cli import DIRECT_BITS, SUITES, decimal_digits, main, parse_region_spec, SpecError


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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "AX n=3",
        "AD x=3",
        "AD n=zero",
        "AR a=3",
        "AR a=3 b=2",
        "AD n=2 remove=SE:9",
        "AD n=2 remove=XX:1",
        "AD n=2 remove=SE:1,SE:1",
        "AD n=2 extra=1",
        "ad n=2",
        "AD n=" + "9" * 4400,  # past Python's int-from-str digit limit
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(SpecError):
        parse_region_spec(text)


@pytest.mark.parametrize(
    "spec,token",
    [
        ("AD n=1_0", "token 1 'n=1_0'"),
        ("AD n=+2 remove=SE:0_1", "token 1 'n=+2'"),
        ("AD n=2 remove=SE:0_1", "token 2 'SE:0_1'"),
        ("AD n=\uff12", "token 1 'n=\uff12'"),
    ],
)
def test_spec_integers_are_ascii_digits(capsys, spec, token):
    # int() would read these as 10, 2, 1 and 2
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
    assert payload["engine"] == "auto"
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


def test_brute_cell_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("AZTEC_ORACLE_CELL_LIMIT", "10")
    code, _, err = run_cli(capsys, "count", "AD n=3", "--engine", "brute")
    assert code == 2
    assert "exceeds" in err
    monkeypatch.setenv("AZTEC_ORACLE_CELL_LIMIT", "40")
    code, out, _ = run_cli(capsys, "count", "AD n=3", "--engine", "brute")
    assert (code, out) == (0, "64\n")


def test_malformed_cell_limit_exit_1(capsys, monkeypatch):
    # only ASCII digits, as for a spec INT; int() alone would read "1_0" as 10
    for raw in ("forty", "-1", "1_0", "+5", " 7", "\uff11\uff10"):
        monkeypatch.setenv("AZTEC_ORACLE_CELL_LIMIT", raw)
        for argv in (("count", "AD n=3", "--engine", "brute"), ("verify", "formulas")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), (raw, argv)
            assert "AZTEC_ORACLE_CELL_LIMIT" in err


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
    # once refused: a gamma string past SE position b - a, counted as kasteleyn does
    for spec, count in (
        ("AR a=2 b=3 gamma=2 remove=NE:1", "2\n"),  # gamma 2 past b - a = 1
        ("AD n=3 gamma=1 remove=SW:2", "32\n"),  # gamma 1 on a diamond
        ("AR a=2 b=4 gamma=4 remove=NE:1,NE:2", "1\n"),  # the string runs to b
    ):
        kasteleyn = run_cli(capsys, "count", spec, "--engine", "kasteleyn")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == kasteleyn == (0, count, ""), spec
        assert run_cli(capsys, "count", spec) == kasteleyn


def test_pfaffian_counts_sw_alphas_with_gammas(capsys):
    # once refused: SW alphas with gammas, and alphas on both black sides with gammas
    for spec in (
        "AR a=2 b=4 gamma=1 remove=SE:2,SE:3,SW:1",
        "AR a=2 b=4 gamma=1 remove=SE:2,SE:3,SE:4,NE:1,SW:1",
    ):
        kasteleyn = run_cli(capsys, "count", spec, "--engine", "kasteleyn")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == kasteleyn, spec
        assert kasteleyn[0] == 0 and kasteleyn[1] != "0\n", spec


def test_pfaffian_counts_in_scope_gamma_specs(capsys):
    # NE alphas and the gamma string inside 1..b-a; the last two do not balance, so 0
    for spec in ("AR a=2 b=4 gamma=2 remove=SE:3,NE:1", "AR a=2 b=4 gamma=2", "AR a=2 b=4 gamma=1"):
        kasteleyn = run_cli(capsys, "count", spec, "--engine", "kasteleyn")
        assert run_cli(capsys, "count", spec, "--engine", "pfaffian") == kasteleyn, spec
        assert kasteleyn[0] == 0, spec


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


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aztec-tilings count")


def test_four_sided_spec_without_a_tileable_base_counts_0(capsys):
    # no 4-subset of the betas leaves a tileable AR(1, 5), so the spec has no tiling
    spec = "AR a=1 b=5 remove=NW:1,NW:2,NW:3,SE:1,SE:2,SE:3,NE:1,SW:1"
    for engine in ("pfaffian", "auto", "kasteleyn"):
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
    original = condensation._three_sided_row

    def off_by_one(*args):
        return [value + 1 if value else value for value in original(*args)]

    monkeypatch.setattr(condensation, "_three_sided_row", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "mt", "--trials", "5", "--seed", "1")
    assert code == 3
    assert "first counterexample" in out


def test_verify_ciucu_symdiff_fault_injection_detected(capsys, monkeypatch):
    original = condensation._pfaffian_quotient
    monkeypatch.setattr(condensation, "_pfaffian_quotient", lambda *args: original(*args) + 1)
    code, out, _ = run_cli(capsys, "verify", "ciucu", "--trials", "20", "--seed", "1")
    assert code == 3
    checks = SUITES["ciucu"](3, 5, 20, random.Random(1))
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
def test_verify_builds_diamonds_of_orders_2_to_max_a(capsys, monkeypatch, suite):
    orders = []

    def recording(a, b):
        orders.append((a, b))
        return make_aztec_rectangle(a, b)

    monkeypatch.setattr(verify, "make_aztec_rectangle", recording)
    code, out, err = run_cli(capsys, "verify", suite, "--max-a", "1", "--trials", "5")
    assert (code, out, orders) == (1, "", [])
    assert err.startswith("error: ") and "--max-a" in err
    for max_a in (2, 3):
        orders.clear()
        argv = ("verify", suite, "--max-a", str(max_a), "--trials", "30", "--seed", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "failures=0" in out
        assert {a for a, _ in orders} == set(range(2, max_a + 1))
        assert all(a == b for a, b in orders)


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
