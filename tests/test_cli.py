"""Command-line interface: parsing, engines, rendering, verify suites."""

import json
import os
import subprocess
import sys

import pytest

from aztec_tilings import condensation
from aztec_tilings.cli import main, parse_region_spec, SpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_plain_diamond():
    config = parse_region_spec("AD n=3")
    assert (config.a, config.b) == (3, 3)
    assert config.betas == () and config.alphas == () and config.gammas == ()


def test_parse_rectangle_with_removals():
    config = parse_region_spec("AR a=4 b=7 remove=SE:2,SE:4,SE:7")
    assert [d.position for d in config.betas] == [2, 4, 7]
    assert config.alphas == ()


def test_parse_gamma_augmented():
    config = parse_region_spec("AR a=4 b=9 gamma=5 remove=SE:3,NE:1")
    assert config.gammas == (1, 2, 3, 4, 5)
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
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(SpecError):
        parse_region_spec(text)


def test_parse_duplicate_defect_names_its_token():
    with pytest.raises(SpecError, match=r"^token 2 'SE:1': duplicate"):
        parse_region_spec("AD n=2 remove=SE:1,SE:1")


def test_count_dp_decimal(capsys):
    code, out, _ = run_cli(capsys, "count", "AD n=4")
    assert code == 0
    assert out == "1024\n"
    assert out.strip().isdigit()


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


def test_count_json_schema(capsys):
    code, out, _ = run_cli(capsys, "count", "AD n=4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["region", "engine", "count", "millis"]
    assert payload["region"] == "AD n=4"
    assert payload["engine"] == "dp"
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
    for raw in ("forty", "-1"):
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


def test_pfaffian_gamma_spec_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "count", "AR a=2 b=4 gamma=2 remove=SE:3,NE:1", "--engine", "pfaffian"
    )
    assert code == 2
    # gammas are refused before the colour-balance zero
    for spec in ("AR a=2 b=4 gamma=2", "AR a=2 b=4 gamma=1"):
        code, out, err = run_cli(capsys, "count", spec, "--engine", "pfaffian")
        assert (code, out) == (2, ""), spec
        assert err == "error: pfaffian engine works on plain AD/AR specs\n"


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
    original = condensation._three_sided_entry

    def off_by_one(a, k, d1, d2):
        value = original(a, k, d1, d2)
        return value + 1 if value else value

    monkeypatch.setattr(condensation, "_three_sided_entry", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "mt", "--trials", "5", "--seed", "1")
    assert code == 3
    assert "first counterexample" in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("mt", "--max-a", "0"), "--max-a"),
        (("formulas", "--max-a", "0"), "--max-a"),
        (("mt", "--max-a", "3", "--max-b", "1"), "--max-b"),
        (("kuo", "--trials", "0"), "--trials"),
    ],
)
def test_verify_rejects_empty_ranges_exit_1(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag in err


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
