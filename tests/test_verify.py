"""The verify suites as a library: check generators that the CLI only folds and prints."""

import collections
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from aztec_tilings import cli, condensation, verify
from aztec_tilings.dualgraph import boundary_cycle
from aztec_tilings.errors import InternalInconsistencyError

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_folds_to_the_report_main_prints(capsys, suite):
    checks = list(verify.SUITES[suite](3, 5, 20, random.Random(4)))
    samples = hashlib.sha256("".join(text + "\n" for _, text in checks).encode()).hexdigest()[:12]
    assert checks and all(ok for ok, _ in checks)
    argv = ["verify", suite, "--max-a", "3", "--max-b", "5", "--trials", "20", "--seed", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"suite={suite} checks={len(checks)} failures=0 samples={samples}\n"


def test_formulas_suite_stays_within_max_b():
    # each label names its rectangle's width: b, n, a + k, or a plus its family's fixed k
    fixed_k = {"se-nw": 2}
    checks = list(verify.SUITES["formulas"](3, 3, 1, random.Random(0)))
    assert checks and all(ok for ok, _ in checks)
    labels = set()
    for _, text in checks:
        label, _, rest = text.partition(" ")
        fields = {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", rest.split(":")[0])}
        width = fields.get("b") or fields.get("n") or fields["a"] + fields.get("k", fixed_k.get(label, 0))
        assert width <= 3, text
        labels.add(label)
    assert {"kept-se", "se-block-nw", "gamma-se"} <= labels


def test_formulas_suite_reaches_every_closed_form(monkeypatch):
    # the default suite sends a configuration to each closed form the formula engine can pick
    forms = ("count_aztec_diamond", "count_ar_kept_se", "count_ar_gamma_se_defect", "count_ar_gamma_nw_defect",
             "count_ad_adjacent_defects", "count_ar_se_nw_defects", "count_ar_se_block_nw_defect")
    calls = collections.Counter()

    def counted(name, form):
        return lambda *args: calls.update([name]) or form(*args)

    for name in forms:
        monkeypatch.setattr(condensation, name, counted(name, getattr(condensation, name)))
    assert all(ok for ok, _ in verify.SUITES["formulas"](3, 5, 1, random.Random(0)))
    assert {name for name in forms if not calls[name]} == set()


@pytest.mark.parametrize("max_a, max_b, checks", [(3, 5, 189), (5, 9, 1532)])
def test_formulas_suite_checks_each_configuration_once(monkeypatch, max_a, max_b, checks):
    # the families overlap (one SE cell off AR(a, a + 1) is kept-se, gammas 2..1 are none), and
    # the suite walks each shared configuration in one family only; every count is stubbed to 0
    calls = collections.Counter()
    monkeypatch.setattr(verify, "count_configuration", lambda config, engine: calls.update([config]) or 0)
    monkeypatch.setattr(verify, "count_tilings_dp", lambda region: 0)
    monkeypatch.setattr(verify, "count_tilings_paths", lambda region: 0)
    assert all(ok for ok, _ in verify.SUITES["formulas"](max_a, max_b, 1, random.Random(0)))
    assert (sum(calls.values()), len(calls)) == (checks, checks)


def test_cli_reads_the_library_suite_table(capsys, monkeypatch):
    # cli imports verify only to build and run the verify command, then looks each suite up there
    calls = []

    def stub(*args):
        calls.append(args[:3])
        return iter([(True, "first"), (False, "second")])

    monkeypatch.setitem(verify.SUITES, "stub", stub)
    assert cli.main(["verify", "stub", "--max-a", "2", "--max-b", "4", "--trials", "7"]) == 3
    samples = hashlib.sha256(b"first\nsecond\n").hexdigest()[:12]
    assert capsys.readouterr().out == (
        f"suite=stub checks=2 failures=1 samples={samples}\nfirst counterexample: second\n"
    )
    assert calls == [(2, 4, 7)]


def test_verify_does_not_import_cli():
    code = "import sys, aztec_tilings.verify; print('aztec_tilings.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("suite, hosts", [("kuo", 6), ("ciucu", 4)])
def test_kuo_and_ciucu_walk_each_host_once(suite, hosts):
    # kuo's pool holds AD(a), AD(a) - SW a and AD(a) - SW a - NE a; ciucu's hosts are
    # AD(a) and AR(a, a + 1) + gamma 1; a = 2, 3 for both.  Each check reads the
    # host's outer face again, through boundary_cycle's memo
    boundary_cycle.cache_clear()
    checks = list(verify.SUITES[suite](3, 5, 40, random.Random(5)))
    assert len(checks) >= 40 and all(ok for ok, _ in checks)
    info = boundary_cycle.cache_info()
    assert info.misses == info.currsize == hosts and info.hits >= 40


def _mt_draws(monkeypatch, max_a, max_b, trials, seed):
    """The configurations ``verify mt`` draws, with both of its counts stubbed out."""
    drawn = []
    monkeypatch.setattr(verify, "count_configuration", lambda config, engine: drawn.append(config) or 0)
    monkeypatch.setattr(verify, "count_tilings_dp", lambda region: 0)
    assert all(ok for ok, _ in verify.SUITES["mt"](max_a, max_b, trials, random.Random(seed)))
    assert len(drawn) == trials
    for c in drawn:
        assert c.a <= max_a and c.b <= max_b
        assert len(c.betas) - len(c.alphas) == c.b - c.a - len(c.gammas)  # the colours balance
    return drawn


def test_mt_draws_reach_the_whole_defect_space(monkeypatch):
    # each corner of the space drawn often at the CLI's defaults: k = b - a >= 3 needs b past a + 2
    families = {
        "k >= 3": lambda c, k, g: k >= 3,
        "an SW alpha with k > 0 and gammas": lambda c, k, g: k and g and "SW" in {d.side for d in c.alphas},
        "added gammas past k, starting past 1": lambda c, k, g: g and g[0] > 1 and g[-1] > k,
        "k = 0 with gammas": lambda c, k, g: not k and g,
    }
    drawn = _mt_draws(monkeypatch, 3, 5, 100, 0)  # verify mt's defaults
    for name, family in families.items():
        assert sum(bool(family(c, c.b - c.a, c.gammas)) for c in drawn) >= 11, name
    # a string that misses both a head and a tail of 1..k, at the transcripts' seeded call
    drawn = _mt_draws(monkeypatch, 6, 9, 400, 11)
    assert sum(bool(c.gammas) and 1 < c.gammas[0] and c.gammas[-1] < c.b - c.a for c in drawn) >= 11


def test_mt_reports_a_raising_pfaffian_as_a_failure(monkeypatch):
    # an error from the counter under test is a failed check that names it, not a crash of the suite
    def raising(config, engine):
        raise InternalInconsistencyError("injected")

    monkeypatch.setattr(verify, "count_configuration", raising)
    checks = list(verify.SUITES["mt"](2, 3, 5, random.Random(1)))
    assert len(checks) == 5
    assert all(not ok and text.startswith("mt a=") and text.endswith(": injected") for ok, text in checks)
