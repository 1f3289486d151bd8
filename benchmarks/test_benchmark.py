"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, mirror_spec

BENCHMARK_JSON = run.HERE.parent / "BENCHMARK.json"


@pytest.fixture()
def package():
    return run.load_package()


def short_pass(package, workload, seed, cycles):
    specs = workload.specs(seed)
    jobs = workload.jobs(specs[: cycles * len(workload.rungs)])
    outcomes, _, _ = run.timed_pass(package.cli.main, jobs, len(jobs), 0, 0, workload.calibration)
    return specs, jobs, outcomes


@pytest.mark.parametrize("seed", [run.REFERENCE_SEED, 5])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_match_references(package, name, seed):
    workload = WORKLOADS[name]
    specs, jobs, outcomes = short_pass(package, workload, seed, 1)
    assert run.count_failures(workload, seed, package.cli.main, specs, jobs, outcomes) == 0


def _off_by_one(real):
    return lambda region: real(region) + 1


def _raises(real):
    def fail(region):
        raise ZeroDivisionError("injected")

    return fail


@pytest.mark.parametrize("fault", [_off_by_one, _raises])
@pytest.mark.parametrize("seed", [run.REFERENCE_SEED, 5])
def test_wrong_or_raised_count_is_a_failure(package, monkeypatch, seed, fault):
    workload = WORKLOADS["oracle-small"]
    monkeypatch.setattr(package.cli, "count_tilings_dp", fault(package.cli.count_tilings_dp))
    specs, jobs, outcomes = short_pass(package, workload, seed, 2)
    failed = run.count_failures(workload, seed, package.cli.main, specs, jobs, outcomes)
    # brute and pfaffian still agree, so exactly the dp counts fail
    assert failed == sum(1 for _, argv in jobs if argv[-1] == "dp") > 0


def test_mirror_spec_is_an_involution():
    for workload in WORKLOADS.values():
        for spec in workload.specs(3)[:20]:
            assert mirror_spec(mirror_spec(spec)) == spec


def test_stored_references_match_pools():
    stored = json.loads(run.REFERENCES.read_text())["workloads"]
    assert sorted(stored) == sorted(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert stored[name]["pool_sha256"] == run.pool_digest(workload.specs(run.REFERENCE_SEED))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat(name):
    workload = dataclasses.replace(WORKLOADS[name], trace_cycles=1)
    runs = [run.measure_traced(workload, 3) for _ in range(2)]
    counters = [
        {k: v for k, (v, _) in metrics.items() if not k.endswith("self_s") and k != "trace.overhead_frac"}
        for _, _, metrics in runs
    ]
    assert counters[0] == counters[1]
    assert counters[0]["cli.calls"] == workload.cycle
    assert all(failed == 0 for _, failed, _ in runs)


def test_tracer_restores_functions():
    workload = dataclasses.replace(WORKLOADS["four-sided"], trace_cycles=1)
    run.measure_traced(workload, 1)
    fresh = sys.modules["aztec_tilings"]
    assert fresh.condensation.boundary_cycle is fresh.dualgraph.boundary_cycle
    assert fresh.condensation.boundary_cycle.__module__ == "aztec_tilings.dualgraph"


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    _, _, traced = run.measure_traced(dataclasses.replace(WORKLOADS["oracle-small"], trace_cycles=1), 0)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in traced.items()}


def test_end_to_end_output_contract():
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle-small", "--seconds", "0.2"],
        cwd=run.HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_COUNTS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle-small", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
