"""Benchmark of `aztec-tilings count` on seeded workloads.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: the package is imported from ./src.
Counts are issued in-process through aztec_tilings.cli.main(argv) with stdout
captured, because interpreter start-up (~50 ms) would swamp the 1 ms counts.
One process with one thread issues them in a closed loop, each count after
the previous one returns.

--trace 0 times whole cycles of the workload's pool for at least --seconds
seconds and 100 counts and reports the end-to-end metrics, with times scaled
to a reference host speed (see calibration.py).  --trace 1 runs
the first cycles of the pool once untraced and once with per-layer spans
(see spans.py) and reports the per-layer metrics.  Afterwards every printed
count is compared with a reference: the stored one for seed 0, otherwise the
count of a second engine (see workloads.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Sequence

from calibration import at_reference_speed, calibrate
from spans import Tracer
from workloads import WORKLOADS, Argv, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 11
MIN_COUNTS = 100
CALIBRATION_EVERY_S = 0.1

Outcome = tuple[int, str]  # exit code, stdout (or the error) stripped
Job = tuple[str, Argv]  # spec, argv


def isolate_environment() -> str:
    """Drop inherited settings that change the counts; pin to one CPU."""
    limit = os.environ.pop("AZTEC_ORACLE_CELL_LIMIT", None)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return (
        f"python={sys.version.split()[0]} nproc={len(cpus)} pinned_cpu={cpus[-1]} "
        f"threads={threading.active_count()} "
        f"AZTEC_ORACLE_CELL_LIMIT={'unset' if limit is None else 'removed ' + repr(limit)}"
    )


def load_package() -> ModuleType:
    """Import aztec_tilings afresh from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "aztec_tilings"]:
        del sys.modules[name]
    package = importlib.import_module("aztec_tilings")
    importlib.import_module("aztec_tilings.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"aztec_tilings was imported from {package.__file__}, not {SRC}")
    return package


def call(main: Callable, argv: Argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a raised count is a failed count; keep counting
        return -1, traceback.format_exc()
    return code, out.getvalue().strip() if code == 0 else err.getvalue().strip()


def setup(workload: Workload, seed: int) -> tuple[list[float], ModuleType, list[str]]:
    """Import, generate the pool and warm up, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate(workload.calibration)
        start = perf_counter()
        package = load_package()
        specs = workload.specs(seed)
        call(package.cli.main, workload.warmup)
        elapsed = perf_counter() - start
        times.append(at_reference_speed(elapsed, before, calibrate(workload.calibration)))
    return times, package, specs


def timed_pass(
    main: Callable,
    jobs: Sequence[Job],
    cycle: int,
    seconds: float,
    min_counts: int,
    loop: Callable[[], None],
) -> tuple[list[Outcome], list[float], float]:
    """Run jobs in order, wrapping around, until whole cycles fill the time and count.

    Returns the outcomes, each count's latency at reference speed (scaled by
    the calibration loop timed before and after it) and the wall time of the
    pass on the host's clock.
    """
    outcomes: list[Outcome] = []
    latencies: list[float] = []
    calibrations = [calibrate(loop)]
    bracket: list[int] = []  # index of the calibration before each count
    start = last_calibration = perf_counter()
    while True:
        _, argv = jobs[len(outcomes) % len(jobs)]
        t0 = perf_counter()
        outcomes.append(call(main, argv))
        t1 = perf_counter()
        latencies.append(t1 - t0)
        bracket.append(len(calibrations) - 1)
        n = len(outcomes)
        if n % cycle == 0 and n >= min_counts and t1 - start >= seconds:
            break
        if t1 - last_calibration >= CALIBRATION_EVERY_S:
            calibrations.append(calibrate(loop))
            last_calibration = perf_counter()
    wall = perf_counter() - start
    calibrations.append(calibrate(loop))
    scaled = [
        at_reference_speed(t, calibrations[j], calibrations[j + 1])
        for t, j in zip(latencies, bracket)
    ]
    return outcomes, scaled, wall


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def pool_digest(specs: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(specs).encode()).hexdigest()


def stored_references(workload: Workload, seed: int, specs: Sequence[str]) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCES.is_file():
        return None
    stored = json.loads(REFERENCES.read_text())["workloads"].get(workload.name)
    if stored is None or stored["pool_sha256"] != pool_digest(specs):
        print("note: stored references do not match this pool", file=sys.stderr)
        return None
    return dict(zip(specs, stored["digests"]))


def second_engine_references(workload: Workload, main: Callable, specs) -> dict:
    """Digest of the count most of the workload's check engines agree on."""
    refs: dict[str, str | None] = {}
    for spec in dict.fromkeys(specs):
        argvs = workload.check(spec)
        texts = Counter(text for code, text in (call(main, a) for a in argvs) if code == 0)
        best = texts.most_common(1)
        refs[spec] = digest(best[0][0]) if best and 2 * best[0][1] > len(argvs) else None
    return refs


def count_failures(
    workload: Workload, seed: int, main: Callable, specs, jobs, outcomes
) -> int:
    """Counts that exited non-zero, raised or printed something else than the reference."""
    used = [jobs[i % len(jobs)] for i in range(len(outcomes))]
    refs = stored_references(workload, seed, specs)
    if refs is None:
        refs = second_engine_references(workload, main, [spec for spec, _ in used])
    failed = 0
    for (spec, argv), (code, text) in zip(used, outcomes):
        if code != 0 or digest(text) != refs.get(spec):
            if not failed:
                print(f"first failure: {' '.join(argv)!r} exit {code}: {text[:400]}", file=sys.stderr)
            failed += 1
    return failed


def measure(workload: Workload, seed: int, seconds: float) -> tuple[int, int, dict]:
    setup_times, package, specs = setup(workload, seed)
    jobs = workload.jobs(specs)
    main = package.cli.main
    outcomes, latencies, wall = timed_pass(
        main, jobs, workload.cycle, seconds, MIN_COUNTS, workload.calibration
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = count_failures(workload, seed, main, specs, jobs, outcomes)
    n = len(outcomes)
    metrics = {
        "counts_per_s": (n / sum(latencies), "1/s"),
        "count_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "count_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"# {n} counts in {wall:.3f} s on the host clock, {sum(latencies):.3f} s at "
          f"reference speed; percentiles over {n} samples; "
          f"setup_s is the median of {len(setup_times)} set-ups")
    print(f"failed_frac = {failed / n:.6g} ratio ({failed} of {n} counts failed)")
    return n, failed, metrics


def measure_traced(workload: Workload, seed: int) -> tuple[int, int, dict]:
    _, package, specs = setup(workload, seed)
    trace_specs = specs[: workload.trace_cycles * len(workload.rungs)]
    jobs = workload.jobs(trace_specs)
    main = package.cli.main
    plain, plain_latencies, _ = timed_pass(main, jobs, len(jobs), 0, 0, workload.calibration)
    tracer = Tracer(package)
    tracer.install()
    try:
        traced_main = tracer.span("cli", "cli.main", main)
        traced, traced_latencies, _ = timed_pass(
            traced_main, jobs, len(jobs), 0, 0, workload.calibration
        )
    finally:
        tracer.uninstall()
    outcomes = plain + traced
    failed = count_failures(workload, seed, main, specs, jobs + jobs, outcomes)
    metrics = tracer.metrics()
    plain_s, traced_s = sum(plain_latencies), sum(traced_latencies)
    metrics["trace.overhead_frac"] = (traced_s / plain_s, "ratio")
    print(f"# {len(jobs)} counts untraced in {plain_s:.3f} s, traced in {traced_s:.3f} s "
          "at reference speed")
    return len(outcomes), failed, metrics


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aztec_tilings" / "cli.py").is_file():
        print(f"error: {SRC / 'aztec_tilings'} not found; run from a checkout", file=sys.stderr)
        return 2
    environment = isolate_environment()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {environment}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = measure_traced(workload, args.seed)
    else:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
