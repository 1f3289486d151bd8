"""Record the stored references: one count digest per spec of each seed-0 pool.

    python3 benchmarks/record_references.py [WORKLOAD ...]

Run it from the root of a checkout after changing a workload's pool.  Every
spec is counted by each engine the workload times and by each of its check
engines, and is recorded only when all of them print the same count.
"""

from __future__ import annotations

import json
import sys
from typing import Callable

import run
from workloads import WORKLOADS, Workload


def record(workload: Workload, main: Callable) -> dict:
    specs = workload.specs(run.REFERENCE_SEED)
    digests: dict[str, str] = {}
    for spec in dict.fromkeys(specs):
        argvs = [argv for _, argv in workload.jobs([spec])] + list(workload.check(spec))
        outcomes = {run.call(main, argv) for argv in argvs}
        code, text = next(iter(outcomes))
        if len(outcomes) != 1 or code != 0:
            raise SystemExit(f"{workload.name}: engines disagree on {spec!r}: {sorted(outcomes)}")
        digests[spec] = run.digest(text)
    return {"pool_sha256": run.pool_digest(specs), "digests": [digests[s] for s in specs]}


def main(names: list[str]) -> int:
    package = run.load_package()
    if run.REFERENCES.is_file():
        data = json.loads(run.REFERENCES.read_text())
    else:
        data = {"seed": run.REFERENCE_SEED, "workloads": {}}
    for name in names or sorted(WORKLOADS):
        data["workloads"][name] = record(WORKLOADS[name], package.cli.main)
        run.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(data['workloads'][name]['digests'])} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
