"""Record the reference outputs that run.py checks each job against.

Usage (from the repository root):

    python3 bench/record_reference.py

For each workload of workloads.py and seeds 0-31 this sets up, runs the job
once, checks its sum rule and stores the numbers `checks.reference_values`
picks (global means, sensitive_asv, cumulative_asv) in bench/reference.json. Record from a commit whose outputs are known to be right;
later commits are then held to them within checks.REFERENCE_ATOL.
"""

from __future__ import annotations

import json
import sys
import time

from checks import REFERENCE_FILE, check_output, reference_values
from run import RUN_DEADLINE_S, Runner, work_dir
from workloads import WORKLOADS

SEEDS = range(32)


def record(workload, seed: int) -> dict:
    with work_dir(f"reference-{workload.name}-seed{seed}") as workdir:
        runner = Runner(workdir, time.perf_counter() + RUN_DEADLINE_S)
        for commands in (workload.setup(seed), [workload.job(seed, "out.json")]):
            child = runner.spawn(commands)
            if child.code != 0:
                raise RuntimeError(f"{workload.name} seed {seed}: exit code {child.code}\n{child.tail()}")
        doc = json.loads((workdir / "out.json").read_text())
    problems = check_output(workload.kind, doc, workload.n_points)
    if problems:
        raise RuntimeError(f"{workload.name} seed {seed}: {problems}")
    return reference_values(workload.kind, doc)


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            reference.setdefault(name, {})[str(seed)] = record(workload, seed)
            print(f"recorded {name} seed {seed}", file=sys.stderr, flush=True)
            REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
