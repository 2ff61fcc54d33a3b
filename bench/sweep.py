"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage (from the repository root):

    python3 bench/sweep.py [--trajectory LABEL]

For every workload of BENCHMARK.json and seeds 0-9 this runs
`bench/run.py --trace 0` with the run_seconds of BENCHMARK.json, one run at a
time, and prints for each metric the median, the quartiles and the quartile
spread as a share of the median, next to the metric's bound. With --trajectory the summary is appended to
bench/trajectory.json under LABEL.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
SEEDS = range(10)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {}
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in SEEDS:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=True)
            elapsed = time.perf_counter() - start
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                samples[name].append(metric["value"])
            print(f"{workload} seed {seed} ({elapsed:.0f} s): " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()), flush=True)
        point[workload] = {name: summarise(vals) for name, vals in samples.items()}
        for name, s in point[workload].items():
            print(f"  {workload:28s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f} (bound {bounds[name]})", flush=True)
        if failed:
            print(f"  {workload}: {failed} failed jobs", flush=True)
    if args.trajectory:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        history.append({"label": args.trajectory, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
                        "run_seconds": spec["run_seconds"], "workloads": point})
        TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
