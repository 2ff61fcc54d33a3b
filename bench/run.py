"""Benchmark of the asymshap command line on one seeded workload.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and described in BENCHMARK.json. Every
step runs `asymshap.cli.main` from ./src in a fresh process (child.py), one at
a time, with `ASYMSHAP_WORKERS` cleared and BLAS/OpenMP threads capped at the
number of usable cores.

--trace 0 alternates set-up (gen-data + train in one process) and the job for
S seconds, at least MIN_JOBS times each, so that set-ups, like jobs, are
sampled across the whole run. It reports the end-to-end metrics: setup_s is
the fastest set-up's wall time from spawn to exit, so work moved into interpreter start or package import shows
there; peak_rss_mb is the median job high-water mark; job_s and cpu_s are the
fastest job's, timed around `cli.main` after the imports. Fastest, because
interference from other tenants of a shared host only ever adds time, and it
comes in phases of seconds to minutes that slow everything by up to ~45%. On
a 2-vCPU Xeon VM, over ten seeds of explain_exact_markov8, the best job of a
30 s run spread 0.06 (quartile distance over median) where the median job
spread 0.15.

--trace 1 sets up once and then alternates an untraced and a traced job for S
seconds, at least once each. The traced job runs with tracer.py's wrappers
installed and gives the per-layer metrics; trace.overhead_s is the median
traced job time minus the median untraced one. The trace self-check requires
the traced counts to equal the counts the program writes into its output, and
every span the workload declares to fire.

Every job's output is checked (checks.py): its sum rule, the recorded reference
for the seed when there is one, and byte identity with the run's first job. A
job that exits non-zero, raises, or fails a check counts as failed.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
Work files go to .bench_build/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import attribution_part, check_output, check_reference, load_reference, normalized_bytes
from tracer import BOUNDARIES, LAYERS
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

MIN_JOBS = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


class HarnessError(Exception):
    """The benchmark cannot run here (no package, or set-up failed)."""


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ASYMSHAP_WORKERS", None)
    threads = str(usable_cores())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


@dataclass
class ChildRun:
    code: int
    wall_s: float  # spawn to exit, as the parent sees it
    rss_mb: float  # the child's high-water resident set
    result: dict | None  # what child.py reported, None if it wrote nothing
    log: Path

    def tail(self, lines: int = 15) -> str:
        text = self.log.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])


class Runner:
    """Spawns child.py processes in one work directory, one at a time."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def spawn(self, commands: list[list[str]], trace: bool = False) -> ChildRun:
        self.count += 1
        tag = f"child{self.count}"
        result_path = self.workdir / f"{tag}.result.json"
        log = self.workdir / f"{tag}.log"
        spec = {"src": str(SRC), "commands": commands, "trace": trace, "result": str(result_path)}
        argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if result_path.is_file():
            with open(result_path) as fh:
                result = json.load(fh)
        return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, result, log)


def trace_problems(workload: Workload, doc: dict, summary: dict) -> list[str]:
    """The trace self-check: traced counts equal the output's own counts, and
    every span the workload declares fired."""
    problems = []
    meta = attribution_part(workload.kind, doc)["metadata"]
    b = summary["boundaries"]
    if summary["value_evaluations"] != meta["value_evaluations"]:
        problems.append(
            f"trace counted {summary['value_evaluations']} value evaluations, "
            f"output says {meta['value_evaluations']}"
        )
    if summary["predict_rows_in_global"] != meta["prediction_rows"]:
        problems.append(
            f"trace counted {summary['predict_rows_in_global']} predictor rows under global_asv, "
            f"output says {meta['prediction_rows']}"
        )
    silent = [name for name in workload.spans if b[name]["calls"] == 0]
    if silent:
        problems.append(f"declared spans never fired: {silent}")
    return problems


def per_layer_values(summary: dict, job_s: float) -> dict:
    """Per-layer metrics of one traced job (all but trace.overhead_s)."""
    b = summary["boundaries"]

    def calls(*names):
        return sum(b[n]["calls"] for n in names)

    def items(*names):
        return sum(b[n]["items"] for n in names)

    def self_s(*names):
        return sum(b[n]["self_s"] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    coalitions = ("coalitions.enumerate_consistent", "coalitions.sample_consistent_batch")
    completion = ("values.exact_match_complete", "values.generative_complete")
    train = ("models.train_logistic", "models.train_mlp")
    masks_in = items("attribution.marginal_contributions")
    value_calls = calls("values.value")
    evaluations = summary["value_evaluations"]
    out = {
        "coalitions.self_s": self_s(*coalitions),
        "coalitions.calls": calls(*coalitions),
        "coalitions.perm_rows": items(*coalitions),
        "attribution.dedupe_self_s": self_s("attribution.marginal_contributions"),
        "attribution.masks_in": masks_in,
        "attribution.masks_unique": summary["masks_unique"],
        "attribution.dedupe_ratio": ratio(summary["masks_unique"], masks_in),
        "attribution.aggregate_self_s": self_s(
            "attribution.exact_asv", "attribution.mc_asv", "attribution.global_asv"
        ),
        "values.self_s": self_s("values.value"),
        "values.calls": value_calls,
        "values.evaluations": evaluations,
        "values.hit_ratio": ratio(value_calls - evaluations, value_calls),
        "values.complete_self_s": self_s(*completion),
        "values.complete_calls": calls(*completion),
        "values.complete_rows": items(*completion),
        "values.knn_self_s": self_s("values.knn_complete"),
        "values.knn_fallbacks": summary["knn_fallbacks"],
        "models.predict_self_s": self_s("models.predict"),
        "models.predict_calls": calls("models.predict"),
        "models.predict_rows": items("models.predict"),
        "models.rows_per_call": ratio(items("models.predict"), calls("models.predict")),
        "data.one_hot_design_self_s": self_s("data.one_hot_design"),
        "models.train_self_s": self_s(*train),
        "models.train_calls": calls(*train),
        "scenarios.conditional_samples_self_s": self_s("scenarios.conditional_samples"),
        "scenarios.conditional_samples_calls": calls("scenarios.conditional_samples"),
        "data.load_csv_s": b["data.load_csv"]["total_s"],
        "models.load_s": b["models.load"]["total_s"],
        "trace.spans": summary["spans"],
        "trace.job_s": job_s,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_s(*(x.name for x in BOUNDARIES if x.layer == layer))
    return out


class Run:
    """One benchmark run of one workload: set-up, jobs, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runner = Runner(workdir, deadline)
        self.deadline = deadline
        self.reference = load_reference(workload.name, seed)
        self.first_output: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def log(self, msg: str) -> None:
        print(f"[bench {self.workload.name} seed {self.seed}] {msg}", file=sys.stderr, flush=True)

    def setup(self) -> float:
        child = self.runner.spawn(self.workload.setup(self.seed))
        if child.code != 0:
            raise HarnessError(f"set-up failed with exit code {child.code}:\n{child.tail()}")
        return child.wall_s

    def job(self, traced: bool) -> ChildRun:
        """Run the job once and check its output; counts it as attempted/failed."""
        self.attempted += 1
        out_name = f"job{self.attempted}.json"
        child = self.runner.spawn([self.workload.job(self.seed, out_name)], trace=traced)
        problems = []
        out_path = self.runner.workdir / out_name
        if child.code != 0 or child.result is None or not out_path.is_file():
            problems.append(f"exit code {child.code}:\n{child.tail()}")
        else:
            with open(out_path) as fh:
                doc = json.load(fh)
            kind = self.workload.kind
            problems += check_output(kind, doc, self.workload.n_points)
            if self.reference is not None:
                problems += check_reference(kind, doc, self.reference)
            output = normalized_bytes(out_path, out_name)
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                problems.append("output differs from the first job's output in this run")
            if traced:
                problems += trace_problems(self.workload, doc, child.result["trace"])
        label = "traced job" if traced else "job"
        if problems:
            self.failed += 1
            self.log(f"{label} {self.attempted} FAILED: " + "; ".join(problems))
        else:
            self.log(f"{label} {self.attempted}: {child.result['wall_s']:.3f} s")
        return child

    def more_jobs(self, started: float, done: int, minimum: int, last_s: float) -> bool:
        """Whether to start another job (or pair), given how long the last one took.

        Jobs continue while the next is expected to end within the measuring
        window, and always up to `minimum`, unless that would pass the deadline.
        """
        now = time.perf_counter()
        if now + 1.5 * last_s > self.deadline:
            return False
        return done < minimum or now + last_s - started <= self.seconds

    def measure(self) -> dict:
        if self.reference is None:
            self.log("no recorded reference for this seed; checking the sum rule and reruns only")
        if self.trace:
            return self.measure_traced()
        setups, jobs = [], []
        started = time.perf_counter()
        while self.more_jobs(started, len(jobs), MIN_JOBS, setups[-1] + jobs[-1].wall_s if jobs else 0.0):
            setups.append(self.setup())
            jobs.append(self.job(traced=False))
        done = [j for j in jobs if j.result is not None]
        if not done:
            raise HarnessError("no job completed")
        return {
            "job_s": (min(j.result["wall_s"] for j in done), "s"),
            "cpu_s": (min(j.result["cpu_s"] for j in done), "s"),
            "peak_rss_mb": (statistics.median(j.rss_mb for j in done), "MB"),
            "setup_s": (min(setups), "s"),
            "pass_frac": ((self.attempted - self.failed) / self.attempted, "fraction"),
        }

    def measure_traced(self) -> dict:
        self.setup()
        plain, traced = [], []
        started = time.perf_counter()
        while self.more_jobs(started, len(traced), 1, 2.5 * plain[-1].wall_s if plain else 0.0):
            plain.append(self.job(traced=False))
            traced.append(self.job(traced=True))
        runs = [
            per_layer_values(t.result["trace"], t.result["wall_s"])
            for t in traced if t.result is not None and t.result["trace"] is not None
        ]
        if not runs:
            raise HarnessError("no traced job completed")
        # Times are medians over the traced jobs; counts must repeat exactly.
        names = [name for name in PER_LAYER_UNITS if name != "trace.overhead_s"]
        values = {name: statistics.median(r[name] for r in runs) for name in names}
        counts = [name for name in names if PER_LAYER_UNITS[name] == "count"]
        values.update({name: runs[0][name] for name in counts})
        unsteady = [name for name in counts if len({r[name] for r in runs}) > 1]
        if unsteady:
            self.failed += 1
            self.log(f"counts differ between traced jobs of one seed: {unsteady}")
        plain_s = [p.result["wall_s"] for p in plain if p.result is not None]
        values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(plain_s) if plain_s else 0.0
        return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under .bench_build/, removed (with .bench_build/ when
    it is left empty) on exit."""
    if not (SRC / "asymshap" / "cli.py").is_file():
        raise HarnessError(f"no asymshap package under {SRC}")
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object that run.py prints."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    with work_dir(f"{workload.name}-seed{seed}-trace{int(trace)}") as workdir:
        run = Run(workload, seed, seconds, trace, workdir, deadline)
        metrics = run.measure()
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
