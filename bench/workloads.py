"""The benchmark's workloads: CLI set-up and job commands, and where spans fire.

Every knob the CLI accepts is passed explicitly, so a change of default in the
program does not change what is measured. The workload seed is the seed of every
command. `spans` names the trace boundaries (see tracer.py) that the job must
reach; the traced run fails when one of them does not fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def _markov_data(T: int, rows: int, seed: int) -> list[str]:
    return ["gen-data", "markov", "--T", str(T), "--rows", str(rows),
            "--ar", "0.7", "--shift", "1.0", "--decay", "0.7",
            "--seed", str(seed), "--out", "data"]


def _admissions_data(rows: int, seed: int) -> list[str]:
    return ["gen-data", "unfair-admissions", "--rows", str(rows), "--seed", str(seed), "--out", "data"]


def _train(model: str, seed: int, epochs: int = 30) -> list[str]:
    # Patience equal to the epoch count turns early stopping off, so set-up does
    # the same number of gradient steps whatever the seed.
    argv = ["train", "--data", "data.csv", "--schema", "data.schema.json", "--model", model,
            "--out", "model.json", "--learning-rate", "0.1", "--epochs", str(epochs),
            "--batch-size", "32", "--momentum", "0.9", "--val-fraction", "0.25",
            "--patience", str(epochs), "--test-fraction", "0.25", "--seed", str(seed)]
    if model == "mlp":
        argv += ["--hidden", "10,10", "--activation", "tanh"]
    return argv


def _explain(estimator: str, samples: int, budget: int, perms: int, seed: int, out: str) -> list[str]:
    return ["explain", "--model", "model.json", "--data", "data.csv", "--schema", "data.schema.json",
            "--strategy", "off-manifold", "--k", "10", f"--{estimator}", "--samples", str(samples),
            "--perms", str(perms), "--budget", str(budget), "--target", "label", "--workers", "1",
            "--cap", "10", "--seed", str(seed), "--out", out]


def _fairness(samples: int, budget: int, seed: int, out: str) -> list[str]:
    return ["fairness", "--model", "model.json", "--data", "data.csv", "--schema", "data.schema.json",
            "--resolving", "department", "--sensitive", "gender", "--strategy", "exact-match",
            "--k", "10", "--samples", str(samples), "--estimator", "exact", "--perms", "200",
            "--budget", str(budget), "--workers", "1", "--seed", str(seed), "--out", out]


def _featselect(T: int, trials: int, rows: int, samples: int, budget: int, seed: int, out: str) -> list[str]:
    return ["featselect", "--T", str(T), "--trials", str(trials), "--rows", str(rows),
            "--ar", "0.7", "--shift", "1.0", "--decay", "0.7", "--samples", str(samples),
            "--budget", str(budget), "--seed", str(seed), "--out", out]


_EXPLAIN_SPANS = (
    "cli.main", "data.load_csv", "data.one_hot_design", "models.load", "models.predict",
    "attribution.global_asv", "attribution.marginal_contributions", "values.value",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "explain", "fairness" or "featselect": the shape of the job's output
    setup: Callable[[int], list[list[str]]]  # seed -> argv of each set-up command
    job: Callable[[int, str], list[str]]  # (seed, output path) -> argv
    spans: tuple[str, ...]

    @property
    def n_points(self) -> int:
        """Data points the job's global attribution averages over: its --budget."""
        argv = self.job(0, "out.json")
        return int(argv[argv.index("--budget") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="explain_mc_markov12",
            kind="explain",
            setup=lambda s: [_markov_data(12, 4000, s), _train("logistic", s)],
            job=lambda s, out: _explain("mc", 64, 50, 200, s, out),
            spans=_EXPLAIN_SPANS + ("coalitions.sample_consistent_batch", "attribution.mc_asv"),
        ),
        Workload(
            name="explain_exact_markov8",
            kind="explain",
            setup=lambda s: [_markov_data(8, 4000, s), _train("logistic", s)],
            job=lambda s, out: _explain("exact", 64, 12, 200, s, out),
            spans=_EXPLAIN_SPANS + ("coalitions.enumerate_consistent", "attribution.exact_asv"),
        ),
        Workload(
            name="fairness_unfair_admissions",
            kind="fairness",
            setup=lambda s: [_admissions_data(10000, s), _train("mlp", s)],
            job=lambda s, out: _fairness(64, 2000, s, out),
            spans=_EXPLAIN_SPANS + (
                "coalitions.enumerate_consistent", "attribution.exact_asv",
                "values.exact_match_complete", "values.knn_complete", "scenarios.run_fairness_audit",
            ),
        ),
        Workload(
            name="featselect_markov8",
            kind="featselect",
            setup=lambda s: [],
            job=lambda s, out: _featselect(8, 2, 4000, 64, 300, s, out),
            spans=(
                "cli.main", "data.one_hot_design", "data.train_test_split", "models.predict",
                "models.train_logistic", "coalitions.sample_consistent_batch",
                "attribution.global_asv", "attribution.mc_asv", "attribution.marginal_contributions",
                "values.value", "values.generative_complete", "scenarios.run_feature_selection_study",
                "scenarios.conditional_samples", "scenarios.markov_sample",
            ),
        ),
    )
}

# Toy-size versions of the same pipelines, for the harness self-test.
TOY_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy_explain",
            kind="explain",
            setup=lambda s: [_markov_data(4, 300, s), _train("logistic", s, epochs=20)],
            job=lambda s, out: _explain("exact", 8, 3, 200, s, out),
            spans=WORKLOADS["explain_exact_markov8"].spans,
        ),
        Workload(
            name="toy_fairness",
            kind="fairness",
            setup=lambda s: [_admissions_data(400, s), _train("mlp", s, epochs=20)],
            job=lambda s, out: _fairness(8, 20, s, out),
            spans=WORKLOADS["fairness_unfair_admissions"].spans,
        ),
        Workload(
            name="toy_featselect",
            kind="featselect",
            setup=lambda s: [],
            job=lambda s, out: _featselect(3, 2, 300, 8, 20, s, out),
            spans=WORKLOADS["featselect_markov8"].spans,
        ),
    )
}
