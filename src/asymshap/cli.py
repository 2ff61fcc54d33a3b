"""Command-line entry point.

Subcommands: gen-data, train, explain, fairness, featselect, oracle-check.
Each setting is declared once, as an argparse flag with its type, choices and
default. A --config file's keys are those flags' dests: main checks the file
against the flags, installs its non-null values as the subcommand's defaults
and parses again, so values resolve as declared default < --config file <
explicit flags. A command reads the resolved {dest: value} settings and
echoes them into its output JSON together with content hashes of the input
files. Outputs carry no timestamps, so identical config and seed give
byte-identical bytes. Exit codes: 0 success, 2 validation error, 3 estimator or sampling
guard failure, 4 oracle-check failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attribution import (
    CoalitionChains,
    TableValueFunction,
    exact_asv,
    exact_shapley_subset_form,
    global_asv,
    marginal_contributions,
    mc_asv,
    point_asv,
)
from .coalitions import (
    DEFAULT_ENUMERATION_CAP,
    OrderingSpec,
    count_consistent,
    enumerate_consistent,
    random_ordering_spec,
)
from .data import Dataset, load_csv, save_csv, train_test_split
from .errors import EstimatorError, SchemaError, ValidationError
from .models import (
    TrainConfig,
    TrainedModel,
    max_class_accuracy,
    sampled_label_accuracy,
    train_logistic,
    train_mlp,
)
from .scenarios import (
    AdmissionsProcess,
    MarkovSeriesProcess,
    TwoFeatureGraphProcess,
    run_fairness_audit,
    run_feature_selection_study,
)
from .values import BackgroundSet, CachedValueFunction, ExactMatchSampler, KNNSampler

logger = logging.getLogger(__name__)

GEN_SCENARIOS = ("fair-admissions", "unfair-admissions", "chain", "collider", "mixed", "markov")
# Automatic exact enumeration warns above this many consistent orders per point.
AUTO_EXACT_WARN_ORDERS = math.factorial(8)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, doc: dict, resolved: dict, hashes: dict | None = None) -> None:
    """doc with the resolved settings echoed as its config, and the input hashes when given."""
    doc = {**doc, "config": resolved}
    if hashes is not None:
        doc["input_hashes"] = hashes
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_rows(path, header, rows) -> None:
    """A CSV of header and then each row's floats, written as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


class _CommaList:
    """argparse type of a flag that takes comma-separated items.

    Each item must convert to the given type, but the flag stores its string
    as given, which is what the output config echoes; the command reads the
    items with split. In a --config file the value may be that string or a
    JSON list of items of the given type.
    """

    def __init__(self, item: type):
        self.item = item
        self.__name__ = f"comma-separated {item.__name__}"  # argparse names the type in errors

    def split(self, value) -> list:
        """The items of a stored value: a --config list as given, or the string's nonblank parts."""
        if isinstance(value, list):
            return value
        return [self.item(part.strip()) for part in value.split(",") if part.strip()]

    def __call__(self, raw: str) -> str:
        self.split(raw)
        return raw


_INTS, _NAMES = _CommaList(int), _CommaList(str)


def _config_value(action: argparse.Action, value, path):
    """A non-null --config value checked against its flag's type and choices, as the flag would store it.

    main drops null keys, so the declared default stands for them. A flag
    without a type takes a string; a _CommaList flag also takes a JSON list
    of its item type.
    """

    def reject(expected):
        raise ValidationError(f"config key {action.dest!r} in {path} must be {expected}, got {value!r}")

    if action.nargs == 0 and not isinstance(value, bool):
        reject("true, false or null")
    if action.type is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int:
            reject("an integer")
    elif action.type is float:
        if type(value) not in (int, float):
            reject("a number")
        value = float(value)
    elif isinstance(action.type, _CommaList):
        item = action.type.item
        if isinstance(value, str):
            try:
                action.type(value)
            except ValueError:
                reject(f"a comma-separated list of {item.__name__} values")
        elif not (isinstance(value, list) and all(type(v) is item for v in value)):
            reject(f"a comma-separated string or a list of {item.__name__} values")
    elif action.nargs != 0 and not isinstance(value, str):
        reject("a string")
    if action.choices is not None and value not in action.choices:
        reject(f"one of {list(action.choices)}")
    return value


def _setting_actions(parser: argparse.ArgumentParser) -> dict:
    """dest -> action of every setting a subcommand declares."""
    return {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}


def _settings(args: argparse.Namespace) -> dict:
    """The resolved {dest: value} settings of the parsed subcommand."""
    return {dest: getattr(args, dest) for dest in _setting_actions(args.parser)}


def _load_config(path, parser: argparse.ArgumentParser) -> dict:
    """The non-null values of a --config file, checked against parser's flags."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config JSON {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    actions = _setting_actions(parser)
    unknown = set(file_cfg) - set(actions)
    if unknown:
        raise ValidationError(f"unknown config keys in {path}: {sorted(unknown)}")
    return {
        key: _config_value(actions[key], value, path)
        for key, value in file_cfg.items()
        if value is not None
    }


def _require_file(path, what: str) -> str:
    if path is None:
        raise ValidationError(f"missing required {what} path")
    if not Path(path).is_file():
        raise ValidationError(f"{what} file not found: {path}")
    return str(path)


def _schema_path_for(data_path: str, override) -> str:
    if override:
        return _require_file(override, "schema")
    p = Path(data_path)
    guess = p.with_suffix(".schema.json") if p.suffix == ".csv" else Path(str(p) + ".schema.json")
    return _require_file(guess, "schema")


def _load_dataset(resolved: dict) -> tuple[Dataset, dict]:
    data = _require_file(resolved["data"], "dataset")
    schema = _schema_path_for(data, resolved["schema"])
    ds = load_csv(data, schema)
    hashes = {"data": _sha256_file(data), "schema": _sha256_file(schema)}
    return ds, hashes


def _load_model_and_data(resolved: dict) -> tuple[TrainedModel, Dataset, dict]:
    """The --model and its dataset, whose schemas must agree, with the input hashes."""
    model_path = _require_file(resolved["model"], "model")
    model = TrainedModel.load(model_path)
    ds, hashes = _load_dataset(resolved)
    hashes["model"] = _sha256_file(model_path)
    if model.schema.digest() != ds.schema.digest():
        raise SchemaError("model and dataset schemas differ")
    return model, ds, hashes


def _load_ordering(path, ds: Dataset) -> OrderingSpec:
    """The --spec file's OrderingSpec; entries may be feature names, and n defaults to ds.n."""
    _require_file(path, "ordering spec")
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed ordering-spec JSON {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"ordering spec {path} must be a JSON object")

    obj = {**obj, "n": obj.get("n", ds.n)}
    for key in ("groups", "edges"):
        # Names become indices; from_json_dict checks the shape of what is left.
        value = obj.get(key)
        if isinstance(value, list) and all(isinstance(entry, list) for entry in value):
            obj[key] = [
                [ds.schema.index_of(e) if isinstance(e, str) else e for e in entry] for entry in value
            ]
    spec = OrderingSpec.from_json_dict(obj)
    if spec.n != ds.n:
        raise ValidationError(f"ordering spec covers {spec.n} features, dataset has {ds.n}")
    return spec


def _markov_process(resolved: dict) -> MarkovSeriesProcess:
    return MarkovSeriesProcess(**{key: resolved[key] for key in ("T", "ar", "shift", "decay")})


# ---------------------------------------------------------------- gen-data


def cmd_gen_data(resolved: dict) -> int:
    scenario, rows, seed = resolved["scenario"], resolved["rows"], resolved["seed"]
    prefix = resolved["out"] or scenario
    audit = None
    if scenario == "fair-admissions":
        ds = AdmissionsProcess(unfair=False).sample(rows, seed)
    elif scenario == "unfair-admissions":
        # The hidden audit column is never part of the exported schema.
        ds, audit = AdmissionsProcess(unfair=True).sample_with_audit(rows, seed)
    elif scenario == "markov":
        ds = _markov_process(resolved).sample(rows, seed)
    else:
        ds = TwoFeatureGraphProcess(scenario).sample(rows, seed)
    csv_path = f"{prefix}.csv"
    schema_path = f"{prefix}.schema.json"
    save_csv(ds, csv_path, schema_path)
    files = {
        "csv": {"path": csv_path, "sha256": _sha256_file(csv_path)},
        "schema": {"path": schema_path, "sha256": _sha256_file(schema_path)},
    }
    if audit is not None:
        audit_path = f"{prefix}.audit.csv"
        with open(audit_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x4"])
            for v in audit:
                writer.writerow([int(v)])
        files["audit"] = {"path": audit_path, "sha256": _sha256_file(audit_path)}
    _write_json(f"{prefix}.manifest.json", {"scenario": scenario, "files": files}, resolved)
    print(f"wrote {csv_path} ({rows} rows), {schema_path}, {prefix}.manifest.json")
    return 0


# ---------------------------------------------------------------- train


def cmd_train(resolved: dict) -> int:
    ds, hashes = _load_dataset(resolved)
    kind, seed = resolved["model"], resolved["seed"]
    train_ds, test_ds = train_test_split(ds, resolved["test_fraction"], seed)
    # Each TrainConfig field is the setting of the same name.
    settings = {f.name: resolved[f.name] for f in fields(TrainConfig)}
    config = TrainConfig(**{**settings, "hidden": tuple(_INTS.split(resolved["hidden"]))})
    model = train_logistic(train_ds, config) if kind == "logistic" else train_mlp(train_ds, config)
    model.save(resolved["out"])
    test_max = max_class_accuracy(model, test_ds.X, test_ds.y)
    test_sampled = sampled_label_accuracy(model, test_ds.X, test_ds.y)
    majority = float(np.bincount(test_ds.y, minlength=ds.schema.n_classes).max()) / test_ds.n_rows
    if test_max <= majority + 0.02:
        logger.warning(
            "test accuracy %.3f is within noise of the majority-class rate %.3f; "
            "the model family may be too weak for this data",
            test_max, majority,
        )
    metrics = {
        "train_accuracy": model.history.get("train_accuracy"),
        "val_accuracy": model.history.get("val_accuracy"),
        "test_max_class_accuracy": test_max,
        "test_sampled_label_accuracy": test_sampled,
        "majority_class_rate": majority,
        "best_epoch": model.history.get("best_epoch"),
        "epochs_run": model.history.get("epochs_run"),
    }
    metrics_path = str(Path(resolved["out"]).with_suffix("")) + ".metrics.json"
    _write_json(metrics_path, {"metrics": metrics}, resolved, hashes)
    print(
        f"trained {kind}: test max-class {test_max:.3f}, "
        f"sampled-label {test_sampled:.3f} -> {resolved['out']}"
    )
    return 0


# ---------------------------------------------------------------- explain


def _completion(resolved: dict, ds: Dataset):
    """What fills the features outside a coalition under --strategy: the
    dataset's rows as background, or a conditional sampler over them."""
    if resolved["strategy"] == "off-manifold":
        return BackgroundSet(ds.X)
    sampler = ExactMatchSampler if resolved["strategy"] == "exact-match" else KNNSampler
    return sampler(ds, k=resolved["k"])


def _choose_estimator(resolved: dict, spec: OrderingSpec, n_points: int) -> str:
    """--exact or --mc when given, else exact up to the enumeration cap.

    Automatic exact enumeration materialises every consistent order once per
    run, and every point then reduces all of them, so it warns when there are
    more than AUTO_EXACT_WARN_ORDERS. The count is closed-form for specs
    without edges; with edges n! is the bound, so the estimate never
    enumerates.
    """
    if resolved["exact"] and resolved["mc"]:
        raise ValidationError("--exact and --mc are mutually exclusive")
    if resolved["exact"]:
        return "exact"
    if resolved["mc"]:
        return "mc"
    if spec.n > resolved["cap"]:
        return "mc"
    orders = math.factorial(spec.n) if spec.edges else count_consistent(spec)
    if orders > AUTO_EXACT_WARN_ORDERS:
        logger.warning(
            "exact estimator chosen automatically for %d features: up to %d consistent orders, "
            "enumerated once and reduced at each of %d points (%d order rows in all); "
            "pass --mc to sample instead",
            spec.n, orders, n_points, orders * n_points,
        )
    return "exact"


def cmd_explain(resolved: dict) -> int:
    model, ds, hashes = _load_model_and_data(resolved)
    if resolved["spec"]:
        ordering = _load_ordering(resolved["spec"], ds)
        hashes["spec"] = _sha256_file(resolved["spec"])
    else:
        ordering = OrderingSpec(ds.n)
    row = resolved["index"]
    if row is not None:
        n_points = 1
    elif resolved["budget"] is None:
        n_points = ds.n_rows
    else:
        n_points = min(resolved["budget"], ds.n_rows)
    estimator = _choose_estimator(resolved, ordering, n_points)
    completion = _completion(resolved, ds)
    if row is not None:
        if not 0 <= row < ds.n_rows:
            raise ValidationError(f"--index {row} outside [0, {ds.n_rows})")
        x = ds.X[row]
        if resolved["target"] == "argmax":
            y = int(np.argmax(model.predict(x[None, :])[0]))
        else:
            y = int(ds.y[row])
        vf = CachedValueFunction(
            model, x, y, completion, m=resolved["samples"], seed=resolved["seed"], point_index=row
        )
        chains = None
        if estimator == "exact":
            chains = CoalitionChains(enumerate_consistent(ordering, cap=resolved["cap"]))
        res = point_asv(vf, ordering, estimator, resolved["perms"], chains)
        res.metadata.update(value_evaluations=vf.evaluations, prediction_rows=vf.prediction_rows)
        doc = {"mode": "local", "index": row, "class_index": y}
        doc.update(res.to_json_dict(feature_names=ds.schema.names))
    else:
        glob = global_asv(
            model, ds, ordering, completion, m=resolved["samples"],
            estimator=estimator, n_perms=resolved["perms"], budget=resolved["budget"],
            seed=resolved["seed"], cap=resolved["cap"],
        )
        doc = {"mode": "global"}
        doc.update(glob.to_json_dict(feature_names=ds.schema.names))
        if resolved["locals_csv"]:
            _write_rows(resolved["locals_csv"], ds.schema.names, glob.locals)
    _write_json(resolved["out"], doc, resolved, hashes)
    print(f"wrote {resolved['out']}")
    return 0


# ---------------------------------------------------------------- fairness


def cmd_fairness(resolved: dict) -> int:
    resolving, sensitive = (_NAMES.split(resolved[key] or []) for key in ("resolving", "sensitive"))
    if not resolving or not sensitive:
        raise ValidationError("--resolving and --sensitive feature lists are required")
    model, ds, hashes = _load_model_and_data(resolved)
    report = run_fairness_audit(
        model, ds, resolving, sensitive, _completion(resolved, ds),
        m=resolved["samples"],
        estimator=resolved["estimator"],
        n_perms=resolved["perms"],
        budget=resolved["budget"],
        seed=resolved["seed"],
    )
    _write_json(resolved["out"], report.to_json_dict(), resolved, hashes)
    print(report.verdict)
    return 0


# ---------------------------------------------------------------- featselect


def cmd_featselect(resolved: dict) -> int:
    study = run_feature_selection_study(
        _markov_process(resolved),
        trials=resolved["trials"],
        n_rows=resolved["rows"],
        seed=resolved["seed"],
        m=resolved["samples"],
        point_budget=resolved["budget"],
    )
    _write_json(resolved["out"], study.to_json_dict(), resolved)
    trials_path = str(Path(resolved["out"]).with_suffix("")) + ".trials.csv"
    _write_rows(trials_path, [f"t{t}" for t in study.ts], study.trial_matrix)
    gaps = np.abs(study.cumulative_asv - study.empirical_mean)
    print(
        f"wrote {resolved['out']} and {trials_path}; "
        f"max |ASV - empirical| over t: {gaps.max():.4f}"
    )
    return 0


# ---------------------------------------------------------------- oracle-check


def cmd_oracle_check(resolved: dict) -> int:
    n, games, perms = resolved["n"], resolved["games"], resolved["perms"]
    if not 2 <= n <= DEFAULT_ENUMERATION_CAP:
        raise ValidationError(f"n must be in [2, {DEFAULT_ENUMERATION_CAP}], got {n}")
    if games < 1:
        raise ValidationError(f"games must be at least 1, got {games}")
    rng = np.random.default_rng(resolved["seed"])
    max_dual_gap = 0.0
    max_eff_gap = 0.0
    max_telescope_gap = 0.0
    covered = 0
    total = 0
    for _ in range(games):
        table = rng.random(1 << n)
        vf = TableValueFunction(table, n)
        dual_gap = np.max(
            np.abs(exact_asv(vf, OrderingSpec(n)).means - exact_shapley_subset_form(vf).means)
        )
        max_dual_gap = max(max_dual_gap, float(dual_gap))
        spec = random_ordering_spec(n, rng)
        exact = exact_asv(vf, spec)
        max_eff_gap = max(max_eff_gap, abs(exact.efficiency_gap()))
        first = enumerate_consistent(spec)[:1]
        row = marginal_contributions(vf, CoalitionChains(first))[0]
        telescope = math.fsum(row.tolist()) - (exact.total - exact.baseline)
        max_telescope_gap = max(max_telescope_gap, abs(telescope))
        est = mc_asv(vf, spec, perms, rng)
        for i in range(n):
            total += 1
            gap = abs(est.means[i] - exact.means[i])
            if est.stderrs[i] > 0:
                covered += gap <= 4.0 * est.stderrs[i]
            else:
                covered += gap <= 1e-9
    coverage = covered / total
    ok = max_dual_gap <= 1e-9 and max_eff_gap <= 1e-9 and max_telescope_gap <= 1e-9 and coverage >= 0.99
    report = {
        "n": n,
        "games": games,
        "perms": perms,
        "seed": resolved["seed"],
        "max_dual_formula_gap": max_dual_gap,
        "max_efficiency_gap": max_eff_gap,
        "max_telescoping_gap": max_telescope_gap,
        "mc_within_4_stderr": coverage,
        "pass": bool(ok),
    }
    if resolved["out"]:
        _write_json(resolved["out"], report, resolved)
    status = "PASS" if ok else "FAIL"
    print(
        f"{status}: dual-formula gap {max_dual_gap:.2e}, efficiency gap {max_eff_gap:.2e}, "
        f"telescoping gap {max_telescope_gap:.2e}, MC 4-stderr coverage {coverage:.4f}"
    )
    return 0 if ok else 4


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymshap",
        description="Order-aware Shapley feature attribution with causal precedence constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="JSON file whose keys mirror this command's flags")
        p.add_argument("--seed", type=int, help="master seed (required here or in --config)")
        return p

    def add_dataset(p, **model):
        p.add_argument("--model", **model)
        p.add_argument("--data", help="dataset CSV")
        p.add_argument("--schema", help="schema JSON; None means the one next to --data")

    def add_completion(p, strategy: str, samples: int):
        p.add_argument("--strategy", choices=("off-manifold", "exact-match", "knn"), default=strategy,
                       help="how features outside a coalition are completed")
        p.add_argument("--k", type=int, default=10, help="neighbours for knn and the exact-match fallback")
        p.add_argument("--samples", type=int, default=samples,
                       help="background/conditional draws per coalition")
        p.add_argument("--perms", type=int, default=200, help="Monte Carlo permutation draws per point")
        p.add_argument("--workers", type=int, choices=(1,), default=1,
                       help="points run in one thread; only 1 is accepted")

    def add_markov(p):
        p.add_argument("--T", type=int, default=12, help="markov: number of time steps")
        p.add_argument("--ar", type=float, default=0.7, help="markov: autoregressive coefficient")
        p.add_argument("--shift", type=float, default=1.0, help="markov: label shift at t=0")
        p.add_argument("--decay", type=float, default=0.7, help="markov: geometric decay of the shift")

    p = add("gen-data", cmd_gen_data, "generate a synthetic dataset (CSV + schema + manifest)")
    p.add_argument("scenario", choices=GEN_SCENARIOS)
    p.add_argument("--rows", type=int, default=10000, help="rows to sample")
    p.add_argument("--out", help="output file prefix; None means the scenario name")
    add_markov(p)

    p = add("train", cmd_train, "fit a logistic or MLP model and report both accuracy senses")
    add_dataset(p, choices=("logistic", "mlp"), default="mlp", help="model family")
    p.add_argument("--out", default="model.json", help="model JSON; metrics go beside it")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.1,
                   help="SGD step size")
    p.add_argument("--epochs", type=int, default=300, help="maximum passes over the training rows")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32, help="rows per SGD step")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum")
    p.add_argument("--hidden", type=_INTS, default="10,10", help="mlp: comma-separated hidden layer widths")
    p.add_argument("--activation", choices=("tanh", "relu"), default="tanh",
                   help="mlp: hidden activation")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.25,
                   help="share of training rows held out for early stopping")
    p.add_argument("--patience", type=int, default=20,
                   help="epochs without validation gain before stopping")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.25,
                   help="share of rows held out for the test accuracies")

    p = add("explain", cmd_explain, "local or global attribution for a trained model")
    add_dataset(p, help="trained model JSON")
    p.add_argument("--spec", help=(
        'ordering-spec JSON object: "groups", an ordered partition of the features, earliest first; '
        '"edges", a list of [before, after] pairs; "direction", "distal" (as declared) or "proximate" '
        '(every constraint reversed); "n", the feature count, defaulting to the dataset\'s. '
        "Entries may be feature names or indices; no other key is allowed. Omit for no constraints"))
    add_completion(p, strategy="off-manifold", samples=100)
    p.add_argument("--exact", action="store_const", const=True, help="force exact enumeration")
    p.add_argument("--mc", action="store_const", const=True, help="force Monte Carlo")
    p.add_argument("--budget", type=int, help="max data points for a global run; None means all")
    p.add_argument("--index", type=int, help="explain a single data point")
    p.add_argument("--target", choices=("label", "argmax"), default="label",
                   help="local run: explain the true label or the predicted class")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="most features exact enumeration may run on; auto picks Monte Carlo above it")
    p.add_argument("--out", default="attribution.json", help="output JSON")
    p.add_argument("--locals-csv", dest="locals_csv", help="also write per-point attributions")

    p = add("fairness", cmd_fairness, "audit for attribution kept by sensitive features")
    add_dataset(p, help="trained model JSON")
    p.add_argument("--resolving", type=_NAMES, help="comma-separated resolving feature names")
    p.add_argument("--sensitive", type=_NAMES, help="comma-separated sensitive feature names")
    add_completion(p, strategy="exact-match", samples=64)
    p.add_argument("--estimator", choices=("exact", "mc"), default="exact", help="attribution estimator")
    p.add_argument("--budget", type=int, default=2000, help="max data points audited")
    p.add_argument("--out", default="fairness.json", help="output JSON")

    p = add("featselect", cmd_featselect, "cumulative-attribution vs retraining study")
    add_markov(p)
    p.add_argument("--trials", type=int, default=5, help="independent datasets")
    p.add_argument("--rows", type=int, default=4000, help="rows per trial")
    p.add_argument("--samples", type=int, default=64, help="conditional draws per coalition")
    p.add_argument("--budget", type=int, default=300, help="max test points for the attribution curve")
    p.add_argument("--out", default="featselect.json", help="output JSON; trials CSV goes beside it")

    p = add("oracle-check", cmd_oracle_check, "cross-check estimators on random games")
    p.add_argument("--n", type=int, default=6, help="features per random game")
    p.add_argument("--games", type=int, default=50, help="random games")
    p.add_argument("--perms", type=int, default=4000, help="Monte Carlo permutation draws per game")
    p.add_argument("--out", help="also write the report as JSON")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_load_config(args.config, args.parser))
            args = parser.parse_args(argv)
        resolved = _settings(args)
        if resolved["seed"] is None:
            raise ValidationError("a seed is required (no wall-clock default); pass --seed")
        if resolved["seed"] < 0:
            raise ValidationError(f"seed must be nonnegative, got {resolved['seed']}")
        return args.func(resolved)
    except EstimatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
