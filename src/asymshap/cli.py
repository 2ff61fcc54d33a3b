"""Command-line entry point.

Subcommands:
    gen-data    sample a synthetic dataset: CSV, schema and manifest
    train       fit a logistic or MLP model to a dataset
    explain     local or global attribution of a trained model
    fairness    audit the attribution that sensitive features keep
    featselect  cumulative attribution against retraining on a Markov series

Each setting is declared once, as an argparse flag with its type, choices and
default; a flag must be spelled in full. An argument @FILE stands for the
arguments in FILE, one per line, which the same flags parse. The last
occurrence of a flag wins, so values resolve as declared default < @FILE <
flags given after it. A command reads the resolved {dest: value} settings
and echoes them into its output JSON together with content hashes of the
input files. Outputs carry no timestamps, so the same settings and seed give
byte-identical bytes.

Exit codes:
    0  success
    2  validation error: a bad flag or setting, or a file that cannot be read or written
    3  estimator or sampling guard failure
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attribution import RunPlan, global_asv
from .coalitions import DEFAULT_ENUMERATION_CAP, OrderingSpec
from .data import Dataset, _is_int, load_csv, save_csv, train_test_split, write_csv, write_json
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
    TWO_FEATURE_KINDS,
    AdmissionsProcess,
    MarkovSeriesProcess,
    TwoFeatureGraphProcess,
    run_fairness_audit,
    run_feature_selection_study,
)
from .values import BackgroundSet, ExactMatchSampler, KNNSampler

logger = logging.getLogger(__name__)

GEN_SCENARIOS = ("fair-admissions", "unfair-admissions", *TWO_FEATURE_KINDS, "markov")


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
    write_json(path, doc)


class _CommaList:
    """argparse type of a flag that takes comma-separated items.

    Each item must convert to the given type, but the flag stores its string
    as given, which is what the output config echoes; the command reads the
    items with split.
    """

    def __init__(self, item: type):
        self.item = item
        self.__name__ = f"comma-separated {item.__name__}"  # argparse names the type in errors

    def split(self, value: str) -> list:
        """The string's nonblank comma-separated parts, each converted to the item type."""
        return [self.item(part.strip()) for part in value.split(",") if part.strip()]

    def __call__(self, raw: str) -> str:
        self.split(raw)
        return raw


_INTS, _NAMES = _CommaList(int), _CommaList(str)


def _settings(args: argparse.Namespace) -> dict:
    """The resolved {dest: value} settings of the parsed subcommand, without the parser's wiring."""
    return {dest: value for dest, value in vars(args).items() if dest not in ("command", "func", "parser")}


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

    n = obj.setdefault("n", ds.n)
    if _is_int(n) and n != ds.n:  # before entries resolve against ds
        raise ValidationError(f"ordering spec covers {n} features, dataset has {ds.n}")
    for key in ("groups", "edges"):
        # Schema.index_of resolves and checks every entry; OrderingSpec checks the lists' shape and n's type.
        value = obj.get(key)
        if isinstance(value, list) and all(isinstance(entry, list) for entry in value):
            obj[key] = [list(map(ds.schema.index_of, entry)) for entry in value]
    return OrderingSpec.from_json_dict(obj)


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
        write_csv(audit_path, ["x4"], audit[:, None].tolist())
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


def _choose_estimator(resolved: dict, spec: OrderingSpec) -> str:
    """--exact or --mc when given, else exact up to the enumeration cap.

    An exact run over many orders warns from enumerate_consistent, which counts them.
    """
    if resolved["exact"] and resolved["mc"]:
        raise ValidationError("--exact and --mc are mutually exclusive")
    if resolved["exact"]:
        return "exact"
    if resolved["mc"]:
        return "mc"
    return "mc" if spec.n > resolved["cap"] else "exact"


def cmd_explain(resolved: dict) -> int:
    model, ds, hashes = _load_model_and_data(resolved)
    if resolved["spec"]:
        ordering = _load_ordering(resolved["spec"], ds)
        hashes["spec"] = _sha256_file(resolved["spec"])
    else:
        ordering = OrderingSpec(ds.n)
    # A flag the mode would ignore is an error, checked before the plan enumerates any orders.
    row = resolved["index"]
    if row is None and resolved["target"] != "label":
        raise ValidationError("--target picks the class of a local run; a global run explains "
                              "each row's true label, so pass --index or drop --target")
    if row is not None and resolved["locals_csv"]:
        raise ValidationError("--locals-csv writes a global run's per-point attributions; drop --index")
    if row is not None and resolved["budget"] is not None:
        raise ValidationError("--budget caps a global run's points; drop --index")
    if row is not None and not 0 <= row < ds.n_rows:
        raise ValidationError(f"--index {row} outside [0, {ds.n_rows})")
    estimator = _choose_estimator(resolved, ordering)
    plan = RunPlan(model, ordering, _completion(resolved, ds), estimator=estimator, n_perms=resolved["perms"],
                   m=resolved["samples"], seed=resolved["seed"], cap=resolved["cap"])
    if row is not None:
        x = ds.X[row]
        y = int(np.argmax(model.predict(x[None, :])[0])) if resolved["target"] == "argmax" else int(ds.y[row])
        res, _ = plan.local(x, y, row)
        doc = {"mode": "local", "index": row, "class_index": y}
        doc.update(res.to_json_dict(feature_names=ds.schema.names))
    else:
        glob = global_asv(plan, ds, budget=resolved["budget"])
        doc = {"mode": "global"}
        doc.update(glob.to_json_dict(feature_names=ds.schema.names))
        if resolved["locals_csv"]:
            write_csv(resolved["locals_csv"], ds.schema.names, glob.locals.tolist())
    _write_json(resolved["out"], doc, resolved, hashes)
    print(f"wrote {resolved['out']}")
    return 0


# ---------------------------------------------------------------- fairness


def cmd_fairness(resolved: dict) -> int:
    resolving, sensitive = (_NAMES.split(resolved[key] or "") for key in ("resolving", "sensitive"))
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
    write_csv(trials_path, [f"t{t}" for t in study.ts], study.trial_matrix.tolist())
    gaps = np.abs(study.cumulative_asv - study.empirical_mean)
    print(
        f"wrote {resolved['out']} and {trials_path}; "
        f"max |ASV - empirical| over t: {gaps.max():.4f}"
    )
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymshap",
        description="Order-aware Shapley feature attribution with causal precedence constraints.",
        epilog="An argument @FILE reads further arguments from FILE, one per line.",
        fromfile_prefix_chars="@",
        allow_abbrev=False,
    )
    parser.convert_arg_line_to_args = lambda line: [line] if line else []  # a blank line is no argument
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           allow_abbrev=False)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--seed", type=int, help="master seed (required; no wall-clock default)")
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

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _settings(args)
        if resolved["seed"] is None:
            raise ValidationError("a seed is required (no wall-clock default); pass --seed")
        if resolved["seed"] < 0:
            raise ValidationError(f"seed must be nonnegative, got {resolved['seed']}")
        return args.func(resolved)
    except EstimatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
