"""The command line end to end, at toy size: round trip, determinism, exit codes."""

import argparse
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import refusal_fault

import asymshap
import asymshap.attribution
import asymshap.coalitions
from asymshap import DEFAULT_ENUMERATION_CAP, OrderingSpec
from asymshap import cli
from asymshap.cli import _choose_estimator, _settings, build_parser, main


def pipeline(d, tag):
    """gen-data -> train -> explain -> fairness in directory d; returns the two outputs."""
    assert main(["gen-data", "unfair-admissions", "--rows", "400", "--seed", "0",
                 "--out", str(d / "data")]) == 0
    assert main(["train", "--data", str(d / "data.csv"), "--model", "mlp", "--epochs", "20",
                 "--patience", "20", "--seed", "0", "--out", str(d / "model.json")]) == 0
    common = ["--model", str(d / "model.json"), "--data", str(d / "data.csv"),
              "--budget", "20", "--samples", "8", "--seed", "0"]
    explain, fairness = d / f"explain-{tag}.json", d / f"fairness-{tag}.json"
    assert main(["explain", *common, "--out", str(explain)]) == 0
    assert main(["fairness", *common, "--resolving", "department", "--sensitive", "gender",
                 "--out", str(fairness)]) == 0
    return explain, fairness


def blank_out(path):
    doc = json.loads(path.read_text())
    doc["config"]["out"] = None
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    pipeline(d, "first")
    return d


def test_round_trip_reruns_byte_identical(trained):
    first = [trained / "explain-first.json", trained / "fairness-first.json"]
    again = pipeline(trained, "again")
    for a, b in zip(first, again):
        assert a.read_bytes() != b.read_bytes()  # the echoed out path differs
        assert blank_out(a) == blank_out(b)


def test_round_trip_outputs(trained):
    glob = json.loads((trained / "explain-first.json").read_text())
    assert glob["mode"] == "global" and glob["n_points"] == 20
    assert glob["features"] == ["gender", "score", "department"]
    assert glob["metadata"]["estimator"] == "exact"
    gap = sum(glob["means"]) - (glob["accuracy_full"] - glob["accuracy_empty"])
    assert abs(gap) < 1e-9
    report = json.loads((trained / "fairness-first.json").read_text())
    assert report["sensitive"] == ["gender"] and report["resolving"] == ["department"]
    # gender is the only sensitive feature, so its ASV is the whole sensitive mass.
    assert report["sensitive_asv"] == report["means"][0]


def test_explain_with_name_based_spec(trained):
    spec = trained / "spec.json"
    spec.write_text(json.dumps({
        "groups": [["department", "gender"], ["score"]],
        "edges": [["department", "gender"]],
        "direction": "proximate",
    }))
    out = trained / "spec-explain.json"
    assert main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--spec", str(spec), "--index", "3", "--samples", "8", "--seed", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "local" and doc["index"] == 3
    # Names resolved to indices (gender 0, score 1, department 2), then reversed.
    assert doc["metadata"]["ordering"] == {"n": 3, "groups": [[1], [0, 2]], "edges": [[0, 2]]}
    assert doc["n_samples"] == 1  # score, then gender before department
    assert "spec" in doc["input_hashes"]


def _on_trained(trained, tmp_path, command, *flags):
    """command's argv on the trained model and data with flags, writing tmp_path / x.json."""
    return [command, "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"), *flags,
            "--out", str(tmp_path / "x.json")]


def _with_spec(trained, tmp_path, content, *flags):
    """An explain argv on the trained model and data with content written as its --spec file."""
    spec = tmp_path / "spec.json"
    spec.write_text(content if isinstance(content, str) else json.dumps(content))
    return _on_trained(trained, tmp_path, "explain", "--spec", str(spec), *flags)


@pytest.mark.parametrize(
    "content",
    [
        {"n": 4, "groups": [[0, 1], [2, 3]]}, [["gender"]], "{not json", {"direction": "sideways"},
        {"edges": [["score", "gender", "department"]]}, {"edges": 5}, {"groups": [0, 1, 2]},
        {"n": 3.9}, {"n": "3"}, {"n": True}, {"edges": [[1.0, 2]]}, {"edges": [["score", 3]]},
    ],
)
def test_bad_spec_is_rejected(trained, tmp_path, capsys, content):
    assert not refusal_fault(capsys, tmp_path, _with_spec(trained, tmp_path, content, "--index", "0", "--seed", "0"))


def test_spec_of_another_width_names_the_width(trained, tmp_path, capsys):
    # The width check comes before entries resolve, so index 3 is not blamed.
    argv = _with_spec(trained, tmp_path, {"n": 4, "groups": [[0, 1], [2, 3]]}, "--index", "0", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "ordering spec covers 4 features, dataset has 3")


def test_fairness_rejects_a_model_of_another_schema(trained, tmp_path, capsys):
    # The same columns with gender renamed sex: the trained model's schema no longer matches.
    data, schema = tmp_path / "renamed.csv", tmp_path / "renamed.schema.json"
    data.write_text((trained / "data.csv").read_text().replace("gender", "sex", 1))
    schema.write_text((trained / "data.schema.json").read_text().replace('"gender"', '"sex"'))
    argv = ["fairness", "--model", str(trained / "model.json"), "--data", str(data), "--resolving", "department",
            "--sensitive", "sex", "--budget", "4", "--samples", "4", "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert not refusal_fault(capsys, tmp_path, argv, "model and dataset schemas differ")


@pytest.mark.parametrize("resolving, sensitive", [(",", "gender"), ("department", " , ")])
def test_blank_fairness_feature_list_exits_2(trained, tmp_path, capsys, resolving, sensitive):
    # An empty resolving list would audit without any ordering constraint.
    argv = _on_trained(trained, tmp_path, "fairness", "--resolving", resolving, "--sensitive", sensitive,
                       "--budget", "4", "--samples", "4", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "feature lists are required")


def test_misspelled_spec_keys_exit_2(trained, tmp_path, capsys):
    # "edge" and "group" are not spec keys; read as absent, they would leave the run unconstrained.
    argv = _with_spec(trained, tmp_path, {"edge": [["gender", "score"]], "group": [["gender", "score", "department"]]},
                      "--index", "0", "--samples", "4", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "unknown ordering-spec keys ['edge', 'group']")


def test_missing_model_exits_2(trained, tmp_path, capsys):
    argv = ["explain", "--model", str(tmp_path / "absent.json"), "--data", str(trained / "data.csv"), "--seed", "0",
            "--out", str(tmp_path / "x.json")]
    assert not refusal_fault(capsys, tmp_path, argv, "model file not found")


@pytest.mark.parametrize("data, message", [(None, "missing required dataset path"), ("empty.csv", "is empty")],
                         ids=["no-data", "empty-csv"])
def test_explain_without_dataset_rows_exits_2(trained, tmp_path, capsys, data, message):
    flags = []
    if data:
        (tmp_path / data).write_text("")
        flags = ["--data", str(tmp_path / data), "--schema", str(trained / "data.schema.json")]
    argv = ["explain", "--model", str(trained / "model.json"), *flags, "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert not refusal_fault(capsys, tmp_path, argv, message)


def _drop_first_weight_matrix(doc):
    doc["weights"] = doc["weights"][1:]
    return json.dumps(doc)


def _edit_config(key, value):
    """An edit setting the training config's key to value."""
    return lambda doc: json.dumps({**doc, "config": {**doc["config"], key: value}})


def _edit_standardizer(key, entries):
    """An edit replacing the standardizer's list under key by entries(that list)."""
    def edit(doc):
        st = doc["standardizer"]
        return json.dumps({**doc, "standardizer": {**st, key: entries(st[key])}})
    return edit


def _with_model(trained, tmp_path, doc):
    """A local explain argv on trained's data with doc (or its JSON text) written as its model file."""
    model = tmp_path / "model.json"
    model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return ["explain", "--model", str(model), "--data", str(trained / "data.csv"), "--index", "0", "--samples", "4",
            "--seed", "0", "--out", str(tmp_path / "x.json")]


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: json.dumps({"kind": "mlp"}), lambda doc: "{not json", _drop_first_weight_matrix,
        _edit_config("activation", "sigmoid"),  # would run as relu
        _edit_config("hidden", [10, 0]),
        # would leave the score column unstandardized
        lambda doc: json.dumps({**doc, "standardizer": {"mean": [], "scale": []}}),
        _edit_standardizer("scale", lambda s: [0.0] * len(s)),  # would divide by zero
        _edit_standardizer("scale", lambda s: [math.nan] * len(s)),
        _edit_standardizer("mean", lambda m: m[:-1]),  # would not broadcast
    ],
    ids=["no-schema", "not-json", "weights-dropped", "unknown-activation", "zero-width-layer",
         "no-continuous-features", "zero-scale", "nan-scale", "mean-entry-short"],
)
def test_malformed_model_file_exits_2(trained, tmp_path, capsys, edit):
    argv = _with_model(trained, tmp_path, edit(json.loads((trained / "model.json").read_text())))
    assert not refusal_fault(capsys, tmp_path, argv, "model file")


@pytest.mark.parametrize("key", ["weights", "biases"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_model_parameter_exits_2(trained, tmp_path, capsys, key, bad):
    # Loaded, it would turn every prediction, mean and accuracy into NaN.
    doc = json.loads((trained / "model.json").read_text())
    last = doc[key][-1]  # the output layer's weight matrix or bias vector
    (last[0] if key == "weights" else last)[0] = bad
    assert not refusal_fault(capsys, tmp_path, _with_model(trained, tmp_path, doc),
                             f"model file {tmp_path / 'model.json'} holds non-finite weights or biases")


@pytest.mark.parametrize(
    "key, value", [("epochs", 2.5), ("batch_size", True), ("patience", 3.0), ("hidden", [10.0, 10]),
                   ("hidden", [True])],
    ids=["epochs-2.5", "batch_size-true", "patience-3.0", "hidden-10.0", "hidden-true"],
)
def test_model_file_with_non_integer_config_counts_exits_2(trained, tmp_path, capsys, key, value):
    # config.hidden sizes the loaded net, so 10.0 or true must not pass as a width.
    doc = json.loads((trained / "model.json").read_text())
    argv = _with_model(trained, tmp_path, {**doc, "config": {**doc["config"], key: value}})
    assert not refusal_fault(capsys, tmp_path, argv, "malformed model file", "must be positive integers")


def test_model_file_with_a_patience_below_1_exits_2(trained, tmp_path, capsys):
    doc = json.loads((trained / "model.json").read_text())
    argv = _with_model(trained, tmp_path, {**doc, "config": {**doc["config"], "patience": 0}})
    assert not refusal_fault(capsys, tmp_path, argv, f"malformed model file {tmp_path / 'model.json'}",
                             "patience and hidden widths must be positive")


@pytest.mark.parametrize("seed", ["x", -1, True], ids=repr)
def test_model_file_with_a_bad_training_seed_exits_2(trained, tmp_path, capsys, seed):
    # Loaded, "x" would be kept as the model's seed, and true would read as seed 1.
    doc = json.loads((trained / "model.json").read_text())
    argv = _with_model(trained, tmp_path, {**doc, "config": {**doc["config"], "seed": seed}})
    assert not refusal_fault(capsys, tmp_path, argv, "malformed model file",
                             "training seed must be a nonnegative integer")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda schema: schema["features"][0].update(cardinality=2.5), "integer cardinality >= 2"),
        (lambda schema: schema["label"].update(classes=2.0), "integer count of at least 2 classes"),
    ],
    ids=["cardinality-2.5", "classes-2.0"],
)
def test_model_file_with_non_integer_schema_counts_exits_2(trained, tmp_path, capsys, edit, message):
    doc = json.loads((trained / "model.json").read_text())
    edit(doc["schema"])
    assert not refusal_fault(capsys, tmp_path, _with_model(trained, tmp_path, doc), message)


@pytest.mark.parametrize(
    "flag, value", [("--batch-size", "0"), ("--batch-size", "-5"), ("--epochs", "0"), ("--epochs", "-1"),
                    ("--hidden", "0"), ("--hidden", "10,0"), ("--patience", "0"), ("--patience", "-5"),
                    ("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--val-fraction", "0"),
                    ("--val-fraction", "nan"), ("--val-fraction", "0.999")],
)
def test_degenerate_train_setting_exits_2(trained, tmp_path, capsys, flag, value):
    message = {"--learning-rate": "learning_rate must be positive and finite",
               "--val-fraction": "val_fraction must be in (0, 1)"}.get(flag, "must be positive")
    if value == "0.999":  # inside (0, 1), but the 300 training rows leave no room for the inner split
        message = "val_fraction 0.999 leaves no training rows once the inner validation split takes its share"
    argv = ["train", "--data", str(trained / "data.csv"), flag, value, "--seed", "0", "--out", str(tmp_path / "m.json")]
    assert not refusal_fault(capsys, tmp_path, argv, message)


@pytest.mark.parametrize("command", ["explain", "fairness"])
def test_more_than_one_worker_exits_2(trained, tmp_path, capsys, command):
    argv = _on_trained(trained, tmp_path, command, "--workers", "2", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "--workers: invalid choice")


def _with_cell(trained, tmp_path, column, value):
    """A local explain argv on the trained data with line 6's cell in column replaced by value."""
    lines = (trained / "data.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = value
    lines[5] = ",".join(cells)
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    return ["explain", "--model", str(trained / "model.json"), "--data", str(tmp_path / "data.csv"), "--schema",
            str(trained / "data.schema.json"), "--index", "0", "--samples", "4", "--seed", "0",
            "--out", str(tmp_path / "x.json")]


def test_non_finite_data_cell_exits_2(trained, tmp_path, capsys):
    # score, the continuous column
    assert not refusal_fault(capsys, tmp_path, _with_cell(trained, tmp_path, 1, "inf"), "non-finite")


def test_label_beyond_int64_exits_2(trained, tmp_path, capsys):
    assert not refusal_fault(capsys, tmp_path, _with_cell(trained, tmp_path, -1, "99999999999999999999"),
                             "data.csv:6: label 99999999999999999999 is outside the int64 range")


def test_exhausted_rejection_sampling_exits_3(tmp_path, capsys):
    # A chain written as edges accepts 1 uniform draw in 12!, far past the budget.
    assert main(["gen-data", "markov", "--T", "12", "--rows", "200", "--seed", "0",
                 "--out", str(tmp_path / "markov")]) == 0
    assert main(["train", "--data", str(tmp_path / "markov.csv"), "--model", "logistic", "--epochs", "2",
                 "--seed", "0", "--out", str(tmp_path / "model.json")]) == 0
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps({"edges": [[f"t{t}", f"t{t + 1}"] for t in range(11)]}))
    code = main(["explain", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "markov.csv"),
                 "--spec", str(spec), "--mc", "--perms", "2", "--budget", "2", "--samples", "4",
                 "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "rejection sampling exhausted its budget" in capsys.readouterr().err


def test_cyclic_spec_and_exact_over_the_cap_exit_2(trained, tmp_path, capsys):
    cycle = {"edges": [["gender", "score"], ["score", "gender"]]}
    assert not refusal_fault(capsys, tmp_path, _with_spec(trained, tmp_path, cycle, "--samples", "4", "--seed", "0"),
                             "precedence constraints contain a cycle; the consistent set is empty")
    assert not refusal_fault(capsys, tmp_path, _on_trained(trained, tmp_path, "explain", "--exact", "--cap", "2",
                                                           "--samples", "4", "--seed", "0"),
                             "exact enumeration over 3 features exceeds the cap of 2; use sampling instead")


def test_single_class_training_data_exits_2(trained, tmp_path, capsys):
    header, *rows = (trained / "data.csv").read_text().splitlines()
    data = tmp_path / "data.csv"
    data.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ",0" for row in rows)]) + "\n")
    argv = ["train", "--data", str(data), "--schema", str(trained / "data.schema.json"), "--model", "logistic",
            "--epochs", "2", "--seed", "0", "--out", str(tmp_path / "model.json")]
    assert not refusal_fault(capsys, tmp_path, argv, "training data contains a single label class")


def test_oracle_check_is_gone(tmp_path, capsys):
    # The estimator self-check runs in tier-1 (TestEstimatorSelfCheck), not as a subcommand.
    assert not refusal_fault(capsys, tmp_path, ["oracle-check", "--seed", "0"], "invalid choice: 'oracle-check'")


def test_featselect_of_one_trial_exits_2(tmp_path, capsys):
    # The study's empirical spread is the sd across trials; one trial has none.
    argv = ["featselect", "--T", "3", "--trials", "1", "--rows", "300", "--samples", "8", "--budget", "20",
            "--seed", "0", "--out", str(tmp_path / "featselect.json")]
    assert not refusal_fault(capsys, tmp_path, argv, "at least 2 trials")


def test_fairness_audit_of_one_point_exits_2(trained, tmp_path, capsys):
    # The audit's stderr is the spread across its points; one point has none.
    argv = _on_trained(trained, tmp_path, "fairness", "--resolving", "department", "--sensitive", "gender",
                       "--budget", "1", "--samples", "4", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "at least 2 points")


def test_explain_of_one_point_exits_2(trained, tmp_path, capsys):
    # A dataset average's stderr is the spread across its points; one point has none.
    argv = _on_trained(trained, tmp_path, "explain", "--exact", "--budget", "1", "--samples", "4", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, "at least 2 points")


def test_explain_seed_from_2_to_the_32_exits_2(trained, tmp_path, capsys):
    # Its two words would be the words of seed 0 and point index 1.
    argv = _on_trained(trained, tmp_path, "explain", "--samples", "4", "--seed", "4294967296")
    assert not refusal_fault(capsys, tmp_path, argv, "seed must be nonnegative and below 2^32, got 4294967296")


@pytest.mark.parametrize(
    "argv", [["gen-data", "markov"], ["train"], ["explain"], ["fairness"], ["featselect"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, argv, via):
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = [*argv, "--seed", "-1"]
    else:  # an args file, one token per line
        (tmp_path / "config.args").write_text("--seed\n-1\n")
        argv = [*argv, "@config.args"]
    assert not refusal_fault(capsys, tmp_path, argv, "seed must be nonnegative, got -1")


def test_runs_as_a_module(tmp_path):
    src = str(Path(asymshap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "asymshap", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: asymshap")
    # A refusal's status leaves the process too.
    done = subprocess.run([sys.executable, "-m", "asymshap", "explain", "--seed", "0"], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "missing required model path" in done.stderr, done.stderr


def test_pipeline_never_imports_numpy_ma(tmp_path):
    # A fresh interpreter: pytest's may have imported numpy.ma already.
    src = str(Path(asymshap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = """if True:
        import sys
        from asymshap.cli import main
        d = sys.argv[1]
        main(["gen-data", "unfair-admissions", "--rows", "200", "--seed", "0", "--out", d + "/data"])
        main(["train", "--data", d + "/data.csv", "--model", "mlp", "--epochs", "5", "--seed", "0",
              "--out", d + "/model.json"])
        common = ["--model", d + "/model.json", "--data", d + "/data.csv", "--budget", "10",
                  "--samples", "4", "--seed", "0"]
        main(["explain", *common, "--out", d + "/explain.json"])
        main(["fairness", *common, "--resolving", "department", "--sensitive", "gender",
              "--out", d + "/fairness.json"])
        print("numpy.ma" in sys.modules)
    """
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_output_is_invariant_to_blas_threads(tmp_path):
    # A 32-wide hidden layer makes a predictor call of PREDICT_ROWS rows large enough for OpenBLAS
    # to split it across 2 threads.
    data, model = tmp_path / "data", tmp_path / "model.json"
    assert main(["gen-data", "markov", "--T", "8", "--rows", "300", "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", "--data", f"{data}.csv", "--hidden", "32,32", "--epochs", "5", "--seed", "0",
                 "--out", str(model)]) == 0
    src = str(Path(asymshap.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads-{threads}"
        run.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "asymshap", "explain", "--model", str(model), "--data",
                               f"{data}.csv", "--mc", "--perms", "40", "--samples", "64", "--budget", "3",
                               "--seed", "0", "--out", "explain.json"],
                              cwd=run, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append((run / "explain.json").read_bytes())
    assert outputs[0] == outputs[1]
    meta = json.loads(outputs[0])["metadata"]
    # Each point's masks below the full set go PREDICT_ROWS // 64 to a call of PREDICT_ROWS rows, and
    # the points average more than that many, so some call reaches the cap.
    assert meta["prediction_rows"] == 64 * meta["coalitions_evaluated"]
    assert meta["coalitions_evaluated"] / 3 - 1 > asymshap.values.PREDICT_ROWS // 64


def _seed_blanked(path):
    """The output JSON at path with the run's seed and out path blanked, wherever they are echoed."""
    doc = json.loads(path.read_text())
    doc["config"]["seed"] = doc["config"]["out"] = None
    doc["metadata"]["seed"] = None
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 60-row chain dataset and a logistic model trained on it."""
    d = tmp_path_factory.mktemp("chain")
    assert main(["gen-data", "chain", "--rows", "60", "--seed", "0", "--out", str(d / "data")]) == 0
    assert main(["train", "--data", str(d / "data.csv"), "--model", "logistic", "--epochs", "20", "--seed", "0",
                 "--out", str(d / "model.json")]) == 0
    return d


@pytest.mark.parametrize(
    "flags, seed_free",
    [(["explain", "--exact", "--samples", "100"], True),
     (["explain", "--exact", "--strategy", "exact-match", "--samples", "100"], True),
     (["fairness", "--strategy", "off-manifold", "--samples", "100", "--budget", "100",
       "--resolving", "x1", "--sensitive", "x2"], True),
     (["explain", "--exact", "--strategy", "exact-match", "--samples", "8"], False)],
    ids=["off-manifold", "exact-match", "fairness-off-manifold", "exact-match-sampled"],
)
def test_a_run_that_samples_nothing_does_not_depend_on_its_seed(chain, tmp_path, flags, seed_free):
    # 60 rows fit in 100 samples: the background is used whole, each exact-match pool once, and an exact
    # run draws no orders. Pools of more than 8 rows are drawn from, so the last run depends on its seed.
    docs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed-{seed}.json"
        assert main([*flags, "--model", str(chain / "model.json"), "--data", str(chain / "data.csv"),
                     "--seed", seed, "--out", str(out)]) == 0
        docs.append(_seed_blanked(out))
    assert (docs[0] == docs[1]) is seed_free


AUTO = {"exact": None, "mc": None, "cap": 10}


@pytest.mark.parametrize(
    "argv",
    [["explain", "--exact", "--budget", "4"], ["explain", "--index", "0"],
     ["fairness", "--resolving", "department", "--sensitive", "gender", "--budget", "4"]],
    ids=["explain-exact", "explain-index", "fairness"],
)
def test_every_exact_path_warns_from_its_enumeration(trained, tmp_path, monkeypatch, caplog, argv):
    # 3! orders for explain and 3 for the audit, both above a lowered threshold.
    monkeypatch.setattr(asymshap.coalitions, "AUTO_EXACT_WARN_ORDERS", 2)
    with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
        assert main([*argv, "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                     "--samples", "4", "--seed", "0", "--out", str(tmp_path / "out.json")]) == 0
    (record,) = [r for r in caplog.records if r.name == "asymshap.coalitions"]
    assert "over 3 features" in record.message


def test_logistic_model_records_no_hidden_layers(trained, tmp_path):
    out = tmp_path / "logistic.json"
    assert main(["train", "--data", str(trained / "data.csv"), "--model", "logistic", "--epochs", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["hidden"] == []
    assert [np.shape(w) for w in doc["weights"]] == [(5, 2)]  # gender 2 + score 1 + department 2 columns


def test_logistic_file_recording_hidden_layers_exits_2(trained, tmp_path, capsys):
    # Logistic files once echoed --hidden in their config beside a net with no hidden layer. The config
    # now sizes the net, so such a file names the sizes its weights do not chain.
    out = tmp_path / "logistic.json"
    assert main(["train", "--data", str(trained / "data.csv"), "--model", "logistic", "--epochs", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    old = {**doc, "kind": "logistic", "sizes": [5, 2], "activation": "tanh",
           "config": {**doc["config"], "hidden": [10, 10]}}
    assert not refusal_fault(capsys, tmp_path, _with_model(trained, tmp_path, old),
                             "does not hold the weights and biases of a net of sizes [5, 10, 10, 2]")


def test_mlp_without_hidden_layers_exits_2(trained, tmp_path, capsys):
    argv = ["train", "--data", str(trained / "data.csv"), "--model", "mlp", "--hidden", "", "--epochs", "2",
            "--seed", "0", "--out", str(tmp_path / "mlp.json")]
    assert not refusal_fault(capsys, tmp_path, argv, "an MLP needs at least one hidden layer")


@pytest.mark.parametrize(
    "resolved, spec, want",
    [
        (AUTO, OrderingSpec(8), "exact"),  # exactly 8! orders
        (AUTO, OrderingSpec(9, groups=((0, 1, 2, 3), (4, 5, 6, 7, 8))), "exact"),  # 4!5! orders
        (AUTO, OrderingSpec(11), "mc"),  # above the cap
        ({**AUTO, "exact": True}, OrderingSpec(9), "exact"),  # asked for
        ({**AUTO, "mc": True}, OrderingSpec(9), "mc"),
    ],
)
def test_no_warning_otherwise(caplog, resolved, spec, want):
    with caplog.at_level(logging.WARNING):
        assert _choose_estimator(resolved, spec) == want
    assert caplog.records == []


def test_bad_comma_list_flag_exits_2(tmp_path, capsys):
    assert not refusal_fault(capsys, tmp_path, ["train", "--hidden", "10,a", "--seed", "0"], "--hidden")


def test_local_run_rejects_a_locals_csv(trained, tmp_path, capsys):
    # A local run has no per-point table to write, so the flag would be dropped silently.
    argv = _on_trained(trained, tmp_path, "explain", "--index", "3", "--samples", "4", "--seed", "0",
                       "--locals-csv", str(tmp_path / "locals.csv"))
    assert not refusal_fault(capsys, tmp_path, argv,
                             "--locals-csv writes a global run's per-point attributions; drop --index")


@pytest.mark.parametrize(
    "flags, message",
    [(["--target", "argmax"], "--target picks the class of a local run"),
     (["--index", "3", "--budget", "5"], "--budget caps a global run's points; drop --index"),
     (["--index", "400"], "--index 400 outside [0, 400)"),
     (["--exact", "--mc"], "--exact and --mc are mutually exclusive")],
    ids=["global-target", "local-budget", "index-range", "exact-and-mc"],
)
def test_explain_rejects_a_flag_its_mode_ignores(trained, tmp_path, monkeypatch, capsys, flags, message):
    enumerated = []
    monkeypatch.setattr(asymshap.attribution, "enumerate_consistent", lambda *a, **k: enumerated.append(a))
    argv = _on_trained(trained, tmp_path, "explain", *flags, "--samples", "4", "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, message)
    assert enumerated == []  # rejected before the plan enumerates any orders


def test_local_run_explains_the_argmax_class(trained, tmp_path):
    model = asymshap.TrainedModel.load(trained / "model.json")
    ds = asymshap.load_csv(trained / "data.csv", trained / "data.schema.json")
    predicted = model.predict(ds.X).argmax(axis=1)
    r = int(np.flatnonzero(predicted != ds.y)[0])  # a row whose predicted class is not its label
    docs = {}
    for target in ("label", "argmax"):
        out = tmp_path / f"{target}.json"
        assert main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                     "--index", str(r), "--target", target, "--exact", "--samples", "4", "--seed", "0",
                     "--out", str(out)]) == 0
        docs[target] = json.loads(out.read_text())
    assert docs["label"]["class_index"] == ds.y[r]
    assert docs["argmax"]["class_index"] == predicted[r]
    for doc in docs.values():
        # v(N) is the model's probability of the explained class at the row itself.
        assert doc["total"] == pytest.approx(model.predict(ds.X[r][None, :])[0, doc["class_index"]], abs=1e-12)


@pytest.mark.parametrize("estimator", ["--exact", "--mc"])
def test_local_run_matches_its_row_of_the_global_run(trained, tmp_path, estimator):
    common = ["--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
              estimator, "--samples", "8", "--perms", "20", "--seed", "0"]
    locals_csv = tmp_path / "locals.csv"
    assert main(["explain", *common, "--out", str(tmp_path / "global.json"),
                 "--locals-csv", str(locals_csv)]) == 0
    rows = [line.split(",") for line in locals_csv.read_text().splitlines()[1:]]
    assert len(rows) == 400  # no budget: every row, in row order
    for r in (3, 17):
        out = tmp_path / f"local-{r}.json"
        assert main(["explain", *common, "--index", str(r), "--out", str(out)]) == 0
        local = json.loads(out.read_text())
        assert local["means"] == [float(v) for v in rows[r]]
        if estimator == "--exact":
            # Every coalition of the 3 features once, with 8 completion rows each, in two predictor
            # calls: the seven below the full set together, and the full set alone.
            assert local["metadata"]["coalitions_evaluated"] == 8
            assert local["metadata"]["value_evaluations"] == 2
            assert local["metadata"]["prediction_rows"] == 64


# The settings each command resolves when given only --seed (and gen-data's scenario).
DECLARED_DEFAULTS = {
    "gen-data": {
        "scenario": None, "rows": 10000, "seed": None, "out": None,
        "T": 12, "ar": 0.7, "shift": 1.0, "decay": 0.7,
    },
    "train": {
        "data": None, "schema": None, "model": "mlp", "out": "model.json",
        "learning_rate": 0.1, "epochs": 300, "batch_size": 32, "momentum": 0.9,
        "hidden": "10,10", "activation": "tanh", "val_fraction": 0.25,
        "patience": 20, "test_fraction": 0.25, "seed": None,
    },
    "explain": {
        "model": None, "data": None, "schema": None, "spec": None,
        "strategy": "off-manifold", "k": 10, "samples": 100,
        "exact": None, "mc": None, "perms": 200, "budget": None,
        "index": None, "target": "label", "workers": 1,
        "cap": DEFAULT_ENUMERATION_CAP, "seed": None,
        "out": "attribution.json", "locals_csv": None,
    },
    "fairness": {
        "model": None, "data": None, "schema": None,
        "resolving": None, "sensitive": None,
        "strategy": "exact-match", "k": 10, "samples": 64,
        "estimator": "exact", "perms": 200, "budget": 2000,
        "workers": 1, "seed": None, "out": "fairness.json",
    },
    "featselect": {
        "T": 12, "trials": 5, "rows": 4000, "seed": None,
        "ar": 0.7, "shift": 1.0, "decay": 0.7,
        "samples": 64, "budget": 300, "out": "featselect.json",
    },
}


@pytest.mark.parametrize("command", list(DECLARED_DEFAULTS))
def test_declared_defaults(command):
    argv = [command, "--seed", "0"]
    expected = {**DECLARED_DEFAULTS[command], "seed": 0}
    if command == "gen-data":
        argv.append("markov")
        expected["scenario"] = "markov"
    settings = _settings(build_parser().parse_args(argv))
    # Compared as echoed, so 1.0 and 1 differ.
    assert json.dumps(settings, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize(
    "command, flag, default",
    [
        ("gen-data", "--rows ROWS", "10000"),
        ("train", "--epochs EPOCHS", "300"),
        ("explain", "--strategy {off-manifold,exact-match,knn}", "off-manifold"),
        ("fairness", "--budget BUDGET", "2000"),
        ("featselect", "--trials TRIALS", "5"),
    ],
)
def test_help_shows_every_default(capsys, command, flag, default):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.rsplit(flag, 1)[1].split("(default: ", 1)[1].startswith(f"{default})")
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [a for a in subparsers.choices[command]._actions if a.option_strings]
    assert text.count("(default: ") == len(flags) - 1  # all but --help


@pytest.mark.parametrize(
    "flags, message",
    [(["--samples", "0", "--budget", "5"], "sample count must be positive"),
     (["--samples", "4", "--budget", "1"], "at least 2 points")],
    ids=["no-samples", "one-point"],
)
def test_exact_run_is_checked_before_its_orders_are_enumerated(trained, tmp_path, monkeypatch, capsys, flags,
                                                                message):
    enumerated = []
    monkeypatch.setattr(asymshap.attribution, "enumerate_consistent", lambda *a, **k: enumerated.append(a))
    argv = _on_trained(trained, tmp_path, "explain", "--exact", *flags, "--seed", "0")
    assert not refusal_fault(capsys, tmp_path, argv, message)
    assert enumerated == []


def test_missing_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert not refusal_fault(capsys, tmp_path, ["gen-data", "chain", "--rows", "20"], "a seed is required")


def test_write_into_a_missing_directory_exits_2(tmp_path, capsys):
    argv = ["gen-data", "chain", "--rows", "20", "--seed", "0", "--out", str(tmp_path / "missing" / "data")]
    assert not refusal_fault(capsys, tmp_path, argv, "No such file or directory")


@pytest.mark.parametrize(
    "scenario, features",
    [("fair-admissions", ["gender", "score", "department"]), ("chain", ["x1", "x2"]),
     ("collider", ["x1", "x2"]), ("mixed", ["x1", "x2"])],
)
def test_gen_data_writes_each_scenario(tmp_path, scenario, features):
    prefix = tmp_path / "data"
    assert main(["gen-data", scenario, "--rows", "30", "--seed", "0", "--out", str(prefix)]) == 0
    ds = asymshap.load_csv(tmp_path / "data.csv", tmp_path / "data.schema.json")
    assert list(ds.schema.names) == features and ds.X.shape == (30, len(features)) and ds.y.shape == (30,)
    manifest = json.loads((tmp_path / "data.manifest.json").read_text())
    assert manifest["scenario"] == scenario and sorted(manifest["files"]) == ["csv", "schema"]
    for entry in manifest["files"].values():
        assert entry["sha256"] == cli._sha256_file(entry["path"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.manifest.json", "data.schema.json"]


def test_train_warns_when_accuracy_is_within_noise_of_the_majority_rate(tmp_path, caplog):
    # Labels independent of the features, 19 in 20 of class 0: no model beats the majority rate.
    rng = np.random.default_rng(0)
    schema = asymshap.Schema((asymshap.FeatureSpec("a", asymshap.CONTINUOUS),))
    ds = asymshap.Dataset(rng.normal(size=(400, 1)), (np.arange(400) % 20 == 0).astype(int), schema)
    asymshap.save_csv(ds, tmp_path / "noise.csv", tmp_path / "noise.schema.json")
    with caplog.at_level(logging.WARNING, logger="asymshap.cli"):
        assert main(["train", "--data", str(tmp_path / "noise.csv"), "--model", "logistic", "--epochs", "2",
                     "--seed", "0", "--out", str(tmp_path / "model.json")]) == 0
    (record,) = [r for r in caplog.records if r.name == "asymshap.cli"]
    assert "within noise of the majority-class rate" in record.message
    metrics = json.loads((tmp_path / "model.metrics.json").read_text())["metrics"]
    assert metrics["test_max_class_accuracy"] <= metrics["majority_class_rate"] + 0.02


def test_featselect_writes_its_json_and_trials_csv(tmp_path, capsys):
    out = tmp_path / "featselect.json"
    assert main(["featselect", "--T", "3", "--trials", "2", "--rows", "300", "--samples", "8",
                 "--budget", "20", "--seed", "0", "--out", str(out)]) == 0
    trials_csv = tmp_path / "featselect.trials.csv"
    assert str(trials_csv) in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["ts"] == [0, 1, 2]
    for key in ("cumulative_asv", "cumulative_stderr", "empirical_mean", "empirical_sd"):
        assert len(doc[key]) == 3
    assert np.array(doc["trials"]).shape == (2, 3)
    assert doc["attribution"]["n_points"] == 20 and doc["config"]["trials"] == 2
    header, *rows = trials_csv.read_text().splitlines()
    assert header == "t0,t1,t2"
    assert [[float(v) for v in row.split(",")] for row in rows] == doc["trials"]


@pytest.mark.parametrize(
    "argv", [["explain", "--sample", "8"], ["explain", "--perm", "20"], ["explain", "--ex"],
             ["train", "--hid", "3"], ["explain", "--config", "x.json"]],
    ids=lambda argv: argv[1],
)
def test_abbreviated_or_removed_flag_exits_2(tmp_path, capsys, argv):
    # Read as --samples, --perms, --exact and --hidden, a typo would run with another setting. An args
    # file (@FILE) sets flags in place of a --config JSON file.
    assert not refusal_fault(capsys, tmp_path, [*argv, "--seed", "0"],
                             f"unrecognized arguments: {' '.join(argv[1:])}")


@pytest.mark.parametrize(
    "lines, named",
    [
        (["--samples", "many"], "argument --samples: invalid int value: 'many'"),
        (["--samples", "2.7"], "argument --samples: invalid int value: '2.7'"),
        (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["--exact=no"], "argument --exact: ignored explicit argument 'no'"),
        (["--strategy", "psychic"], "argument --strategy: invalid choice: 'psychic'"),
        (["--workers", "2"], "argument --workers: invalid choice: 2"),  # points run in one thread
        (["--samples", "4", "--sample", "8"], "unrecognized arguments: --sample 8"),
    ],
    ids=["samples-many", "samples-2.7", "seed-x", "exact-no", "strategy-psychic", "workers-2", "sample"],
)
def test_bad_args_file_value_exits_2(trained, tmp_path, capsys, lines, named):
    args = tmp_path / "bad.args"
    args.write_text("\n".join(lines) + "\n")
    assert not refusal_fault(capsys, tmp_path, _on_trained(trained, tmp_path, "explain", f"@{args}", "--index", "0"),
                             named)


@pytest.mark.parametrize(
    "command, lines, named",
    [("train", ["--hidden=10,a"], "argument --hidden: invalid comma-separated int value: '10,a'")],
    ids=["hidden-bad-item"],  # the items of hidden's string form must be integers
)
def test_untyped_config_value_must_be_a_string(tmp_path, capsys, command, lines, named):
    args = tmp_path / "config.args"
    args.write_text("\n".join(lines) + "\n")
    assert not refusal_fault(capsys, tmp_path, [command, f"@{args}", "--seed", "0"], named)


def test_float_config_value_is_stored_as_a_float(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.args").write_text("--ar\n1\n--T=3\n--rows\n20\n")
    assert main(["gen-data", "markov", "@config.args", "--seed", "0"]) == 0
    echoed = json.loads((tmp_path / "markov.manifest.json").read_text())["config"]
    assert echoed["ar"] == 1.0 and type(echoed["ar"]) is float


def test_non_numeric_float_config_value_exits_2(tmp_path, capsys):
    args = tmp_path / "config.args"
    args.write_text("--learning-rate\nfast\n")
    assert not refusal_fault(capsys, tmp_path, ["train", f"@{args}", "--seed", "0"],
                             "argument --learning-rate: invalid float value: 'fast'")


# Non-default settings for each command, spelled both --flag value and --flag=value.
ARGS_FILE_TOKENS = {
    "gen-data": "markov --rows 50 --T=4 --ar 0.5 --shift 2 --out series",
    "train": "--data d.csv --model=logistic --hidden 4,4 --epochs 3 --learning-rate 0.05 --test-fraction=0.5",
    "explain": "--model m.json --data=d.csv --spec s.json --exact --samples 8 --strategy knn --index 3",
    "fairness": "--resolving department --sensitive=gender --estimator mc --perms 20 --budget 20",
    "featselect": "--T 3 --trials 2 --decay 0.5 --samples 8 --out fs.json",
}


@pytest.mark.parametrize("command", list(ARGS_FILE_TOKENS))
def test_args_file_resolves_as_its_tokens_on_the_command_line(tmp_path, command):
    tokens = [*ARGS_FILE_TOKENS[command].split(), "--seed", "3"]
    args = tmp_path / "run.args"
    args.write_text("\n".join(tokens) + "\n")
    from_file = _settings(build_parser().parse_args([command, f"@{args}"]))
    assert from_file == _settings(build_parser().parse_args([command, *tokens]))
    assert from_file["seed"] == 3


def test_blank_lines_in_an_args_file_are_skipped(tmp_path, monkeypatch):
    # A blank line is no argument, in a file named on the command line or in one nested in another.
    files = {"plain": {"run.args": "--rows=20\n--seed=0\n"},
             "blank": {"run.args": "--rows=20\n\n--seed=0\n\n"},
             "nested": {"run.args": "\n@inner.args\n", "inner.args": "--rows=20\n\n--seed=0\n"}}
    written = {}
    for case, texts in files.items():
        (tmp_path / case).mkdir()
        monkeypatch.chdir(tmp_path / case)
        for name, text in texts.items():
            (tmp_path / case / name).write_text(text)
        assert main(["gen-data", "chain", "@run.args"]) == 0
        written[case] = {p.name: p.read_bytes() for p in sorted((tmp_path / case).iterdir()) if p.suffix != ".args"}
    assert len(written["plain"]) == 3
    assert written["blank"] == written["nested"] == written["plain"]


def test_args_file_gives_the_same_run(trained, tmp_path):
    common = ["--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
              "--budget", "20", "--samples", "8", "--seed", "0"]
    args = tmp_path / "explain.args"
    args.write_text("\n".join([*common, "--samples", "2"]) + "\n")
    # The last --samples wins: the file's 2 overrides the 1 before it, and the 8 after it overrides the 2.
    out = tmp_path / "file.json"
    assert main(["explain", "--samples", "1", f"@{args}", "--samples", "8", "--out", str(out)]) == 0
    assert main(["explain", *common, "--out", str(tmp_path / "flags.json")]) == 0
    assert blank_out(out) == blank_out(tmp_path / "flags.json")


def test_value_starting_with_at_is_attached_with_equals(trained, tmp_path, monkeypatch, capsys):
    # "@missing.json" alone is an args file to read, and a missing one exits 2 naming it; after "=" it is
    # the flag's value.
    monkeypatch.chdir(tmp_path)
    common = ["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
              "--index", "0", "--samples", "4", "--seed", "0"]
    assert not refusal_fault(capsys, tmp_path, [*common, "--out", "@missing.json"],
                             "No such file or directory: 'missing.json'")
    assert main([*common, "--out=@x.json"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["@x.json"]
    assert json.loads((tmp_path / "@x.json").read_text())["config"]["out"] == "@x.json"
