"""The command line end to end, at toy size: round trip, determinism, exit codes."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asymshap
from asymshap import DEFAULT_ENUMERATION_CAP, OrderingSpec
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


@pytest.mark.parametrize(
    "content",
    [
        {"n": 4, "groups": [[0, 1], [2, 3]]}, [["gender"]], "{not json", {"direction": "sideways"},
        {"edges": [["score", "gender", "department"]]}, {"edges": 5}, {"groups": [0, 1, 2]},
        {"n": 3.9}, {"n": "3"}, {"n": True},
    ],
)
def test_bad_spec_is_rejected(trained, content):
    spec = trained / "bad-spec.json"
    spec.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--spec", str(spec), "--index", "0", "--seed", "0", "--out", str(trained / "x.json")])
    assert code == 2


def test_fairness_rejects_a_model_of_another_schema(trained, tmp_path, capsys):
    # The same columns with gender renamed sex: the trained model's schema no longer matches.
    data, schema = tmp_path / "renamed.csv", tmp_path / "renamed.schema.json"
    data.write_text((trained / "data.csv").read_text().replace("gender", "sex", 1))
    schema.write_text((trained / "data.schema.json").read_text().replace('"gender"', '"sex"'))
    out = tmp_path / "fairness.json"
    code = main(["fairness", "--model", str(trained / "model.json"), "--data", str(data),
                 "--resolving", "department", "--sensitive", "sex", "--budget", "4",
                 "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "model and dataset schemas differ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resolving, sensitive", [(",", "gender"), ("department", " , ")])
def test_blank_fairness_feature_list_exits_2(trained, tmp_path, capsys, resolving, sensitive):
    # An empty resolving list would audit without any ordering constraint.
    out = tmp_path / "fairness.json"
    code = main(["fairness", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--resolving", resolving, "--sensitive", sensitive, "--budget", "4", "--samples", "4",
                 "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "feature lists are required" in capsys.readouterr().err
    assert not out.exists()


def test_misspelled_spec_keys_exit_2(trained, capsys):
    # "edge" and "group" are not spec keys; read as absent, they would leave the run unconstrained.
    spec = trained / "misspelled-spec.json"
    spec.write_text(json.dumps({"edge": [["gender", "score"]], "group": [["gender", "score", "department"]]}))
    out = trained / "misspelled.json"
    code = main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--spec", str(spec), "--index", "0", "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "unknown ordering-spec keys ['edge', 'group']" in capsys.readouterr().err
    assert not out.exists()


def test_missing_model_exits_2(trained, capsys):
    code = main(["explain", "--model", str(trained / "absent.json"), "--data", str(trained / "data.csv"),
                 "--seed", "0"])
    assert code == 2
    assert "model file not found" in capsys.readouterr().err


def _drop_first_weight_matrix(doc):
    doc["weights"] = doc["weights"][1:]
    return json.dumps(doc)


def _edit_standardizer(key, entries):
    """An edit replacing the standardizer's list under key by entries(that list)."""
    def edit(doc):
        st = doc["standardizer"]
        return json.dumps({**doc, "standardizer": {**st, key: entries(st[key])}})
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: json.dumps({"kind": "mlp"}), lambda doc: "{not json", _drop_first_weight_matrix,
        lambda doc: json.dumps({**doc, "activation": "sigmoid"}),  # would run as relu
        lambda doc: json.dumps({**doc, "sizes": [doc["sizes"][0], 0, *doc["sizes"][2:]]}),
        _edit_standardizer("continuous", lambda c: []),  # would leave the score column unstandardized
        _edit_standardizer("scale", lambda s: [0.0] * len(s)),  # would divide by zero
        _edit_standardizer("scale", lambda s: [math.nan] * len(s)),
        _edit_standardizer("mean", lambda m: m[:-1]),  # would not broadcast
    ],
    ids=["no-schema", "not-json", "weights-dropped", "unknown-activation", "zero-width-layer",
         "no-continuous-features", "zero-scale", "nan-scale", "mean-entry-short"],
)
def test_malformed_model_file_exits_2(trained, tmp_path, capsys, edit):
    model = tmp_path / "model.json"
    model.write_text(edit(json.loads((trained / "model.json").read_text())))
    out = tmp_path / "x.json"
    code = main(["explain", "--model", str(model), "--data", str(trained / "data.csv"),
                 "--index", "0", "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "model file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--batch-size", "0"), ("--batch-size", "-5"), ("--epochs", "0"), ("--epochs", "-1"),
                    ("--hidden", "0"), ("--hidden", "10,0")],
)
def test_degenerate_train_setting_exits_2(trained, tmp_path, capsys, flag, value):
    out = tmp_path / "model.json"
    code = main(["train", "--data", str(trained / "data.csv"), flag, value, "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "fairness"])
def test_more_than_one_worker_exits_2(trained, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
              "--workers", "2", "--seed", "0"])
    assert exc.value.code == 2
    assert "--workers: invalid choice" in capsys.readouterr().err


def test_non_finite_data_cell_exits_2(trained, tmp_path, capsys):
    lines = (trained / "data.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "inf"  # score, the continuous column
    lines[5] = ",".join(cells)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    code = main(["explain", "--model", str(trained / "model.json"), "--data", str(data),
                 "--schema", str(trained / "data.schema.json"), "--index", "0", "--samples", "4",
                 "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


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


def test_failed_oracle_check_exits_4(capsys):
    # Two permutation draws give stderrs too loose to be meaningful: coverage 0.80.
    assert main(["oracle-check", "--n", "4", "--games", "5", "--perms", "2", "--seed", "0"]) == 4
    assert capsys.readouterr().out.startswith("FAIL")


def test_oracle_check_passes(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--n", "6", "--games", "20", "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    report = json.loads(out.read_text())
    assert report["pass"] is True
    for gap in ("max_dual_formula_gap", "max_efficiency_gap", "max_telescoping_gap"):
        assert report[gap] <= 1e-9
    assert report["mc_within_4_stderr"] >= 0.99


def test_featselect_of_one_trial_exits_2(tmp_path, capsys):
    # The study's empirical spread is the sd across trials; one trial has none.
    out = tmp_path / "featselect.json"
    code = main(["featselect", "--T", "3", "--trials", "1", "--rows", "300", "--samples", "8",
                 "--budget", "20", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "at least 2 trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("games", [0, -3])
def test_oracle_check_without_games_exits_2(capsys, games):
    assert main(["oracle-check", "--games", str(games), "--seed", "0"]) == 2
    assert "games must be at least 1" in capsys.readouterr().err


def test_fairness_audit_of_one_point_exits_2(trained, capsys):
    # The audit's stderr is the spread across its points; one point has none.
    out = trained / "one-point.json"
    code = main(["fairness", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--resolving", "department", "--sensitive", "gender", "--budget", "1",
                 "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "at least 2 points" in capsys.readouterr().err
    assert not out.exists()


def test_explain_of_one_point_exits_2(trained, capsys):
    # A dataset average's stderr is the spread across its points; one point has none.
    out = trained / "one-point-explain.json"
    code = main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--exact", "--budget", "1", "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "at least 2 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["gen-data", "markov"], ["train"], ["explain"], ["fairness"], ["featselect"], ["oracle-check"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, argv, via):
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = [*argv, "--seed", "-1"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"seed": -1}))
        argv = [*argv, "--config", "config.json"]
    assert main(argv) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if via == "config" else [])


def test_runs_as_a_module():
    src = str(Path(asymshap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "asymshap", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: asymshap")


AUTO = {"exact": None, "mc": None, "cap": 10}


def test_auto_exact_warns_above_8_factorial_orders(caplog):
    with caplog.at_level(logging.WARNING, logger="asymshap.cli"):
        assert _choose_estimator(AUTO, OrderingSpec(9), 100) == "exact"
    (record,) = caplog.records
    assert str(math.factorial(9)) in record.message
    assert str(100 * math.factorial(9)) in record.message


def test_auto_exact_warning_says_orders_are_enumerated_once_per_run(caplog):
    with caplog.at_level(logging.WARNING, logger="asymshap.cli"):
        assert _choose_estimator(AUTO, OrderingSpec(9), 100) == "exact"
    (record,) = caplog.records
    assert "enumerated once" in record.message
    assert "reduced at each of 100 points" in record.message
    assert "per point" not in record.message


def test_auto_exact_bounds_edge_specs_by_n_factorial(caplog):
    # A chain has one consistent order, but counting it would enumerate.
    chain = OrderingSpec(9, edges=frozenset((i, i + 1) for i in range(8)))
    with caplog.at_level(logging.WARNING, logger="asymshap.cli"):
        assert _choose_estimator(AUTO, chain, 1) == "exact"
    (record,) = caplog.records
    assert str(math.factorial(9)) in record.message


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
    with caplog.at_level(logging.WARNING, logger="asymshap.cli"):
        assert _choose_estimator(resolved, spec, 1000) == want
    assert caplog.records == []


@pytest.mark.parametrize(
    "content, named",
    [
        ({"samples": "many"}, "'samples'"),  # int flag, string value
        ({"seed": "x"}, "'seed'"),
        (5, "JSON object"),  # not an object at all
        ({"samples": 2.7}, "'samples'"),  # int flag, non-integral number
        ({"exact": "no"}, "'exact'"),  # on/off flag takes true, false or null
        ({"strategy": "psychic"}, "'strategy'"),  # outside the flag's choices
        ({"workers": 2}, "'workers'"),  # points run in one thread
    ],
)
def test_bad_config_value_exits_2(trained, capsys, content, named):
    config = trained / "bad-config.json"
    config.write_text(json.dumps(content))
    code = main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--config", str(config), "--index", "0", "--out", str(trained / "x.json")])
    assert code == 2
    assert named in capsys.readouterr().err


def test_config_values_are_stored_as_their_flag_would(trained):
    config = trained / "config.json"
    config.write_text(json.dumps({"samples": 8.0, "exact": True, "mc": None, "seed": 0}))
    out = trained / "config-explain.json"
    assert main(["explain", "--model", str(trained / "model.json"), "--data", str(trained / "data.csv"),
                 "--config", str(config), "--index", "0", "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["config"]
    assert echoed["samples"] == 8 and isinstance(echoed["samples"], int)
    assert echoed["exact"] is True and echoed["mc"] is None


@pytest.mark.parametrize(
    "command, content",
    [
        ("oracle-check", {"out": 1}),  # a path key: an int would be opened as a file descriptor
        ("oracle-check", {"out": 5}),
        ("explain", {"data": 7}),
        ("explain", {"spec": True}),
        ("train", {"hidden": ["a"]}),  # list entries of hidden must be integers
        ("train", {"hidden": "10,a"}),  # and so must the items of its string form
    ],
    ids=["out-1", "out-5", "data-7", "spec-true", "hidden-strings", "hidden-bad-item"],
)
def test_untyped_config_value_must_be_a_string(tmp_path, capsys, command, content):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main([command, "--config", str(config), "--seed", "0"]) == 2
    assert repr(next(iter(content))) in capsys.readouterr().err


def test_list_valued_config_keys_still_run(trained, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"hidden": [10, 10]}))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(trained / "data.csv"), "--config", str(config), "--epochs", "2",
                 "--seed", "0", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["sizes"][1:3] == [10, 10]
    config = tmp_path / "fairness.json"
    config.write_text(json.dumps({"resolving": ["department"]}))
    out = tmp_path / "fairness-out.json"
    assert main(["fairness", "--model", str(model), "--data", str(trained / "data.csv"),
                 "--config", str(config), "--sensitive", "gender", "--budget", "5", "--samples", "4",
                 "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["resolving"] == ["department"]


def test_bad_comma_list_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--hidden", "10,a", "--seed", "0"])
    assert exc.value.code == 2
    assert "--hidden" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key, default, output",
    [
        (["explain", "--index", "0"], "samples", 100, "attribution.json"),
        (["explain", "--index", "0"], "out", "attribution.json", "attribution.json"),
        (["gen-data", "markov", "--T", "3"], "rows", 10000, "markov.manifest.json"),
        # null means the declared 2000 points, not every row.
        (["fairness", "--resolving", "department", "--sensitive", "gender", "--samples", "4"],
         "budget", 2000, "fairness.json"),
    ],
    ids=["explain-samples", "explain-out", "gen-data-rows", "fairness-budget"],
)
def test_null_config_value_keeps_the_declared_default(trained, tmp_path, monkeypatch, argv, key, default,
                                                       output):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: None}))
    inputs = [] if argv[0] == "gen-data" else ["--model", str(trained / "model.json"),
                                               "--data", str(trained / "data.csv")]
    assert main([*argv, *inputs, "--config", str(config), "--seed", "0"]) == 0
    assert json.loads((tmp_path / output).read_text())["config"][key] == default


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
            # Every coalition of the 3 features once, with 8 completion rows each.
            assert local["metadata"]["value_evaluations"] == 8
            assert local["metadata"]["prediction_rows"] == 64


# The settings each command resolves with no flag and no --config besides the seed.
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
    "oracle-check": {"n": 6, "games": 50, "perms": 4000, "seed": None, "out": None},
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
        ("oracle-check", "--perms PERMS", "4000"),
    ],
)
def test_help_shows_every_default(capsys, command, flag, default):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.rsplit(flag, 1)[1].split("(default: ", 1)[1].startswith(f"{default})")
    argv = [command, "--seed", "0"] + (["markov"] if command == "gen-data" else [])
    flags = [a for a in build_parser().parse_args(argv).parser._actions if a.option_strings]
    assert text.count("(default: ") == len(flags) - 1  # all but --help
