"""Every input format the CLI reads, swept one single-key edit at a time.

The formats are the model file (TrainedModel.load), the schema sidecar and the
CSV's cells and header (load_csv), and the ordering spec, both as the CLI reads
a --spec file (cli._load_ordering) and as OrderingSpec.from_json_dict reads its
own written form. A fixed menu of edits is applied to one key, list entry or
cell at a time. Each edit must end one of two ways: the loader returns an object
that its writer writes and reads back to the same bytes, or it raises
ValidationError (SchemaError included), which the CLI reports as exit 2. Any
other exception is an escape, a traceback at the command line. MESSAGES names
the edits that must be refused and the words their refusal must contain, and
each of its rows also runs through every command that reads its format, which
must refuse it by the contract of helpers.refusal_fault.

The sweep only loads. It never trains or predicts on an edit, because a count
that fits int64 but is huge would size a real allocation. The menu's 10^30 fits
no int64, so a loader that sized an array from a count before checking it
fails here rather than allocating.
"""

import copy
import functools
import hashlib
import json
import math
import operator
import random

import pytest
from helpers import refusal_fault

from asymshap import OrderingSpec, TrainedModel, ValidationError, load_csv, save_csv
from asymshap.cli import _load_ordering, main

DELETE = object()
MENU = {"delete": DELETE, "null": None, "'x'": "x", "2.5": 2.5, "true": True, "-1": -1, "0": 0,
        "[]": [], "{}": {}, "[1.5]": [1.5], "nan": math.nan, "Infinity": math.inf, "1e30": 10**30}
# A CSV cell gets each menu value as JSON writes it, and four more strings.
CSV_MENU = {name: DELETE if v is DELETE else v if isinstance(v, str) else json.dumps(v) for name, v in MENU.items()}
CSV_MENU |= {"''": "", "inf": "inf", "1e400": "1e400", "20 digits": "9" * 20}

SPEC_FILE = {"n": 3, "groups": [["gender", "department"], ["score"]], "edges": [["department", "gender"]],
             "direction": "proximate"}
SPEC_JSON = {"n": 3, "groups": [[0, 2], [1]], "edges": [[2, 0]], "direction": "distal"}

# (format, path, edit) -> the words its refusal must contain; {path} stands for the edited file's path.
MESSAGES = {
    ("model", "config.patience", "0"): ("malformed model file {path}", "patience and hidden widths must be positive"),
    **{("model", f"config.{key}", edit): ("malformed model file {path}", "must be positive integers")
       for key, edit in (("epochs", "2.5"), ("batch_size", "true"), ("hidden.0", "true"))},
    # Loaded, "x" would be kept as the model's seed, and true would read as seed 1.
    **{("model", "config.seed", edit): ("malformed model file", "training seed must be a nonnegative integer")
       for edit in ("'x'", "-1", "true")},
    **{("model", f"config.{key}", "delete"): ("malformed model file", f"training config lacks {key}")
       for key in ("activation", "batch_size", "epochs", "hidden", "learning_rate", "momentum", "patience", "seed",
                   "val_fraction")},
    ("model", "config.learning_rate", "true"): "learning_rate, val_fraction and momentum must be numbers, not bools",
    ("model", "weights.1.0.0", "true"): ("malformed model file", "weights and biases must hold numbers, not true"),
    # Loaded, a non-finite output-layer weight or bias would turn every prediction, mean and accuracy into NaN.
    **{("model", path, edit): "model file {path} holds non-finite weights or biases"
       for path in ("weights.1.0.0", "biases.1.0") for edit in ("nan", "Infinity")},
    **{("model", path, edit): "model file {path} does not hold a standardizer with a finite mean and a finite "
                              "positive scale" for path, edit in (("standardizer.scale.0", "nan"),
                                                                  ("standardizer.mean", "[]"))},
    ("model", "standardizer.scale.0", "true"): "standardizer scale must hold numbers, not true or false",
    ("model", "schema.features.0.cardinality", "2.5"): "integer cardinality >= 2",
    ("model", "schema.features.0.cardinality", "1e30"): "feature 'gender': discrete features need an integer "
                                                        "cardinality >= 2 and below 2^63",
    ("model", "schema.label.classes", "1e30"): "integer count of at least 2 classes and below 2^63",
    ("model", "history", "[]"): "history that is not a JSON object",
    ("sidecar", "features.0.cardinality", "2.5"): "integer cardinality >= 2",
    ("sidecar", "features.0.cardinality", "true"): "integer cardinality >= 2",
    ("sidecar", "features.2.cardinality", "2.5"): "integer cardinality >= 2",
    ("sidecar", "features.2.cardinality", "1e30"): "feature 'department': discrete features need an integer "
                                                   "cardinality >= 2 and below 2^63",
    ("sidecar", "label.classes", "'x'"): "integer count of at least 2 classes",
    ("sidecar", "label.classes", "1e30"): f"need an integer count of at least 2 classes and below 2^63, got {10**30}",
    ("sidecar", "features", "[]"): "a schema needs at least one feature",  # else train's first layer is 0 wide
    ("sidecar", "features.0.name", "[]"): "feature name [] is not a string",
    ("sidecar", "features.1.name", "{}"): "feature name {} is not a string",
    ("sidecar", "label.name", "2.5"): "label name 2.5 is not a string",
    ("spec", "n", "1e30"): f"ordering spec covers {10**30} features, dataset has 3",
    ("spec", "groups.0.0", "'x'"): "no feature named 'x'",
    ("spec-json", "n", "true"): "ordering spec needs an integer 'n'",
    ("spec-json", "n", "1e30"): f"feature count must be positive and below 2^63, got {10**30}",
    ("spec-json", "edges.0.1", "true"): "ordering-spec 'edges' entry [2, True] must hold feature indices",
    ("csv", "3:score", "inf"): "non-finite values (inf or nan) in features ['score']",
    ("csv", "3:y", "20 digits"): f"{{path}}:3: label {'9' * 20} is outside the int64 range",
}
# Where each format's edit is written, as the file of the flag that names it.
EDITED = {"model": ("model", "edited.json"), "sidecar": ("schema", "edited.schema.json"),
          "csv": ("data", "edited.csv"), "spec": ("spec", "edited.spec.json")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 40-row admissions dataset of 3 features, an MLP with one hidden layer of 3 trained on it for
    2 epochs, a 3-row copy of its CSV and a --spec file."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["gen-data", "unfair-admissions", "--rows", "40", "--seed", "0", "--out", str(d / "data")]) == 0
    assert main(["train", "--data", str(d / "data.csv"), "--hidden", "3", "--epochs", "2", "--seed", "0",
                 "--out", str(d / "model.json")]) == 0
    lines = (d / "data.csv").read_text().splitlines(keepends=True)
    (d / "small.csv").write_text("".join(lines[:4]))
    (d / "spec.json").write_text(json.dumps(SPEC_FILE))
    return d


def _paths(doc, prefix=()):
    """Every key or index path in a JSON document, the root () first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _edited(doc, path, value):
    """A copy of doc with the entry at path set to value, or removed for DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _digest(schema) -> str:
    """The digest Schema.digest gives a schema whose JSON form is schema."""
    return hashlib.sha256(json.dumps(schema, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _json_edits(doc, root=True):
    """(path, edit, edited document) for every path and menu edit; DELETE as a document is an empty file."""
    for path in _paths(doc):
        if path or root:
            for edit, value in MENU.items():
                yield ".".join(map(str, path)), edit, _edited(doc, path, value)


def _model_edits(doc):
    """The model file's edits, each edit inside its schema twice: as made, and with schema_digest recomputed
    so that it reaches the schema's own rules."""
    for path, edit, new in _json_edits(doc):
        yield path, edit, new
        if path.startswith("schema.") or (path == "schema" and edit != "delete"):
            yield path, edit, {**new, "schema_digest": _digest(new["schema"])}


def _csv_edits(text):
    rows = [line.split(",") for line in text.splitlines()]
    for line in range(1, len(rows) + 1):
        for column, name in enumerate(rows[0]):
            for edit, cell in CSV_MENU.items():
                new = copy.deepcopy(rows)
                new[line - 1][column:column + 1] = [] if cell is DELETE else [cell]
                yield f"{line}:{name}", edit, "".join(",".join(r) + "\n" for r in new)


def _write(path, doc):
    path.write_text(doc if isinstance(doc, str) else "" if doc is DELETE else json.dumps(doc))
    return path


def _words(fmt, path, edit, tmp):
    """The words MESSAGES says the refusal of an edit must contain, with {path} as tmp's edited file."""
    want = MESSAGES.get((fmt, path, edit), ())
    file = str(tmp / EDITED[fmt][1]) if fmt in EDITED else ""  # spec-json reads no file
    return tuple(w.replace("{path}", file) for w in ((want,) if isinstance(want, str) else want))


def _dataset_round_trips(ds, tmp):
    """Whether ds, written, read back and written again, gives the same CSV and sidecar bytes."""
    first, second = (tmp / "first.csv", tmp / "first.schema.json"), (tmp / "second.csv", tmp / "second.schema.json")
    save_csv(ds, *first)
    save_csv(load_csv(*first), *second)
    return all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))


def _model_round_trips(model, tmp):
    model.save(tmp / "first.json")
    TrainedModel.load(tmp / "first.json").save(tmp / "second.json")
    return (tmp / "first.json").read_bytes() == (tmp / "second.json").read_bytes()


def _spec_round_trips(spec, tmp):
    return OrderingSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


# format -> (its edits, the loader of one edited document, the round trip of what loaded)
FORMATS = {
    "model": (lambda d: _model_edits(json.loads((d / "model.json").read_text())),
              lambda d, tmp, doc: TrainedModel.load(_write(tmp / EDITED["model"][1], doc)), _model_round_trips),
    "sidecar": (lambda d: _json_edits(json.loads((d / "data.schema.json").read_text())),
                lambda d, tmp, doc: load_csv(d / "small.csv", _write(tmp / EDITED["sidecar"][1], doc)),
                _dataset_round_trips),
    "csv": (lambda d: _csv_edits((d / "small.csv").read_text()),
            lambda d, tmp, text: load_csv(_write(tmp / EDITED["csv"][1], text), d / "data.schema.json"),
            _dataset_round_trips),
    "spec": (lambda d: _json_edits(SPEC_FILE),
             lambda d, tmp, doc: _load_ordering(_write(tmp / EDITED["spec"][1], doc),
                                                 load_csv(d / "small.csv", d / "data.schema.json")),
             _spec_round_trips),
    # from_json_dict takes the object the CLI has checked to be one, so its root is not edited.
    "spec-json": (lambda d: _json_edits(SPEC_JSON, root=False),
                  lambda d, tmp, doc: OrderingSpec.from_json_dict(doc), _spec_round_trips),
}


def _fault(load, round_trips, words):
    """Why an edit's outcome breaks the contract, or None: words are what its refusal must contain."""
    try:
        obj = load()
    except ValidationError as exc:
        missing = [w for w in words if w not in str(exc)]
        return f"refused without {missing}: {exc}" if missing else None
    except Exception as exc:  # any other exception is the fault the sweep looks for
        return f"escaped as {exc!r}"
    if words:
        return f"loaded, but must be refused with {words}"
    try:
        return None if round_trips(obj) else "loaded, but its writer does not read back to the same bytes"
    except Exception as exc:
        return f"loaded, but its writer fails with {exc!r}"


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_single_key_edit_loads_or_is_refused(files, tmp_path, fmt):
    edits, load, round_trips = FORMATS[fmt]
    faults, reached = [], set()
    for path, edit, doc in edits(files):
        reached.add((fmt, path, edit))
        fault = _fault(lambda: load(files, tmp_path, doc), lambda obj: round_trips(obj, tmp_path),
                       _words(fmt, path, edit, tmp_path))
        if fault:
            faults.append(f"{path or '(root)'} <- {edit}: {fault}")
    assert not faults, f"{len(faults)} of {len(reached)} edits:\n" + "\n".join(faults)
    assert {key for key in MESSAGES if key[0] == fmt} <= reached


def _argv(files, tmp, fmt, command):
    """command's argv on the module's files, with tmp's edited file in place of fmt's, writing tmp / x.json."""
    inputs = {"model": files / "model.json", "spec": files / "spec.json"} if command == "explain" else {}
    inputs |= {"data": files / "small.csv", "schema": files / "data.schema.json"}
    inputs[EDITED[fmt][0]] = tmp / EDITED[fmt][1]
    flags = ["--index", "0", "--samples", "4"] if command == "explain" else ["--hidden", "3", "--epochs", "2"]
    return [command, *(f"--{k}={v}" for k, v in inputs.items()), *flags, "--seed", "0", "--out", str(tmp / "x.json")]


@pytest.mark.parametrize("fmt, command", [(fmt, command) for fmt in EDITED for command in ("explain", "train")
                                          if command == "explain" or fmt in ("sidecar", "csv")])
def test_every_refusal_exits_2_through_a_command_that_reads_it(files, tmp_path, capsys, fmt, command):
    # A model edit under schema runs twice, as made and with its digest recomputed.
    faults = []
    for path, edit, doc in FORMATS[fmt][0](files):
        if (fmt, path, edit) in MESSAGES:
            _write(tmp_path / EDITED[fmt][1], doc)
            fault = refusal_fault(capsys, tmp_path, _argv(files, tmp_path, fmt, command),
                                  *_words(fmt, path, edit, tmp_path))
            if fault:
                faults.append(f"{path} <- {edit}: {fault}")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("fmt", list(EDITED))
def test_sampled_edits_exit_0_or_2(files, tmp_path, capsys, fmt):
    # A fixed sample of 8 edits per format: explain runs on it, or refuses it with exit 2 and writes nothing.
    out = tmp_path / "x.json"
    for path, edit, doc in random.Random(0).sample(list(FORMATS[fmt][0](files)), 8):
        _write(tmp_path / EDITED[fmt][1], doc)
        out.unlink(missing_ok=True)
        code = main(_argv(files, tmp_path, fmt, "explain"))
        assert code in (0, 2), (path, edit, capsys.readouterr().err)
        assert code == 0 or not out.exists(), (path, edit)


@pytest.mark.parametrize(
    "path, value, words",
    [
        (("features", 0, "name"), [], "feature name [] is not a string"),
        (("features", 1, "name"), {"score": 1}, "feature name {'score': 1} is not a string"),
        (("features", 2, "cardinality"), 10**30, "feature 'department': discrete features need an integer "
                                                 "cardinality >= 2 and below 2^63"),
        (("label", "classes"), 10**30, f"need an integer count of at least 2 classes and below 2^63, got {10**30}"),
    ],
    ids=["name-list", "name-object", "cardinality-1e30", "classes-1e30"],
)
def test_train_on_a_sidecar_beyond_the_schema_rules_exits_2(files, tmp_path, capsys, path, value, words):
    _write(tmp_path / "edited.schema.json", _edited(json.loads((files / "data.schema.json").read_text()), path, value))
    assert not refusal_fault(capsys, tmp_path, ["train", "--data", str(files / "data.csv"), "--schema",
                                                str(tmp_path / "edited.schema.json"), "--hidden", "3", "--epochs", "2",
                                                "--seed", "0", "--out", str(tmp_path / "model.json")], words)


def test_explain_with_a_redigested_cardinality_beyond_int64_exits_2(files, tmp_path, capsys):
    doc = json.loads((files / "model.json").read_text())
    doc["schema"]["features"][0]["cardinality"] = 10**30
    model = _write(tmp_path / "model.json", {**doc, "schema_digest": _digest(doc["schema"])})
    argv = ["explain", "--model", str(model), "--data", str(files / "data.csv"), "--index", "0", "--samples", "4",
            "--seed", "0", "--out", str(tmp_path / "x.json")]
    assert not refusal_fault(capsys, tmp_path, argv,
                             "feature 'gender': discrete features need an integer cardinality >= 2 and below 2^63")
