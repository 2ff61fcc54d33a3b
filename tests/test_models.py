"""Training loop, gradients, persistence, and exact-posterior predictors."""

import json
import math

import numpy as np
import pytest
from helpers import forward_out_of_place, loss_and_grad, reference_train

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    AdmissionsProcess,
    BayesPredictor,
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    TrainConfig,
    TrainedModel,
    ValidationError,
    max_class_accuracy,
    one_hot_design,
    sampled_label_accuracy,
    train_logistic,
    train_mlp,
    train_test_split,
)
from asymshap import models
from asymshap.models import FeedForwardNet, _softmax


def xor_dataset(rows_per_cell=100):
    schema = Schema((FeatureSpec("a", DISCRETE, 2), FeatureSpec("b", DISCRETE, 2)))
    cells = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    X = np.repeat(cells, rows_per_cell, axis=0)
    y = (X[:, 0] != X[:, 1]).astype(np.int64)
    order = np.random.default_rng(0).permutation(X.shape[0])
    return Dataset(X[order], y[order], schema)


def gaussian_blobs(rows=400, sep=4.0, seed=0):
    schema = Schema((FeatureSpec("u", CONTINUOUS), FeatureSpec("v", CONTINUOUS)))
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, rows)
    X = rng.normal(size=(rows, 2)) + sep * (y[:, None] - 0.5)
    return Dataset(X, y, schema)


def numeric_gradient(net, X, y, eps=1e-5):
    theta = net.params.copy()
    num = np.zeros_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] += eps
        net.params[...] = bumped
        up = net.loss(X, y)
        bumped[k] -= 2 * eps
        net.params[...] = bumped
        down = net.loss(X, y)
        num[k] = (up - down) / (2 * eps)
    net.params[...] = theta
    return num


class TestGradients:
    @pytest.mark.parametrize(
        "sizes,activation",
        [
            ([4, 2], "tanh"),  # plain logistic
            ([3, 10, 10, 2], "tanh"),
            ([3, 6, 2], "relu"),
        ],
    )
    def test_backprop_matches_central_differences(self, sizes, activation):
        rng = np.random.default_rng(1)
        net = FeedForwardNet(sizes, activation, rng)
        X = rng.normal(size=(16, sizes[0]))
        y = rng.integers(0, sizes[-1], 16)
        analytic = net.gradient(X, y).copy()
        numeric = numeric_gradient(net, X, y)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4
        # Bit for bit the per-array form's loss and its gradients, laid out weights first.
        loss, gW, gb = loss_and_grad(net, X, y)
        assert net.loss(X, y) == loss
        assert np.array_equal(analytic, np.concatenate([g.ravel() for g in gW + gb]))

    def test_needs_input_and_output_sizes(self):
        with pytest.raises(ValidationError, match=r"need input and output sizes, got \[3\]"):
            FeedForwardNet([3], "tanh", np.random.default_rng(2))

    def test_weights_and_biases_view_params(self):
        net = FeedForwardNet([3, 5, 2], "tanh", np.random.default_rng(2))
        theta = net.params.copy()
        net.params[...] = theta * 2.0
        assert np.array_equal(net.params, theta * 2.0)
        # weights and biases are live views of the vector, and params.copy() is a copy of it.
        assert np.array_equal(np.concatenate([p.ravel() for p in net.weights + net.biases]), theta * 2.0)
        net.params.copy()[:] = 0.0
        assert np.array_equal(net.params, theta * 2.0)


class TestTraining:
    def test_full_batch_descent_is_monotone_without_momentum(self):
        ds = gaussian_blobs(rows=120, sep=1.0, seed=3)
        config = TrainConfig(
            learning_rate=0.02,
            epochs=50,
            batch_size=10_000,
            momentum=0.0,
            patience=50,
            hidden=(),
            seed=0,
        )
        model = train_logistic(ds, config)
        losses = np.array(model.history["train_loss"])
        assert np.all(np.diff(losses) <= 1e-12)

    def test_separable_data_is_fit_nearly_perfectly(self):
        ds = gaussian_blobs(rows=400, sep=6.0, seed=4)
        model = train_logistic(ds, TrainConfig(hidden=(), epochs=200, seed=0))
        assert max_class_accuracy(model, ds.X, ds.y) >= 0.99

    def test_xor_separates_the_architectures(self):
        ds = xor_dataset()
        mlp = train_mlp(ds, TrainConfig(seed=1, epochs=300))
        logistic = train_logistic(ds, TrainConfig(hidden=(), seed=1, epochs=300))
        mlp_acc = max_class_accuracy(mlp, ds.X, ds.y)
        log_acc = max_class_accuracy(logistic, ds.X, ds.y)
        assert mlp_acc > 0.95
        # A linear rule can satisfy at most 3 of the 4 XOR cells.
        assert log_acc <= 0.75
        assert mlp_acc - log_acc >= 0.2

    def test_single_class_data_rejected(self):
        schema = Schema((FeatureSpec("u", CONTINUOUS),))
        ds = Dataset(np.random.default_rng(5).normal(size=(50, 1)), np.zeros(50, dtype=int), schema)
        with pytest.raises(ValidationError, match="single label class"):
            train_logistic(ds)

    def test_early_stopping_restores_the_best_epoch(self):
        # Small noisy data overfits quickly, so patience kicks in early and the
        # returned parameters must reproduce the recorded best validation loss.
        ds = gaussian_blobs(rows=90, sep=0.8, seed=6)
        config = TrainConfig(epochs=400, patience=10, hidden=(6,), seed=2)
        model = train_mlp(ds, config)
        hist = model.history
        assert hist["epochs_run"] < 400
        assert hist["best_epoch"] <= hist["epochs_run"] - 1
        _, val = train_test_split(ds, config.val_fraction, config.seed)
        design = one_hot_design(val.X, ds.schema, model.standardizer)
        assert model.net.loss(design, val.y) == min(hist["val_loss"])

    def test_mlp_needs_hidden_layers(self, tmp_path):
        ds = gaussian_blobs(rows=80, seed=7)
        with pytest.raises(ValidationError, match="an MLP needs at least one hidden layer"):
            train_mlp(ds, TrainConfig(hidden=(), epochs=5))
        model = train_mlp(ds, TrainConfig(hidden=(10, 10), epochs=5))
        assert model.net.sizes == [2, 10, 10, 2]
        assert model.kind == "mlp"
        path = tmp_path / "mlp.json"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert type(loaded) is type(model)
        assert loaded.kind == "mlp" and loaded.net.sizes == model.net.sizes

    def test_accuracy_metrics(self):
        class Fixed:
            n_features, n_classes = 1, 2

            def predict(self, X):
                X = np.atleast_2d(X)
                return np.tile([0.3, 0.7], (X.shape[0], 1))

        X = np.zeros((10, 1))
        y = np.array([1] * 6 + [0] * 4)
        assert max_class_accuracy(Fixed(), X, y) == 0.6
        assert sampled_label_accuracy(Fixed(), X, y) == pytest.approx(
            0.6 * 0.7 + 0.4 * 0.3, abs=1e-12
        )


class TestTrainConfig:
    def test_validation(self):
        for bad in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="learning_rate must be positive and finite"):
                TrainConfig(learning_rate=bad)
        for bad in (0.0, 1.0, -0.25, 1.5, math.nan, math.inf):
            with pytest.raises(ValidationError, match=r"val_fraction must be in \(0, 1\)"):
                TrainConfig(val_fraction=bad)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        # True would pass as 1 and False as 0, as a JSON true or false in a model file would.
        for bad in ({"learning_rate": True}, {"val_fraction": False}, {"momentum": False}):
            with pytest.raises(ValidationError, match="must be numbers, not bools"):
                TrainConfig(**bad)
        with pytest.raises(ValidationError):
            TrainConfig(activation="sigmoid")
        for bad in ({"epochs": 0}, {"epochs": -1}, {"batch_size": 0}, {"batch_size": -5},
                    {"hidden": (10, 0)}, {"hidden": (-1,)}, {"patience": 0}, {"patience": -5},
                    # config.hidden sizes the net a model file loads, so a count must be an int as JSON writes it
                    {"hidden": (True,)}, {"hidden": (10.0, 3)}, {"hidden": (np.int64(4),)}, {"epochs": 2.5},
                    {"epochs": 30.0}, {"batch_size": True}, {"patience": 3.0}, {"patience": "3"}):
            with pytest.raises(ValidationError, match="must be positive integers"):
                TrainConfig(**bad)
        assert TrainConfig(hidden=()).hidden == ()  # logistic

    @pytest.mark.parametrize("seed", [True, 2.5, 2.0, "x", -1, np.int64(3)], ids=repr)
    def test_seed_must_be_a_nonnegative_int(self, seed):
        # default_rng would raise its own ValueError or TypeError for most of these, and take True as 1.
        with pytest.raises(ValidationError, match="training seed must be a nonnegative integer"):
            TrainConfig(seed=seed)

    def test_seed_of_2_to_the_32_and_above_trains(self):
        ds = gaussian_blobs(rows=60)
        for seed in (2**32, 2**64 + 5):
            assert train_logistic(ds, TrainConfig(hidden=(), epochs=2, seed=seed)).config.seed == seed

    def test_json_round_trip(self):
        config = TrainConfig(learning_rate=0.05, hidden=(4, 3), activation="relu")
        assert TrainConfig.from_json_dict(config.to_json_dict()) == config


class TestPersistence:
    def test_save_load_round_trip_is_bitwise(self, tmp_path):
        ds = gaussian_blobs(rows=150, seed=8)
        model = train_mlp(ds, TrainConfig(epochs=30, seed=3))
        path = tmp_path / "model.json"
        model.save(path)
        back = TrainedModel.load(path)
        assert np.array_equal(back.predict(ds.X), model.predict(ds.X))
        assert back.kind == "mlp"
        assert back.config == model.config

    def test_loss_curves_are_not_persisted(self, tmp_path):
        ds = gaussian_blobs(rows=100, seed=9)
        model = train_logistic(ds, TrainConfig(hidden=(), epochs=10))
        path = tmp_path / "model.json"
        model.save(path)
        back = TrainedModel.load(path)
        assert "train_loss" not in back.history
        assert "best_epoch" in back.history

    def test_schema_tamper_detected(self, tmp_path):
        ds = gaussian_blobs(rows=100, seed=10)
        model = train_logistic(ds, TrainConfig(hidden=(), epochs=5))
        path = tmp_path / "model.json"
        model.save(path)
        text = path.read_text().replace('"name": "u"', '"name": "w"')
        path.write_text(text)
        with pytest.raises(SchemaError):
            TrainedModel.load(path)

    def test_predict_width_checked(self):
        ds = gaussian_blobs(rows=80, seed=11)
        model = train_logistic(ds, TrainConfig(hidden=(), epochs=5))
        with pytest.raises(SchemaError):
            model.predict(np.zeros((3, 5)))
        assert model.predict(np.zeros(2)).shape == (1, 2)


def mixed_blobs(rows=200, seed=0):
    """One continuous and two discrete features, three classes."""
    schema = Schema(
        (FeatureSpec("u", CONTINUOUS), FeatureSpec("d", DISCRETE, 3), FeatureSpec("e", DISCRETE, 2)),
        n_classes=3,
    )
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, rows)
    X = np.column_stack([rng.normal(size=rows) + 2.0 * y, (y + rng.integers(0, 2, rows)) % 3,
                         rng.integers(0, 2, rows)]).astype(np.float64)
    return Dataset(X, y, schema)


def softmax_reduce(logits):
    """Softmax through numpy's row reductions."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


MODEL_KINDS = [
    ("logistic", TrainConfig(hidden=(), epochs=8, seed=1)),
    ("mlp", TrainConfig(hidden=(6, 5), epochs=8, seed=2, activation="tanh")),
    ("mlp", TrainConfig(hidden=(7,), epochs=8, seed=3, activation="relu")),
]
MODEL_IDS = ["logistic", "mlp-tanh", "mlp-relu"]


def fit(kind, config, ds):
    return (train_logistic if kind == "logistic" else train_mlp)(ds, config)


class TestForwardPassBits:
    """The trimmed forward pass and softmax give the bits of the plain numpy forms."""

    @pytest.mark.parametrize("k", range(2, 10))
    def test_softmax_matches_the_reduce_form(self, k):
        rng = np.random.default_rng(k)
        spiky = rng.normal(size=(30, k))
        spiky[:, rng.integers(0, k)] = 1e300
        cases = [
            rng.normal(size=(64, k)),
            rng.normal(0.0, 30.0, size=(500, k)),
            rng.integers(-2, 3, size=(50, k)).astype(np.float64),  # ties, including for the max
            rng.choice([0.0, -0.0, 1.0, -1.0], size=(40, k)),
            rng.normal(size=(30, k)) * 1e300,
            spiky,
            rng.normal(size=(1, k)),
        ]
        for logits in cases:
            before = logits.copy()
            got = _softmax(logits)
            assert got.tobytes() == softmax_reduce(logits).tobytes()
            assert logits.tobytes() == before.tobytes()  # the input is not overwritten

    @pytest.mark.parametrize("kind, config", MODEL_KINDS, ids=MODEL_IDS)
    @pytest.mark.parametrize("make", [gaussian_blobs, mixed_blobs], ids=["continuous", "mixed"])
    def test_predict_matches_the_out_of_place_form(self, kind, config, make):
        ds = make(rows=200, seed=4)
        model = fit(kind, config, ds)
        for rows in (ds.X[:1], ds.X[:64], ds.X[::3]):
            design = one_hot_design(rows, ds.schema, model.standardizer)
            want = softmax_reduce(forward_out_of_place(model.net, design)[-1])
            assert model.predict(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, config", MODEL_KINDS, ids=MODEL_IDS)
    def test_training_writes_the_same_model_file(self, tmp_path, monkeypatch, kind, config):
        ds = mixed_blobs(rows=160, seed=5)
        fit(kind, config, ds).save(tmp_path / "trimmed.json")
        with monkeypatch.context() as patch:
            patch.setattr(FeedForwardNet, "_forward", forward_out_of_place)
            patch.setattr(models, "_softmax", softmax_reduce)
            fit(kind, config, ds).save(tmp_path / "plain.json")
        assert (tmp_path / "trimmed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


GATE_CONFIGS = [
    ("logistic", TrainConfig(hidden=(), epochs=12, seed=1), False),
    ("mlp", TrainConfig(hidden=(7, 5), epochs=12, batch_size=50, seed=2, activation="relu"), False),
    ("mlp", TrainConfig(hidden=(4,), epochs=12, batch_size=10_000, momentum=0.0, seed=3), False),
    ("mlp", TrainConfig(hidden=(6,), epochs=60, batch_size=17, patience=5, seed=4), True),
]
GATE_IDS = ["logistic", "relu-batch-50", "full-batch-no-momentum", "patience-5-batch-17"]


class TestTrainingBits:
    """Training in one flat buffer fits, bit for bit, what the per-array reference loop fits."""

    @pytest.mark.parametrize("kind, config, stops_early", GATE_CONFIGS, ids=GATE_IDS)
    def test_matches_the_per_array_loop(self, kind, config, stops_early):
        ds = mixed_blobs(rows=200, seed=7)
        model = fit(kind, config, ds)
        weights, biases, history = reference_train(ds, config, kind)
        assert len(model.net.weights) == len(weights) and len(model.net.biases) == len(biases)
        for got, want in zip(model.net.weights + model.net.biases, weights + biases):
            assert np.array_equal(got, want)
        for key in ("train_loss", "val_loss", "best_epoch", "epochs_run"):
            assert model.history[key] == history[key]
        assert (history["epochs_run"] < config.epochs) == stops_early

    @pytest.mark.parametrize("kind, config", MODEL_KINDS, ids=MODEL_IDS)
    def test_reloaded_model_predicts_the_trained_bits(self, tmp_path, kind, config):
        ds = mixed_blobs(rows=160, seed=5)
        model = fit(kind, config, ds)
        model.save(tmp_path / "model.json")
        back = TrainedModel.load(tmp_path / "model.json")
        assert back.predict(ds.X).tobytes() == model.predict(ds.X).tobytes()
        assert back.net.params.tobytes() == model.net.params.tobytes()
        for net in (model.net, back.net):
            assert all(np.shares_memory(p, net.params) for p in net.weights + net.biases)


class TestFileFormat:
    """A model file states each fact once: the config sizes the net, the schema the standardizer."""

    @pytest.mark.parametrize("kind, config", MODEL_KINDS, ids=MODEL_IDS)
    def test_file_states_each_fact_once(self, tmp_path, kind, config):
        model = fit(kind, config, mixed_blobs(rows=120, seed=6))
        model.save(tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert set(doc) == {"biases", "config", "history", "schema", "schema_digest", "standardizer", "weights"}
        assert set(doc["standardizer"]) == {"mean", "scale"}
        back = TrainedModel.load(tmp_path / "model.json")
        assert back.kind == kind == ("mlp" if config.hidden else "logistic")
        assert back.net.sizes == [6, *config.hidden, 3] and back.net.activation == config.activation

    @pytest.mark.parametrize("kind, config", MODEL_KINDS, ids=MODEL_IDS)
    def test_file_with_the_removed_keys_loads_the_same_bits(self, tmp_path, kind, config):
        # Files once also recorded kind, sizes, the activation and the standardized columns; load ignores them.
        ds = mixed_blobs(rows=120, seed=6)
        model = fit(kind, config, ds)
        model.save(tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        old = {**doc, "kind": kind, "sizes": model.net.sizes, "activation": config.activation,
               "standardizer": {**doc["standardizer"], "continuous": [0]}}
        (tmp_path / "old.json").write_text(json.dumps(old, sort_keys=True, indent=2))
        back = TrainedModel.load(tmp_path / "old.json")
        assert back.predict(ds.X).tobytes() == model.predict(ds.X).tobytes()
        assert back.net.params.tobytes() == model.net.params.tobytes()
        back.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()

    def test_widths_the_weights_do_not_hold_are_refused_before_allocating(self, tmp_path):
        # Building a net 2^40 wide first would fail with MemoryError, not name the sizes.
        model = fit(*MODEL_KINDS[1], mixed_blobs(rows=120, seed=6))
        model.save(tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["config"]["hidden"] = [2**40, 5]
        (tmp_path / "wide.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"weights and biases of a net of sizes \[6, 1099511627776, 5, 3\]"):
            TrainedModel.load(tmp_path / "wide.json")


class TestBayesPredictor:
    def test_wraps_process_posterior_exactly(self):
        process = AdmissionsProcess()
        x = np.array([0.0, 0.5, 1.0])
        got = BayesPredictor(process).predict(x)[0]
        want_p1 = 1.0 / (1.0 + math.exp(-(0.5 + 2.0 * 1.0 - 1.0)))
        assert got[1] == pytest.approx(want_p1, abs=1e-12)
        assert got[0] == pytest.approx(1.0 - want_p1, abs=1e-12)

    def test_width_checked(self):
        pred = BayesPredictor(AdmissionsProcess())
        assert pred.n_features == 3 and pred.n_classes == 2
        with pytest.raises(SchemaError):
            pred.predict(np.zeros((2, 4)))

    def test_bayes_is_best_within_noise(self):
        # No predictor can beat the exact posterior in expected true-label
        # probability; check the trained model does not exceed it by more
        # than three standard errors of the paired difference.
        train = AdmissionsProcess().sample(4000, seed=12)
        test = AdmissionsProcess().sample(4000, seed=13)
        model = train_mlp(train, TrainConfig(seed=0))
        bayes = BayesPredictor(AdmissionsProcess())
        pb = bayes.predict(test.X)[np.arange(test.n_rows), test.y]
        pm = model.predict(test.X)[np.arange(test.n_rows), test.y]
        diff = pb - pm
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert diff.mean() >= -3 * se
