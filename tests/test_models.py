"""Training loop, gradients, persistence, and exact-posterior predictors."""

import math

import numpy as np
import pytest

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    AdmissionsProcess,
    BayesPredictor,
    Dataset,
    DegenerateDataError,
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
from asymshap.models import FeedForwardNet


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
    theta = net.flatten()
    num = np.zeros_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] += eps
        net.unflatten(bumped)
        up, _, _ = net.loss_and_grad(X, y)
        bumped[k] -= 2 * eps
        net.unflatten(bumped)
        down, _, _ = net.loss_and_grad(X, y)
        num[k] = (up - down) / (2 * eps)
    net.unflatten(theta)
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
        _, gW, gb = net.loss_and_grad(X, y)
        analytic = np.concatenate([g.ravel() for g in gW + gb])
        numeric = numeric_gradient(net, X, y)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4

    def test_flatten_unflatten_round_trip(self):
        net = FeedForwardNet([3, 5, 2], "tanh", np.random.default_rng(2))
        theta = net.flatten()
        net.unflatten(theta * 2.0)
        assert np.array_equal(net.flatten(), theta * 2.0)


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
        with pytest.raises(DegenerateDataError):
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
        loss, _, _ = model.net.loss_and_grad(design, val.y)
        assert loss == min(hist["val_loss"])

    def test_mlp_defaults_hidden_layers_when_not_given(self, tmp_path):
        ds = gaussian_blobs(rows=80, seed=7)
        model = train_mlp(ds, TrainConfig(hidden=(), epochs=5))
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
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(activation="sigmoid")

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
