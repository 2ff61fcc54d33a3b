"""Trainable predictors and exact Bayes predictors.

Logistic regression and a small MLP share one feed-forward core (logistic is
the zero-hidden-layer case) trained by mini-batch gradient descent with
momentum and early stopping on validation loss. The core holds its parameters
in one flat vector, so a step updates them in three vector operations; a step
computes gradients alone, and each epoch's losses take forward passes alone.
A BayesPredictor wraps a generative process and emits its exact conditional
label probabilities, which gives oracle tests a noise-free reference model.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import Dataset, Schema, Standardizer, _float_array, one_hot_design, train_test_split, write_json
from .errors import SchemaError, ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0
    val_fraction: float = 0.25
    patience: int = 20
    hidden: tuple[int, ...] = (10, 10)
    activation: str = "tanh"

    def __post_init__(self):
        if any(isinstance(r, bool) for r in (self.learning_rate, self.val_fraction, self.momentum)):
            raise ValidationError(f"learning_rate, val_fraction and momentum must be numbers, not bools, got {self}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.activation not in ("tanh", "relu"):
            raise ValidationError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        # The counts size the net or the loop, the seed keys every draw, and each is saved as a JSON int,
        # so a bool, float or numpy int is refused.
        if not all(type(c) is int and c >= 1 for c in (self.epochs, self.batch_size, self.patience, *self.hidden)):
            raise ValidationError(f"epochs, batch size, patience and hidden widths must be positive integers, "
                                  f"got {self}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValidationError(f"training seed must be a nonnegative integer, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        """The config that to_json_dict wrote. Every key it writes is required, for a default
        would load a model other than the one saved; an unknown key raises TypeError."""
        obj = dict(obj)
        missing = [f.name for f in fields(cls) if f.name not in obj]
        if missing:
            raise ValidationError(f"training config lacks {', '.join(missing)}")
        obj["hidden"] = tuple(obj["hidden"])
        return cls(**obj)


def _rows(X, schema: Schema, who: str) -> np.ndarray:
    """X, one row or a 2-d array of rows, as float64 rows of schema's width; who names the predictor."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != schema.n:
        raise SchemaError(f"input has {X.shape[1]} features, {who} expects {schema.n}")
    return X


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with the bits of numpy's row reductions, in fewer calls: max is exact, and
    below 8 columns numpy's pairwise row sum is a left-to-right loop, so both go column by column."""
    e = logits - functools.reduce(np.maximum, logits.T)[:, None]
    np.exp(e, out=e)
    e /= (functools.reduce(np.add, e.T) if e.shape[1] < 8 else np.add.reduce(e, axis=1))[:, None]
    return e


class FeedForwardNet:
    """Dense net with softmax output; an empty hidden list is plain logistic. Its parameters are one
    vector, params (every weight matrix, then every bias, row-major), and weights and biases view it.
    rng draws the initial weights; without one every parameter starts at 0, for a caller that sets
    params, as TrainedModel.load does."""

    def __init__(self, sizes: list[int], activation: str, rng: np.random.Generator | None = None):
        if len(sizes) < 2:
            raise ValidationError(f"need input and output sizes, got {sizes}")
        self.sizes = list(sizes)
        self.activation = activation
        shapes = [*zip(sizes, sizes[1:]), *((n,) for n in sizes[1:])]
        ends = np.cumsum([0, *map(math.prod, shapes)])
        self.params, self._grad = vectors = np.zeros((2, ends[-1]))  # gradient() fills _grad's views
        params, grads = ([v[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)] for v in vectors)
        k = len(sizes) - 1
        self.weights, self.biases, self._gW, self._gb = params[:k], params[k:], grads[:k], grads[k:]
        if rng is not None:
            for W in self.weights:
                W[...] = rng.normal(0.0, np.sqrt(1.0 / W.shape[0]), size=W.shape)

    def _act(self, z: np.ndarray) -> np.ndarray:  # in place
        return np.tanh(z, out=z) if self.activation == "tanh" else np.maximum(z, 0.0, out=z)

    def _act_grad(self, a: np.ndarray) -> np.ndarray:
        # Expressed through the activation output to reuse the forward cache.
        return 1.0 - a * a if self.activation == "tanh" else (a > 0).astype(np.float64)

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        acts = [X]
        h = X
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W
            z += b
            h = z if l == len(self.weights) - 1 else self._act(z)
            acts.append(h)
        return acts

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self._forward(X)[-1])

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:  # in place
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
        return logits

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean cross-entropy of the labels y, from a forward pass alone."""
        log_probs = self._log_softmax(self._forward(X)[-1])
        return -float(log_probs[np.arange(len(y)), y].mean())

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The mean cross-entropy's gradient w.r.t. params, in a buffer the next call overwrites."""
        acts = self._forward(X)
        delta = np.exp(self._log_softmax(acts[-1]), out=acts[-1])
        delta[np.arange(len(X)), y] -= 1.0
        delta /= len(X)
        for l in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[l].T, delta, out=self._gW[l])
            np.add.reduce(delta, axis=0, out=self._gb[l])
            if l > 0:
                delta = delta @ self.weights[l].T
                delta *= self._act_grad(acts[l])
        return self._grad


@dataclass
class TrainedModel:
    """A fitted predictor over raw feature rows (encoding handled internally)."""

    net: FeedForwardNet
    schema: Schema
    standardizer: Standardizer
    config: TrainConfig
    history: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "mlp" if self.config.hidden else "logistic"

    @property
    def n_features(self) -> int:
        return self.schema.n

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.net.predict_proba(one_hot_design(_rows(X, self.schema, "model"), self.schema, self.standardizer))

    def save(self, path) -> None:
        doc = {
            "weights": [w.tolist() for w in self.net.weights],
            "biases": [b.tolist() for b in self.net.biases],
            "schema": self.schema.to_json_dict(),
            "schema_digest": self.schema.digest(),
            "standardizer": self.standardizer.to_json_dict(),
            "config": self.config.to_json_dict(),
            "history": {
                k: v for k, v in self.history.items() if k not in ("train_loss", "val_loss")
            },
        }
        write_json(path, doc)

    @classmethod
    def load(cls, path) -> "TrainedModel":
        """The model saved at path. Its net runs config.activation through sizes
        [schema design width, *config.hidden, schema classes]; keys other than the
        ones save writes are ignored. Raises SchemaError when the file is not JSON,
        lacks a key (a config key included), or holds an invalid schema, schema digest, training
        config or history, weights and biases not of that net's shapes, not numbers or not finite,
        or a standardizer without a finite mean and a finite positive scale per continuous feature;
        JSON true and false are not numbers."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
                schema = Schema.from_json_dict(doc["schema"])
                if schema.digest() != doc["schema_digest"]:
                    raise SchemaError("model file schema does not match its recorded digest")
                config = TrainConfig.from_json_dict(doc["config"])
                params = [_float_array(p, "weights and biases") for p in doc["weights"] + doc["biases"]]
                st = Standardizer.from_json_dict(doc["standardizer"])
                history = doc.get("history", {})
                if not isinstance(history, dict):
                    raise SchemaError(f"model file {path} holds a history that is not a JSON object")
            except SchemaError:  # the schema and digest checks name their fault
                raise
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise SchemaError(f"malformed model file {path}: {exc!r}") from exc
        sizes = [schema.width, *config.hidden, schema.n_classes]
        # Compared before the net is built, so a width the file's arrays do not hold allocates nothing.
        if [p.shape for p in params] != [*zip(sizes, sizes[1:]), *zip(sizes[1:])]:
            raise SchemaError(
                f"model file {path} does not hold the weights and biases of a net of sizes {sizes}: "
                f"its schema's design columns, its config's hidden widths and its schema's classes"
            )
        n_cont = len(schema.continuous_indices())
        if not (
            st.mean.shape == st.scale.shape == (n_cont,)
            and np.isfinite(st.mean).all()
            and np.isfinite(st.scale).all()
            and (st.scale > 0).all()
        ):
            raise SchemaError(
                f"model file {path} does not hold a standardizer with a finite mean and a finite positive "
                f"scale for each of its schema's {n_cont} continuous features"
            )
        net = FeedForwardNet(sizes, config.activation)
        net.params[...] = np.concatenate([p.ravel() for p in params])
        if not np.isfinite(net.params).all():
            raise SchemaError(f"model file {path} holds non-finite weights or biases")
        return cls(net, schema, st, config, history)


def max_class_accuracy(pred, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose argmax class matches the label."""
    return float((pred.predict(X).argmax(axis=1) == y).mean())


def sampled_label_accuracy(pred, X: np.ndarray, y: np.ndarray) -> float:
    """Mean predicted probability of the true label: E[f_y(x)]."""
    probs = pred.predict(X)
    return float(probs[np.arange(len(y)), y].mean())


def _fit(ds: Dataset, config: TrainConfig) -> TrainedModel:
    """The net at the epoch of least validation loss. A minibatch step writes only the gradient, into one flat
    buffer, then moves one flat velocity and the flat parameters; an epoch's losses take forward passes alone.
    These are the float operations, in order, of a per-array loop that also ran every discarded pass."""
    if ds.y.min() == ds.y.max():
        raise ValidationError("training data contains a single label class")
    try:
        train, val = train_test_split(ds, test_fraction=config.val_fraction, seed=config.seed)
    except ValidationError as exc:  # TrainConfig has checked the fraction, so the rows are too few
        raise ValidationError(f"val_fraction {config.val_fraction} leaves no training rows once the inner "
                              f"validation split takes its share of {ds.n_rows} rows") from exc
    standardizer = Standardizer.fit(train.X, ds.schema)
    Xtr = one_hot_design(train.X, ds.schema, standardizer)
    Xva = one_hot_design(val.X, ds.schema, standardizer)
    rng = np.random.default_rng(config.seed)
    net = FeedForwardNet([Xtr.shape[1], *config.hidden, ds.schema.n_classes], config.activation, rng)
    velocity = np.zeros_like(net.params)
    best_val = np.inf
    best_params = net.params.copy()
    best_epoch = 0
    since_best = 0
    train_losses, val_losses = [], []
    B = Xtr.shape[0]
    batch = min(config.batch_size, B)
    for epoch in range(config.epochs):
        order = rng.permutation(B)
        Xe, ye = Xtr[order], train.y[order]
        for start in range(0, B, batch):
            grad = net.gradient(Xe[start : start + batch], ye[start : start + batch])
            velocity *= config.momentum
            velocity -= config.learning_rate * grad
            net.params += velocity
        train_losses.append(net.loss(Xtr, train.y))
        val_losses.append(val_loss := net.loss(Xva, val.y))
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = net.params.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    net.params[...] = best_params
    model = TrainedModel(
        net=net,
        schema=ds.schema,
        standardizer=standardizer,
        config=config,
        history={
            "train_loss": train_losses,
            "val_loss": val_losses,
            "best_epoch": best_epoch,
            "epochs_run": len(train_losses),
        },
    )
    model.history["train_accuracy"] = max_class_accuracy(model, train.X, train.y)
    model.history["val_accuracy"] = max_class_accuracy(model, val.X, val.y)
    logger.debug(
        "%s fit: %d epochs, best epoch %d, train acc %.3f, val acc %.3f",
        model.kind,
        len(train_losses),
        best_epoch,
        model.history["train_accuracy"],
        model.history["val_accuracy"],
    )
    return model


def train_logistic(ds: Dataset, config: TrainConfig = TrainConfig()) -> TrainedModel:
    """A net without hidden layers; config.hidden is ignored, and the model records ()."""
    return _fit(ds, replace(config, hidden=()))


def train_mlp(ds: Dataset, config: TrainConfig = TrainConfig()) -> TrainedModel:
    """A net with config.hidden's layers, of which it needs at least one."""
    if not config.hidden:
        raise ValidationError("an MLP needs at least one hidden layer; train_logistic fits a net without one")
    return _fit(ds, config)


@dataclass
class BayesPredictor:
    """The exact conditional P(Y | x) of a generative process, as a Predictor."""

    process: object

    @property
    def n_features(self) -> int:
        return self.process.schema.n

    @property
    def n_classes(self) -> int:
        return self.process.schema.n_classes

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.process.label_probs(_rows(X, self.process.schema, "process"))
