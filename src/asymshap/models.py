"""Trainable predictors and exact Bayes predictors.

Logistic regression and a small MLP share one feed-forward core (logistic is
the zero-hidden-layer case) trained by mini-batch gradient descent with
momentum and early stopping on validation loss. A BayesPredictor wraps a
generative process and emits its exact conditional label probabilities, which
gives oracle tests a noise-free reference model.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, Schema, Standardizer, one_hot_design, train_test_split
from .errors import DegenerateDataError, SchemaError, ValidationError

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
        if self.learning_rate <= 0:
            raise ValidationError(f"learning rate must be positive, got {self.learning_rate}")
        if self.activation not in ("tanh", "relu"):
            raise ValidationError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if min(self.epochs, self.batch_size, *self.hidden) < 1:
            raise ValidationError(f"epochs, batch size and hidden widths must be positive, got {self}")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        obj = dict(obj)
        obj["hidden"] = tuple(obj.get("hidden", ()))
        return cls(**obj)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with the bits of numpy's row reductions, in fewer calls: max is exact, and
    below 8 columns numpy's pairwise row sum is a left-to-right loop, so both go column by column."""
    e = logits - functools.reduce(np.maximum, logits.T)[:, None]
    np.exp(e, out=e)
    e /= (functools.reduce(np.add, e.T) if e.shape[1] < 8 else np.add.reduce(e, axis=1))[:, None]
    return e


class FeedForwardNet:
    """Dense net with softmax output; an empty hidden list is plain logistic."""

    def __init__(self, sizes: list[int], activation: str, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValidationError(f"need input and output sizes, got {sizes}")
        self.sizes = list(sizes)
        self.activation = activation
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(1.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

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

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and its gradients w.r.t. every weight and bias."""
        B = X.shape[0]
        acts = self._forward(X)
        logits = acts[-1]
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss = -float(log_probs[np.arange(B), y].mean())
        delta = np.exp(log_probs)
        delta[np.arange(B), y] -= 1.0
        delta /= B
        gW, gb = [], []
        for l in range(len(self.weights) - 1, -1, -1):
            gW.append(acts[l].T @ delta)
            gb.append(delta.sum(axis=0))
            if l > 0:
                delta = (delta @ self.weights[l].T) * self._act_grad(acts[l])
        return loss, list(reversed(gW)), list(reversed(gb))

    def flatten(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.weights + self.biases])

    def unflatten(self, vec: np.ndarray) -> None:
        out = []
        off = 0
        for p in self.weights + self.biases:
            out.append(vec[off : off + p.size].reshape(p.shape))
            off += p.size
        k = len(self.weights)
        self.weights = [a.copy() for a in out[:k]]
        self.biases = [a.copy() for a in out[k:]]


@dataclass
class TrainedModel:
    """A fitted predictor over raw feature rows (encoding handled internally)."""

    kind: str
    net: FeedForwardNet
    schema: Schema
    standardizer: Standardizer
    config: TrainConfig
    history: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return self.schema.n

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.schema.n:
            raise SchemaError(f"input has {X.shape[1]} features, model expects {self.schema.n}")
        design = one_hot_design(X, self.schema, self.standardizer)
        return self.net.predict_proba(design)

    def save(self, path) -> None:
        doc = {
            "kind": self.kind,
            "sizes": self.net.sizes,
            "activation": self.net.activation,
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
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TrainedModel":
        """The model saved at path. Raises SchemaError when the file is not JSON,
        lacks a key, holds a net that does not map the schema's design columns
        to its classes through weights and biases of the recorded sizes, or
        holds a standardizer that does not scale exactly the schema's
        continuous features by finite means and finite positive scales."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
                schema = Schema.from_json_dict(doc["schema"])
                if schema.digest() != doc["schema_digest"]:
                    raise SchemaError("model file schema does not match its recorded digest")
                net = FeedForwardNet(doc["sizes"], doc["activation"], np.random.default_rng(0))
                params = [np.array(p, dtype=np.float64) for p in doc["weights"] + doc["biases"]]
                model = cls(
                    kind=doc["kind"],
                    net=net,
                    schema=schema,
                    standardizer=Standardizer.from_json_dict(doc["standardizer"]),
                    config=TrainConfig.from_json_dict(doc["config"]),
                    history=doc.get("history", {}),
                )
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # ValueError: JSONDecodeError
                raise SchemaError(f"malformed model file {path}: {exc!r}") from exc
        # The fresh net's parameters have the shapes that chain its sizes.
        width = schema._design_layout.width
        if (
            [p.shape for p in params] != [p.shape for p in net.weights + net.biases]
            or (net.sizes[0], net.sizes[-1]) != (width, schema.n_classes)
            or net.activation not in ("tanh", "relu")
        ):
            raise SchemaError(
                f"model file {path} does not hold a tanh or relu net from {width} design columns to "
                f"{schema.n_classes} classes whose weights and biases chain its sizes {net.sizes}"
            )
        st, cont = model.standardizer, schema.continuous_indices()
        if not (
            np.array_equal(st.continuous, cont)
            and st.mean.shape == st.scale.shape == cont.shape
            and np.isfinite(st.mean).all()
            and np.isfinite(st.scale).all()
            and (st.scale > 0).all()
        ):
            raise SchemaError(
                f"model file {path} does not hold a standardizer with a finite mean and a finite positive "
                f"scale for each of its schema's continuous features {cont.tolist()}"
            )
        net.weights, net.biases = params[: len(net.weights)], params[len(net.weights) :]
        return model


def max_class_accuracy(pred, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose argmax class matches the label."""
    return float((pred.predict(X).argmax(axis=1) == y).mean())


def sampled_label_accuracy(pred, X: np.ndarray, y: np.ndarray) -> float:
    """Mean predicted probability of the true label: E[f_y(x)]."""
    probs = pred.predict(X)
    return float(probs[np.arange(len(y)), y].mean())


def _fit(ds: Dataset, config: TrainConfig, hidden: tuple[int, ...], kind: str) -> TrainedModel:
    if np.unique(ds.y).size < 2:
        raise DegenerateDataError("training data contains a single label class")
    train, val = train_test_split(ds, test_fraction=config.val_fraction, seed=config.seed)
    standardizer = Standardizer.fit(train.X, ds.schema)
    Xtr = one_hot_design(train.X, ds.schema, standardizer)
    Xva = one_hot_design(val.X, ds.schema, standardizer)
    ytr, yva = train.y, val.y
    rng = np.random.default_rng(config.seed)
    sizes = [Xtr.shape[1], *hidden, ds.schema.n_classes]
    net = FeedForwardNet(sizes, config.activation, rng)
    velocity = [np.zeros_like(p) for p in net.weights + net.biases]
    best_val = np.inf
    best_params = net.flatten()
    best_epoch = 0
    since_best = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    B = Xtr.shape[0]
    batch = min(config.batch_size, B)
    for epoch in range(config.epochs):
        order = rng.permutation(B)
        for start in range(0, B, batch):
            sel = order[start : start + batch]
            _, gW, gb = net.loss_and_grad(Xtr[sel], ytr[sel])
            grads = gW + gb
            params = net.weights + net.biases
            for v, p, g in zip(velocity, params, grads):
                v *= config.momentum
                v -= config.learning_rate * g
                p += v
        train_loss, _, _ = net.loss_and_grad(Xtr, ytr)
        val_loss, _, _ = net.loss_and_grad(Xva, yva)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = net.flatten()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    net.unflatten(best_params)
    model = TrainedModel(
        kind=kind,
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
        kind,
        len(train_losses),
        best_epoch,
        model.history["train_accuracy"],
        model.history["val_accuracy"],
    )
    return model


def train_logistic(ds: Dataset, config: TrainConfig = TrainConfig()) -> TrainedModel:
    return _fit(ds, config, hidden=(), kind="logistic")


def train_mlp(ds: Dataset, config: TrainConfig = TrainConfig()) -> TrainedModel:
    if not config.hidden:
        config = replace(config, hidden=(10, 10))
    return _fit(ds, config, hidden=config.hidden, kind="mlp")


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
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise SchemaError(f"input has {X.shape[1]} features, process expects {self.n_features}")
        return self.process.label_probs(X)
