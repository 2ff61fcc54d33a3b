"""Tabular datasets with typed schemas.

Features are continuous reals or discrete categorical codes; both are stored
in a single float matrix (codes as integer-valued floats). A dataset travels
as a CSV file plus a JSON schema sidecar declaring each column's kind.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError, ValidationError

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == DISCRETE:
            if self.cardinality is None or self.cardinality < 2:
                raise SchemaError(
                    f"feature {self.name!r}: discrete features need cardinality >= 2"
                )
        elif self.cardinality is not None:
            raise SchemaError(f"feature {self.name!r}: continuous features take no cardinality")


@dataclass(frozen=True)
class Schema:
    features: tuple[FeatureSpec, ...]
    label: str = "y"
    n_classes: int = 2

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names: {names}")
        if self.label in names:
            raise SchemaError(f"label column {self.label!r} collides with a feature")
        if self.n_classes < 2:
            raise SchemaError(f"need at least 2 classes, got {self.n_classes}")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise SchemaError(f"no feature named {name!r}; have {list(self.names)}")

    def discrete_indices(self) -> np.ndarray:
        return np.array([i for i, f in enumerate(self.features) if f.kind == DISCRETE], dtype=np.int64)

    def continuous_indices(self) -> np.ndarray:
        return np.array([i for i, f in enumerate(self.features) if f.kind == CONTINUOUS], dtype=np.int64)

    @cached_property
    def _design_layout(self) -> "_DesignLayout":
        # Computed once per schema object and kept in its __dict__ (the
        # dataclass is frozen, not slotted), so one_hot_design never hashes it.
        widths = np.array([f.cardinality or 1 for f in self.features], dtype=np.int64)
        first_col = np.concatenate(([0], np.cumsum(widths)[:-1]))
        cont, disc = self.continuous_indices(), self.discrete_indices()
        return _DesignLayout(
            int(widths.sum()), cont, first_col[cont], disc, first_col[disc], widths[disc].astype(np.uint64)
        )

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"name": f.name, "kind": f.kind}
                | ({"cardinality": f.cardinality} if f.kind == DISCRETE else {})
                for f in self.features
            ],
            "label": {"name": self.label, "classes": self.n_classes},
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Schema":
        try:
            feats = tuple(
                FeatureSpec(f["name"], f["kind"], f.get("cardinality"))
                for f in obj["features"]
            )
            label = obj["label"]["name"]
            n_classes = int(obj["label"]["classes"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema JSON: {exc}") from exc
        return cls(feats, label, n_classes)

    def digest(self) -> str:
        return sha256_of(self.to_json_dict())


def sha256_of(obj) -> str:
    """Stable hash of a JSON-representable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    schema: Schema

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[1] != self.schema.n:
            raise SchemaError(
                f"X has shape {self.X.shape}, schema declares {self.schema.n} features"
            )
        if self.y.shape != (self.X.shape[0],):
            raise SchemaError(f"y has shape {self.y.shape}, expected ({self.X.shape[0]},)")
        if self.X.shape[0] == 0:
            raise ValidationError("dataset is empty")
        finite = np.isfinite(self.X).all(axis=0)
        if not finite.all():
            bad = [f.name for f, ok in zip(self.schema.features, finite) if not ok]
            raise SchemaError(f"non-finite values (inf or nan) in features {bad}")
        for i, f in enumerate(self.schema.features):
            if f.kind == DISCRETE:
                col = self.X[:, i]
                if not np.array_equal(col, np.round(col)):
                    raise SchemaError(f"feature {f.name!r}: non-integer discrete codes")
                if col.min() < 0 or col.max() >= f.cardinality:
                    raise SchemaError(
                        f"feature {f.name!r}: codes outside [0, {f.cardinality})"
                    )
        if self.y.min() < 0 or self.y.max() >= self.schema.n_classes:
            raise SchemaError(
                f"labels outside [0, {self.schema.n_classes}): "
                f"[{self.y.min()}, {self.y.max()}]"
            )

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.schema.n

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.schema)


def _format_cell(value: float, kind: str) -> str:
    if kind == DISCRETE:
        return str(int(value))
    return repr(float(value))


def save_csv(ds: Dataset, csv_path, schema_path) -> None:
    """Write the dataset as CSV plus its schema sidecar. Deterministic bytes."""
    kinds = [f.kind for f in ds.schema.features]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(ds.schema.names) + [ds.schema.label])
        for row, label in zip(ds.X, ds.y):
            writer.writerow(
                [_format_cell(v, k) for v, k in zip(row, kinds)] + [str(int(label))]
            )
    with open(schema_path, "w") as fh:
        json.dump(ds.schema.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_csv(csv_path, schema_path) -> Dataset:
    try:
        with open(schema_path) as fh:
            schema = Schema.from_json_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed schema JSON in {schema_path}: {exc}") from exc
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{csv_path} is empty") from None
        expected = list(schema.names) + [schema.label]
        if header != expected:
            raise SchemaError(f"CSV header {header} does not match schema {expected}")
        rows, labels = [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(expected):
                raise SchemaError(f"{csv_path}:{lineno}: {len(rec)} cells, expected {len(expected)}")
            try:
                rows.append([float(v) for v in rec[:-1]])
                labels.append(int(rec[-1]))
            except ValueError as exc:
                raise SchemaError(f"{csv_path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{csv_path} has a header but no rows")
    return Dataset(np.array(rows), np.array(labels), schema)


def train_test_split(
    ds: Dataset, test_fraction: float = 0.25, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; same seed gives the same partition."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    perm = np.random.default_rng(seed).permutation(ds.n_rows)
    n_test = max(1, int(round(ds.n_rows * test_fraction)))
    if n_test >= ds.n_rows:
        raise ValidationError("split leaves no training rows")
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine normalization for continuous columns, fitted on train."""

    mean: np.ndarray
    scale: np.ndarray
    continuous: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, schema: Schema) -> "Standardizer":
        cont = schema.continuous_indices()
        if cont.size:
            mu = X[:, cont].mean(axis=0)
            sd = X[:, cont].std(axis=0)
            sd = np.where(sd > 0, sd, 1.0)  # constant columns pass through
        else:
            mu = np.zeros(0)
            sd = np.ones(0)
        return cls(mu, sd, cont)

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, dtype=np.float64, copy=True)
        if self.continuous.size:
            out[:, self.continuous] = (out[:, self.continuous] - self.mean) / self.scale
        return out

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "continuous": self.continuous.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Standardizer":
        return cls(
            np.array(obj["mean"], dtype=np.float64),
            np.array(obj["scale"], dtype=np.float64),
            np.array(obj["continuous"], dtype=np.int64),
        )


@dataclass(frozen=True)
class _DesignLayout:
    """Where each feature lands in the design matrix: continuous features fill
    one column each, discrete ones a block of cardinality columns."""

    width: int
    cont: np.ndarray  # continuous feature indices
    cont_col: np.ndarray  # their design columns
    disc: np.ndarray  # discrete feature indices
    disc_col: np.ndarray  # first column of each one's one-hot block
    disc_card: np.ndarray  # their cardinalities, as uint64


def one_hot_design(X: np.ndarray, schema: Schema, standardizer: Standardizer) -> np.ndarray:
    """Model design matrix: standardized continuous columns, one-hot discrete.

    Columns follow the schema's feature order. The matrix is filled in one
    pass: the continuous columns with (x - mean) / scale, element for element
    the arithmetic of Standardizer.transform, then every one-hot entry in one
    indexed write. So it is bitwise the matrix that standardizing X and
    concatenating the per-feature columns and blocks would give. A discrete
    code outside [0, cardinality) raises SchemaError rather than landing in a
    neighbouring block.
    """
    X = np.asarray(X, dtype=np.float64)
    layout = schema._design_layout
    if not layout.disc.size:
        return (X - standardizer.mean) / standardizer.scale
    codes = X[:, layout.disc].astype(np.int64)
    # Negative codes wrap to huge unsigned values, so one comparison checks both ends.
    if (codes.view(np.uint64) >= layout.disc_card).any():
        raise SchemaError("discrete codes outside [0, cardinality) in the design input")
    out = np.zeros((X.shape[0], layout.width))
    if layout.cont.size:
        out[:, layout.cont_col] = (X[:, layout.cont] - standardizer.mean) / standardizer.scale
    out[np.arange(X.shape[0])[:, None], codes + layout.disc_col] = 1.0
    return out
