"""Tabular datasets with typed schemas.

Features are continuous reals or discrete categorical codes; both are stored
in a single float matrix (codes as integer-valued floats). A dataset travels
as a CSV file plus a JSON schema sidecar declaring each column's kind.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def _is_int(x) -> bool:
    """Whether x is an integer as the package reads one: a Python or numpy int, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _positive(x, what: str) -> None:
    """The one count check: x must be a positive integer as _is_int reads one, else ValidationError."""
    if not _is_int(x) or x < 1:
        raise ValidationError(f"{what} must be positive, got {x!r}")


def _has_bool(obj) -> bool:
    return isinstance(obj, bool) or isinstance(obj, list) and any(map(_has_bool, obj))


def _float_array(obj, what: str) -> np.ndarray:
    """obj, a number or nested lists of numbers read from JSON, as a float64 array. A bool, which
    numpy would read as 0.0 or 1.0, raises ValidationError naming what, as it does for a count."""
    if _has_bool(obj):
        raise ValidationError(f"{what} must hold numbers, not true or false")
    return np.array(obj, dtype=np.float64)


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"feature name {self.name!r} is not a string")
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == DISCRETE:
            # Below 2^63, so a cardinality sizes int64 arrays; a sidecar's JSON ints are unbounded.
            if type(self.cardinality) is not int or not 2 <= self.cardinality < 2**63:
                raise SchemaError(
                    f"feature {self.name!r}: discrete features need an integer cardinality >= 2 and below 2^63, "
                    f"got {self.cardinality!r}"
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
        if not names:
            raise SchemaError("a schema needs at least one feature")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names: {names}")
        if not isinstance(self.label, str):
            raise SchemaError(f"label name {self.label!r} is not a string")
        if self.label in names:
            raise SchemaError(f"label column {self.label!r} collides with a feature")
        if type(self.n_classes) is not int or not 2 <= self.n_classes < 2**63:
            raise SchemaError(f"need an integer count of at least 2 classes and below 2^63, got {self.n_classes!r}")
        if self.width >= 2**63:
            raise SchemaError(f"the design of features {names} is {self.width} columns wide; it must be below 2^63")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def width(self) -> int:
        """Columns of the design matrix: one per continuous feature, cardinality per discrete one."""
        return sum(f.cardinality or 1 for f in self.features)

    def index_of(self, feature) -> int:
        """The index of a feature named or given by integer index, numpy's included: the one resolver
        of feature references from outside the program. An unknown name raises SchemaError; a bool,
        a float, any other type or an index outside [0, n) raises ValidationError."""
        if isinstance(feature, str):
            if feature not in self.names:
                raise SchemaError(f"no feature named {feature!r}; have {list(self.names)}")
            return self.names.index(feature)
        if not _is_int(feature) or not 0 <= feature < self.n:
            raise ValidationError(f"a feature is a name or an integer index in [0, {self.n}), got {feature!r}")
        return int(feature)

    def discrete_indices(self) -> np.ndarray:
        return np.array([i for i, f in enumerate(self.features) if f.kind == DISCRETE], dtype=np.int64)

    def continuous_indices(self) -> np.ndarray:
        return np.array([i for i, f in enumerate(self.features) if f.kind == CONTINUOUS], dtype=np.int64)

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
            n_classes = obj["label"]["classes"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema JSON: {exc}") from exc
        return cls(feats, label, n_classes)

    def digest(self) -> str:
        """SHA-256 of the schema's canonical JSON: sorted keys, no spaces."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()
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


def write_json(path, doc) -> None:
    """doc in the package's one JSON format: sorted keys, a two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """header, then each row of Python numbers, in the package's one CSV format: csv.writer with "\\n"
    line ends writes an int as its digits and a float as its repr, which float() reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(ds: Dataset, csv_path, schema_path) -> None:
    """Write the dataset as CSV, a discrete cell as an int, plus its schema sidecar."""
    cols = [ds.X[:, i].astype(np.int64) if f.kind == DISCRETE else ds.X[:, i]
            for i, f in enumerate(ds.schema.features)]
    write_csv(csv_path, list(ds.schema.names) + [ds.schema.label], zip(*(c.tolist() for c in cols), ds.y.tolist()))
    write_json(schema_path, ds.schema.to_json_dict())


def _plain_lines(fh):
    """fh's lines, up to the first that np.loadtxt would read otherwise than _load_rows, where it
    raises ValueError: a blank line, which loadtxt skips, or one holding an ASCII separator, U+001C
    to U+001F, which loadtxt strips from a cell as whitespace and float() and int() do not."""
    for line in fh:
        if line.isspace() or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("a line np.loadtxt would read otherwise")
        yield line


def _load_table(fh, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of n float cells and an int label that fh holds, read by numpy's C reader, which
    parses a cell with PyOS_string_to_double, as float() does. ValueError, or a warning raised here
    as an error, means that reader would read some row otherwise than _load_rows, or not at all: a
    line _plain_lines stops at, a quoted or empty cell, "1_0", a non-ASCII digit, a wrong width, a
    label that is not an integer within int64 (numpy 1.x reads "1.0" as 1, with a warning) or no
    rows (only a warning)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(_plain_lines(fh), dtype=[("X", np.float64, (n,)), ("y", np.int64)],
                           delimiter=",", comments=None, ndmin=1)
    return np.ascontiguousarray(table["X"]), np.ascontiguousarray(table["y"])


def _load_rows(fh, csv_path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows that fh holds, each parsed by csv.reader, float() and int() into packed float64 and
    int64 buffers that the returned arrays view. A row of the wrong width, a cell that does not
    parse or a label outside int64 raises SchemaError naming the file and line, and no row at all
    ValidationError."""
    cells, labels = array("d"), array("q")
    for lineno, rec in enumerate(csv.reader(fh), start=2):
        if len(rec) != width:
            raise SchemaError(f"{csv_path}:{lineno}: {len(rec)} cells, expected {width}")
        try:
            cells.fromlist([float(v) for v in rec[:-1]])
            labels.append(int(rec[-1]))
        except ValueError as exc:
            raise SchemaError(f"{csv_path}:{lineno}: {exc}") from exc
        except OverflowError:
            raise SchemaError(f"{csv_path}:{lineno}: label {rec[-1]} is outside the int64 range") from None
    if not labels:
        raise ValidationError(f"{csv_path} has a header but no rows")
    X = np.frombuffer(cells, dtype=np.float64).reshape(len(labels), width - 1)
    return X, np.frombuffer(labels, dtype=np.int64)


def load_csv(csv_path, schema_path) -> Dataset:
    """The dataset that save_csv wrote to csv_path and schema_path.

    The header, read with csv.reader, must be the schema's, else SchemaError.
    The rows go through numpy's C reader, which parses a cell with the routine
    float() calls, into one packed table, so no boxed copy of it is held. A
    file with a row that reader rejects or would read otherwise (_load_table
    lists them) is read again by _load_rows, with float() and int(). So the
    files accepted, their bits and every refusal are those of _load_rows.
    """
    try:
        with open(schema_path) as fh:
            schema = Schema.from_json_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed schema JSON in {schema_path}: {exc}") from exc
    with open(csv_path, newline="") as fh:
        try:
            header = next(csv.reader(iter(fh.readline, "")))  # readline, so tell() gives where the body starts
        except StopIteration:
            raise SchemaError(f"{csv_path} is empty") from None
        expected = list(schema.names) + [schema.label]
        if header != expected:
            raise SchemaError(f"CSV header {header} does not match schema {expected}")
        body = fh.tell()
        try:
            X, y = _load_table(fh, schema.n)
        except (ValueError, Warning):
            fh.seek(body)
            X, y = _load_rows(fh, csv_path, len(expected))
    return Dataset(X, y, schema)


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
    """Per-feature affine normalization for continuous columns, fitted on train. mean and scale hold
    one entry per continuous feature of the schema it was fitted on, in the schema's feature order."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, schema: Schema) -> "Standardizer":
        cont = schema.continuous_indices()
        sd = X[:, cont].std(axis=0)
        return cls(X[:, cont].mean(axis=0), np.where(sd > 0, sd, 1.0))  # constant columns pass through

    def to_json_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Standardizer":
        """The standardizer that to_json_dict wrote; other keys are ignored. Shapes and values are
        checked against a schema by TrainedModel.load."""
        return cls(_float_array(obj["mean"], "standardizer mean"), _float_array(obj["scale"], "standardizer scale"))


def one_hot_design(X: np.ndarray, schema: Schema, standardizer: Standardizer) -> np.ndarray:
    """Model design matrix: standardized continuous columns, one-hot discrete.

    Columns follow the schema's feature order: each continuous feature is one
    column, (x - mean) / scale with the standardizer's mean and scale for it,
    and each discrete one a block of cardinality columns. A discrete code
    outside [0, cardinality) raises SchemaError rather than landing in a
    neighbouring block, and so does a fractional one rather than being truncated.
    """
    X = np.asarray(X, dtype=np.float64)
    if all(f.kind == CONTINUOUS for f in schema.features):
        out = X - standardizer.mean
        return np.divide(out, standardizer.scale, out=out)
    rows = np.arange(X.shape[0])
    blocks, c = [], 0
    for i, f in enumerate(schema.features):
        if f.kind == CONTINUOUS:
            blocks.append(((X[:, i] - standardizer.mean[c]) / standardizer.scale[c])[:, None])
            c += 1
            continue
        # Checked as floats, before the cast: nan fails both comparisons, and no cast sees it or +-inf.
        if not ((X[:, i] >= 0) & (X[:, i] < f.cardinality)).all():
            raise SchemaError("discrete codes outside [0, cardinality) in the design input")
        codes = X[:, i].astype(np.int64)
        if not (codes == X[:, i]).all():
            raise SchemaError("non-integer discrete codes in the design input")
        block = np.zeros((X.shape[0], f.cardinality))
        block[rows, codes] = 1.0
        blocks.append(block)
    return np.concatenate(blocks, axis=1)
