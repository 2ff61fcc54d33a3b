"""Schemas, datasets, CSV round trips, splits, and design matrices."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from helpers import peak_traced_bytes, standardize

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    Standardizer,
    ValidationError,
    load_csv,
    one_hot_design,
    save_csv,
    train_test_split,
)


def small_schema():
    return Schema(
        (
            FeatureSpec("a", DISCRETE, 2),
            FeatureSpec("b", CONTINUOUS),
            FeatureSpec("c", DISCRETE, 3),
        )
    )


def small_dataset(rows=40, seed=0):
    rng = np.random.default_rng(seed)
    schema = small_schema()
    X = np.column_stack(
        [
            rng.integers(0, 2, size=rows).astype(float),
            rng.normal(size=rows),
            rng.integers(0, 3, size=rows).astype(float),
        ]
    )
    y = rng.integers(0, 2, size=rows)
    return Dataset(X, y, schema)


class TestSchema:
    def test_kind_validation(self):
        with pytest.raises(SchemaError):
            FeatureSpec("a", "fuzzy")
        with pytest.raises(SchemaError):
            FeatureSpec("a", DISCRETE)  # cardinality required
        with pytest.raises(SchemaError):
            FeatureSpec("a", DISCRETE, 1)
        with pytest.raises(SchemaError):
            FeatureSpec("a", CONTINUOUS, 3)  # cardinality forbidden

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_integers(self, count):
        # A cardinality of 2.5 would cast to a 2-column block; a label count of "3" or 2.9 would read through int().
        with pytest.raises(SchemaError, match="integer cardinality >= 2"):
            FeatureSpec("a", DISCRETE, count)
        with pytest.raises(SchemaError, match="integer count of at least 2 classes"):
            Schema((FeatureSpec("a", CONTINUOUS),), n_classes=count)

    def test_design_width_must_fit_int64(self):
        # Each cardinality fits int64 but their sum does not, so numpy's cumsum of the widths would wrap.
        with pytest.raises(SchemaError, match=r"is 13835058055282163712 columns wide; it must be below 2\^63"):
            Schema(tuple(FeatureSpec(f"f{i}", DISCRETE, 2**62) for i in range(3)))

    def test_duplicate_names_and_label_collision(self):
        with pytest.raises(SchemaError):
            Schema((FeatureSpec("a", CONTINUOUS), FeatureSpec("a", CONTINUOUS)))
        with pytest.raises(SchemaError):
            Schema((FeatureSpec("y", CONTINUOUS),))
        with pytest.raises(SchemaError):
            Schema((FeatureSpec("a", CONTINUOUS),), n_classes=1)

    def test_lookup_and_index_sets(self):
        s = small_schema()
        assert s.index_of("b") == 1
        with pytest.raises(SchemaError):
            s.index_of("nope")
        assert list(s.discrete_indices()) == [0, 2]
        assert list(s.continuous_indices()) == [1]

    def test_index_of_takes_a_name_or_an_index_in_range(self):
        s = small_schema()
        assert [s.index_of(f) for f in ("c", 0, np.int64(2), np.uint8(1))] == [2, 0, 2, 1]
        assert type(s.index_of(np.int64(2))) is int

    @pytest.mark.parametrize("feature", [2.9, 2.0, True, False, 3, -1, None, [1]])
    def test_index_of_rejects_anything_but_a_name_or_an_index_in_range(self, feature):
        # 2.9 would truncate to feature 2 and True would read as feature 1.
        with pytest.raises(ValidationError):
            small_schema().index_of(feature)

    def test_json_round_trip_and_digest(self):
        s = small_schema()
        assert Schema.from_json_dict(s.to_json_dict()) == s
        assert s.digest() == s.digest()
        other = Schema(s.features, n_classes=3)
        assert other.digest() != s.digest()

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            Schema.from_json_dict({"features": [{"name": "a"}], "label": {}})

    def test_digest_hashes_canonical_json(self):
        # Model files record this digest, and TrainedModel.load compares against it.
        s = small_schema()
        blob = json.dumps(s.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()
        assert s.digest() == hashlib.sha256(blob).hexdigest()


class TestDataset:
    def test_width_and_label_validation(self):
        schema = small_schema()
        with pytest.raises(SchemaError):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), schema)
        with pytest.raises(SchemaError):
            Dataset(np.zeros((4, 3)), np.zeros(3, dtype=int), schema)
        with pytest.raises(SchemaError):
            Dataset(np.zeros((4, 3)), np.full(4, 2), schema)  # label out of range

    def test_discrete_code_validation(self):
        schema = small_schema()
        X = np.zeros((4, 3))
        X[0, 0] = 0.5
        with pytest.raises(SchemaError):
            Dataset(X, np.zeros(4, dtype=int), schema)
        X = np.zeros((4, 3))
        X[0, 2] = 3
        with pytest.raises(SchemaError):
            Dataset(X, np.zeros(4, dtype=int), schema)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), small_schema())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        ds = small_dataset()
        X = ds.X.copy()
        X[5, 1] = bad
        with pytest.raises(SchemaError, match=r"non-finite.*\['b'\]"):
            Dataset(X, ds.y, ds.schema)

    def test_subset(self):
        ds = small_dataset()
        sub = ds.subset(np.array([3, 1]))
        assert sub.n_rows == 2
        assert np.array_equal(sub.X[0], ds.X[3])


def read_row_by_row(csv_path, schema_path):
    """The oracle for load_csv: the schema's header, then csv.reader with float() and int() on each row,
    raising what load_csv raises for a row of the wrong width, a cell that does not parse, a label
    outside int64 or no rows, and building the Dataset, which refuses the rest."""
    schema = Schema.from_json_dict(json.loads(schema_path.read_text()))
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [*schema.names, schema.label]
    X, y = [], []
    for lineno, rec in enumerate(rows, start=2):
        if len(rec) != len(header):
            raise SchemaError(f"{csv_path}:{lineno}: {len(rec)} cells, expected {len(header)}")
        try:
            X.append([float(v) for v in rec[:-1]])
            y.append(int(rec[-1]))
        except ValueError as exc:
            raise SchemaError(f"{csv_path}:{lineno}: {exc}") from exc
        if not -(2**63) <= y[-1] < 2**63:
            raise SchemaError(f"{csv_path}:{lineno}: label {rec[-1]} is outside the int64 range")
    if not y:
        raise ValidationError(f"{csv_path} has a header but no rows")
    return Dataset(np.array(X, dtype=np.float64), np.array(y, dtype=np.int64), schema)


def read_outcome(read, csv_path, schema_path):
    """What read gives: X's bits and y, or the exception's type and message."""
    try:
        ds = read(csv_path, schema_path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.X.shape, ds.X.view(np.uint64).tolist(), ds.y.dtype, ds.y.tolist()


# Each file's header is "a,b,y" unless it names its own.
BODIES = {
    "plain": "1,2,0\n3.5,-4e-3,1\n",
    "no-final-newline": "1,2,0\n3,4,1",
    "blank-line-in-the-middle": "1,2,0\n\n3,4,1\n",
    "blank-line-at-the-end": "1,2,0\n3,4,1\n\n",
    "whitespace-only-line": "1,2,0\n \t\n3,4,1\n",
    "crlf": "a,b,y\r\n1,2,0\r\n3,4,1\r\n",
    "lone-cr": "a,b,y\r1,2,0\r3,4,1\r",
    "quoted-cell": '"1.5",2,0\n',
    "quoted-header-with-comma": '"a,b",c,y\n1,2,0\n',
    "underscore": "1_0,2,0\n",
    "arabic-indic-digit": "\u0661,2,0\n",
    "no-break-space": "1\xa0,\xa02,0\n",
    "file-separator": "1\x1c,2,0\n",
    "signed-zero-and-subnormal": "-0.0,5e-324,1\n",
    "17-digits": "0.30000000000000004,-1.2345678901234567e-300,0\n2.2250738585072014e-308,1.7976931348623157e308,1\n",
    "label-1.0": "1,2,1.0\n",
    "label-plus-1": "1,2,+1\n",
    "label-space-1": "1,2, 1\n",
    "label-2^63": "1,2,9223372036854775808\n",
    "label-minus-2^63": "1,2,-9223372036854775808\n",
    "label-minus-2^63-1": "1,2,-9223372036854775809\n",
    "trailing-comma": "1,2,0,\n",
    "empty-cell": "1,,0\n",
    "nul-byte": "1\x00,2,0\n",
    "header-only": "",
}


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = small_dataset()
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema.json"
        save_csv(ds, csv_path, schema_path)
        back = load_csv(csv_path, schema_path)
        assert np.array_equal(back.X, ds.X)  # repr round trip keeps floats exact
        assert np.array_equal(back.y, ds.y)
        assert back.schema == ds.schema

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = small_dataset()
        p1, s1 = tmp_path / "a.csv", tmp_path / "a.schema.json"
        p2, s2 = tmp_path / "b.csv", tmp_path / "b.schema.json"
        save_csv(ds, p1, s1)
        save_csv(load_csv(p1, s1), p2, s2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_header_mismatch(self, tmp_path):
        ds = small_dataset()
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema.json"
        save_csv(ds, csv_path, schema_path)
        text = csv_path.read_text().replace("a,b,c,y", "a,b,z,y")
        csv_path.write_text(text)
        with pytest.raises(SchemaError):
            load_csv(csv_path, schema_path)

    def test_bad_cells(self, tmp_path):
        schema_path = tmp_path / "d.schema.json"
        csv_path = tmp_path / "d.csv"
        save_csv(small_dataset(rows=3), csv_path, schema_path)
        csv_path.write_text("a,b,c,y\n0,1.0,2,0\n1,oops,0,1\n")
        with pytest.raises(SchemaError):
            load_csv(csv_path, schema_path)
        csv_path.write_text("a,b,c,y\n0,1.0,2\n")
        with pytest.raises(SchemaError):
            load_csv(csv_path, schema_path)
        csv_path.write_text("a,b,c,y\n")
        with pytest.raises(ValidationError):
            load_csv(csv_path, schema_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["features"][2].update(cardinality=2.5), "integer cardinality"),
            (lambda doc: doc["features"][0].update(cardinality=True), "integer cardinality"),
            (lambda doc: doc["label"].update(classes="3"), "integer count of at least 2 classes"),
            (lambda doc: doc["label"].update(classes=2.9), "integer count of at least 2 classes"),
        ],
        ids=["cardinality-2.5", "cardinality-true", "classes-string", "classes-2.9"],
    )
    def test_sidecar_counts_must_be_integers(self, tmp_path, edit, message):
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema.json"
        save_csv(small_dataset(rows=3), csv_path, schema_path)
        doc = json.loads(schema_path.read_text())
        edit(doc)
        schema_path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=message):
            load_csv(csv_path, schema_path)

    @pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809"])
    def test_label_beyond_int64(self, tmp_path, label):
        schema_path, csv_path = tmp_path / "d.schema.json", tmp_path / "d.csv"
        save_csv(small_dataset(rows=3), csv_path, schema_path)
        csv_path.write_text(f"a,b,c,y\n0,1.0,2,0\n1,0.5,0,{label}\n")
        with pytest.raises(SchemaError, match=f"d.csv:3: label {label} is outside the int64 range"):
            load_csv(csv_path, schema_path)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = ["-0.0", "5e-324", "0.1", "1.7976931348623157e308", " 2.5", "+1e-3"]
        schema = Schema(tuple(FeatureSpec(f"f{i}", CONTINUOUS) for i in range(len(cells))))
        schema_path, csv_path = tmp_path / "d.schema.json", tmp_path / "d.csv"
        save_csv(Dataset(np.zeros((1, len(cells))), [0], schema), csv_path, schema_path)
        csv_path.write_text(",".join(schema.names) + ",y\n" + ",".join(cells) + ",1\n")
        got = load_csv(csv_path, schema_path)
        want = np.array([[float(c) for c in cells]])
        assert np.array_equal(got.X.view(np.uint64), want.view(np.uint64))
        assert got.X.dtype == np.float64 and got.y.dtype == np.int64 and got.y.tolist() == [1]

    @pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
    def test_reads_as_csv_reader_with_float_and_int(self, tmp_path, body):
        # numpy's C reader takes what it parses as float() and int() do; anything else goes row by row.
        names = ("a,b", "c") if body.startswith('"a,b"') else ("a", "b")
        schema = Schema(tuple(FeatureSpec(name, CONTINUOUS) for name in names))
        schema_path, csv_path = tmp_path / "d.schema.json", tmp_path / "d.csv"
        save_csv(Dataset(np.zeros((1, 2)), [0], schema), csv_path, schema_path)
        text = body if body.startswith(('"a,b"', "a,b,y")) else "a,b,y\n" + body
        csv_path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # so no refusal rests on the caller's filter making a warning an error
            got = read_outcome(load_csv, csv_path, schema_path)
        assert got == read_outcome(read_row_by_row, csv_path, schema_path)

    def test_holds_no_boxed_copy(self, tmp_path):
        # Packed cells, not a list of Python floats per row, which takes over 4x the bytes.
        schema = Schema(tuple(FeatureSpec(f"f{i}", CONTINUOUS) for i in range(12)))
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(4000, 12)), rng.integers(0, 2, 4000), schema)
        schema_path, csv_path = tmp_path / "d.schema.json", tmp_path / "d.csv"
        save_csv(ds, csv_path, schema_path)
        load_csv(csv_path, schema_path)  # lazy set-up outside the measurement
        peak = peak_traced_bytes(load_csv, csv_path, schema_path)
        assert peak < 3 * (ds.X.nbytes + ds.y.nbytes)


class TestSplit:
    def test_partition_and_determinism(self):
        ds = small_dataset(rows=100)
        tr1, te1 = train_test_split(ds, 0.25, seed=4)
        tr2, te2 = train_test_split(ds, 0.25, seed=4)
        assert te1.n_rows == 25 and tr1.n_rows == 75
        assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.X, te2.X)
        merged = np.vstack([tr1.X, te1.X])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.X, axis=0))

    def test_seed_changes_partition(self):
        ds = small_dataset(rows=100)
        _, te1 = train_test_split(ds, 0.25, seed=0)
        _, te2 = train_test_split(ds, 0.25, seed=1)
        assert not np.array_equal(te1.X, te2.X)

    def test_bad_fraction(self):
        ds = small_dataset(rows=10)
        with pytest.raises(ValidationError):
            train_test_split(ds, 0.0)
        # Fractions that round to taking every row as test leave nothing to train on.
        with pytest.raises(ValidationError):
            train_test_split(ds, 0.95)
        with pytest.raises(ValidationError):
            train_test_split(small_dataset(rows=2), 0.9)


class TestStandardizer:
    def test_continuous_normalized_discrete_untouched(self):
        ds = small_dataset(rows=500)
        st = Standardizer.fit(ds.X, ds.schema)
        Z = standardize(st, ds.schema.continuous_indices(), ds.X)
        assert abs(Z[:, 1].mean()) < 1e-9
        assert abs(Z[:, 1].std() - 1.0) < 1e-9
        assert np.array_equal(Z[:, 0], ds.X[:, 0])
        assert np.array_equal(Z[:, 2], ds.X[:, 2])

    def test_constant_column_passes_through(self):
        schema = Schema((FeatureSpec("b", CONTINUOUS),))
        X = np.full((10, 1), 3.5)
        st = Standardizer.fit(X, schema)
        assert np.array_equal(standardize(st, schema.continuous_indices(), X), X - 3.5)

    def test_json_round_trip(self):
        ds = small_dataset()
        st = Standardizer.fit(ds.X, ds.schema)
        doc = st.to_json_dict()
        assert set(doc) == {"mean", "scale"}
        again = Standardizer.from_json_dict(doc)
        cont = ds.schema.continuous_indices()
        assert np.array_equal(standardize(again, cont, ds.X), standardize(st, cont, ds.X))


class TestDesignMatrix:
    def test_shape_and_one_hot_blocks(self):
        ds = small_dataset(rows=20)
        st = Standardizer.fit(ds.X, ds.schema)
        D = one_hot_design(ds.X, ds.schema, st)
        # 2 columns for "a", 1 for "b", 3 for "c"
        assert D.shape == (20, 6)
        assert np.array_equal(D[:, :2].sum(axis=1), np.ones(20))
        assert np.array_equal(D[:, 3:].sum(axis=1), np.ones(20))
        row = 0
        assert D[row, int(ds.X[row, 0])] == 1.0

    def test_out_of_range_codes_rejected(self):
        ds = small_dataset(rows=5)
        st = Standardizer.fit(ds.X, ds.schema)
        # "c" has cardinality 3; a cast would truncate 0.5 to code 0 and 2.9 to code 2.
        for code in (3.0, -1.0, np.nan, np.inf, -np.inf, 0.5, 2.9):
            X = ds.X.copy()
            X[2, 2] = code
            with pytest.raises(SchemaError):
                one_hot_design(X, ds.schema, st)


def concatenated_design(X, schema, standardizer):
    """The matrix one_hot_design fills in one pass, built column by column:
    standardize, then concatenate each feature's column or one-hot block."""
    cols = []
    Z = standardize(standardizer, schema.continuous_indices(), X)
    for i, f in enumerate(schema.features):
        if f.kind == CONTINUOUS:
            cols.append(Z[:, i : i + 1])
        else:
            codes = X[:, i].astype(np.int64)
            block = np.zeros((X.shape[0], f.cardinality))
            block[np.arange(X.shape[0]), codes] = 1.0
            cols.append(block)
    return np.concatenate(cols, axis=1)


def random_table(kinds, rows, rng):
    """kinds: None for a continuous feature, else a discrete cardinality."""
    feats = tuple(
        FeatureSpec(f"f{i}", CONTINUOUS) if k is None else FeatureSpec(f"f{i}", DISCRETE, k)
        for i, k in enumerate(kinds)
    )
    cols = [
        rng.normal(rng.normal(0, 50), rng.choice([1e-3, 1.0, 1e3]), rows) if k is None
        else rng.integers(0, k, rows).astype(np.float64)
        for k in kinds
    ]
    return np.column_stack(cols), Schema(feats)


class TestDesignMatrixBits:
    @pytest.mark.parametrize(
        "kinds",
        [
            (None, None, None),  # all continuous
            (None,),
            (2, 3, 4),  # all discrete
            (5,),
            (3, None, 2, None, 4),  # discrete first and last
            (None, 2, None, None, 3, None),  # continuous first and last
            (2, 2, None, 6),
        ],
    )
    @pytest.mark.parametrize("rows", [1, 2, 37, 500])
    def test_matches_concatenated_blocks_bitwise(self, kinds, rows):
        rng = np.random.default_rng(len(kinds) * 1000 + rows)
        X_fit, schema = random_table(kinds, 300, rng)
        st = Standardizer.fit(X_fit, schema)
        X, _ = random_table(kinds, rows, rng)
        got = one_hot_design(X, schema, st)
        want = concatenated_design(X, schema, st)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_constant_column_and_strided_input(self):
        rng = np.random.default_rng(3)
        X, schema = random_table((2, None, 3, None), 50, rng)
        X[:, 1] = 4.25  # zero spread: scale falls back to 1
        st = Standardizer.fit(X, schema)
        view = X[::2]
        assert np.array_equal(
            one_hot_design(view, schema, st).view(np.uint64),
            concatenated_design(view, schema, st).view(np.uint64),
        )
