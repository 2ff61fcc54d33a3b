"""Schemas, datasets, CSV round trips, splits, and design matrices."""

import numpy as np
import pytest

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
    sha256_of,
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

    def test_json_round_trip_and_digest(self):
        s = small_schema()
        assert Schema.from_json_dict(s.to_json_dict()) == s
        assert s.digest() == s.digest()
        other = Schema(s.features, n_classes=3)
        assert other.digest() != s.digest()

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            Schema.from_json_dict({"features": [{"name": "a"}], "label": {}})

    def test_sha256_of_is_order_insensitive(self):
        assert sha256_of({"a": 1, "b": 2}) == sha256_of({"b": 2, "a": 1})


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
        Z = st.transform(ds.X)
        assert abs(Z[:, 1].mean()) < 1e-9
        assert abs(Z[:, 1].std() - 1.0) < 1e-9
        assert np.array_equal(Z[:, 0], ds.X[:, 0])
        assert np.array_equal(Z[:, 2], ds.X[:, 2])

    def test_constant_column_passes_through(self):
        schema = Schema((FeatureSpec("b", CONTINUOUS),))
        X = np.full((10, 1), 3.5)
        st = Standardizer.fit(X, schema)
        assert np.array_equal(st.transform(X), X - 3.5)

    def test_json_round_trip(self):
        ds = small_dataset()
        st = Standardizer.fit(ds.X, ds.schema)
        again = Standardizer.from_json_dict(st.to_json_dict())
        assert np.array_equal(again.transform(ds.X), st.transform(ds.X))


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
        for code in (3.0, -1.0):  # "c" has cardinality 3
            X = ds.X.copy()
            X[2, 2] = code
            with pytest.raises(SchemaError):
                one_hot_design(X, ds.schema, st)


def concatenated_design(X, schema, standardizer):
    """The matrix one_hot_design fills in one pass, built column by column:
    standardize, then concatenate each feature's column or one-hot block."""
    cols = []
    Z = standardizer.transform(X)
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
