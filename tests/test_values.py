"""The value function: splicing, conditional completion, caching, and the coalition mean."""

import logging
import math

import numpy as np
import pytest
from helpers import ConstantPredictor, FirstFeatureProbPredictor, LinearProbPredictor

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    BackgroundSet,
    CachedValueFunction,
    Dataset,
    EstimatorError,
    ExactMatchSampler,
    FeatureSpec,
    GenerativeSampler,
    KNNSampler,
    Schema,
    SchemaError,
    ValidationError,
    as_mask,
)
from asymshap.values import _discrete_mutual_information, _mean, _stream


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# ---------------------------------------------------------------- primitives


class TestMaskHelpers:
    def test_as_mask_accepts_three_forms(self):
        # A Python int mask, a NumPy integer mask, and an iterable of indices.
        assert as_mask(0b101, 3) == 0b101
        assert as_mask(np.int64(0b101), 3) == 0b101
        assert as_mask([2, 0], 3) == 0b101
        assert as_mask(np.array([2, 0]), 3) == 0b101

    def test_as_mask_validation(self):
        with pytest.raises(ValidationError):
            as_mask(8, 3)
        with pytest.raises(ValidationError):
            as_mask([3], 3)

    def test_mask_round_trip_all_subsets(self):
        n = 6
        for mask in range(1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            assert as_mask(members, n) == mask
            assert as_mask(mask, n) == mask

    def test_set_semantics(self):
        assert as_mask([1, 1, 2], 4) == as_mask([2, 1], 4) == 0b110

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValidationError):
            as_mask([3], 3)
        with pytest.raises(ValidationError):
            as_mask([-1], 3)

    def test_mask_indices(self):
        # The sampler conditions on the coalition's members, ascending.
        seen = []

        class Recorder:
            def complete(self, x, s_idx, m, rng):
                seen.append(list(s_idx))
                return np.tile(x, (m, 1)), False

        vf = CachedValueFunction(
            ConstantPredictor(n_features=3), np.zeros(3), 1, completion=Recorder(), m=2
        )
        vf.value(0b101)
        vf.value(0)
        assert seen == [[0, 2], []]

    def test_top_mask_bit_reaches_the_sampler(self):
        seen = []

        class Recorder:
            def complete(self, x, s_idx, m, rng):
                seen.append(s_idx.tolist())
                return np.tile(x, (m, 1)), False

        vf = CachedValueFunction(
            ConstantPredictor(n_features=62), np.zeros(62), 1, completion=Recorder(), m=2
        )
        vf.value((1 << 61) | 0b10)
        assert seen == [[1, 61]]

    def test_more_than_62_features_rejected(self):
        # Coalition masks live in int64.
        with pytest.raises(ValidationError):
            CachedValueFunction(
                ConstantPredictor(n_features=63), np.zeros(63), 1, completion=BackgroundSet(np.zeros((1, 63)))
            )


class RowRecorder:
    """Predictor that keeps every row it is asked about."""

    n_features, n_classes = 3, 2

    def __init__(self):
        self.rows = []

    def predict(self, X):
        self.rows.extend(np.asarray(X).tolist())
        return np.full((len(X), 2), 0.5)


def spliced(S, x, x_prime):
    """The row the off-manifold game predicts on: x on S, x' elsewhere."""
    pred = RowRecorder()
    CachedValueFunction(pred, x, 1, completion=BackgroundSet(x_prime[None, :]), m=1).value(S)
    (row,) = pred.rows
    return row


class TestSplice:
    def test_full_and_empty(self):
        x = np.array([1.0, 2.0, 3.0])
        x_prime = np.array([9.0, 8.0, 7.0])
        assert np.array_equal(spliced([0, 1, 2], x, x_prime), x)
        assert np.array_equal(spliced([], x, x_prime), x_prime)

    def test_mixed(self):
        x = np.array([1.0, 2.0, 3.0])
        x_prime = np.array([9.0, 8.0, 7.0])
        assert np.array_equal(spliced([1], x, x_prime), [9.0, 2.0, 7.0])

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            spliced([0], np.zeros(3), np.zeros(4))


class TestBackgroundSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BackgroundSet(np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            BackgroundSet(np.zeros(3))


# ---------------------------------------------------------------- off-manifold


class TestOffManifold:
    def test_hand_computed_average_over_the_background(self):
        # Three binary features, logit linear in all of them; with the whole
        # background used once each, v({0}) is the plain average of the four
        # spliced predictions.
        w = np.array([1.0, -2.0, 0.5])
        pred = LinearProbPredictor(w, b=0.1)
        x = np.array([1.0, 1.0, 0.0])
        bg = BackgroundSet(
            np.array(
                [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
            )
        )
        got = CachedValueFunction(pred, x, 1, completion=bg, m=4).value([0])
        hand = (
            sigmoid(0.1 + 1.0)
            + sigmoid(0.1 + 1.0 + 0.5)
            + sigmoid(0.1 + 1.0 - 2.0)
            + sigmoid(0.1 + 1.0 - 2.0 + 0.5)
        ) / 4.0
        assert got == pytest.approx(hand, abs=1e-12)

    def test_full_coalition_returns_the_prediction_exactly(self):
        pred = LinearProbPredictor(np.array([0.3, -0.7]))
        x = np.array([0.4, 1.2])
        bg = BackgroundSet(np.random.default_rng(1).normal(size=(50, 2)))
        vf = CachedValueFunction(pred, x, 1, completion=bg, m=10, seed=3)
        assert vf.value([0, 1]) == float(pred.predict(x[None, :])[0, 1])

    def test_constant_model_is_constant_for_every_coalition(self):
        pred = ConstantPredictor(p1=0.3, n_features=3)
        bg = BackgroundSet(np.random.default_rng(2).normal(size=(20, 3)))
        vf = CachedValueFunction(pred, np.zeros(3), 1, completion=bg, m=7, seed=0)
        for mask in range(8):
            assert vf.value(mask) == 0.3

    def test_ignored_feature_changes_nothing_exactly(self):
        # Weight zero on feature 1: adding it to any coalition must return
        # the identical float, because the frozen draws are shared.
        pred = LinearProbPredictor(np.array([0.8, 0.0, -1.1, 0.4]))
        x = np.random.default_rng(3).normal(size=4)
        bg = BackgroundSet(np.random.default_rng(4).normal(size=(30, 4)))
        vf = CachedValueFunction(pred, x, 1, completion=bg, m=12, seed=5)
        j = 1
        for mask in range(16):
            if mask >> j & 1:
                continue
            assert vf.value(mask | (1 << j)) == vf.value(mask)

    def test_exhaustive_when_sample_count_covers_background(self):
        pred = LinearProbPredictor(np.array([1.0, 1.0]))
        bg = BackgroundSet(np.random.default_rng(5).normal(size=(8, 2)))
        x = np.array([0.5, -0.5])
        val = CachedValueFunction(pred, x, 1, completion=bg, m=8).value([0])
        hand = float(np.mean(pred.predict(np.column_stack([np.full(8, 0.5), bg.rows[:, 1]]))[:, 1]))
        assert val == pytest.approx(hand, abs=1e-12)

    def test_validation(self):
        pred = LinearProbPredictor(np.array([1.0, 1.0]))
        bg = BackgroundSet(np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=0)
        with pytest.raises(SchemaError):
            CachedValueFunction(pred, np.zeros(3), 1, completion=bg, m=5)
        with pytest.raises(SchemaError):
            CachedValueFunction(pred, np.zeros(2), 1, completion=BackgroundSet(np.zeros((3, 4))), m=5)
        with pytest.raises(ValidationError):
            CachedValueFunction(pred, np.zeros(2), 2, completion=bg, m=5)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(SchemaError, match="non-finite"):
                CachedValueFunction(pred, np.array([0.0, bad]), 1, completion=bg, m=5)


# ---------------------------------------------------------------- caching


class TestCaching:
    def test_repeat_queries_hit_the_cache(self):
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.2]))
        bg = BackgroundSet(np.random.default_rng(8).normal(size=(10, 3)))
        vf = CachedValueFunction(pred, np.zeros(3), 1, completion=bg, m=6, seed=0)
        first = vf.value([0])
        rows_after_first = vf.prediction_rows
        again = vf.value([0])
        assert again == first
        assert vf.evaluations == 1
        assert vf.prediction_rows == rows_after_first

    def test_full_sweep_evaluates_each_coalition_once(self):
        n = 5
        pred = LinearProbPredictor(np.random.default_rng(9).normal(size=n))
        bg = BackgroundSet(np.random.default_rng(10).normal(size=(8, n)))
        vf = CachedValueFunction(pred, np.zeros(n), 1, completion=bg, m=4, seed=0)
        for mask in range(1 << n):
            vf.value(mask)
            vf.value(mask)
        assert vf.evaluations == 1 << n
        assert vf.prediction_rows == (1 << n) * 4

    def test_same_seed_reproduces_bitwise(self):
        pred = LinearProbPredictor(np.array([0.5, 1.5, -0.5]))
        bg = BackgroundSet(np.random.default_rng(11).normal(size=(40, 3)))
        x = np.array([0.2, -0.9, 0.4])
        a = CachedValueFunction(pred, x, 1, completion=bg, m=10, seed=21, point_index=2)
        b = CachedValueFunction(pred, x, 1, completion=bg, m=10, seed=21, point_index=2)
        c = CachedValueFunction(pred, x, 1, completion=bg, m=10, seed=22, point_index=2)
        for mask in range(8):
            assert a.value(mask) == b.value(mask)
        assert any(a.value(m) != c.value(m) for m in range(1, 7))

    @pytest.mark.parametrize("completion", [None, object(), np.zeros((2, 1))],
                             ids=["none", "object", "ndarray"])
    def test_completion_must_be_a_background_or_a_sampler(self, completion):
        pred = LinearProbPredictor(np.array([1.0]))
        with pytest.raises(ValidationError, match="completion must be a BackgroundSet"):
            CachedValueFunction(pred, np.zeros(1), 1, completion)


# ---------------------------------------------------------------- samplers


def discrete_dataset():
    schema = Schema(
        (FeatureSpec("a", DISCRETE, 2), FeatureSpec("b", DISCRETE, 2)),
    )
    # All four (a, b) cells except (1, 1); label correlates with a.
    X = np.array(
        [[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 0], [0, 0]],
        dtype=float,
    )
    y = np.array([0, 0, 0, 1, 1, 1, 0, 1])
    return Dataset(X, y, schema)


class TestExactMatchSampler:
    def test_exhaustive_conditional_mean_matches_hand_count(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        sampler = ExactMatchSampler(ds)
        # Condition on b = 1: matching rows are (0,1) twice; completions keep
        # b = 1 and draw a from those rows, so the mean of f_1 = a is 0.
        x = np.array([1.0, 1.0])
        assert CachedValueFunction(pred, x, 1, completion=sampler, m=50).value([1]) == 0.0

    def test_empty_coalition_equals_off_manifold_over_the_same_rows(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        sampler = ExactMatchSampler(ds)
        x = np.array([0.0, 0.0])
        on = CachedValueFunction(pred, x, 1, completion=sampler, m=ds.n_rows).value([])
        off = CachedValueFunction(pred, x, 1, completion=BackgroundSet(ds.X), m=ds.n_rows).value([])
        assert on == off

    def test_subsamples_when_matches_exceed_m(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        sampler = ExactMatchSampler(ds)
        x = np.array([0.0, 0.0])
        val = CachedValueFunction(pred, x, 1, completion=sampler, m=3, seed=1).value([0])
        assert val == 0.0  # every a=0 row predicts 0 regardless of subsampling

    def test_zero_matches_fall_back_to_knn(self, caplog):
        schema = Schema(
            (
                FeatureSpec("a", DISCRETE, 2),
                FeatureSpec("b", DISCRETE, 2),
                FeatureSpec("c", DISCRETE, 2),
            )
        )
        rng = np.random.default_rng(13)
        # Every (a, b) cell except (1, 1) is populated.
        ab = np.array([[0, 0], [0, 1], [1, 0]])[rng.integers(0, 3, 40)]
        X = np.column_stack([ab, rng.integers(0, 2, 40)]).astype(float)
        ds = Dataset(X, rng.integers(0, 2, 40), schema)
        pred = FirstFeatureProbPredictor(n_features=3)
        sampler = ExactMatchSampler(ds)
        x = np.array([1.0, 1.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="asymshap.values"):
            val = CachedValueFunction(pred, x, 1, completion=sampler, m=20, seed=2).value([0, 1])
        assert any("falling back" in r.message for r in caplog.records)
        assert val == 1.0  # completions pin the conditioned features to x

    def test_continuous_conditioning_delegates_to_knn(self, caplog):
        schema = Schema((FeatureSpec("a", DISCRETE, 2), FeatureSpec("s", CONTINUOUS)))
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.integers(0, 2, 30).astype(float), rng.normal(size=30)])
        ds = Dataset(X, rng.integers(0, 2, 30), schema)
        exact = ExactMatchSampler(ds, k=5)
        knn = KNNSampler(ds, k=5)
        x = ds.X[4]
        with caplog.at_level(logging.DEBUG, logger="asymshap.values"):
            rows_a, ex_a = exact.complete(x, np.array([1]), 6, np.random.default_rng(9))
        rows_b, ex_b = knn.complete(x, np.array([1]), 6, np.random.default_rng(9))
        assert np.array_equal(rows_a, rows_b) and ex_a == ex_b
        assert any("k-NN" in r.message for r in caplog.records)


class TestKNNSampler:
    def test_standardized_distance_picks_the_scaled_neighbor(self):
        # Feature "q" has a scale three orders larger than "p". Row A is
        # nearest under standardized distance although row B wins under raw
        # Euclidean distance; the marker column identifies the chosen row.
        schema = Schema(
            (
                FeatureSpec("p", CONTINUOUS),
                FeatureSpec("q", CONTINUOUS),
                FeatureSpec("marker", CONTINUOUS),
            )
        )
        X = np.array(
            [
                [0.1, 900.0, 10.0],  # A
                [3.0, 0.0, 20.0],  # B
                [0.5, -3000.0, 30.0],
                [1.0, 3000.0, 40.0],
                [2.0, -2500.0, 50.0],
            ]
        )
        ds = Dataset(X, np.zeros(5, dtype=int), schema)
        sampler = KNNSampler(ds, k=1)
        x = np.array([0.0, 0.0, 0.0])
        rows, exhaustive = sampler.complete(x, np.array([0, 1]), 8, np.random.default_rng(0))
        assert not exhaustive
        assert np.all(rows[:, 2] == 10.0)
        assert np.all(rows[:, 0] == 0.0) and np.all(rows[:, 1] == 0.0)

    def test_discrete_conditioning_matches_exactly(self):
        ds = discrete_dataset()
        sampler = KNNSampler(ds, k=3)
        x = np.array([1.0, 0.0])
        rows, _ = sampler.complete(x, np.array([0]), 25, np.random.default_rng(1))
        assert np.all(rows[:, 0] == 1.0)
        # completions draw b only from rows with a = 1, which all have b = 0
        assert np.all(rows[:, 1] == 0.0)

    def test_relaxation_drops_least_informative_feature_first(self, caplog):
        schema = Schema(
            (FeatureSpec("inform", DISCRETE, 3), FeatureSpec("noise", DISCRETE, 3))
        )
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 200)
        inform = y.astype(float)  # copies the label: maximal mutual information
        noise = rng.integers(0, 2, 200).astype(float)
        ds = Dataset(np.column_stack([inform, noise]), y, schema)
        sampler = KNNSampler(ds)
        assert sampler._relax_order[0] == 1
        # Code 2 never occurs, so conditioning on both features matches nothing;
        # the noise feature must be relaxed first.
        x = np.array([2.0, 2.0])
        with caplog.at_level(logging.WARNING, logger="asymshap.values"):
            sampler.complete(x, np.array([0, 1]), 5, np.random.default_rng(5))
        relaxed = [r.message for r in caplog.records if "relaxing" in r.message]
        assert relaxed and "'noise'" in relaxed[0]

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            KNNSampler(discrete_dataset(), k=0)


def argsort_ranking(d, k):
    """The k nearest by a full stable argsort, cut at k: ties go to the earlier row."""
    return np.argsort(d, kind="stable")[:k]


class TestKNearest:
    def test_sampler_matches_the_argsort_completion(self):
        # KNNSampler.complete against its own ranking done by np.ix_ and a
        # full stable argsort, on a mixed table with tied continuous values.
        schema = Schema(
            (
                FeatureSpec("d0", DISCRETE, 3),
                FeatureSpec("c0", CONTINUOUS),
                FeatureSpec("c1", CONTINUOUS),
                FeatureSpec("d1", DISCRETE, 2),
            )
        )
        rng = np.random.default_rng(21)
        X = np.column_stack(
            [
                rng.integers(0, 3, 400),
                rng.integers(0, 4, 400),
                rng.normal(size=400).round(1),
                rng.integers(0, 2, 400),
            ]
        ).astype(np.float64)
        ds = Dataset(X, rng.integers(0, 2, 400), schema)
        sampler = KNNSampler(ds, k=7)
        for trial in range(40):
            x = X[trial]
            s_idx = np.flatnonzero(rng.random(4) < 0.6)
            got, _ = sampler.complete(x, s_idx, 16, np.random.default_rng(trial))
            assert np.array_equal(got, argsort_completion(sampler, x, s_idx, 16, trial))


def argsort_completion(sampler, x, s_idx, m, seed):
    """What KNNSampler.complete draws, recomputed without pools: a full scan
    for matches, relaxation in the sampler's order, einsum distances over
    np.ix_, and a full stable argsort."""
    X = sampler.dataset.X
    discrete = set(sampler.schema.discrete_indices().tolist())
    disc = [i for i in s_idx if i in discrete]
    cont = [i for i in s_idx if i not in discrete]
    cand = np.flatnonzero(np.all(X[:, disc] == x[disc], axis=1))
    while cand.size == 0:
        disc.remove(next(i for i in sampler._relax_order if i in disc))
        cand = np.flatnonzero(np.all(X[:, disc] == x[disc], axis=1))
    if cont:
        diffs = (X[np.ix_(cand, cont)] - x[cont]) * sampler._inv_scale[cont]
        cand = cand[argsort_ranking(np.einsum("ij,ij->i", diffs, diffs), sampler.k)]
    want = X[cand[np.random.default_rng(seed).integers(0, cand.size, size=m)]]
    want[:, s_idx] = x[s_idx]
    return want


def exact_match_completion(sampler, x, s_idx, m, seed):
    """What ExactMatchSampler.complete returns, recomputed without pools."""
    X = sampler.dataset.X
    discrete = set(sampler.schema.discrete_indices().tolist())
    cand = np.flatnonzero(np.all(X[:, s_idx] == x[s_idx], axis=1))
    if any(i not in discrete for i in s_idx) or cand.size == 0:
        return argsort_completion(sampler, x, s_idx, m, seed), False
    exhaustive = cand.size <= m
    if not exhaustive:
        cand = cand[np.random.default_rng(seed).integers(0, cand.size, size=m)]
    want = X[cand]
    want[:, s_idx] = x[s_idx]
    return want, exhaustive


POOLED_CASES = ("grid", "duplicate_rows", "non_finite_x", "two_continuous")


def pooled_case(case):
    """A table and query points for one TestPooledSamplers case.

    Column c0 lies on a half-unit grid, so many rows tie in distance, and
    queries between two grid values tie with rows on both sides of them. The
    discrete cell (d0=2, d1=1) and the code d0=3 never occur, so conditioning
    on them needs relaxation.
    """
    rng = np.random.default_rng(POOLED_CASES.index(case))
    n_rows = 240
    d0 = rng.integers(0, 3, n_rows)
    d1 = np.where(d0 == 2, 0, rng.integers(0, 2, n_rows))
    columns = [d0, rng.integers(-6, 7, n_rows) * 0.5]
    features = [FeatureSpec("d0", DISCRETE, 4), FeatureSpec("c0", CONTINUOUS)]
    if case == "two_continuous":
        columns.append(rng.normal(size=n_rows).round(1))
        features.append(FeatureSpec("c1", CONTINUOUS))
    X = np.column_stack([*columns, d1]).astype(np.float64)
    features.append(FeatureSpec("d1", DISCRETE, 2))
    if case == "duplicate_rows":
        X = X[rng.integers(0, 12, n_rows)]
    points = [X[r].copy() for r in rng.choice(n_rows, 12, replace=False)]
    # Far from the grid, v - x rounds several grid values to one distance, so
    # distinct values tie on the same side of x as well.
    far = [(-1e16, 1, 0), (1e16, 0, 1)]
    for c0, d0_code, d1_code in [(0.25, 0, 1), (-1.75, 2, 1), (40.0, 1, 0), (0.5, 3, 0), *far]:
        x = X[0].copy()
        x[[0, 1, -1]] = d0_code, c0, d1_code
        points.append(x)
    if case == "non_finite_x":
        for bad in (np.inf, -np.inf, np.nan):
            x = X[1].copy()
            x[1] = bad
            points.append(x)
    return Dataset(X, rng.integers(0, 2, n_rows), Schema(tuple(features))), points


class TestPooledSamplers:
    """Cached pools and the 1-D neighbour search draw exactly what a full scan
    and a full stable argsort would, over hundreds of calls to one sampler."""

    @pytest.mark.parametrize("k", [1, 4, 10, 500])  # 500 exceeds every pool
    @pytest.mark.parametrize("case", POOLED_CASES)
    def test_matches_the_unpooled_completion(self, case, k):
        ds, points = pooled_case(case)
        knn, exact = KNNSampler(ds, k=k), ExactMatchSampler(ds, k=k)
        queries = [
            (x, np.flatnonzero((mask >> np.arange(ds.n)) & 1))
            for x in points
            for mask in range(1 << ds.n)
        ]
        rng = np.random.default_rng(k)
        for q in rng.permutation(len(queries)):
            x, s_idx = queries[q]
            got, exhaustive = knn.complete(x, s_idx, 16, np.random.default_rng(q))
            assert not exhaustive
            assert np.array_equal(got, argsort_completion(knn, x, s_idx, 16, q), equal_nan=True)
            got, exhaustive = exact.complete(x, s_idx, 16, np.random.default_rng(q))
            want, want_exhaustive = exact_match_completion(exact, x, s_idx, 16, q)
            assert np.array_equal(got, want, equal_nan=True) and exhaustive == want_exhaustive
        assert len(knn._pools) < len(queries)

    def test_fallback_and_relaxation_warn_once_per_pool(self, caplog):
        # discrete_dataset has no (a, b) = (1, 1) row: exact matching falls
        # back to k-NN, which relaxes one feature. Repeats reuse both pools.
        sampler = ExactMatchSampler(discrete_dataset())
        with caplog.at_level(logging.WARNING, logger="asymshap.values"):
            for seed in range(6):
                sampler.complete(np.array([1.0, 1.0]), np.array([0, 1]), 4, np.random.default_rng(seed))
        messages = [r.message for r in caplog.records]
        assert sum("falling back" in msg for msg in messages) == 1
        assert sum("relaxing" in msg for msg in messages) == 1

    def test_pools_are_read_only(self):
        ds, points = pooled_case("grid")
        knn, exact = KNNSampler(ds), ExactMatchSampler(ds)
        for x in points:
            knn.complete(x, np.array([0, 1]), 4, np.random.default_rng(0))
            exact.complete(x, np.array([0, 2]), 4, np.random.default_rng(0))
        arrays = [rows for _, rows in knn._pools.values()]
        arrays += [a for line in knn._lines.values() for a in line]
        arrays += [rows for _, rows in exact._pools.values()]
        assert arrays and not any(a.flags.writeable for a in arrays)


def mean_reference(v):
    """What the coalition mean computed through np.all and map(float, ...)."""
    if np.all(v == v[0]):
        return float(v[0])
    return math.fsum(map(float, v)) / v.shape[0]


def same_bits(got, want):
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestMeanAndStderr:
    """_mean, the coalition mean: fsum over m, or the common value of a constant column."""

    @pytest.mark.parametrize("m", [2, 3, 8, 9, 64, 100, 129, 1000, 10007])
    def test_matches_fsum_and_np_std_bitwise(self, m):
        rng = np.random.default_rng(m)
        for loc, scale in ((0.5, 0.2), (1e3, 1.0), (0.0, 1e-9), (-7.0, 1e4)):
            v = rng.normal(loc, scale, m)
            assert same_bits(_mean(v), mean_reference(v))

    @pytest.mark.parametrize("m", [2, 5, 64, 300])
    def test_strided_probability_column(self, m):
        # value() passes the class column of the predictor output, a strided view.
        rng = np.random.default_rng(40 + m)
        p1 = 1.0 / (1.0 + np.exp(-rng.normal(size=m)))
        probs = np.column_stack([1.0 - p1, p1])
        for y in (0, 1):
            col = probs[:, y]
            assert not col.flags.c_contiguous
            assert same_bits(_mean(col), mean_reference(col))

    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_constant_vectors_short_circuit(self, m):
        for c in (0.0, -0.0, 0.3, 1e300):
            v = np.full(m, c)
            assert same_bits(_mean(v), c)
            assert same_bits(_mean(v), mean_reference(v))
        # 0.0 == -0.0, so a column of both is constant and returns its first entry.
        for first, rest in ((0.0, -0.0), (-0.0, 0.0)):
            v = np.full(m, rest)
            v[0] = first
            assert same_bits(_mean(v), first)
            assert same_bits(_mean(v), mean_reference(v))

    def test_single_value(self):
        assert same_bits(_mean(np.array([0.25])), 0.25)

    def test_sum_is_compensated(self):
        # A plain float sum loses the 1.0s to the 1e16s; fsum keeps them.
        assert _mean(np.array([1e16, 1.0, -1e16, 1.0])) == 0.5


STREAM_KEYS = [0, 1, 2**32 - 1, 2**32, 2**61 + 5]


class TestStreamKey:
    """Coalition streams are np.random.SeedSequence([seed, point_index, mask]),
    seeded from its 32-bit words without numpy's list coercion."""

    @pytest.mark.parametrize("seed", STREAM_KEYS)
    def test_words_reproduce_the_list_seed_sequence(self, seed):
        for point_index in STREAM_KEYS:
            for mask in STREAM_KEYS:
                got = _stream(seed, point_index, mask)
                want = np.random.default_rng(np.random.SeedSequence([seed, point_index, mask]))
                assert np.array_equal(
                    got.bit_generator.seed_seq.generate_state(8),
                    want.bit_generator.seed_seq.generate_state(8),
                )
                assert np.array_equal(got.integers(0, 2**63, 16), want.integers(0, 2**63, 16))

    def test_on_manifold_value_draws_from_the_keyed_stream(self):
        ds, (x, *_) = pooled_case("grid")
        pred = LinearProbPredictor(np.array([0.4, -0.9, 0.3]))
        sampler = KNNSampler(ds, k=6)
        seed, point_index = 2**32 + 3, 2**40 + 1
        vf = CachedValueFunction(pred, x, 1, completion=sampler, m=9, seed=seed, point_index=point_index)
        for mask in range(7):
            s_idx = np.flatnonzero((mask >> np.arange(3)) & 1)
            rng = np.random.default_rng(np.random.SeedSequence([seed, point_index, mask]))
            rows, _ = sampler.complete(x, s_idx, 9, rng)
            assert same_bits(vf.value(mask), mean_reference(pred.predict(rows)[:, 1]))

    @pytest.mark.parametrize("key", ["seed", "point_index"])
    def test_negative_key_rejected(self, key):
        pred = ConstantPredictor(n_features=2)
        bg = BackgroundSet(np.zeros((3, 2)))
        with pytest.raises(ValidationError, match="nonnegative"):
            CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: -1})


class TestMutualInformation:
    def test_label_copy_beats_independent_noise(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, 500)
        noise = rng.integers(0, 2, 500)
        assert _discrete_mutual_information(y, y) > math.log(2) - 0.05
        assert _discrete_mutual_information(noise, y) < 0.05


class TestGenerativeSampler:
    class _Stub:
        def __init__(self, n=3, wrong_shape=False):
            self.n = n
            self.wrong_shape = wrong_shape

        def conditional_samples(self, x, s_idx, m, rng):
            if self.wrong_shape:
                return rng.normal(size=(m, self.n + 1))
            return rng.normal(size=(m, self.n))

    def test_conditioned_columns_are_pinned(self):
        sampler = GenerativeSampler(self._Stub())
        x = np.array([5.0, -3.0, 2.0])
        rows, exhaustive = sampler.complete(x, np.array([0, 2]), 10, np.random.default_rng(0))
        assert not exhaustive
        assert np.all(rows[:, 0] == 5.0) and np.all(rows[:, 2] == 2.0)
        assert not np.all(rows[:, 1] == -3.0)

    def test_wrong_shape_raises(self):
        sampler = GenerativeSampler(self._Stub(wrong_shape=True))
        with pytest.raises(EstimatorError):
            sampler.complete(np.zeros(3), np.array([0]), 4, np.random.default_rng(0))

    def test_needs_a_process(self):
        with pytest.raises(ValidationError):
            GenerativeSampler(object())


# ---------------------------------------------------------------- on-manifold


class TestOnManifold:
    def test_full_coalition_is_the_prediction(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        vf = CachedValueFunction(pred, np.array([1.0, 0.0]), 1, completion=ExactMatchSampler(ds), m=5)
        assert vf.value([0, 1]) == 1.0

    def test_values_are_keyed_by_coalition_not_query_order(self):
        schema = Schema((FeatureSpec("a", DISCRETE, 2), FeatureSpec("s", CONTINUOUS)))
        rng = np.random.default_rng(12)
        X = np.column_stack([rng.integers(0, 2, 60).astype(float), rng.normal(size=60)])
        ds = Dataset(X, rng.integers(0, 2, 60), schema)
        pred = LinearProbPredictor(np.array([0.7, -0.4]))
        make = lambda: CachedValueFunction(
            pred, ds.X[0], 1, completion=KNNSampler(ds), m=9, seed=33, point_index=4
        )
        a, b = make(), make()
        for mask in [0, 1, 2, 3]:
            assert a.value(mask) == b.value(mask)
        c = make()
        for mask in [3, 0, 2, 1]:  # reversed query order, same per-mask streams
            assert c.value(mask) == a.value(mask)

    def test_m_must_be_positive(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        with pytest.raises(ValidationError):
            CachedValueFunction(pred, np.zeros(2), 1, completion=ExactMatchSampler(ds), m=0)
