"""The value function: splicing, conditional completion, caching, and the coalition mean."""

import logging
import math
import operator

import numpy as np
import pytest
from helpers import (
    ConstantPredictor,
    CountingPredictor,
    FirstFeatureProbPredictor,
    LinearProbPredictor,
    TableValueFunction,
)

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    AdmissionsProcess,
    BackgroundSet,
    BayesPredictor,
    CachedValueFunction,
    Dataset,
    EstimatorError,
    ExactMatchSampler,
    FeatureSpec,
    GenerativeSampler,
    KNNSampler,
    MarkovSeriesProcess,
    Schema,
    SchemaError,
    TrainConfig,
    TwoFeatureGraphProcess,
    ValidationError,
    train_logistic,
    train_mlp,
)
from asymshap.values import PREDICT_ROWS, _discrete_mutual_information, _mean, _stream


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# ---------------------------------------------------------------- primitives


@pytest.fixture(params=["cached", "table"])
def mask_game(request):
    """A game over 3 features whose v(S) differs for every mask S."""
    if request.param == "table":
        return TableValueFunction(np.arange(8.0), 3)
    pred = LinearProbPredictor(np.array([1.0, 2.0, 4.0]))
    return CachedValueFunction(pred, np.ones(3), 1, completion=BackgroundSet(np.zeros((1, 3))), m=1)


class TestMaskHelpers:
    def test_value_takes_an_int_or_a_numpy_integer_mask(self, mask_game):
        vals = [mask_game.value(mask) for mask in range(8)]
        assert len(set(vals)) == 8
        assert [mask_game.value(np.int64(mask)) for mask in range(8)] == vals
        assert [mask_game.value(np.uint8(mask)) for mask in range(8)] == vals

    @pytest.mark.parametrize("bad", [-1, 8, 1 << 62, np.int64(-3)],
                             ids=["negative", "2^n", "2^62", "negative_int64"])
    def test_value_rejects_a_mask_outside_the_features(self, mask_game, bad):
        with pytest.raises(ValidationError, match="outside"):
            mask_game.value(bad)

    @pytest.mark.parametrize("bad", [[0, 2], (0, 2), np.array([0, 2]), 5.0],
                             ids=["list", "tuple", "array", "float"])
    def test_value_rejects_anything_but_an_integer(self, mask_game, bad):
        # A coalition is its bitmask, not a collection of feature indices.
        with pytest.raises(TypeError):
            mask_game.value(bad)

    def test_mask_indices(self):
        # The sampler receives the coalition as its int mask, as value got it.
        seen = []

        class Recorder:
            def complete(self, x, mask, m, rng):
                seen.append(mask)
                return np.tile(x, (m, 1)), False

        vf = CachedValueFunction(
            ConstantPredictor(n_features=3), np.zeros(3), 1, completion=Recorder(), m=2
        )
        vf.value(0b101)
        vf.value(np.int64(0))
        assert seen == [0b101, 0] and all(type(mask) is int for mask in seen)

    def test_top_mask_bit_reaches_the_sampler(self):
        seen = []

        class Recorder:
            def complete(self, x, mask, m, rng):
                seen.append(mask)
                return np.tile(x, (m, 1)), False

        vf = CachedValueFunction(
            ConstantPredictor(n_features=62), np.zeros(62), 1, completion=Recorder(), m=2
        )
        vf.value((1 << 61) | 0b10)
        assert seen == [(1 << 61) | 0b10] and type(seen[0]) is int

    def test_more_than_62_features_rejected(self):
        # Coalition masks live in int64.
        with pytest.raises(ValidationError):
            CachedValueFunction(
                ConstantPredictor(n_features=63), np.zeros(63), 1, completion=BackgroundSet(np.zeros((1, 63)))
            )


class RowRecorder:
    """Predictor that keeps every row it is asked about."""

    n_classes = 2

    def __init__(self, n_features=3):
        self.n_features = n_features
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
        assert np.array_equal(spliced(0b111, x, x_prime), x)
        assert np.array_equal(spliced(0, x, x_prime), x_prime)

    def test_mixed(self):
        x = np.array([1.0, 2.0, 3.0])
        x_prime = np.array([9.0, 8.0, 7.0])
        assert np.array_equal(spliced(0b010, x, x_prime), [9.0, 2.0, 7.0])

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            spliced(0b001, np.zeros(3), np.zeros(4))


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
        got = CachedValueFunction(pred, x, 1, completion=bg, m=4).value(0b001)
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
        assert vf.value(0b11) == float(pred.predict(x[None, :])[0, 1])

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
        val = CachedValueFunction(pred, x, 1, completion=bg, m=8).value(0b01)
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
        first = vf.value(0b001)
        rows_after_first = vf.prediction_rows
        again = vf.value(np.int64(0b001))
        assert again == first
        assert vf.evaluations == 1
        assert vf.prediction_rows == rows_after_first

    @pytest.mark.parametrize("bad", [3.0, np.float64(3.0)], ids=["float", "float64"])
    def test_a_hit_rejects_the_keys_a_miss_rejects(self, bad):
        # 3.0 hashes to the cache entry of 3, so the key's type is checked before the lookup.
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.2]))
        vf = CachedValueFunction(pred, np.zeros(3), 1, completion=BackgroundSet(np.eye(3)), m=3, seed=0)
        with pytest.raises(TypeError):
            vf.value(bad)
        vf.value(3)
        vf.value(1)
        with pytest.raises(TypeError):
            vf.value(bad)
        assert vf.evaluations == 2

    @pytest.mark.parametrize("bad, error", [(8, ValidationError), (-1, ValidationError), (2.0, TypeError),
                                            ([0, 2], TypeError)], ids=["2^n", "negative", "float", "list"])
    def test_a_bad_mask_anywhere_in_a_call_evaluates_nothing(self, bad, error):
        counting = CountingPredictor(LinearProbPredictor(np.array([1.0, -1.0, 0.2])))
        vf = CachedValueFunction(counting, np.zeros(3), 1, completion=BackgroundSet(np.eye(3)), m=3, seed=0)
        for masks in ((bad, 1, 2), (1, bad, 2), (1, 2, bad)):
            with pytest.raises(error):
                vf.value(*masks)
        assert counting.calls == vf.evaluations == vf.coalitions_evaluated == vf.prediction_rows == 0
        assert vf.value(1, 2, 1) == [vf.value(1), vf.value(2), vf.value(1)]
        assert counting.calls == vf.evaluations == 1 and vf.coalitions_evaluated == 2

    @pytest.mark.parametrize("T, background, n_masks", [
        pytest.param(8, 200, 40, id="8"),
        pytest.param(12, 200, 40, id="12"),
        # Fewer background rows than m: each mask takes all 3, and the call holds as many masks as
        # marginal_contributions puts in one.
        pytest.param(12, 3, max(1, PREDICT_ROWS // 6), id="12-background-3-full-chunk"),
    ])
    def test_a_chunked_call_gives_each_mask_the_bits_of_its_own_call(self, T, background, n_masks):
        # A row's score must not depend on the rows predicted with it, as a BLAS gemv's can.
        process = MarkovSeriesProcess(T=T)
        pred = BayesPredictor(process)
        ds = process.sample(5 + background, 0)
        masks = np.random.default_rng(T).choice(np.arange(1, 1 << T), size=n_masks, replace=False).tolist()
        bits = 1 << np.arange(T)
        for p in range(5):
            args = (pred, ds.X[p], int(ds.y[p]), BackgroundSet(ds.X[5:]))
            chunked = CachedValueFunction(*args, m=6, seed=0, point_index=p).value(*masks)
            alone = CachedValueFunction(*args, m=6, seed=0, point_index=p)
            assert chunked == [alone.value(mask) for mask in masks]
            if background <= 6:
                # The whole background, in row order, so each value is the mean over x on S spliced
                # into every background row.
                for mask, got in zip(masks, chunked):
                    rows = np.where(bits & mask, ds.X[p], ds.X[5:])
                    assert same_bits(got, mean_reference(pred.predict(rows)[:, int(ds.y[p])]))

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
        assert CachedValueFunction(pred, x, 1, completion=sampler, m=50).value(0b10) == 0.0

    def test_empty_coalition_equals_off_manifold_over_the_same_rows(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        sampler = ExactMatchSampler(ds)
        x = np.array([0.0, 0.0])
        on = CachedValueFunction(pred, x, 1, completion=sampler, m=ds.n_rows).value(0)
        off = CachedValueFunction(pred, x, 1, completion=BackgroundSet(ds.X), m=ds.n_rows).value(0)
        assert on == off

    def test_subsamples_when_matches_exceed_m(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        sampler = ExactMatchSampler(ds)
        x = np.array([0.0, 0.0])
        val = CachedValueFunction(pred, x, 1, completion=sampler, m=3, seed=1).value(0b01)
        assert val == 0.0  # every a=0 row predicts 0 regardless of subsampling

    def test_exactly_m_matches_are_the_pool_in_row_order(self):
        ds = discrete_dataset()
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        # a = 0 matches rows 0, 1, 2, 3 and 7: with m = 5 each is used once, and nothing is drawn.
        rows, weights = ExactMatchSampler(ds).complete(np.array([0.0, 1.0]), 0b01, 5, rng)
        assert rows.tobytes() == ds.X[[0, 1, 2, 3, 7]].tobytes() and weights is None
        assert rng.bit_generator.state == state

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
            val = CachedValueFunction(pred, x, 1, completion=sampler, m=20, seed=2).value(0b011)
        # The one relaxed pool logs the one warning, naming what it conditioned on.
        (record,) = caplog.records
        assert "conditioning set ['a', 'b']; relaxing feature" in record.message
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
            rows_a, weights_a = exact.complete(x, 0b10, 6, np.random.default_rng(9))
        rows_b, weights_b = knn.complete(x, 0b10, 6, np.random.default_rng(9))
        assert np.array_equal(rows_a, rows_b) and weights_a is None and weights_b is None
        assert caplog.records == []  # no pool was relaxed, so nothing is logged


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
        rows, weights = sampler.complete(x, 0b011, 8, np.random.default_rng(0))
        assert weights is None and rows.shape == (8, 3)
        assert np.all(rows[:, 2] == 10.0)
        # The draws are row A whole; the value function writes x over p and q.
        assert np.all(rows[:, 0] == 0.1) and np.all(rows[:, 1] == 900.0)

    def test_discrete_conditioning_matches_exactly(self):
        ds = discrete_dataset()
        sampler = KNNSampler(ds, k=3)
        x = np.array([1.0, 0.0])
        rows, _ = sampler.complete(x, 0b01, 25, np.random.default_rng(1))
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
            sampler.complete(x, 0b11, 5, np.random.default_rng(5))
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
            mask = sum(1 << int(i) for i in np.flatnonzero(rng.random(4) < 0.6))
            got, _ = sampler.complete(x, mask, 16, np.random.default_rng(trial))
            assert np.array_equal(got, argsort_completion(sampler, x, mask, 16, trial))


def members(mask, n):
    """The features of an n-feature coalition mask, ascending."""
    return [i for i in range(n) if mask >> i & 1]


def argsort_completion(sampler, x, mask, m, seed):
    """What KNNSampler.complete draws, recomputed without pools: a full scan
    for matches, relaxation in the sampler's order, einsum distances over
    np.ix_, and a full stable argsort. The rows are the dataset's own."""
    X = sampler.dataset.X
    s_idx = members(mask, X.shape[1])
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
    return X[cand[np.random.default_rng(seed).integers(0, cand.size, size=m)]]


def exact_match_completion(sampler, x, mask, m, seed):
    """The rows ExactMatchSampler.complete returns, recomputed without pools:
    every match once when they fit within m."""
    X = sampler.dataset.X
    s_idx = members(mask, X.shape[1])
    discrete = set(sampler.schema.discrete_indices().tolist())
    cand = np.flatnonzero(np.all(X[:, s_idx] == x[s_idx], axis=1))
    if any(i not in discrete for i in s_idx) or cand.size == 0:
        return argsort_completion(sampler, x, mask, m, seed)
    if cand.size > m:
        cand = cand[np.random.default_rng(seed).integers(0, cand.size, size=m)]
    return X[cand]


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
        queries = [(x, mask) for x in points for mask in range(1 << ds.n)]
        rng = np.random.default_rng(k)
        for q in rng.permutation(len(queries)):
            x, mask = queries[q]
            got, weights = knn.complete(x, mask, 16, np.random.default_rng(q))
            assert weights is None and got.shape[0] == 16
            assert np.array_equal(got, argsort_completion(knn, x, mask, 16, q), equal_nan=True)
            got, weights = exact.complete(x, mask, 16, np.random.default_rng(q))
            want = exact_match_completion(exact, x, mask, 16, q)
            assert weights is None and got.shape[0] == want.shape[0] <= 16
            assert np.array_equal(got, want, equal_nan=True)
        assert len(knn._pools) < len(queries)

    def test_fallback_and_relaxation_warn_once_per_pool(self, caplog):
        # discrete_dataset has no (a, b) = (1, 1) row: exact matching falls
        # back to k-NN over the pool relaxed by one feature. Repeats reuse the
        # pool, so its one warning, logged when it was built, is the only one.
        sampler = ExactMatchSampler(discrete_dataset())
        with caplog.at_level(logging.WARNING, logger="asymshap.values"):
            for seed in range(6):
                sampler.complete(np.array([1.0, 1.0]), 0b11, 4, np.random.default_rng(seed))
        (record,) = caplog.records
        assert "conditioning set ['a', 'b']; relaxing feature" in record.message

    def test_pools_are_read_only(self):
        ds, points = pooled_case("grid")
        knn, exact = KNNSampler(ds), ExactMatchSampler(ds)
        for x in points:
            knn.complete(x, 0b011, 4, np.random.default_rng(0))
            exact.complete(x, 0b101, 4, np.random.default_rng(0))
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
    """_mean, the coalition mean of a list: fsum over m, or the common value of a constant column."""

    @pytest.mark.parametrize("m", [2, 3, 8, 9, 64, 100, 129, 1000, 10007])
    def test_matches_fsum_and_np_std_bitwise(self, m):
        rng = np.random.default_rng(m)
        for loc, scale in ((0.5, 0.2), (1e3, 1.0), (0.0, 1e-9), (-7.0, 1e4)):
            v = rng.normal(loc, scale, m)
            assert same_bits(_mean(v.tolist()), mean_reference(v))

    @pytest.mark.parametrize("m", [2, 5, 64, 300])
    def test_strided_probability_column(self, m):
        # value() passes the class column of the predictor output, a strided view.
        rng = np.random.default_rng(40 + m)
        p1 = 1.0 / (1.0 + np.exp(-rng.normal(size=m)))
        probs = np.column_stack([1.0 - p1, p1])
        for y in (0, 1):
            col = probs[:, y]
            assert not col.flags.c_contiguous
            assert same_bits(_mean(col.tolist()), mean_reference(col))

    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_constant_vectors_short_circuit(self, m):
        for c in (0.0, -0.0, 0.3, 1e300):
            v = np.full(m, c)
            assert same_bits(_mean(v.tolist()), c)
            assert same_bits(_mean(v.tolist()), mean_reference(v))
        # 0.0 == -0.0, so a column of both is constant and returns its first entry.
        for first, rest in ((0.0, -0.0), (-0.0, 0.0)):
            v = np.full(m, rest)
            v[0] = first
            assert same_bits(_mean(v.tolist()), first)
            assert same_bits(_mean(v.tolist()), mean_reference(v))

    @pytest.mark.parametrize("col", [[0.5, 0.25, 0.5], [0.0, 0.3, -0.0], [0.3, 0.3, 0.7, 0.3], [-0.0, 1.0, 1.0, 0.0],
                                     [1e300, -1e300, 1e300]], ids=lambda col: "_".join(map(repr, col)))
    def test_equal_ends_with_a_different_middle_are_averaged(self, col):
        # The first and last entries agree, so only the count scan sees the middle one.
        assert same_bits(_mean(col), mean_reference(np.array(col)))

    def test_single_value(self):
        assert same_bits(_mean([0.25]), 0.25)
        assert same_bits(_mean([-0.0]), -0.0)

    def test_a_repeated_object_is_its_own_mean(self):
        # list.count matches by identity first, so one nan object repeated is constant, as it was when
        # the column was an array's tolist(); nan entries that are distinct objects are summed.
        nan = float("nan")
        assert _mean([nan] * 3) is nan
        assert math.isnan(_mean(np.full(3, np.nan).tolist()))

    def test_weighted_mean_is_the_fsum_of_the_products(self):
        rng = np.random.default_rng(3)
        v, w = rng.random(33), rng.random(33)
        w /= w.sum()
        assert same_bits(_mean(v.tolist(), w), math.fsum(map(operator.mul, w.tolist(), v.tolist())))
        # A constant column is its value whatever the weights, so nullity stays an identity.
        for c in (0.3, -0.0):
            assert same_bits(_mean(np.full(33, c).tolist(), w), c)

    def test_sum_is_compensated(self):
        # A plain float sum loses the 1.0s to the 1e16s; fsum keeps them.
        assert _mean([1e16, 1.0, -1e16, 1.0]) == 0.5


STREAM_KEYS = [0, 1, 2**32 - 1, 2**32, 2**61 + 5]


class TestStreamKey:
    """Coalition streams are np.random.SeedSequence([seed, point_index, mask]),
    seeded from its 32-bit words without numpy's list coercion; so are the
    Monte Carlo order stream [seed, 0x9E12, point_index] and the point-budget
    stream [seed, 0xB0D6E7] of attribution."""

    @pytest.mark.parametrize("seed", STREAM_KEYS)
    def test_words_reproduce_the_list_seed_sequence(self, seed):
        for point_index in STREAM_KEYS:
            for keys in [(seed, point_index, mask) for mask in STREAM_KEYS] + [
                (seed, 0x9E12, point_index), (seed, 0xB0D6E7),
            ]:
                got = _stream(*keys)
                want = np.random.default_rng(np.random.SeedSequence(list(keys)))
                assert np.array_equal(
                    got.bit_generator.seed_seq.generate_state(8),
                    want.bit_generator.seed_seq.generate_state(8),
                )
                assert np.array_equal(got.integers(0, 2**63, 16), want.integers(0, 2**63, 16))

    def test_on_manifold_value_draws_from_the_keyed_stream(self):
        ds, (x, *_) = pooled_case("grid")
        pred = LinearProbPredictor(np.array([0.4, -0.9, 0.3]))
        sampler = KNNSampler(ds, k=6)
        seed, point_index = 2**32 - 1, 2**31 + 1
        vf = CachedValueFunction(pred, x, 1, completion=sampler, m=9, seed=seed, point_index=point_index)
        for mask in range(7):
            rng = np.random.default_rng(np.random.SeedSequence([seed, point_index, mask]))
            draws, _ = sampler.complete(x, mask, 9, rng)
            rows = np.where((mask >> np.arange(3)) & 1, x, draws)
            assert same_bits(vf.value(mask), mean_reference(pred.predict(rows)[:, 1]))

    @pytest.mark.parametrize("key", ["seed", "point_index"])
    def test_negative_key_rejected(self, key):
        pred = ConstantPredictor(n_features=2)
        bg = BackgroundSet(np.zeros((3, 2)))
        with pytest.raises(ValidationError, match="nonnegative"):
            CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: -1})

    @pytest.mark.parametrize("key", ["seed", "point_index"])
    def test_key_from_2_to_the_32_rejected(self, key):
        # Such a key fills two words of a stream key, so it would share streams with another run.
        pred = ConstantPredictor(n_features=2)
        bg = BackgroundSet(np.zeros((3, 2)))
        with pytest.raises(ValidationError, match=r"nonnegative and below 2\^32"):
            CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: 2**32})
        CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: 2**32 - 1})

    @pytest.mark.parametrize("key", ["seed", "point_index"])
    def test_non_integer_key_rejected(self, key):
        # int() would read 2.7 as key 2, and operator.index True as key 1.
        pred = ConstantPredictor(n_features=2)
        bg = BackgroundSet(np.zeros((3, 2)))
        for bad in (2.7, True, np.True_, "1"):
            with pytest.raises(ValidationError, match=f"{key} must be an integer, got {bad!r}"):
                CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: bad})
        assert getattr(CachedValueFunction(pred, np.zeros(2), 1, completion=bg, m=2, **{key: np.int64(3)}), key) == 3

    @pytest.mark.parametrize("m", [True, 2.5, 0], ids=repr)
    def test_sample_count_must_be_a_positive_integer(self, m):
        # numpy's choice would raise a raw TypeError for True or 2.5.
        pred = ConstantPredictor(n_features=2)
        with pytest.raises(ValidationError, match=f"sample count must be positive, got {m!r}"):
            CachedValueFunction(pred, np.zeros(2), 1, completion=BackgroundSet(np.zeros((3, 2))), m=m)

    def test_wide_seed_words_alias_another_runs_stream(self):
        # Why a run's seed stays below 2^32: seed 5 + 7 * 2^32 at point 99 splits into the words of
        # seed 5, point 7, mask 99.
        wide, narrow = _stream(5 + (7 << 32), 99), _stream(5, 7, 99)
        assert wide.bit_generator.state == narrow.bit_generator.state
        assert np.array_equal(wide.integers(0, 2**63, 8), narrow.integers(0, 2**63, 8))


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

        def conditional_samples(self, x, mask, m, rng):
            if self.wrong_shape:
                return rng.normal(size=(m, self.n + 1))
            return rng.normal(size=(m, self.n))

    def test_conditioned_columns_are_pinned(self):
        sampler = GenerativeSampler(self._Stub())
        x = np.array([5.0, -3.0, 2.0])
        assert sampler.complete(x, 0b101, 10, np.random.default_rng(0))[1] is None
        pred = RowRecorder()
        CachedValueFunction(pred, x, 1, completion=sampler, m=10).value(0b101)
        got = np.array(pred.rows)
        assert np.all(got[:, 0] == 5.0) and np.all(got[:, 2] == 2.0)
        assert not np.all(got[:, 1] == -3.0)

    def test_wrong_shape_raises(self):
        sampler = GenerativeSampler(self._Stub(wrong_shape=True))
        with pytest.raises(EstimatorError):
            sampler.complete(np.zeros(3), 0b001, 4, np.random.default_rng(0))

    def test_needs_a_process(self):
        with pytest.raises(ValidationError):
            GenerativeSampler(object())


def splice_case(case):
    """(sampler, x, mask, whether the draws already agree with x on the mask)."""
    if case == "exact-match":
        return ExactMatchSampler(discrete_dataset()), np.array([0.0, 1.0]), 0b01, True
    if case == "exact-match-knn-fallback":
        # No row has (a, b) = (1, 1), so k-NN relaxes a feature and draws rows off x there.
        rng = np.random.default_rng(13)
        ab = np.array([[0, 0], [0, 1], [1, 0]])[rng.integers(0, 3, 40)]
        X = np.column_stack([ab, rng.integers(0, 2, 40)]).astype(float)
        schema = Schema(tuple(FeatureSpec(name, DISCRETE, 2) for name in "abc"))
        return ExactMatchSampler(Dataset(X, rng.integers(0, 2, 40), schema)), np.array([1.0, 1.0, 0.0]), 0b011, False
    if case == "knn":
        # c0 = 0.25 lies between grid values, so no neighbour matches it.
        ds, points = pooled_case("grid")
        return KNNSampler(ds, k=4), points[12], 0b011, False
    return GenerativeSampler(TestGenerativeSampler._Stub()), np.array([5.0, -3.0, 2.0]), 0b101, False


class TestSamplerSplice:
    """Samplers return their draws as drawn; the rows the predictor receives
    hold x on S and the draws off S."""

    @pytest.mark.parametrize("case", ["exact-match", "exact-match-knn-fallback", "knn", "generative"])
    def test_predictor_rows_are_x_on_s_and_the_draws_off_s(self, case):
        sampler, x, mask, agree = splice_case(case)
        seed, point_index, m = 4, 2, 12
        pred = RowRecorder(x.size)
        CachedValueFunction(pred, x, 1, completion=sampler, m=m, seed=seed, point_index=point_index).value(mask)
        draws, weights = sampler.complete(x, mask, m, _stream(seed, point_index, mask))
        assert weights is None
        got = np.array(pred.rows)
        known = ((mask >> np.arange(x.size)) & 1).astype(bool)
        # Five rows have a = 0, fewer than m, so exact matching uses each once.
        assert got.shape == draws.shape == (5 if case == "exact-match" else m, x.size)
        assert np.array_equal(got[:, known], np.tile(x[known], (len(got), 1)))
        assert np.array_equal(got[:, ~known], draws[:, ~known])
        assert np.array_equal(draws[:, known], got[:, known]) == agree


CONTRACT_CASES = ("knn", "exact-match-pool-within-m", "exact-match-pool-beyond-m", "generative-markov",
                  "admissions", "two-feature")


def contract_case(case):
    """(completion, x, the masks to complete, m) for one TestCompletionContract case."""
    if case == "knn":
        ds, points = pooled_case("grid")
        return KNNSampler(ds, k=4), points[12], [0b000, 0b011, 0b101], 12
    if case.startswith("exact-match"):
        # Eight rows in all, five with a = 0 and two with b = 1: within m = 12 each match is used
        # once, and beyond m = 3 m are drawn where more match.
        return (ExactMatchSampler(discrete_dataset()), np.array([0.0, 1.0]), [0b00, 0b01, 0b10],
                12 if case.endswith("within-m") else 3)
    if case == "generative-markov":
        return GenerativeSampler(MarkovSeriesProcess(T=4)), np.array([0.8, 0.5, 0.6, 0.55]), [0b0000, 0b0101], 12
    if case == "admissions":
        return AdmissionsProcess(unfair=True), np.array([1.0, 0.3, 0.0]), range(7), 12
    return TwoFeatureGraphProcess("mixed"), np.array([1.0, 0.0]), range(3), 12


def contract_predictors(completion, x):
    """LinearProbPredictor, and a logistic and an MLP TrainedModel fitted for 2 epochs on data of
    the completion's schema, whose predict goes through one_hot_design and the net."""
    ds = getattr(completion, "dataset", None)
    if ds is None:
        ds = getattr(completion, "process", completion).sample(60, seed=0)
    config = TrainConfig(epochs=2, hidden=(3,), seed=0)
    return [LinearProbPredictor(np.linspace(0.5, -1.0, x.size)), train_logistic(ds, config), train_mlp(ds, config)]


class TestCompletionContract:
    """complete returns the rows first, a 2-d array with a column per feature,
    then their weights: None for rows that count alike, else a probability
    vector over them. The value function's v(S) is the weighted mean of f_y
    over the rows with x written over S. value over several masks makes one
    predictor call and gives each mask, completed by two or more rows here,
    the bits of a call of its own."""

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_rows_then_weights(self, case):
        completion, x, masks, m = contract_case(case)
        for pred in contract_predictors(completion, x):
            wants, n_rows = [], 0
            for mask in masks:
                rows, weights = completion.complete(x, mask, m, _stream(4, 2, mask))
                assert rows.ndim == 2 and rows.shape[1] == x.size
                if weights is None:
                    assert 0 < rows.shape[0] <= m
                else:
                    assert weights.shape == (rows.shape[0],) and np.all(weights >= 0)
                    assert abs(math.fsum(weights.tolist()) - 1) <= 1e-15
                f = pred.predict(np.where((mask >> np.arange(x.size)) & 1, x, rows))[:, 1]
                want = mean_reference(f) if weights is None else math.fsum(map(operator.mul, weights.tolist(), f.tolist()))
                vf = CachedValueFunction(pred, x, 1, completion=completion, m=m, seed=4, point_index=2)
                assert same_bits(vf.value(mask), want)
                wants.append(want)
                n_rows += rows.shape[0]
            counting = CountingPredictor(pred)
            vf = CachedValueFunction(counting, x, 1, completion=completion, m=m, seed=4, point_index=2)
            assert same_bits(vf.value(*masks), wants)
            assert counting.calls == vf.evaluations == 1
            assert counting.rows == vf.prediction_rows == n_rows
            assert vf.coalitions_evaluated == len(masks)


# ---------------------------------------------------------------- on-manifold


class TestOnManifold:
    def test_full_coalition_is_the_prediction(self):
        ds = discrete_dataset()
        pred = FirstFeatureProbPredictor(n_features=2)
        vf = CachedValueFunction(pred, np.array([1.0, 0.0]), 1, completion=ExactMatchSampler(ds), m=5)
        assert vf.value(0b11) == 1.0

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
