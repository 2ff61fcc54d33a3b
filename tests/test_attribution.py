"""Exact and Monte Carlo attribution, the dual Shapley formulas, and global sums."""

import math

import numpy as np
import pytest
from helpers import ConstantPredictor, CountingGame, FirstFeatureProbPredictor, LinearProbPredictor
from hypothesis import given, settings
from hypothesis import strategies as st

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    AttributionResult,
    BackgroundSet,
    CachedValueFunction,
    CoalitionChains,
    Dataset,
    EnumerationCapError,
    FeatureSpec,
    OrderingSpec,
    Schema,
    TableValueFunction,
    ValidationError,
    coalition_accuracy,
    enumerate_consistent,
    exact_asv,
    exact_shapley_subset_form,
    global_asv,
    marginal_contributions,
    mc_asv,
    partition_sum_check,
    random_ordering_spec,
    sample_consistent_batch,
    sampled_label_accuracy,
)
from asymshap import attribution
from asymshap.attribution import column_means


def random_table(n, rng):
    return TableValueFunction(rng.random(1 << n), n)


def additive_table(weights):
    n = len(weights)
    table = np.zeros(1 << n)
    for mask in range(1 << n):
        table[mask] = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    return TableValueFunction(table, n)


def lifted_table(base, null_feature, n, rng_table):
    """A game over n features in which null_feature never changes the value."""
    table = np.zeros(1 << n)
    for mask in range(1 << n):
        reduced = 0
        k = 0
        for i in range(n):
            if i == null_feature:
                continue
            if mask >> i & 1:
                reduced |= 1 << k
            k += 1
        table[mask] = rng_table[reduced] if base is None else base[reduced]
    return TableValueFunction(table, n)


class TestTableValueFunction:
    def test_size_validation(self):
        with pytest.raises(ValidationError):
            TableValueFunction(np.zeros(7), 3)


def position_aligned(v, P):
    """Marginal contributions by position: entry [r, k] belongs to feature P[r, k]."""
    out = np.empty(P.shape)
    for r, order in enumerate(P.tolist()):
        pre = 0
        for k, i in enumerate(order):
            out[r, k] = v.value(pre | 1 << i) - v.value(pre)
            pre |= 1 << i
    return out


def prefix_masks(P):
    """{} and the coalition after each position of each order."""
    masks = {0}
    for order in P.tolist():
        pre = 0
        for i in order:
            pre |= 1 << i
            masks.add(pre)
    return masks


class TestMarginalContributions:
    def test_hand_case(self):
        # v({}) = 0, v({0}) = 1, v({1}) = 3, v({0, 1}) = 4: feature 0 adds 1
        # and feature 1 adds 3 in either order, first or second.
        vf = TableValueFunction(np.array([0.0, 1.0, 3.0, 4.0]), 2)
        P = np.array([[0, 1], [1, 0]])
        D = marginal_contributions(vf, CoalitionChains(P))
        assert np.array_equal(D, [[1.0, 3.0], [1.0, 3.0]])

    def test_each_coalition_evaluated_once(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        batch = sample_consistent_batch(spec, 40, np.random.default_rng(0))
        assert len({tuple(order) for order in batch.tolist()}) < 40  # 4 consistent orders
        everything = enumerate_consistent(OrderingSpec(4))
        assert prefix_masks(everything) == set(range(16))
        for P in (everything, enumerate_consistent(spec), batch):
            chains = CoalitionChains(P)
            assert chains.masks.tolist() == sorted(prefix_masks(P) - {0})
            for _ in range(2):  # the same chains serve the next point as well
                game = CountingGame(4)
                marginal_contributions(game, chains)
                assert game.masks == sorted(prefix_masks(P))  # each once, ascending

    def test_feature_indexed_reduction_is_bitwise(self):
        # D is the position-aligned layout scattered by feature, and the
        # per-point means and stderrs are what per-feature gathers over that
        # layout gave: fsum / R and np.std(ddof=1) / sqrt(R).
        rng = np.random.default_rng(16)
        for n in range(2, 8):
            for _ in range(4):
                vf = random_table(n, rng)
                spec = random_ordering_spec(n, rng)
                seed = int(rng.integers(2**32))
                P = enumerate_consistent(spec)
                runs = [(P, exact_asv(vf, spec)), (P, exact_asv(vf, spec, CoalitionChains(P)))]
                for draws in (2, 37):
                    P = sample_consistent_batch(spec, draws, np.random.default_rng(seed))
                    runs.append((P, mc_asv(vf, spec, draws, np.random.default_rng(seed))))
                for P, res in runs:
                    R = P.shape[0]
                    old = position_aligned(vf, P)
                    scattered = np.empty_like(old)
                    for r in range(R):
                        scattered[r, P[r]] = old[r]
                    assert np.array_equal(marginal_contributions(vf, CoalitionChains(P)), scattered)
                    for i in range(n):
                        c = old[P == i]
                        assert res.means[i] == math.fsum(map(float, c)) / R
                        if res.metadata["estimator"] == "mc":
                            assert res.stderrs[i] == float(np.std(c, ddof=1)) / math.sqrt(R)
                        else:
                            assert res.stderrs[i] == 0.0

    def test_chains_are_read_only(self):
        chains = CoalitionChains(enumerate_consistent(OrderingSpec(3)))
        assert (chains.count, chains.n) == (6, 3)
        for a in (chains.masks, chains.after, chains.before):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0
            with pytest.raises(ValueError):
                a += 1

    def test_rows_telescope(self):
        vf = random_table(4, np.random.default_rng(1))
        P = np.array([[2, 0, 3, 1], [0, 1, 2, 3]])
        diffs = marginal_contributions(vf, CoalitionChains(P))
        span = vf.value(0b1111) - vf.value(0)
        for r in range(2):
            assert math.fsum(map(float, diffs[r])) == pytest.approx(span, abs=1e-12)


class TestTwoFeatureClosedForms:
    def test_uniform_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = rng.random(4)
            res = exact_asv(TableValueFunction(t, 2), OrderingSpec(2))
            phi0 = 0.5 * (t[1] - t[0]) + 0.5 * (t[3] - t[2])
            phi1 = 0.5 * (t[2] - t[0]) + 0.5 * (t[3] - t[1])
            assert res.means[0] == phi0
            assert res.means[1] == phi1

    def test_known_precedence_collapses_to_one_permutation(self):
        rng = np.random.default_rng(3)
        t = rng.random(4)
        vf = TableValueFunction(t, 2)
        first = exact_asv(vf, OrderingSpec(2, edges=frozenset({(0, 1)})))
        assert first.means[0] == t[1] - t[0]
        assert first.means[1] == t[3] - t[1]
        second = exact_asv(vf, OrderingSpec(2, edges=frozenset({(1, 0)})))
        assert second.means[0] == t[3] - t[2]
        assert second.means[1] == t[2] - t[0]

    def test_directions_are_mirror_images(self):
        t = np.random.default_rng(4).random(4)
        vf = TableValueFunction(t, 2)
        spec = OrderingSpec(2, edges=frozenset({(0, 1)}))
        distal = exact_asv(vf, OrderingSpec.from_json_dict({**spec.to_json_dict(), "direction": "distal"}))
        proximate = exact_asv(vf, OrderingSpec.from_json_dict({**spec.to_json_dict(), "direction": "proximate"}))
        reversed_spec = exact_asv(vf, spec.reversed())
        assert np.array_equal(distal.means, exact_asv(vf, spec).means)
        assert np.array_equal(proximate.means, reversed_spec.means)


class TestAxioms:
    def test_dictator_game(self):
        n = 4
        table = np.array([1.0 if mask & 1 else 0.0 for mask in range(1 << n)])
        res = exact_asv(TableValueFunction(table, n), OrderingSpec(n))
        assert res.means[0] == 1.0
        assert np.all(res.means[1:] == 0.0)
        dual = exact_shapley_subset_form(TableValueFunction(table, n))
        assert np.allclose(dual.means, res.means, atol=1e-9)

    def test_additive_game_with_integer_worths(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0]
        res = exact_asv(additive_table(weights), OrderingSpec(5))
        assert np.array_equal(res.means, weights)

    def test_additive_game_with_float_worths(self):
        weights = [0.1, -0.7, 0.31]
        res = exact_asv(additive_table(weights), OrderingSpec(3))
        assert np.allclose(res.means, weights, atol=1e-9)

    def test_efficiency_exact_and_constrained(self):
        rng = np.random.default_rng(5)
        from asymshap import random_ordering_spec

        for _ in range(20):
            n = int(rng.integers(2, 7))
            vf = random_table(n, rng)
            spec = random_ordering_spec(n, rng)
            res = exact_asv(vf, spec)
            assert abs(res.efficiency_gap()) <= 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(6)
        n = 4
        u, v = rng.random(1 << n), rng.random(1 << n)
        alpha, beta = 2.5, -0.75
        spec = OrderingSpec(n, edges=frozenset({(1, 3)}))
        mixed = exact_asv(TableValueFunction(alpha * u + beta * v, n), spec)
        a = exact_asv(TableValueFunction(u, n), spec)
        b = exact_asv(TableValueFunction(v, n), spec)
        assert np.allclose(mixed.means, alpha * a.means + beta * b.means, atol=1e-9)

    def test_null_feature_gets_exactly_zero(self):
        rng = np.random.default_rng(7)
        n = 5
        base = rng.random(1 << (n - 1))
        vf = lifted_table(base, null_feature=2, n=n, rng_table=None)
        res = exact_asv(vf, OrderingSpec(n))
        assert res.means[2] == 0.0
        dual = exact_shapley_subset_form(lifted_table(base, 2, n, None))
        assert dual.means[2] == 0.0

    def test_symmetric_features_share_credit(self):
        # Randomize over the orbit classes of swapping features 0 and 1, so
        # the game is invariant under that swap.
        rng = np.random.default_rng(8)
        n = 4
        table = np.zeros(1 << n)
        assigned = {}
        for mask in range(1 << n):
            b0, b1 = mask & 1, (mask >> 1) & 1
            canon = (mask & ~3) | (min(b0 + b1, 1) | (0 if b0 + b1 < 2 else 2)) | (
                0 if b0 + b1 != 1 else 1
            )
            if canon not in assigned:
                assigned[canon] = rng.random()
            table[mask] = assigned[canon]
        res = exact_asv(TableValueFunction(table, n), OrderingSpec(n))
        assert abs(res.means[0] - res.means[1]) <= 1e-9

    def test_ordering_constraints_break_symmetry(self):
        # Unanimity game on {0, 1}: the plain Shapley value splits credit
        # evenly, but forcing 0 first hands the whole marginal to feature 1.
        table = np.array([0.0, 0.0, 0.0, 1.0])
        vf = TableValueFunction(table, 2)
        plain = exact_asv(vf, OrderingSpec(2))
        assert plain.means[0] == 0.5 and plain.means[1] == 0.5
        forced = exact_asv(vf, OrderingSpec(2, groups=((0,), (1,))))
        assert forced.means[0] == 0.0 and forced.means[1] == 1.0


class TestDualFormula:
    def test_oracle_agreement_across_sizes(self):
        rng = np.random.default_rng(9)
        for n in range(2, 9):
            for _ in range(5):
                table = rng.random(1 << n)
                perm_form = exact_asv(TableValueFunction(table, n), OrderingSpec(n))
                subset_form = exact_shapley_subset_form(TableValueFunction(table, n))
                assert np.max(np.abs(perm_form.means - subset_form.means)) <= 1e-9
                assert perm_form.baseline == subset_form.baseline
                assert perm_form.total == subset_form.total

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_oracle_agreement_property(self, seed, n):
        table = np.random.default_rng(seed).random(1 << n)
        perm_form = exact_asv(TableValueFunction(table, n), OrderingSpec(n))
        subset_form = exact_shapley_subset_form(TableValueFunction(table, n))
        assert np.max(np.abs(perm_form.means - subset_form.means)) <= 1e-9


class TestMonteCarlo:
    def test_agrees_with_exact_within_four_stderr(self):
        rng = np.random.default_rng(10)
        vf = random_table(5, rng)
        spec = OrderingSpec(5, edges=frozenset({(0, 2)}))
        exact = exact_asv(vf, spec)
        est = mc_asv(vf, spec, 4000, np.random.default_rng(11))
        for i in range(5):
            gap = abs(est.means[i] - exact.means[i])
            assert gap <= 4 * est.stderrs[i] + 1e-12

    def test_total_order_has_zero_variance(self):
        vf = random_table(4, np.random.default_rng(12))
        chain = OrderingSpec(4, groups=((1,), (0,), (3,), (2,)))
        est = mc_asv(vf, chain, 2, np.random.default_rng(0))
        exact = exact_asv(vf, chain)
        assert np.array_equal(est.means, exact.means)
        assert np.all(est.stderrs == 0.0)

    def test_needs_at_least_two_draws(self):
        vf = random_table(3, np.random.default_rng(13))
        with pytest.raises(ValidationError):
            mc_asv(vf, OrderingSpec(3), 1, np.random.default_rng(0))

    def test_same_stream_reproduces(self):
        vf = random_table(4, np.random.default_rng(14))
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        a = mc_asv(vf, spec, 64, np.random.default_rng(42))
        b = mc_asv(vf, spec, 64, np.random.default_rng(42))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.stderrs, b.stderrs)


class TestGuards:
    def test_enumeration_cap(self):
        vf = TableValueFunction(np.zeros(2**11), 11)
        with pytest.raises(EnumerationCapError):
            exact_asv(vf, OrderingSpec(11))

    def test_ordering_type_checked(self):
        vf = random_table(3, np.random.default_rng(15))
        with pytest.raises(ValidationError):
            exact_asv(vf, "chain")

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValidationError):
            AttributionResult(
                means=np.zeros(2), stderrs=np.array([0.1, -0.1]),
                n_samples=1, baseline=0.0, total=0.0,
            )

    def test_result_serialization(self):
        res = AttributionResult(
            means=np.array([0.5]), stderrs=np.array([0.0]),
            n_samples=3, baseline=0.1, total=0.6,
        )
        d = res.to_json_dict(feature_names=["only"])
        assert d["features"] == ["only"]
        assert res.efficiency_gap() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- global


def toy_dataset(rows=12, n=3, seed=0):
    schema = Schema(tuple(FeatureSpec(f"f{i}", CONTINUOUS) for i in range(n)))
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(rows, n)), rng.integers(0, 2, rows), schema)


class TestGlobalAttribution:
    def test_constant_predictor_gets_zero_everywhere(self):
        ds = toy_dataset()
        pred = ConstantPredictor(p1=0.4, n_features=3)
        glob = global_asv(pred, ds, OrderingSpec(3), completion=BackgroundSet(ds.X), m=8, seed=0)
        assert np.all(glob.means == 0.0)
        assert glob.accuracy_full == glob.accuracy_empty
        assert glob.sum_rule_gap() == 0.0

    def test_sum_rule(self):
        ds = toy_dataset(rows=20, seed=1)
        pred = LinearProbPredictor(np.array([1.0, -0.5, 0.25]))
        glob = global_asv(pred, ds, OrderingSpec(3), completion=BackgroundSet(ds.X), m=16, seed=3)
        assert abs(glob.sum_rule_gap()) <= 1e-9
        assert glob.accuracy_full == pytest.approx(
            sampled_label_accuracy(pred, ds.X, ds.y), abs=1e-12
        )

    def test_mc_estimator_is_deterministic_per_seed(self):
        ds = toy_dataset(rows=8, seed=3)
        pred = LinearProbPredictor(np.array([1.0, 0.0, -1.0]))
        kwargs = dict(
            completion=BackgroundSet(ds.X), m=8, estimator="mc", n_perms=16, seed=9
        )
        a = global_asv(pred, ds, OrderingSpec(3), **kwargs)
        b = global_asv(pred, ds, OrderingSpec(3), **kwargs)
        assert np.array_equal(a.means, b.means)
        c = global_asv(pred, ds, OrderingSpec(3), **{**kwargs, "seed": 10})
        assert not np.array_equal(a.means, c.means)

    def test_point_budget(self):
        ds = toy_dataset(rows=30, seed=4)
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        glob = global_asv(
            pred, ds, OrderingSpec(3), completion=BackgroundSet(ds.X), m=4, budget=7, seed=0
        )
        assert glob.n_points == 7
        with pytest.raises(ValidationError):
            global_asv(pred, ds, OrderingSpec(3), completion=BackgroundSet(ds.X), budget=0)

    def test_collect_locals_matches_reported_spread(self):
        ds = toy_dataset(rows=15, seed=5)
        pred = LinearProbPredictor(np.array([2.0, -1.0, 0.5]))
        glob = global_asv(
            pred, ds, OrderingSpec(3), completion=BackgroundSet(ds.X), m=8, seed=1,
        )
        assert glob.locals.shape == (15, 3)
        manual = np.std(glob.locals, axis=0, ddof=1) / math.sqrt(15)
        assert np.allclose(glob.stderrs, manual, atol=1e-12)

    def test_validation(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        bg = BackgroundSet(ds.X)
        with pytest.raises(ValidationError):
            global_asv(pred, ds, OrderingSpec(4), completion=bg)
        with pytest.raises(ValidationError):
            global_asv(pred, ds, OrderingSpec(3), completion=bg, estimator="quasi")

    @pytest.mark.parametrize("estimator", ["exact", "mc"])
    def test_one_point_has_no_across_point_stderr(self, estimator):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match="at least 2 points"):
            global_asv(pred, ds, OrderingSpec(3), BackgroundSet(ds.X), estimator=estimator, budget=1)
        with pytest.raises(ValidationError, match="at least 2 points"):
            one_row = Dataset(ds.X[:1], ds.y[:1], ds.schema)
            global_asv(pred, one_row, OrderingSpec(3), completion=BackgroundSet(ds.X), estimator=estimator)

    def test_exact_run_enumerates_its_orders_once(self, monkeypatch):
        ds = toy_dataset(rows=24, n=4, seed=6)
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.5, 2.0]))
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        kwargs = dict(completion=BackgroundSet(ds.X), m=4, seed=0)
        alone = global_asv(pred, ds, spec, **kwargs)
        calls = []
        real = attribution.enumerate_consistent

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(attribution, "enumerate_consistent", counting)
        glob = global_asv(pred, ds, spec, **kwargs)
        assert glob.n_points == 24
        assert len(calls) == 1
        assert np.array_equal(glob.locals, alone.locals)

    def test_exact_means_are_the_mean_of_per_point_exact_asv(self):
        ds = toy_dataset(rows=9, n=4, seed=7)
        pred = LinearProbPredictor(np.array([0.5, -2.0, 1.0, 0.25]))
        bg = BackgroundSet(ds.X)
        spec = OrderingSpec(4, edges=frozenset({(0, 2), (1, 3)}))
        glob = global_asv(pred, ds, spec, completion=bg, m=6, seed=2)
        local = np.array([
            exact_asv(
                CachedValueFunction(pred, ds.X[row], int(ds.y[row]), bg, m=6, seed=2, point_index=row),
                spec,
            ).means
            for row in range(ds.n_rows)
        ])
        assert np.array_equal(glob.locals, local)
        assert np.array_equal(glob.means, column_means(local))


class TestCoalitionAccuracy:
    def test_full_set_is_sampled_label_accuracy(self):
        ds = toy_dataset(rows=25, seed=6)
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.5]))
        acc, err = coalition_accuracy(pred, ds, [0, 1, 2], completion=BackgroundSet(ds.X), m=8)
        assert acc == pytest.approx(sampled_label_accuracy(pred, ds.X, ds.y), abs=1e-12)
        assert err > 0.0

    def test_perfectly_informative_feature(self):
        # x0 equals the label; the predictor reads it off, so the full set is
        # always right and the empty set falls to the balanced base rate.
        schema = Schema((FeatureSpec("x", DISCRETE, 2),))
        X = np.array([[0.0], [1.0]] * 8)
        y = X[:, 0].astype(np.int64)
        ds = Dataset(X, y, schema)
        pred = FirstFeatureProbPredictor(n_features=1)
        full = coalition_accuracy(pred, ds, [0], completion=BackgroundSet(ds.X), m=ds.n_rows)[0]
        empty = coalition_accuracy(pred, ds, [], completion=BackgroundSet(ds.X), m=ds.n_rows)[0]
        assert full == 1.0
        assert empty == 0.5

    def test_empty_set_matches_global_baseline_exactly(self):
        ds = toy_dataset(rows=18, seed=7)
        pred = LinearProbPredictor(np.array([0.5, 1.0, -0.75]))
        bg = BackgroundSet(ds.X)
        glob = global_asv(pred, ds, OrderingSpec(3), completion=bg, m=10, seed=4)
        empty, _ = coalition_accuracy(pred, ds, [], completion=bg, m=10, seed=4)
        assert empty == glob.accuracy_empty

    def test_one_point_has_no_across_point_stderr(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        bg = BackgroundSet(ds.X)
        with pytest.raises(ValidationError, match="at least 2 points"):
            coalition_accuracy(pred, ds, [0, 1], completion=bg, budget=1)
        one_row = Dataset(ds.X[:1], ds.y[:1], ds.schema)
        with pytest.raises(ValidationError, match="at least 2 points"):
            coalition_accuracy(pred, one_row, [0, 1], completion=bg)
        _, err = coalition_accuracy(pred, ds, [0, 1], completion=bg, budget=2)
        assert err > 0.0


class TestPartitionSumCheck:
    def _setup(self, groups, seed=8):
        ds = toy_dataset(rows=16, seed=seed)
        pred = LinearProbPredictor(np.array([1.5, -0.5, 0.75]))
        bg = BackgroundSet(ds.X)
        spec = OrderingSpec(3, groups=groups)
        glob = global_asv(pred, ds, spec, completion=bg, m=12, seed=2)
        acc = lambda mask: coalition_accuracy(pred, ds, mask, completion=bg, m=12, seed=2)
        return glob, acc

    def test_single_group_recovers_the_sum_rule(self):
        glob, acc = self._setup(((0, 1, 2),))
        report = partition_sum_check(glob, [(0, 1, 2)], acc)
        row = report["groups"][0]
        assert abs(row["gap"]) <= 1e-12
        assert abs(row["cumulative_gap"]) <= 1e-12

    def test_two_group_split_telescopes(self):
        glob, acc = self._setup(((0,), (1, 2)))
        report = partition_sum_check(glob, [(0,), (1, 2)], acc)
        for row in report["groups"]:
            assert abs(row["gap"]) <= 1e-12
            assert abs(row["cumulative_gap"]) <= 1e-12
        assert report["max_gap_in_stderr"] <= 0.01

    def test_chain_of_singletons(self):
        glob, acc = self._setup(((2,), (0,), (1,)))
        report = partition_sum_check(glob, [(2,), (0,), (1,)], acc)
        assert [r["group"] for r in report["groups"]] == [[2], [0], [1]]
        for row in report["groups"]:
            assert abs(row["cumulative_gap"]) <= 1e-12

    def test_partition_must_match_the_run(self):
        glob, acc = self._setup(((0,), (1, 2)))
        with pytest.raises(ValidationError):
            partition_sum_check(glob, [(1,), (0, 2)], acc)
        with pytest.raises(ValidationError):
            partition_sum_check(glob, [(0,), (1,)], acc)
