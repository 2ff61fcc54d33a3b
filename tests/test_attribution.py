"""Exact and Monte Carlo attribution, the dual Shapley formulas, and global sums."""

import logging
import math
import struct
from collections import Counter

import numpy as np
import pytest
from helpers import (
    ConstantPredictor,
    CountingGame,
    CountingPredictor,
    FirstFeatureProbPredictor,
    LinearProbPredictor,
    TableValueFunction,
    coalition_accuracy,
    estimator_self_check,
    exact_shapley_subset_form,
    peak_traced_bytes,
    random_ordering_spec,
    reference_partition_report,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from asymshap import (
    CONTINUOUS,
    DISCRETE,
    AdmissionsProcess,
    AttributionResult,
    BackgroundSet,
    BayesPredictor,
    CachedValueFunction,
    CoalitionChains,
    Dataset,
    ExactMatchSampler,
    FeatureSpec,
    KNNSampler,
    OrderingSpec,
    RunPlan,
    Schema,
    ValidationError,
    enumerate_consistent,
    exact_asv,
    global_asv,
    marginal_contributions,
    mc_asv,
    partition_sum_check,
    sample_consistent_batch,
    sampled_label_accuracy,
)
from asymshap import attribution, coalitions
from asymshap.attribution import _point_budget, column_means
from asymshap.values import PREDICT_ROWS


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

    @pytest.mark.parametrize("m", [1, 2, 300, 2000])
    def test_coalitions_reach_the_predictor_in_chunks(self, m):
        # {} and the 30 masks below N go max(1, PREDICT_ROWS // m) to a predictor call, then N alone,
        # and every value has the bits of a call of its own, but for one-row completions: a row
        # predicted alone takes another BLAS path than in a stack, which can move its score by an
        # ulp and so the probability by a few.
        rng = np.random.default_rng(17)
        pred = LinearProbPredictor(rng.normal(size=5))
        bg, x = BackgroundSet(rng.normal(size=(2 * m, 5))), rng.normal(size=5)
        chains = CoalitionChains(enumerate_consistent(OrderingSpec(5)))
        counting = CountingPredictor(pred)
        vf = CachedValueFunction(counting, x, 1, bg, m=m, seed=3)
        D = marginal_contributions(vf, chains)
        assert counting.calls == vf.evaluations == math.ceil(31 / max(1, PREDICT_ROWS // m)) + 1
        assert counting.rows == vf.prediction_rows == 32 * m
        alone = [CachedValueFunction(pred, x, 1, bg, m=m, seed=3).value(mask) for mask in range(32)]
        together = [vf.value(mask) for mask in range(32)]
        if m > 1:
            assert together == alone
            assert np.array_equal(D, marginal_contributions(TableValueFunction(alone, 5), chains))
        else:
            np.testing.assert_allclose(together, alone, rtol=8 * np.finfo(np.float64).eps, atol=0)

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
        P = enumerate_consistent(OrderingSpec(3))
        chains = CoalitionChains(P)
        assert (chains.count, chains.n) == (6, 3)
        merged = CoalitionChains.merged(OrderingSpec(3))
        assert (merged.count, merged.n) == (6, 3)
        for a in (chains.masks, chains.after, chains.before, chains.counts,
                  merged.masks, merged.after, merged.before, merged.counts):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0
            with pytest.raises(ValueError):
                a += 1

    @pytest.mark.parametrize("build", [CoalitionChains])
    @pytest.mark.parametrize("orders", [
        [[0, 0, 1]],  # a repeat
        [[0, 1, 2], [2, 1, 2]],  # a repeat in a later order
        [[0.7, 1.2, 2.0]],  # not integers
        np.array([[0.0, 1.0, 2.0]]),
        [[True, False]],
        [[0, 1, 3]],  # out of range
        np.array([[-1, 0, 1]], dtype=np.int8),
        np.zeros((0, 3), dtype=np.int64),  # no orders
        [0, 1, 2],  # not a matrix
        [list(range(63))],  # wider than a coalition mask
    ])
    def test_orders_must_be_permutations(self, build, orders):
        with pytest.raises(ValidationError):
            build(orders)

    @pytest.mark.parametrize("build", [CoalitionChains])
    def test_orders_of_either_width_give_the_same_chains(self, build):
        P = enumerate_consistent(OrderingSpec(4, groups=((0, 1), (2, 3))))
        assert P.dtype == np.int8
        narrow, wide = build(P), build(P.astype(np.int64))
        for name in ("masks", "before", "after", "counts", "count", "n"):
            assert np.array_equal(getattr(narrow, name), getattr(wide, name))

    def test_rows_telescope(self):
        vf = random_table(4, np.random.default_rng(1))
        P = np.array([[2, 0, 3, 1], [0, 1, 2, 3]])
        diffs = marginal_contributions(vf, CoalitionChains(P))
        span = vf.value(0b1111) - vf.value(0)
        for r in range(2):
            assert math.fsum(map(float, diffs[r])) == pytest.approx(span, abs=1e-12)


def adversarial_table(n, rng):
    """2^n worths mixing exponents from -1074 to 1000, subnormals, signed zeros
    and repeated entries, whose differences cancel exactly."""
    size = 1 << n
    table = np.ldexp(1.0 + rng.random(size), rng.integers(-1074, 1001, size=size))
    table *= rng.choice([-1.0, 1.0], size=size)
    kind = rng.integers(0, 6, size=size)
    table[kind == 0] = 0.0
    table[kind == 1] = -0.0
    sub = kind == 2
    table[sub] = np.ldexp(rng.random(sub.sum()), rng.integers(-1074, -1022, size=sub.sum()))
    copies = kind == 3
    table[copies] = table[rng.integers(0, size, size=copies.sum())]
    return TableValueFunction(table, n)


def expanded_means(vf, spec):
    """fsum over each feature's per-order column, divided by the number of orders."""
    P = enumerate_consistent(spec)
    D = marginal_contributions(vf, CoalitionChains(P))
    return [math.fsum(D[:, i].tolist()) / P.shape[0] for i in range(spec.n)]


def bit_patterns(means):
    return [struct.pack("<d", x) for x in means]


class TestMergedSteps:
    """Exact means reduce each feature's distinct steps, weighted by their counts."""

    def test_adversarial_games_match_the_expanded_columns_bitwise(self):
        # Both c * d and a Veltkamp split of d round on some of these games.
        rng = np.random.default_rng(26)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            vf = adversarial_table(n, rng)
            spec = random_ordering_spec(n, rng)
            assert bit_patterns(exact_asv(vf, spec).means.tolist()) == bit_patterns(expanded_means(vf, spec))

    def test_counts_sum_to_the_number_of_orders(self):
        rng = np.random.default_rng(27)
        for n in range(2, 8):
            for _ in range(4):
                spec = random_ordering_spec(n, rng)
                P, merged = enumerate_consistent(spec), CoalitionChains.merged(spec)
                assert merged.count == P.shape[0]
                assert merged.after.shape == merged.before.shape == merged.counts.shape
                assert (merged.counts.sum(axis=1) == P.shape[0]).all()

    def test_empty_spec_counts_are_the_shapley_weights(self):
        # |S|! (n - |S| - 1)! of the n! orders add feature i right after S.
        for n in range(2, 7):
            merged = CoalitionChains.merged(OrderingSpec(n))
            coalitions = np.concatenate([[0], merged.masks])
            for i in range(n):
                counts = {}
                for b, a, c in zip(merged.before[i], merged.after[i], merged.counts[i]):
                    if c:
                        S = int(coalitions[b])
                        assert int(coalitions[a]) == S | 1 << i
                        counts[S] = int(c)
                assert sorted(counts) == [S for S in range(1 << n) if not S >> i & 1]
                for S, c in counts.items():
                    s = bin(S).count("1")
                    assert c == math.factorial(s) * math.factorial(n - s - 1)

    def test_steps_match_a_count_over_every_order(self):
        # Counted in pure Python: how many orders add feature i right after coalition S.
        rng = np.random.default_rng(30)
        specs = [random_ordering_spec(int(rng.integers(2, 8)), rng) for _ in range(300)]
        for spec in specs + [OrderingSpec(8)]:
            P = enumerate_consistent(spec)
            want = Counter()
            for order in P.tolist():
                S = 0
                for i in order:
                    want[i, S] += 1
                    S |= 1 << i
            merged = CoalitionChains.merged(spec)
            assert (merged.count, merged.n) == P.shape
            assert np.array_equal(merged.masks, CoalitionChains(P).masks)
            coalitions = [0] + merged.masks.tolist()
            got = {}
            for i in range(spec.n):
                steps = list(zip(*(a[i].tolist() for a in (merged.before, merged.after, merged.counts))))
                taken = [step for step in steps if step[2]]
                assert steps[len(taken):] == [(0, 0, 0)] * (len(steps) - len(taken))  # padding last
                assert [b for b, _, _ in taken] == sorted({b for b, _, _ in taken})  # ascending before
                for b, a, c in taken:
                    assert coalitions[a] == coalitions[b] | 1 << i
                    got[i, coalitions[b]] = c
            assert got == want

    def test_building_holds_less_than_the_orders(self):
        # The int8 orders, per-column vectors and the 1,024 distinct steps, not an index per order and feature.
        CoalitionChains.merged(OrderingSpec(2))  # lazy set-up outside the measurement
        orders = math.factorial(8) * 8
        assert peak_traced_bytes(CoalitionChains.merged, OrderingSpec(8)) < 8 * orders  # the bytes of one int64 copy

    def test_exact_global_run_holds_no_int64_copy_of_its_orders(self):
        ds = toy_dataset(rows=3, n=8)
        run = lambda: global_asv(RunPlan(ConstantPredictor(n_features=8), OrderingSpec(8), BackgroundSet(ds.X), m=2), ds)
        run()  # lazy set-up outside the measurement
        assert peak_traced_bytes(run) < 8 * math.factorial(8) * 8

    def test_order_count_limit(self, monkeypatch):
        # 2^26 consistent orders take at least 12 features, so the limit is lowered.
        monkeypatch.setattr(coalitions, "MAX_EXACT_ORDERS", 6)
        vf = random_table(3, np.random.default_rng(28))
        with pytest.raises(ValidationError, match="at least 6 consistent orders over 3 features, 6 or more"):
            exact_asv(vf, OrderingSpec(3))
        assert exact_asv(vf, OrderingSpec(3, groups=((0,), (1, 2)))).n_samples == 2

    def test_chains_of_another_width_rejected(self):
        vf = random_table(3, np.random.default_rng(28))
        with pytest.raises(ValidationError, match="chains cover 4 features, ordering has 3"):
            exact_asv(vf, OrderingSpec(3), CoalitionChains.merged(OrderingSpec(4)))

    def test_non_finite_worths_give_the_expanded_result_or_error(self):
        def outcome(means):
            """The means' bit patterns and kinds, or fsum's error message."""
            try:
                values = means()
            except ValueError as exc:  # -inf + inf
                return str(exc), {str(exc)}
            kinds = {"nan" if math.isnan(x) else "finite" if math.isfinite(x) else "inf" for x in values}
            return bit_patterns(values), kinds

        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 6))
            table = rng.random(1 << n)
            k = int(rng.integers(1, 3))
            table[rng.choice(1 << n, size=k, replace=False)] = rng.choice([math.inf, -math.inf, math.nan], size=k)
            vf = TableValueFunction(table, n)
            spec = random_ordering_spec(n, rng)
            with np.errstate(invalid="ignore"):  # inf - inf differences
                want, kinds = outcome(lambda: expanded_means(vf, spec))
                assert outcome(lambda: exact_asv(vf, spec).means.tolist())[0] == want
            seen |= kinds
        assert seen == {"-inf + inf in fsum", "nan", "inf", "finite"}


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


class TestEstimatorSelfCheck:
    """The identities that tie the estimators together, on random games: the
    dual formula, efficiency, telescoping, merged steps equal to per-order
    means, and Monte Carlo within 4 stderrs of exact."""

    @pytest.mark.parametrize(
        "n, games, perms, seed",
        [(6, 20, 4000, 0), (6, 50, 4000, 5), (6, 50, 4000, 7), (6, 50, 4000, 8)],
        ids=["n6-games20-seed0", "seed5", "seed7", "seed8"],
    )
    def test_estimators_agree(self, n, games, perms, seed):
        # At seeds 5, 7 and 8 some feature's contribution is the same in every
        # consistent order, so its Monte Carlo gap and stderr are rounding noise.
        report = estimator_self_check(n, games, perms, seed)
        for gap in ("max_dual_formula_gap", "max_efficiency_gap", "max_telescoping_gap"):
            assert report[gap] <= 1e-9
        assert report["max_merged_step_gap"] == 0.0  # merged-step exact means are the per-order ones
        assert report["mc_within_4_stderr"] >= 0.99

    def test_two_draws_fail_the_coverage_check(self):
        # Two permutation draws give stderrs too loose to be meaningful, so the check can fail.
        assert estimator_self_check(4, 5, 2, 0)["mc_within_4_stderr"] == 0.8


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
        with pytest.raises(ValidationError, match="exceeds the cap"):
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
        glob = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=8, seed=0), ds)
        assert np.all(glob.means == 0.0)
        assert glob.accuracy_full == glob.accuracy_empty
        assert partition_sum_check(glob)["groups"][-1]["cumulative_gap"] == 0.0

    def test_sum_rule(self):
        ds = toy_dataset(rows=20, seed=1)
        pred = LinearProbPredictor(np.array([1.0, -0.5, 0.25]))
        glob = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=16, seed=3), ds)
        assert abs(glob.sum() - (glob.accuracy_full - glob.accuracy_empty)) <= 1e-9
        assert glob.accuracy_full == pytest.approx(
            sampled_label_accuracy(pred, ds.X, ds.y), abs=1e-12
        )

    def test_mc_estimator_is_deterministic_per_seed(self):
        ds = toy_dataset(rows=8, seed=3)
        pred = LinearProbPredictor(np.array([1.0, 0.0, -1.0]))
        kwargs = dict(m=8, estimator="mc", n_perms=16, seed=9)
        a = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), **kwargs), ds)
        b = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), **kwargs), ds)
        assert np.array_equal(a.means, b.means)
        c = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), **{**kwargs, "seed": 10}), ds)
        assert not np.array_equal(a.means, c.means)

    def test_point_budget(self):
        ds = toy_dataset(rows=30, seed=4)
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        plan = RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=4, seed=0)
        glob = global_asv(plan, ds, budget=7)
        assert glob.n_points == 7
        with pytest.raises(ValidationError):
            global_asv(plan, ds, budget=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_point_budget_rows_are_distinct(self, seed):
        # 29 of 30 rows: 29 draws with replacement would repeat a row but for odds of 30!/30^29, about 4e-11.
        idx = _point_budget(30, 29, seed).tolist()
        assert idx == sorted(set(idx)) and len(idx) == 29

    def test_collect_locals_matches_reported_spread(self):
        ds = toy_dataset(rows=15, seed=5)
        pred = LinearProbPredictor(np.array([2.0, -1.0, 0.5]))
        glob = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=8, seed=1), ds)
        assert glob.locals.shape == (15, 3)
        manual = np.std(glob.locals, axis=0, ddof=1) / math.sqrt(15)
        assert np.allclose(glob.stderrs, manual, atol=1e-12)

    def test_validation(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        bg = BackgroundSet(ds.X)
        with pytest.raises(ValidationError, match="ordering covers 4 features, predictor has 3"):
            global_asv(RunPlan(pred, OrderingSpec(4), bg), ds)
        with pytest.raises(ValidationError, match="ordering covers 3 features, dataset has 4"):
            global_asv(RunPlan(pred, OrderingSpec(3), bg), toy_dataset(n=4))
        with pytest.raises(ValidationError, match="estimator must be 'exact' or 'mc'"):
            global_asv(RunPlan(pred, OrderingSpec(3), bg, estimator="quasi"), ds)

    @pytest.mark.parametrize("estimator", ["exact", "mc"])
    def test_one_point_has_no_across_point_stderr(self, estimator):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        plan = RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), estimator=estimator)
        with pytest.raises(ValidationError, match="at least 2 points"):
            global_asv(plan, ds, budget=1)
        with pytest.raises(ValidationError, match="at least 2 points"):
            one_row = Dataset(ds.X[:1], ds.y[:1], ds.schema)
            global_asv(plan, one_row)

    def test_exact_run_warns_once_not_per_point(self, monkeypatch, caplog):
        ds = toy_dataset(rows=3)
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.5]))
        monkeypatch.setattr(coalitions, "AUTO_EXACT_WARN_ORDERS", 5)  # below 3! orders
        with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
            global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=4, seed=0), ds)
        (record,) = caplog.records
        assert "6 consistent orders over 3 features" in record.message

    def test_negative_seed_rejected_before_drawing_points(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), seed=-1), ds, budget=5)

    def test_seed_from_2_to_the_32_rejected(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match=r"below 2\^32, got 4294967296"):
            RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), seed=2**32)
        with pytest.raises(ValidationError, match="seed must be an integer, got 2.7"):
            RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), seed=2.7)

    @pytest.mark.parametrize("seed", [True, np.True_, 1.0, "1"], ids=repr)
    def test_seed_of_another_type_rejected(self, seed):
        # operator.index would run True as seed 1.
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match=f"seed must be an integer, got {seed!r}"):
            RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), seed=seed)
        assert RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), seed=np.uint32(1)).seed == 1

    def test_exact_run_enumerates_its_orders_once(self, monkeypatch):
        ds = toy_dataset(rows=24, n=4, seed=6)
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.5, 2.0]))
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        make_plan = lambda: RunPlan(pred, spec, BackgroundSet(ds.X), m=4, seed=0)
        alone = global_asv(make_plan(), ds)
        calls = []
        real = attribution.enumerate_consistent

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        merges = []
        real_merged = CoalitionChains.merged

        def counting_merges(spec, cap):
            chains = real_merged(spec, cap)
            merges.append(chains.count)
            return chains

        monkeypatch.setattr(attribution, "enumerate_consistent", counting)
        monkeypatch.setattr(CoalitionChains, "merged", counting_merges)
        glob = global_asv(make_plan(), ds)
        assert glob.n_points == 24
        assert len(calls) == 1
        assert merges == [4]  # the steps of the 2! 2! orders, merged once
        assert np.array_equal(glob.locals, alone.locals)

    def test_exact_means_are_the_mean_of_per_point_exact_asv(self):
        ds = toy_dataset(rows=9, n=4, seed=7)
        pred = LinearProbPredictor(np.array([0.5, -2.0, 1.0, 0.25]))
        bg = BackgroundSet(ds.X)
        spec = OrderingSpec(4, edges=frozenset({(0, 2), (1, 3)}))
        glob = global_asv(RunPlan(pred, spec, bg, m=6, seed=2), ds)
        local = np.array([
            exact_asv(
                CachedValueFunction(pred, ds.X[row], int(ds.y[row]), bg, m=6, seed=2, point_index=row),
                spec,
            ).means
            for row in range(ds.n_rows)
        ])
        assert np.array_equal(glob.locals, local)
        assert np.array_equal(glob.means, column_means(local))


class TestRunPlan:
    def _setup(self):
        ds = toy_dataset(rows=6, seed=2)
        return ds, LinearProbPredictor(np.array([1.0, -1.0, 0.5]))

    def test_unknown_estimator_raises_before_any_evaluation(self, monkeypatch):
        ds, pred = self._setup()
        counting = CountingPredictor(pred)
        enumerated = []
        monkeypatch.setattr(attribution, "enumerate_consistent", lambda *a, **k: enumerated.append(a))
        with pytest.raises(ValidationError, match="estimator must be 'exact' or 'mc'"):
            RunPlan(counting, OrderingSpec(3), BackgroundSet(ds.X), estimator="exat")
        assert counting.calls == 0 and enumerated == []

    @pytest.mark.parametrize("estimator", ["exact", "mc"])
    def test_records_the_point_work(self, estimator):
        ds, pred = self._setup()
        plan = RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), estimator=estimator, n_perms=5, m=4, seed=1)
        res, vf = plan.local(ds.X[1], int(ds.y[1]), 1)
        assert (vf.m, vf.seed, vf.point_index) == (4, 1, 1)
        assert res.metadata["estimator"] == estimator
        assert res.metadata["value_evaluations"] == vf.evaluations > 0
        assert res.metadata["prediction_rows"] == vf.prediction_rows > 0
        # A point explained alone gets its row of the global run, bit for bit.
        assert np.array_equal(res.means, global_asv(plan, ds).locals[1])

    def test_identical_points_at_two_indices_draw_their_own_orders(self):
        ds, pred = self._setup()
        # A background of m rows is used whole, once per row, so only the order stream sees the index.
        plan = RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), estimator="mc", n_perms=4, m=ds.n_rows, seed=1)
        (a, vf_a), (b, vf_b) = (plan.local(ds.X[1], int(ds.y[1]), j) for j in (1, 2))
        assert [vf_a.value(mask) for mask in range(8)] == [vf_b.value(mask) for mask in range(8)]
        assert not np.array_equal(a.means, b.means)


class TestCoalitionAccuracy:
    """The re-evaluating reference in helpers, and the run's own accuracies against it."""

    def test_full_set_is_sampled_label_accuracy(self):
        ds = toy_dataset(rows=25, seed=6)
        pred = LinearProbPredictor(np.array([1.0, -1.0, 0.5]))
        acc = coalition_accuracy(pred, ds, 0b111, completion=BackgroundSet(ds.X), m=8)
        assert acc == pytest.approx(sampled_label_accuracy(pred, ds.X, ds.y), abs=1e-12)
        glob = global_asv(RunPlan(pred, OrderingSpec(3), BackgroundSet(ds.X), m=8), ds)
        assert glob.accuracy_full == acc

    def test_perfectly_informative_feature(self):
        # x0 equals the label; the predictor reads it off, so the full set is
        # always right and the empty set falls to the balanced base rate.
        schema = Schema((FeatureSpec("x", DISCRETE, 2),))
        X = np.array([[0.0], [1.0]] * 8)
        y = X[:, 0].astype(np.int64)
        ds = Dataset(X, y, schema)
        pred = FirstFeatureProbPredictor(n_features=1)
        full = coalition_accuracy(pred, ds, 0b1, completion=BackgroundSet(ds.X), m=ds.n_rows)
        empty = coalition_accuracy(pred, ds, 0, completion=BackgroundSet(ds.X), m=ds.n_rows)
        assert full == 1.0
        assert empty == 0.5
        glob = global_asv(RunPlan(pred, OrderingSpec(1), BackgroundSet(ds.X), m=ds.n_rows), ds)
        assert glob.prefix_accuracies == (0.5, 1.0)

    def test_empty_set_matches_global_baseline_exactly(self):
        ds = toy_dataset(rows=18, seed=7)
        pred = LinearProbPredictor(np.array([0.5, 1.0, -0.75]))
        bg = BackgroundSet(ds.X)
        glob = global_asv(RunPlan(pred, OrderingSpec(3), bg, m=10, seed=4), ds)
        empty = coalition_accuracy(pred, ds, 0, completion=bg, m=10, seed=4)
        assert empty == glob.accuracy_empty

    def test_one_point_has_no_across_point_stderr(self):
        ds = toy_dataset()
        pred = LinearProbPredictor(np.array([1.0, 1.0, 1.0]))
        bg = BackgroundSet(ds.X)
        with pytest.raises(ValidationError, match="at least 2 points"):
            coalition_accuracy(pred, ds, 0b011, completion=bg, budget=1)
        one_row = Dataset(ds.X[:1], ds.y[:1], ds.schema)
        with pytest.raises(ValidationError, match="at least 2 points"):
            coalition_accuracy(pred, one_row, 0b011, completion=bg)
        assert isinstance(coalition_accuracy(pred, ds, 0b011, completion=bg, budget=2), float)


class TestPartitionSumCheck:
    def _setup(self, groups, edges=frozenset(), seed=8):
        ds = toy_dataset(rows=16, seed=seed)
        pred = LinearProbPredictor(np.array([1.5, -0.5, 0.75]))
        spec = OrderingSpec(3, groups=groups, edges=edges)
        return global_asv(RunPlan(pred, spec, BackgroundSet(ds.X), m=12, seed=2), ds)

    def test_single_group_recovers_the_sum_rule(self):
        glob = self._setup(((0, 1, 2),))
        report = partition_sum_check(glob)
        row = report["groups"][0]
        assert abs(row["gap"]) <= 1e-12
        assert abs(row["cumulative_gap"]) <= 1e-12
        assert report["accuracy_empty"] == glob.accuracy_empty
        assert row["cumulative_gap"] == glob.sum() - (glob.accuracy_full - glob.accuracy_empty)

    def test_two_group_split_telescopes(self):
        glob = self._setup(((0,), (1, 2)))
        report = partition_sum_check(glob)
        for row in report["groups"]:
            assert set(row) == {"group", "phi_sum", "accuracy_gain", "gap",
                                "cumulative_phi", "cumulative_gain", "cumulative_gap"}
            assert abs(row["gap"]) <= 1e-12
            assert abs(row["cumulative_gap"]) <= 1e-12

    def test_chain_of_singletons(self):
        glob = self._setup(((2,), (0,), (1,)))
        report = partition_sum_check(glob)
        assert [r["group"] for r in report["groups"]] == [[2], [0], [1]]
        assert len(glob.prefix_accuracies) == 4
        for row in report["groups"]:
            assert abs(row["cumulative_gap"]) <= 1e-12

    def test_partition_must_match_the_run(self):
        # The report's partition is the one the run declared, in its order.
        for groups in (((1, 0), (2,)), ((2,), (1, 0))):
            report = partition_sum_check(self._setup(groups))
            assert [r["group"] for r in report["groups"]] == [sorted(g) for g in groups]

    @pytest.mark.parametrize("edges", [frozenset(), frozenset({(0, 1)})])
    def test_a_run_without_groups_declares_one_group(self, edges):
        glob = self._setup(None, edges)
        row, = partition_sum_check(glob)["groups"]
        assert row["group"] == [0, 1, 2]
        assert abs(row["gap"]) <= 1e-12
        assert len(glob.prefix_accuracies) == 2

    @pytest.mark.parametrize("estimator", ["exact", "mc"])
    @pytest.mark.parametrize("completion", ["background", "exact-match", "knn", "generative"])
    def test_gaps_vanish_for_every_completion(self, completion, estimator):
        # The report equals the one whose prefix accuracies are evaluated
        # again, bit for bit, and reading them from the run costs no
        # predictor call. A budget below the row count, so the reference
        # must pick the run's rows.
        process = AdmissionsProcess()
        ds = process.sample(40, seed=5)
        pred = BayesPredictor(process)
        sampler = {
            "background": lambda: BackgroundSet(ds.X),
            "exact-match": lambda: ExactMatchSampler(ds, k=5),
            "knn": lambda: KNNSampler(ds, k=5),
            "generative": lambda: process,
        }[completion]()
        for groups in (((1,), (0, 2)), ((2,), (0,), (1,))):
            counting = CountingPredictor(pred)
            plan = RunPlan(counting, OrderingSpec(3, groups=groups), sampler, estimator=estimator, n_perms=4,
                           m=6, seed=3)
            glob = global_asv(plan, ds, budget=15)
            assert glob.n_points == 15
            assert glob.metadata["value_evaluations"] == counting.calls
            assert glob.metadata["prediction_rows"] == counting.rows
            report = partition_sum_check(glob)
            assert repr(report) == repr(reference_partition_report(glob, pred, ds, sampler))
            for row in report["groups"]:
                assert abs(row["gap"]) <= 1e-12
                assert abs(row["cumulative_gap"]) <= 1e-12
