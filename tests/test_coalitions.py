"""Ordering specs and the consistent-order machinery: enumeration, checks, sampling."""

import itertools
import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import is_consistent, peak_traced_bytes, random_ordering_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import asymshap.coalitions
from asymshap import (
    EstimatorError,
    OrderingSpec,
    ValidationError,
    enumerate_consistent,
    sample_consistent_batch,
)
from asymshap.coalitions import _consistent


def oracle_consistent(order, spec):
    """Straight restatement of the consistency definition, independent of the library."""
    pos = {f: k for k, f in enumerate(order)}
    if spec.groups is not None:
        for a in range(len(spec.groups)):
            for b in range(a + 1, len(spec.groups)):
                for i in spec.groups[a]:
                    for j in spec.groups[b]:
                        if pos[i] > pos[j]:
                            return False
    return all(pos[i] < pos[j] for i, j in spec.edges)


def brute_force_consistent(spec):
    return {
        p for p in itertools.permutations(range(spec.n)) if oracle_consistent(p, spec)
    }


def enumerated(spec):
    """The consistent orders as a set of tuples."""
    return {tuple(row) for row in enumerate_consistent(spec).tolist()}


@st.composite
def ordering_specs(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    kind = draw(st.sampled_from(["empty", "groups", "edges"]))
    if kind == "empty":
        return OrderingSpec(n)
    shuffled = draw(st.permutations(list(range(n))))
    if kind == "groups":
        n_cuts = draw(st.integers(min_value=0, max_value=n - 1))
        cuts = sorted(draw(st.permutations(list(range(1, n))))[:n_cuts])
        groups, start = [], 0
        for c in cuts + [n]:
            groups.append(tuple(shuffled[start:c]))
            start = c
        return OrderingSpec(n, groups=tuple(groups))
    # Edges oriented along a hidden base order are acyclic by construction.
    pos = {f: k for k, f in enumerate(shuffled)}
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n,
        )
    )
    edges = frozenset(
        (i, j) if pos[i] < pos[j] else (j, i) for i, j in pairs
    )
    return OrderingSpec(n, edges=edges)


# ---------------------------------------------------------------- OrderingSpec


class TestOrderingSpec:
    def test_groups_must_partition(self):
        with pytest.raises(ValidationError):
            OrderingSpec(3, groups=((0,), (1,)))  # feature 2 missing
        with pytest.raises(ValidationError):
            OrderingSpec(3, groups=((0, 1), (1, 2)))  # overlap
        with pytest.raises(ValidationError):
            OrderingSpec(3, groups=((0, 1, 2), ()))  # empty group
        with pytest.raises(ValidationError):
            OrderingSpec(2, groups=((0, 1, 2),))  # out of range

    def test_edges_validated(self):
        with pytest.raises(ValidationError):
            OrderingSpec(3, edges=frozenset({(0, 3)}))
        with pytest.raises(ValidationError):
            OrderingSpec(3, edges=frozenset({(1, 1)}))

    def test_edge_cycle_fails_at_construction(self):
        with pytest.raises(ValidationError, match="contain a cycle"):
            OrderingSpec(3, edges=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_group_edge_contradiction_is_a_cycle(self):
        # Groups put 1 before 0; the edge demands the opposite.
        with pytest.raises(ValidationError, match="contain a cycle"):
            OrderingSpec(2, groups=((1,), (0,)), edges=frozenset({(0, 1)}))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cycle_raised_exactly_when_no_order_is_consistent(self, data):
        # Random groups and random edges, cyclic combinations included, against brute force.
        n = data.draw(st.integers(min_value=1, max_value=5))
        groups = None
        if data.draw(st.booleans()):
            shuffled = data.draw(st.permutations(list(range(n))))
            cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=n - 1))))
            groups = tuple(tuple(shuffled[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = frozenset(data.draw(st.lists(pairs, max_size=2 * n)) if n > 1 else ())
        declared = SimpleNamespace(groups=groups, edges=edges)
        want = {p for p in itertools.permutations(range(n)) if oracle_consistent(p, declared)}
        if not want:
            with pytest.raises(ValidationError, match="contain a cycle"):
                OrderingSpec(n, groups=groups, edges=edges)
        else:
            assert enumerated(OrderingSpec(n, groups=groups, edges=edges)) == want

    @pytest.mark.parametrize(
        "n, groups, edges, entry",
        [
            (True, None, (), "True"),
            (3, None, [(True, 2)], "(True, 2)"),  # would construct, then fail enumeration with IndexError
            (3, None, [(0.5, 1)], "(0.5, 1)"),  # would be reported as a cycle
            (2, ((0.0,), (1.0,)), (), "(0.0,)"),  # would raise a raw TypeError
            (2, ((0,), (np.True_,)), (), "(np.True_,)"),
            (3, [0, 1, 2], (), "0"),
            (3, None, 5, "5"),
            (3, None, [(0, 1, 2)], "(0, 1, 2)"),
            (3, None, [(1, 1)], "(1, 1)"),
            (3, None, [(0, 3)], "(0, 3)"),
        ],
        ids=["bool-n", "bool-endpoint", "float-endpoint", "float-group-entries", "numpy-bool-entry",
             "flat-groups", "edges-not-a-list", "triple-edge", "self-loop", "endpoint-out-of-range"],
    )
    def test_constructor_and_json_reject_alike(self, n, groups, edges, entry):
        # One validator: the library constructor refuses what a spec file is refused for, in the same words.
        with pytest.raises(ValidationError) as built:
            OrderingSpec(n, groups, edges)
        assert entry in str(built.value)
        with pytest.raises(ValidationError) as read:
            OrderingSpec.from_json_dict({"n": n, "groups": groups, "edges": edges})
        assert str(read.value) == str(built.value)

    def test_numpy_integers_are_stored_as_ints(self):
        spec = OrderingSpec(np.int64(3), groups=[[np.int64(2)], [0, np.int32(1)]], edges=[[np.int8(0), 1]])
        assert spec == OrderingSpec(3, groups=((2,), (0, 1)), edges=frozenset({(0, 1)}))
        assert type(spec.n) is int and all(type(i) is int for e in spec.edges for i in e)
        assert json.dumps(spec.to_json_dict()) == '{"n": 3, "groups": [[2], [0, 1]], "edges": [[0, 1]]}'

    def test_need_masks(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)), edges=frozenset({(2, 3)}))
        assert spec.need == (0, 0, 0b0011, 0b0111)

    def test_reversed_flips_everything(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)), edges=frozenset({(0, 1)}))
        rev = spec.reversed()
        assert rev.groups == ((2, 3), (0, 1))
        assert rev.edges == frozenset({(1, 0)})
        assert rev.reversed() == spec

    def test_direction_round_trip(self):
        spec = OrderingSpec(3, edges=frozenset({(2, 0)}))
        declared = spec.to_json_dict()
        assert OrderingSpec.from_json_dict({**declared, "direction": "proximate"}) == spec.reversed()
        assert OrderingSpec.from_json_dict({**declared, "direction": "distal"}) == spec
        for bad in ("sideways", None):
            with pytest.raises(ValidationError, match="direction"):
                OrderingSpec.from_json_dict({**declared, "direction": bad})

    def test_reversal_maps_consistent_set_bijectively(self):
        # Reversing the constraints maps each consistent permutation to its
        # mirror image; the two consistent sets have equal size.
        spec = OrderingSpec(4, groups=((0, 2), (1, 3)))
        forward = enumerated(spec)
        backward = enumerated(spec.reversed())
        assert backward == {tuple(reversed(o)) for o in forward}
        assert len(backward) == len(forward)


def read_back(spec):
    """The spec as echoed in output metadata, read back as a --spec file would be."""
    return OrderingSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))


class TestSerialization:
    def test_round_trip(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)), edges=frozenset({(0, 2)}))
        assert read_back(spec) == spec

    def test_direction_defaults_to_distal(self):
        spec = OrderingSpec.from_json_dict({"n": 2, "edges": [[0, 1]]})
        assert spec.edges == frozenset({(0, 1)})

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            OrderingSpec.from_json_dict({"groups": None})  # n missing
        # int() would truncate 2.7 to 2, True to 1 and read "2" as 2.
        for n in (2.7, 2.0, True, "2", None):
            with pytest.raises(ValidationError, match="integer 'n'"):
                OrderingSpec.from_json_dict({"n": n})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3, "edges": [[0, 1, 2]]},
            {"n": 2, "edges": [[0, "a"]]},
            {"n": 2, "edges": 5},
            {"n": 3, "groups": [0, 1, 2]},
            {"n": 2, "groups": [[0], [1.5]]},
        ],
    )
    def test_malformed_entries_rejected(self, obj):
        with pytest.raises(ValidationError, match="ordering-spec"):
            OrderingSpec.from_json_dict(obj)

    def test_unknown_keys_rejected(self):
        # Misspelled keys read as absent would silently drop every constraint.
        with pytest.raises(ValidationError, match=r"unknown ordering-spec keys \['edge', 'group'\]"):
            OrderingSpec.from_json_dict({"n": 2, "edge": [[0, 1]], "group": [[0], [1]]})

    @given(ordering_specs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, spec):
        assert read_back(spec) == spec


# ---------------------------------------------------------------- consistency


class TestIsConsistent:
    def test_single_edge_cases(self):
        spec = OrderingSpec(2, edges=frozenset({(0, 1)}))
        assert is_consistent([[0, 1]], spec).tolist() == [True]
        assert is_consistent([[1, 0]], spec).tolist() == [False]

    def test_group_violation(self):
        spec = OrderingSpec(3, groups=((0,), (1, 2)))
        assert is_consistent([[1, 0, 2]], spec).tolist() == [False]

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            is_consistent([[0, 1]], OrderingSpec(3))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            is_consistent([[0, 0, 1]], OrderingSpec(3))
        with pytest.raises(ValidationError):
            is_consistent([[0, 2]], OrderingSpec(2))

    @pytest.mark.parametrize(
        "orders", [[[0.7, 1.0]], np.array([[0.9, 1.9]]), np.array([[0, 1.0]]), [[False, True]],
                   np.array([[0, 1]], dtype=np.uint8)],
        ids=["float-list", "float-array", "integral-floats", "bool", "unsigned"],
    )
    def test_non_signed_integer_orders_rejected(self, orders):
        # An int64 cast would truncate [[0.7, 1.0]] to [[0, 1]] and call it consistent.
        with pytest.raises(ValidationError, match="signed-integer matrix"):
            is_consistent(orders, OrderingSpec(2, edges=frozenset({(0, 1)})))

    @given(ordering_specs())
    @settings(max_examples=80, deadline=None)
    def test_matches_definition_on_every_permutation(self, spec):
        orders = list(itertools.permutations(range(spec.n)))
        got = is_consistent(orders, spec)
        assert got.shape == (len(orders),)
        for order, ok in zip(orders, got):
            assert ok == oracle_consistent(order, spec)
        assert _consistent(np.array(orders), spec).tolist() == got.tolist()  # the package's mask test


class TestPrecedenceMasks:
    """The package's one precedence test, (placed & need) == need slot by slot, against the position oracle."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_what_the_oracle_accepts(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        spec = random_ordering_spec(n, rng)  # empty, grouped or edge specs
        P = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
        assert _consistent(P, spec).tolist() == is_consistent(P, spec).tolist()


class TestEnumerate:
    def test_empty_spec_gives_all_permutations(self):
        assert enumerate_consistent(OrderingSpec(2)).tolist() == [[0, 1], [1, 0]]
        for n in range(1, 6):
            assert len(enumerate_consistent(OrderingSpec(n))) == math.factorial(n)

    def test_single_feature(self):
        assert enumerate_consistent(OrderingSpec(1)).tolist() == [[0]]

    def test_forced_last_slot(self):
        # Feature 0 follows both others, so the slot filled without a test holds it.
        spec = OrderingSpec(3, edges=frozenset({(1, 0), (2, 0)}))
        assert enumerate_consistent(spec).tolist() == [[1, 2, 0], [2, 1, 0]]

    def test_leading_singleton_group(self):
        spec = OrderingSpec(3, groups=((0,), (1, 2)))
        assert enumerate_consistent(spec).tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_two_group_partition_count(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        assert len(enumerate_consistent(spec)) == 4

    def test_cap_enforced_and_configurable(self):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            enumerate_consistent(OrderingSpec(11))
        with pytest.raises(ValidationError, match="exceeds the cap"):
            enumerate_consistent(OrderingSpec(5), cap=4)
        assert len(enumerate_consistent(OrderingSpec(3), cap=3)) == 6

    def test_mask_width_enforced_above_a_raised_cap(self):
        # From feature 63 on, the int64 feature bits would overflow.
        with pytest.raises(ValidationError, match="up to 62 features, got 63"):
            enumerate_consistent(OrderingSpec(63), cap=70)
        chain = OrderingSpec(62, edges=frozenset((i, i + 1) for i in range(61)))
        assert enumerate_consistent(chain, cap=62).tolist() == [list(range(62))]

    @given(ordering_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, spec):
        got = enumerate_consistent(spec)
        want = sorted(brute_force_consistent(spec))
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert got.shape == (len(want), spec.n)
        assert got.tolist() == [list(order) for order in want]

    def test_refuses_an_order_count_past_the_limit_before_building_it(self, monkeypatch):
        # 2^26 orders take at least 12 features, so the limit is lowered.
        monkeypatch.setattr(asymshap.coalitions, "MAX_EXACT_ORDERS", 6)
        with pytest.raises(ValidationError, match="at least 6 consistent orders over 3 features"):
            enumerate_consistent(OrderingSpec(3))
        # The 4 * 3 two-feature prefixes of 4! orders already reach the limit: none is extended further.
        with pytest.raises(ValidationError, match="at least 12 consistent orders over 4 features"):
            enumerate_consistent(OrderingSpec(4))
        assert len(enumerate_consistent(OrderingSpec(4, groups=((0, 1), (2,), (3,))))) == 2
        monkeypatch.setattr(asymshap.coalitions, "MAX_EXACT_ORDERS", 7)
        assert len(enumerate_consistent(OrderingSpec(3))) == 6

    def test_holds_the_orders_once(self):
        # The int8 result, the int8 prefixes and per-prefix vectors it is built from: less than one int64 copy.
        enumerate_consistent(OrderingSpec(3))  # lazy set-up outside the measurement
        P = enumerate_consistent(OrderingSpec(8))
        assert peak_traced_bytes(enumerate_consistent, OrderingSpec(8)) < 8 * P.size


class TestEnumerationWarning:
    """enumerate_consistent logs one warning when it returns more than AUTO_EXACT_WARN_ORDERS orders."""

    def test_threshold_is_8_factorial(self):
        assert asymshap.coalitions.AUTO_EXACT_WARN_ORDERS == math.factorial(8)

    def test_warns_once_above_the_threshold(self, monkeypatch, caplog):
        monkeypatch.setattr(asymshap.coalitions, "AUTO_EXACT_WARN_ORDERS", 5)
        with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
            assert len(enumerate_consistent(OrderingSpec(3))) == 6
        (record,) = caplog.records
        assert "6 consistent orders over 3 features" in record.message
        assert "Monte Carlo estimator" in record.message

    def test_silent_at_the_threshold(self, caplog):
        with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
            assert len(enumerate_consistent(OrderingSpec(8))) == math.factorial(8)
        assert caplog.records == []

    def test_counts_orders_not_features(self, caplog):
        # Nine features in a chain have one consistent order, far below 8!.
        chain = OrderingSpec(9, edges=frozenset((i, i + 1) for i in range(8)))
        with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
            assert enumerate_consistent(chain).tolist() == [list(range(9))]
        assert caplog.records == []


class TestCount:
    """How many orders enumerate_consistent returns, against closed forms."""

    def test_empty_spec(self):
        assert len(enumerate_consistent(OrderingSpec(5))) == 120

    def test_total_order_chain(self):
        n = 6
        edges = frozenset((i, i + 1) for i in range(n - 1))
        assert len(enumerate_consistent(OrderingSpec(n, edges=edges))) == 1

    def test_groups_only_closed_form(self):
        spec = OrderingSpec(5, groups=((0, 1), (2, 3, 4)))
        assert len(enumerate_consistent(spec)) == math.factorial(2) * math.factorial(3)

    def test_edges_still_capped(self):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            enumerate_consistent(OrderingSpec(11, edges=frozenset({(0, 1)})))


# ---------------------------------------------------------------- sampling


class TestSampling:
    def test_every_draw_is_consistent(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            spec = random_ordering_spec(int(rng.integers(2, 7)), rng)
            rows = sample_consistent_batch(spec, 1, rng)
            assert rows.shape == (1, spec.n)
            assert is_consistent(rows, spec).all()

    def test_batch_shape_and_consistency(self):
        spec = OrderingSpec(5, groups=((0, 4), (1, 2, 3)))
        rows = sample_consistent_batch(spec, 64, np.random.default_rng(0))
        assert rows.shape == (64, 5)
        assert is_consistent(rows, spec).all()

    def test_two_extension_spec_is_balanced(self):
        spec = OrderingSpec(3, groups=((0,), (1, 2)))
        rows = sample_consistent_batch(spec, 10_000, np.random.default_rng(5))
        n_first = int(np.sum(rows[:, 1] == 1))
        counts = [n_first, rows.shape[0] - n_first]
        assert stats.chisquare(counts).pvalue > 0.001

    def test_empty_spec_uniform_over_all_permutations(self):
        n = 4
        rows = sample_consistent_batch(OrderingSpec(n), 100_000, np.random.default_rng(11))
        keys = rows @ (n ** np.arange(n))
        counts = np.bincount(keys, minlength=n**n)
        observed = counts[counts > 0]
        assert observed.size == 24
        assert stats.chisquare(observed).pvalue > 0.001

    @pytest.mark.parametrize("n, size, seed", [(12, 200, 0), (8, 1024, 3), (1, 5, 1), (30, 7, 9)])
    def test_empty_spec_draws_are_one_row_shuffle(self, n, size, seed):
        # Pins the Monte Carlo orders of every ungrouped run, bit for bit.
        got = sample_consistent_batch(OrderingSpec(n), size, np.random.default_rng(seed))
        want = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_edge_spec_uniform_over_consistent_set(self):
        spec = OrderingSpec(4, edges=frozenset({(2, 0), (2, 3)}))
        allowed = brute_force_consistent(spec)
        rows = sample_consistent_batch(spec, 40_000, np.random.default_rng(7))
        seen = {}
        for row in rows:
            seen[tuple(int(i) for i in row)] = seen.get(tuple(int(i) for i in row), 0) + 1
        assert set(seen) == allowed
        assert stats.chisquare(list(seen.values())).pvalue > 0.001

    @pytest.mark.parametrize(
        "spec",
        [OrderingSpec(5, edges=frozenset({(3, 0), (3, 1), (2, 0)})),
         OrderingSpec(5, edges=frozenset((i, i + 1) for i in range(4))),  # 1 in 120 candidates accepted
         OrderingSpec(5, groups=((0, 1), (2, 3, 4)), edges=frozenset({(1, 0), (4, 2)}))],
        ids=["fork", "chain", "groups-and-edges"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_edge_draws_are_the_oracle_filtered_candidates(self, spec, seed):
        # The candidate stream, group by group and batch by batch, filtered by position instead of by mask.
        size, rng = 40, np.random.default_rng(seed)
        groups = spec.groups or (tuple(range(spec.n)),)
        want = np.zeros((0, spec.n), dtype=np.int64)
        while len(want) < size:
            batch = max(4 * (size - len(want)), 1024)
            cand = np.concatenate(
                [rng.permuted(np.tile(np.array(g, dtype=np.int64), (batch, 1)), axis=1) for g in groups], axis=1)
            want = np.concatenate([want, cand[is_consistent(cand, spec)]])
        got = sample_consistent_batch(spec, size, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want[:size].tobytes()

    def test_sample_size_must_be_positive(self):
        # operator.index would take True as 1; a float would raise a raw TypeError.
        for size in (0, True, 2.5, np.float64(3.0), "3"):
            for spec in (OrderingSpec(3), OrderingSpec(3, edges=frozenset({(0, 1)}))):
                with pytest.raises(ValidationError, match="sample size must be positive, got"):
                    sample_consistent_batch(spec, size, np.random.default_rng(0))
        assert sample_consistent_batch(OrderingSpec(3), np.int64(2), np.random.default_rng(0)).shape == (2, 3)

    def test_rejection_budget_guard(self, monkeypatch):
        # A full chain accepts 1 in n! uniform draws; a tiny budget trips the guard.
        n = 6
        edges = frozenset((i, i + 1) for i in range(n - 1))
        spec = OrderingSpec(n, edges=edges)
        monkeypatch.setattr(asymshap.coalitions, "DEFAULT_REJECTION_BUDGET", 1)
        with pytest.raises(EstimatorError, match="exhausted its budget"):
            sample_consistent_batch(spec, 50, np.random.default_rng(0))

    def test_random_spec_generator_validates(self):
        with pytest.raises(ValidationError):
            random_ordering_spec(1, np.random.default_rng(0))
