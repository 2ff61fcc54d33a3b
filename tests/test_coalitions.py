"""Ordering specs and the consistent-order machinery: enumeration, checks, sampling."""

import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import asymshap.coalitions
from asymshap import (
    CyclicOrderingError,
    EnumerationCapError,
    OrderingSpec,
    SamplingBudgetError,
    ValidationError,
    count_consistent,
    enumerate_consistent,
    is_consistent,
    random_ordering_spec,
    sample_consistent_batch,
)


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
        with pytest.raises(CyclicOrderingError):
            OrderingSpec(3, edges=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_group_edge_contradiction_is_a_cycle(self):
        # Groups put 1 before 0; the edge demands the opposite.
        with pytest.raises(CyclicOrderingError):
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
            with pytest.raises(CyclicOrderingError):
                OrderingSpec(n, groups=groups, edges=edges)
        else:
            assert enumerated(OrderingSpec(n, groups=groups, edges=edges)) == want

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

    @given(ordering_specs())
    @settings(max_examples=80, deadline=None)
    def test_matches_definition_on_every_permutation(self, spec):
        orders = list(itertools.permutations(range(spec.n)))
        got = is_consistent(orders, spec)
        assert got.shape == (len(orders),)
        for order, ok in zip(orders, got):
            assert ok == oracle_consistent(order, spec)


class TestEnumerate:
    def test_empty_spec_gives_all_permutations(self):
        assert enumerate_consistent(OrderingSpec(2)).tolist() == [[0, 1], [1, 0]]
        for n in range(1, 6):
            assert len(enumerate_consistent(OrderingSpec(n))) == math.factorial(n)

    def test_leading_singleton_group(self):
        spec = OrderingSpec(3, groups=((0,), (1, 2)))
        assert enumerate_consistent(spec).tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_two_group_partition_count(self):
        spec = OrderingSpec(4, groups=((0, 1), (2, 3)))
        assert len(enumerate_consistent(spec)) == 4

    def test_cap_enforced_and_configurable(self):
        with pytest.raises(EnumerationCapError):
            enumerate_consistent(OrderingSpec(11))
        with pytest.raises(EnumerationCapError):
            enumerate_consistent(OrderingSpec(5), cap=4)
        assert len(enumerate_consistent(OrderingSpec(3), cap=3)) == 6

    @given(ordering_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, spec):
        got = enumerate_consistent(spec)
        want = sorted(brute_force_consistent(spec))
        assert got.dtype == np.int64
        assert got.shape == (len(want), spec.n)
        assert got.tolist() == [list(order) for order in want]


class TestCount:
    def test_matches_enumeration(self):
        spec = OrderingSpec(4, edges=frozenset({(2, 0), (1, 3)}))
        assert count_consistent(spec) == len(enumerate_consistent(spec))

    def test_empty_spec(self):
        assert count_consistent(OrderingSpec(5)) == 120

    def test_total_order_chain(self):
        n = 6
        edges = frozenset((i, i + 1) for i in range(n - 1))
        assert count_consistent(OrderingSpec(n, edges=edges)) == 1

    def test_groups_only_closed_form(self):
        spec = OrderingSpec(5, groups=((0, 1), (2, 3, 4)))
        assert count_consistent(spec) == math.factorial(2) * math.factorial(3)

    def test_groups_only_closed_form_beats_the_cap(self):
        # 12 features is over the enumeration cap, but the ordered-partition
        # count is a product of factorials and needs no enumeration.
        spec = OrderingSpec(
            12, groups=(tuple(range(4)), tuple(range(4, 12)))
        )
        assert count_consistent(spec) == math.factorial(4) * math.factorial(8)
        assert count_consistent(spec) == 967680

    def test_edges_still_capped(self):
        with pytest.raises(EnumerationCapError):
            count_consistent(OrderingSpec(11, edges=frozenset({(0, 1)})))

    @given(ordering_specs())
    @settings(max_examples=40, deadline=None)
    def test_count_property(self, spec):
        assert count_consistent(spec) == len(brute_force_consistent(spec))


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

    def test_edge_spec_uniform_over_consistent_set(self):
        spec = OrderingSpec(4, edges=frozenset({(2, 0), (2, 3)}))
        allowed = brute_force_consistent(spec)
        rows = sample_consistent_batch(spec, 40_000, np.random.default_rng(7))
        seen = {}
        for row in rows:
            seen[tuple(int(i) for i in row)] = seen.get(tuple(int(i) for i in row), 0) + 1
        assert set(seen) == allowed
        assert stats.chisquare(list(seen.values())).pvalue > 0.001

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            sample_consistent_batch(OrderingSpec(3), 0, np.random.default_rng(0))

    def test_rejection_budget_guard(self, monkeypatch):
        # A full chain accepts 1 in n! uniform draws; a tiny budget trips the guard.
        n = 6
        edges = frozenset((i, i + 1) for i in range(n - 1))
        spec = OrderingSpec(n, edges=edges)
        monkeypatch.setattr(asymshap.coalitions, "DEFAULT_REJECTION_BUDGET", 1)
        with pytest.raises(SamplingBudgetError):
            sample_consistent_batch(spec, 50, np.random.default_rng(0))

    def test_random_spec_generator_validates(self):
        with pytest.raises(ValidationError):
            random_ordering_spec(1, np.random.default_rng(0))
