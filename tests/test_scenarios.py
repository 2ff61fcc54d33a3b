"""The paper's two-feature graphs: where distal and proximate orderings put the credit."""

import functools

import numpy as np
import pytest

from asymshap import (
    BayesPredictor,
    GenerativeSampler,
    OrderingSpec,
    WeightedOrdering,
    gen_two_feature_graph,
    global_asv,
)

X1_BEFORE_X2 = OrderingSpec(2, groups=((0,), (1,)))
ORDERINGS = {
    "distal": WeightedOrdering(X1_BEFORE_X2),
    "proximate": WeightedOrdering(X1_BEFORE_X2, "proximate"),
    "symmetric": WeightedOrdering(OrderingSpec(2)),
}


@functools.lru_cache(maxsize=None)
def attributions(kind):
    """Global ASVs of the Bayes predictor on one graph, under each ordering.

    Every run reads the same per-point draws, keyed by (seed, point, mask), so
    the three orderings differ only in how they weight the same coalitions.
    """
    ds, process = gen_two_feature_graph(kind, 2000, 0)
    return {
        name: global_asv(
            BayesPredictor(process), ds, ordering,
            sampler=GenerativeSampler(process), m=64, estimator="exact", budget=500, seed=0,
        )
        for name, ordering in ORDERINGS.items()
    }


@pytest.mark.parametrize("kind", ["chain", "collider", "mixed"])
def test_symmetric_is_the_mean_of_distal_and_proximate(kind):
    # With two features the unconstrained average runs over exactly the two
    # orders that distal and proximate each pin down.
    runs = attributions(kind)
    half = (runs["distal"].means + runs["proximate"].means) / 2
    assert np.max(np.abs(runs["symmetric"].means - half)) <= 1e-12


def test_chain_proximate_gives_x1_nothing():
    # In x1 -> x2 -> y the label depends on x2 alone: once x2 is known, x1 adds nothing.
    runs = attributions("chain")
    assert runs["proximate"].means[0] == 0.0
    assert runs["distal"].means[0] > 0.0


def test_mixed_distal_credits_x1_more_than_proximate():
    runs = attributions("mixed")
    distal, proximate = runs["distal"], runs["proximate"]
    combined = np.hypot(distal.stderrs[0], proximate.stderrs[0])
    assert distal.means[0] - proximate.means[0] > 3 * combined
