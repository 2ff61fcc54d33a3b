"""The paper's two-feature graphs: where distal and proximate orderings put the
credit; and the Markov series' closed-form conditional draws."""

import functools

import numpy as np
import pytest

from asymshap import (
    BayesPredictor,
    GenerativeSampler,
    MarkovSeriesProcess,
    OrderingSpec,
    TwoFeatureGraphProcess,
    WeightedOrdering,
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
    process = TwoFeatureGraphProcess(kind)
    ds = process.sample(2000, 0)
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


def markov_conditional_mean(process, x, G):
    """E[x_H | x_G] in closed form, and the same with the class posterior
    replaced by the prior.

    The series is x = L e with e ~ N(c mu, I) and c = -1 or +1 equally likely,
    so x | c ~ N(c L mu, L L^T). Given x_G, class c has weight proportional
    to N(x_G; c (L mu)_G, S_GG), and within it x_H has mean
    c (L mu)_H + S_HG S_GG^-1 (x_G - c (L mu)_G).
    """
    t = np.arange(process.T)
    L = np.where(t[:, None] >= t[None, :], process.ar ** (t[:, None] - t[None, :]).clip(0), 0.0)
    mean1 = L @ (process.shift * process.decay**t)
    S = L @ L.T
    H = np.setdiff1d(t, G)
    if not G:
        return np.zeros(process.T), np.zeros(process.T)
    S_GG, S_HG = S[np.ix_(G, G)], S[np.ix_(H, G)]
    gain = np.linalg.solve(S_GG, S_HG.T).T
    log_w, within = [], []
    for c in (-1.0, 1.0):
        dev = x[G] - c * mean1[G]
        log_w.append(-0.5 * dev @ np.linalg.solve(S_GG, dev))
        within.append(c * mean1[H] + gain @ dev)
    w = np.exp(np.array(log_w) - max(log_w))
    w /= w.sum()
    return w @ np.array(within), np.mean(within, axis=0)


class TestMarkovConditionalSamples:
    PROCESS = MarkovSeriesProcess(T=4)
    X = np.array([0.8, 0.5, 0.6, 0.55])  # leans to class 1 without being certain of it
    # At this m a sampler that ignored the class posterior would miss every
    # conditional mean below by more than 8 stderr (checked in the test), so
    # the 4-stderr check has the power to see it.
    M = 4000

    @pytest.mark.parametrize("G", [[], [0], [0, 2], [3]])
    def test_draws_match_the_closed_form_mixture_mean(self, G):
        rows = self.PROCESS.conditional_samples(self.X, np.array(G, dtype=np.int64), self.M,
                                                np.random.default_rng(len(G) * 10 + sum(G)))
        assert rows.shape == (self.M, 4)
        assert np.array_equal(rows[:, G], np.tile(self.X[G], (self.M, 1)))
        H = np.setdiff1d(np.arange(4), G)
        want, without_posterior = markov_conditional_mean(self.PROCESS, self.X, G)
        se = rows[:, H].std(axis=0, ddof=1) / np.sqrt(self.M)
        assert np.all(np.abs(rows[:, H].mean(axis=0) - want) <= 4 * se)
        if G:
            assert np.all(np.abs(without_posterior - want) > 8 * se)

    def test_full_set_returns_x_tiled(self):
        rows = self.PROCESS.conditional_samples(self.X, np.array([2, 0, 3, 1]), 5, np.random.default_rng(0))
        assert np.array_equal(rows, np.tile(self.X, (5, 1)))
