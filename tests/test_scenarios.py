"""The paper's two-feature graphs: where distal and proximate orderings put the
credit; the Markov series' closed-form conditional draws and incremental
explanations, their cumulative mass against retraining on each prefix; and the
admissions audit: its verdict on the fair and unfair processes, and its shared
completion pools.

The tests marked claim check the paper's four claims; `pytest -m claim` runs them."""

import functools
import json

import numpy as np
import pytest

from asymshap import (
    AdmissionsProcess,
    BayesPredictor,
    CachedValueFunction,
    ExactMatchSampler,
    GenerativeSampler,
    MarkovSeriesProcess,
    OrderingSpec,
    TwoFeatureGraphProcess,
    exact_asv,
    global_asv,
    run_fairness_audit,
    run_feature_selection_study,
)
from asymshap.scenarios import SIGNIFICANCE_THRESHOLD

X1_BEFORE_X2 = OrderingSpec(2, groups=((0,), (1,)))
ORDERINGS = {
    "distal": X1_BEFORE_X2,
    "proximate": X1_BEFORE_X2.reversed(),
    "symmetric": OrderingSpec(2),
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
            completion=GenerativeSampler(process), m=64, estimator="exact", budget=500, seed=0,
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


@pytest.mark.claim
def test_chain_proximate_gives_x1_nothing():
    # Claim (i): in x1 -> x2 -> y the label depends on x2 alone: once x2 is known, x1 adds nothing.
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


@pytest.mark.claim
def test_chain_asv_is_the_posterior_update_at_each_step():
    # Claim (iii): under the time ordering, v(x_<t) is P(y | x_<t) by the tower
    # property, and the innovations e_k of x_<t are recoverable from it, so
    # P(y=1 | x_<t) = sigmoid(2 sum_{k<t} e_k mu_k) with mu_k = shift decay^k.
    # Step t's ASV is then the update when x_t arrives, on the label's side.
    process = MarkovSeriesProcess(T=6)
    pred, sampler, spec = BayesPredictor(process), GenerativeSampler(process), process.chain_spec()
    ds = process.sample(20, 0)
    m = 4000
    mu = process.shift * process.decay ** np.arange(process.T)
    gaps = []
    for j, (x, y) in enumerate(zip(ds.X, ds.y)):
        vf = CachedValueFunction(pred, x, int(y), completion=sampler, m=m, seed=0, point_index=j)
        e = np.concatenate(([x[0]], x[1:] - process.ar * x[:-1]))
        p1 = 1.0 / (1.0 + np.exp(-2.0 * np.concatenate(([0.0], np.cumsum(e * mu)))))
        update = np.diff(p1) if y == 1 else -np.diff(p1)
        gaps.append(np.abs(exact_asv(vf, spec).means - update))
    # Each step differs two means of m draws of f in [0, 1]: sd at most 0.5 sqrt(2 / m).
    assert np.max(gaps) <= 4 * 0.5 * np.sqrt(2 / m)


@pytest.mark.claim
def test_cumulative_chain_asv_matches_the_retrained_prefix_gain():
    # Claim (iv): the full model's cumulative ASV up to step t estimates the
    # accuracy a model retrained on x_<=t gains, so features can be selected
    # without retraining. Both sides are noisy; the bound is 4 combined stderrs
    # (at seeds 0-4 the largest gap was 2.04, at seed 4, t = 0).
    trials = 2
    study = run_feature_selection_study(MarkovSeriesProcess(T=6), trials=trials, n_rows=4000, seed=0,
                                        m=64, point_budget=300)
    gap = np.abs(study.cumulative_asv - study.empirical_mean)
    se = np.sqrt(study.cumulative_stderr ** 2 + study.empirical_sd ** 2 / trials)
    assert np.all(gap <= 4 * se)


@pytest.mark.claim
def test_audit_detects_discrimination_in_the_unfair_admissions_process_only():
    # Claim (ii): with department resolving, gender keeps significant credit
    # only when the hidden audit channel leaks it into the label. At these
    # sizes seeds 0-2 gave significance 5.15-6.34 unfair and 0.20-0.76 fair;
    # at 2,000 points the unfair audit fell as low as 3.53.
    reports = {}
    for unfair in (True, False):
        process = AdmissionsProcess(unfair=unfair)
        ds = process.sample(10_000, 0)
        reports[unfair] = run_fairness_audit(BayesPredictor(process), ds, ["department"], ["gender"],
                                             GenerativeSampler(process), m=64, budget=4000, seed=0)
    assert reports[True].significance > SIGNIFICANCE_THRESHOLD
    assert reports[True].verdict.startswith("unresolved discrimination detected: gender")
    assert reports[False].significance <= SIGNIFICANCE_THRESHOLD
    assert reports[False].verdict == "no unresolved discrimination detected"


class FreshSamplerPerCall:
    """Completes every coalition with a new ExactMatchSampler, so no pool is shared."""

    def __init__(self, dataset):
        self.dataset = dataset

    def complete(self, x, s_idx, m, rng):
        return ExactMatchSampler(self.dataset).complete(x, s_idx, m, rng)


class KeyRecorder:
    """Delegates to one sampler and records each call's (coalition, x on it)."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.keys = set()

    def complete(self, x, s_idx, m, rng):
        self.keys.add((tuple(s_idx.tolist()), x[s_idx].tobytes()))
        return self.sampler.complete(x, s_idx, m, rng)


def test_shared_pools_leave_the_fairness_audit_unchanged():
    # Every point of the audit reads the one sampler's pools; each must still
    # draw from the rows a fresh sampler would give it.
    process = AdmissionsProcess(unfair=True)
    ds = process.sample(400, 3)
    shared = ExactMatchSampler(ds)
    recorder = KeyRecorder(shared)
    audit = functools.partial(run_fairness_audit, BayesPredictor(process), ds, ["department"], ["gender"],
                              m=16, budget=60, seed=5)
    pooled = audit(completion=recorder)
    fresh = audit(completion=FreshSamplerPerCall(ds))
    assert np.array_equal(pooled.attribution.means, fresh.attribution.means)
    assert np.array_equal(pooled.attribution.stderrs, fresh.attribution.stderrs)
    assert pooled.sensitive_asv == fresh.sensitive_asv
    assert pooled.attribution.metadata == fresh.attribution.metadata
    assert json.dumps(pooled.to_json_dict()) == json.dumps(fresh.to_json_dict())
    # Pools are keyed by the discrete part of (coalition, x on it), so the run
    # holds no more pools than keys.
    assert len(shared._pools) <= len(recorder.keys)
