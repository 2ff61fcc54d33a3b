"""The paper's two-feature graphs: where distal and proximate orderings put the
credit; the Markov series' closed-form conditional draws and incremental
explanations, their cumulative mass against retraining on each prefix; and the
admissions audit: its verdict on the fair and unfair processes, and its shared
completion pools.

The tests marked claim check the paper's four claims; `pytest -m claim` runs them."""

import functools
import itertools
import json
import logging
import math
import re

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from helpers import CountingPredictor, LinearProbPredictor

import asymshap.coalitions
from asymshap import (
    CONTINUOUS,
    AdmissionsProcess,
    BackgroundSet,
    BayesPredictor,
    CachedValueFunction,
    Dataset,
    ExactMatchSampler,
    FeatureSpec,
    GenerativeSampler,
    KNNSampler,
    MarkovSeriesProcess,
    OrderingSpec,
    RunPlan,
    Schema,
    TwoFeatureGraphProcess,
    ValidationError,
    exact_asv,
    fairness_spec,
    global_asv,
    run_fairness_audit,
    run_feature_selection_study,
)
from asymshap.attribution import column_stderrs
from asymshap.scenarios import SIGNIFICANCE_THRESHOLD, STDERR_FLOOR

X1_BEFORE_X2 = OrderingSpec(2, groups=((0,), (1,)))
ORDERINGS = {
    "distal": X1_BEFORE_X2,
    "proximate": X1_BEFORE_X2.reversed(),
    "symmetric": OrderingSpec(2),
}


@functools.lru_cache(maxsize=None)
def attributions(kind):
    """Global ASVs of the Bayes predictor on one graph, under each ordering.

    The process completes every coalition exactly, so the three orderings
    differ only in how they weight the same coalition values.
    """
    process = TwoFeatureGraphProcess(kind)
    ds = process.sample(2000, 0)
    return {
        name: global_asv(
            RunPlan(BayesPredictor(process), ordering, process, estimator="exact", m=64, seed=0),
            ds, budget=500,
        )
        for name, ordering in ORDERINGS.items()
    }


@pytest.mark.parametrize("kind", ["chain", "collider", "mixed"])
def test_symmetric_is_the_mean_of_distal_and_proximate(kind):
    # With two features the unconstrained average runs over exactly the two
    # orders that distal and proximate each pin down.
    runs = attributions(kind)
    half = (runs["distal"].means + runs["proximate"].means) / 2
    assert np.max(np.abs(runs["symmetric"].means - half)) <= 1e-16


@pytest.mark.claim
def test_chain_proximate_gives_x1_nothing():
    # Claim (i): in x1 -> x2 -> y the label depends on x2 alone: once x2 is known, x1 adds nothing.
    runs = attributions("chain")
    assert runs["proximate"].means[0] == 0.0
    assert runs["distal"].means[0] > 0.0


def law_asv(kind, ordering):
    """The global ASV of the Bayes predictor over the graph's law itself: each
    (x, y)'s exact ASV weighted by p(x, y), with no sampled point."""
    process = TwoFeatureGraphProcess(kind)
    pred, table = BayesPredictor(process), process.joint_table()
    total = np.zeros(2)
    for a, b in itertools.product((0, 1), repeat=2):
        x = np.array([a, b], dtype=np.float64)
        for y, p_y in enumerate(process.label_probs(x)[0]):
            total += table[a, b] * p_y * exact_asv(CachedValueFunction(pred, x, y, process), ordering).means
    return total


def test_mixed_distal_credits_x1_more_than_proximate():
    assert law_asv("mixed", ORDERINGS["distal"])[0] > law_asv("mixed", ORDERINGS["proximate"])[0]
    runs = attributions("mixed")
    distal, proximate = runs["distal"], runs["proximate"]
    combined = np.hypot(distal.stderrs[0], proximate.stderrs[0])
    assert distal.means[0] - proximate.means[0] > 3 * combined


def test_collider_credit_does_not_depend_on_the_ordering():
    # Distal minus proximate credit to x1 is minus the interaction v({1,2}) - v({1}) - v({2}) + v({}).
    # With independent fair-coin parents and sigmoid(-z) = 1 - sigmoid(z) it is zero at every point,
    # so the two orderings' per-point ASVs agree to rounding.
    runs = attributions("collider")
    assert np.max(np.abs(runs["distal"].locals - runs["proximate"].locals)) <= np.finfo(float).eps


def test_unknown_two_feature_kind_rejected():
    with pytest.raises(ValidationError, match=re.escape("kind must be one of ('chain', 'collider', 'mixed'), got 'fork'")):
        TwoFeatureGraphProcess("fork")


def completion_law(rows, weights):
    """A completion as {row: weight}, after checking that no row repeats."""
    law = dict(zip(map(tuple, rows.tolist()), weights.tolist()))
    assert len(law) == len(rows)
    return law


@pytest.mark.parametrize("mask", [0, 0b01, 0b10, 0b11])
@pytest.mark.parametrize("kind", ["chain", "collider", "mixed"])
def test_two_feature_draws_follow_the_joint_table(kind, mask):
    # The completion is every cell that agrees with x on the mask, weighted by Bayes' rule on the joint table.
    process, x = TwoFeatureGraphProcess(kind), np.array([1.0, 0.0])
    tab = process.joint_table()
    cells = [c for c in itertools.product((0, 1), repeat=2) if all(c[i] == x[i] for i in range(2) if mask >> i & 1)]
    evidence = math.fsum(tab[c] for c in cells)
    got = completion_law(*process.complete(x, mask, 64, np.random.default_rng(0)))
    assert got.keys() == set(cells)
    for c in cells:
        assert abs(got[c] - tab[c] / evidence) <= 1e-15


@pytest.mark.parametrize("kind, table", [("chain", [[0.45, 0.05], [0.10, 0.40]]),
                                         ("collider", [[0.25, 0.25], [0.25, 0.25]]),
                                         ("mixed", [[0.45, 0.05], [0.10, 0.40]])])
def test_two_feature_joint_table_is_the_declared_law(kind, table):
    # x1 is uniform; x2 = 1 with probability 0.1 or 0.8 as x1 is 0 or 1, except in the collider.
    assert np.allclose(TwoFeatureGraphProcess(kind).joint_table(), table, rtol=0, atol=1e-15)


@pytest.mark.parametrize("unfair", [False, True], ids=["fair", "unfair"])
@pytest.mark.parametrize("mask", range(8))
def test_admissions_draws_follow_the_joint_law(mask, unfair):
    # Gender is uniform and department follows P_DEPT1_GIVEN_GENDER, so Bayes'
    # rule on their joint table weighs each (gender, department) cell that
    # agrees with x; a free score is an independent N(0, 1), whose nodes
    # carry each cell's weight with mean 0 and variance 1.
    process, x = AdmissionsProcess(unfair=unfair), np.array([1.0, 0.3, 0.0])
    p_dept1 = process.P_DEPT1_GIVEN_GENDER
    joint = {(g, d): 0.5 * (p_dept1[g] if d else 1 - p_dept1[g]) for g, d in itertools.product((0, 1), repeat=2)}
    cells = {c: p for c, p in joint.items() if all(c[j] == x[i] for j, i in enumerate((0, 2)) if mask >> i & 1)}
    evidence = math.fsum(cells.values())
    by_cell = {}
    for (g, score, d), w in completion_law(*process.complete(x, mask, 64, np.random.default_rng(0))).items():
        by_cell.setdefault((g, d), []).append((score, w))
    assert by_cell.keys() == cells.keys()
    for c, nodes in by_cell.items():
        p_cell = math.fsum(w for _, w in nodes)
        assert abs(p_cell - cells[c] / evidence) <= 1e-15
        if mask & 0b010:
            assert [score for score, _ in nodes] == [x[1]]
        else:
            assert len(nodes) == 32
            assert abs(math.fsum(w * score for score, w in nodes)) <= 1e-15
            assert abs(math.fsum(w * score * score for score, w in nodes) / p_cell - 1) <= 1e-15


@pytest.mark.parametrize("seed", [0, 5])
def test_markov_empty_coalition_draws_are_the_series_sample(seed):
    process, m = MarkovSeriesProcess(T=5), 50
    rows = process.conditional_samples(np.zeros(5), 0, m, np.random.default_rng(seed))
    assert rows.tobytes() == process.sample(m, seed).X.tobytes()


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
        rows = self.PROCESS.conditional_samples(self.X, sum(1 << i for i in G), self.M,
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
        rows = self.PROCESS.conditional_samples(self.X, 0b1111, 5, np.random.default_rng(0))
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
    # only when the hidden audit channel leaks it into the label. Each process
    # completes its coalitions exactly, so the fair process's gender ASV is
    # zero at every point but for rounding, and the unfair one's mean is its
    # law's, whose quadrature over the score has converged: 64 nodes give the
    # same mean. At these sizes seeds 0-2 gave unfair significance 5.04-6.77.
    def audit(process):
        return run_fairness_audit(BayesPredictor(process), process.sample(10_000, 0), ["department"], ["gender"],
                                  process, m=64, budget=4000, seed=0)

    reports = {unfair: audit(AdmissionsProcess(unfair=unfair)) for unfair in (True, False)}
    assert reports[True].significance > SIGNIFICANCE_THRESHOLD
    assert reports[True].verdict.startswith("unresolved discrimination detected: gender")
    assert np.all(np.abs(reports[False].attribution.locals[:, 0]) <= STDERR_FLOOR)
    assert reports[False].significance <= SIGNIFICANCE_THRESHOLD
    assert reports[False].verdict == "no unresolved discrimination detected"
    # The report states the smallest sensitive ASV it could flag, and only the
    # unfair process's ASV clears it.
    for unfair, report in reports.items():
        assert report.detectable_asv == 3 * max(report.sensitive_stderr, STDERR_FLOOR)
        assert report.to_json_dict()["detectable_asv"] == report.detectable_asv
        assert (abs(report.sensitive_asv) > report.detectable_asv) == unfair
    finer = AdmissionsProcess(unfair=True)
    finer._score_nodes = hermegauss(64)
    assert np.max(np.abs(audit(finer).attribution.means - reports[True].attribution.means)) <= 1e-12


@functools.lru_cache(maxsize=None)
def admissions_audit_locals(sampler=None):
    """Per-point ASVs of the Bayes predictor on 10,000 unfair admissions rows,
    department before gender, at the points and draws of one seed. The process
    completes each coalition exactly, or sampler (k = 10) draws completions
    from an independent 10,000-row sample."""
    process = AdmissionsProcess(unfair=True)
    completion = process if sampler is None else sampler(process.sample(10_000, 1), k=10)
    plan = RunPlan(BayesPredictor(process), fairness_spec(3, (2,), (0,)), completion, estimator="exact", m=64,
                   seed=0)
    return global_asv(plan, process.sample(10_000, 0), budget=2000).locals


@pytest.mark.parametrize("sampler", [ExactMatchSampler, KNNSampler], ids=["exact-match", "knn"])
def test_data_driven_samplers_estimate_the_closed_form_conditionals(sampler):
    """The CLI's samplers estimate p(x' | x_S) from rows; the process
    completes each coalition with p(x' | x_S) exactly, at the same points. So
    each feature's paired per-point difference should average to zero. At
    seeds 0-2, each with the pool drawn at the next seed, the largest |mean /
    paired stderr| was 1.44; an unbiased estimate passes 4 with probability 6e-5.

    Each sampler's pool is an independent sample of the process. With the
    audited rows as their own pool, as the CLI runs the audit, each point is
    its own nearest neighbour on score, at distance 0, so 1/k of every
    score-conditioned completion is the point itself. At seeds 0-2 that lifted
    score's ASV by 2.3-4.8 paired stderrs: an independent pool keeps that bias
    out of this check of the estimate.
    """
    diff = admissions_audit_locals(sampler) - admissions_audit_locals()
    z = diff.mean(axis=0) / column_stderrs(diff)
    assert np.all(np.abs(z) <= 4), z


def test_knn_completion_is_within_its_smoothing_bias_of_the_closed_form():
    """The Markov series' features are continuous and dependent, so k-NN
    completes a coalition S well only when it ranks the pool by distance on
    S. For each S of one feature (the sorted-line path) and of two or three
    (the argsort path), v(S) of the Bayes predictor from KNNSampler (k = 10)
    over an independent 10,000-row pool is paired with v(S) from the closed
    form, at 200 points with the same keyed streams.

    Given the neighbours' values x'_S, each neighbour's other features H are
    a draw from p(x_H | x'_S), so the k-NN mean is the mean of g(x'_S) over
    the k neighbours, and the closed form's is g(x_S), with g(b) =
    E[f_y(x_S, X_H) | X_S = b]: k-NN's smoothing bias (Aas, Jullum & Løland,
    AIJ 2021). p(x_H | b) mixes two Gaussian classes whose log-odds are
    2 mu_S' Sigma_SS^-1 b and whose means move with b by the regression gain
    Sigma_HS Sigma_SS^-1, and f_y = sigmoid(+-w'x) moves at most |w|/4 per
    unit of x. So |grad g| <= |Sigma_SS^-1 mu_S| / 2 + |gain' w_H| / 4, and a
    point's bias is at most that times its k nearest rows' mean Euclidean
    distance on S. The paired mean difference must lie within 4 paired
    stderrs plus the mean of those bounds.

    At |S| = 3 the bounds (0.12-0.14) exceed what a neighbourhood that
    ignores the ranking costs (0.03-0.06), so the one- and two-feature
    coalitions carry the check: with either path's ranking dropped, its
    coalitions miss by 14 to 20 paired stderrs.
    """
    process = MarkovSeriesProcess(T=4)
    T = process.T
    points, pool = process.sample(200, 0), process.sample(10_000, 1)
    pred = BayesPredictor(process)
    knn, closed = KNNSampler(pool), GenerativeSampler(process)
    mu, cov = process._mean1, process._cov  # E[x | y = 1], Cov[x | y]; y = 0 mirrors the mean
    w = 2 * process._innovations(np.eye(T)) @ process._mu  # P(y = 1 | x) = sigmoid(w'x)
    sd = pool.X.std(axis=0)
    for mask in range(1, (1 << T) - 1):
        S = [i for i in range(T) if mask >> i & 1]
        H = [i for i in range(T) if not mask >> i & 1]
        gain = cov[np.ix_(H, S)] @ np.linalg.inv(cov[np.ix_(S, S)])
        lip = np.linalg.norm(np.linalg.solve(cov[np.ix_(S, S)], mu[S])) / 2 + np.linalg.norm(gain.T @ w[H]) / 4
        diff, reach = [], []
        for row in range(points.n_rows):
            x, y = points.X[row], int(points.y[row])
            knn_v, closed_v = (CachedValueFunction(pred, x, y, c, m=64, seed=0, point_index=row).value(mask)
                               for c in (knn, closed))
            diff.append(knn_v - closed_v)
            d = pool.X[:, S] - x[S]
            near = np.argpartition(((d / sd[S]) ** 2).sum(axis=1), knn.k)[:knn.k]
            reach.append(np.linalg.norm(d[near], axis=1).mean())
        diff = np.array(diff)
        stderr = float(column_stderrs(diff[:, None])[0])
        assert abs(diff.mean()) <= 4 * stderr + lip * np.mean(reach), (S, diff.mean(), stderr)


class FreshSamplerPerCall:
    """Completes every coalition with a new ExactMatchSampler, so no pool is shared."""

    def __init__(self, dataset):
        self.dataset = dataset

    def complete(self, x, mask, m, rng):
        return ExactMatchSampler(self.dataset).complete(x, mask, m, rng)


class KeyRecorder:
    """Delegates to one sampler and records each call's (coalition, x on it)."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.keys = set()

    def complete(self, x, mask, m, rng):
        self.keys.add((mask, x[(mask >> np.arange(x.size)) & 1 == 1].tobytes()))
        return self.sampler.complete(x, mask, m, rng)


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


def test_sensitive_stderr_is_the_spread_of_the_per_point_sums():
    # Features 0 and 1 are copies that the predictor weighs alike and the
    # audit orders alike, so their per-point ASVs are equal: their sum spreads
    # exactly twice as far as either, where independent stderrs would add up
    # to sqrt(2) times one.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 3))
    X[:, 1] = X[:, 0]
    ds = Dataset(X, rng.integers(0, 2, 30), Schema(tuple(FeatureSpec(f"f{i}", CONTINUOUS) for i in range(3))))
    audit = functools.partial(run_fairness_audit, LinearProbPredictor([1.0, 1.0, -0.5]), ds, [2],
                              completion=BackgroundSet(X), m=8, seed=0)
    pair = audit([0, 1])
    locals_ = pair.attribution.locals
    assert np.array_equal(locals_[:, 0], locals_[:, 1])
    assert pair.attribution.stderrs[0] > 0
    assert pair.sensitive_stderr == 2 * pair.attribution.stderrs[0]
    # With one sensitive feature the stderr is that feature's, bit for bit.
    single = audit([0])
    assert single.sensitive_stderr == single.attribution.stderrs[0]


def test_default_audit_warns_from_its_enumeration(monkeypatch, caplog):
    # The admissions spec has 3 consistent orders, above a lowered threshold.
    monkeypatch.setattr(asymshap.coalitions, "AUTO_EXACT_WARN_ORDERS", 2)
    process = AdmissionsProcess(unfair=True)
    ds = process.sample(200, 0)
    with caplog.at_level(logging.WARNING, logger="asymshap.coalitions"):
        run_fairness_audit(BayesPredictor(process), ds, ["department"], ["gender"],
                           ExactMatchSampler(ds), m=4, budget=4, seed=0)
    (record,) = [r for r in caplog.records if r.name == "asymshap.coalitions"]
    assert "3 consistent orders over 3 features" in record.message


@pytest.mark.parametrize(
    "resolving, sensitive, message",
    [
        (["department", "gender"], ["gender"], "resolving and sensitive features overlap"),
        ([0, "score"], [], "need at least one sensitive feature"),
        ([2.9], [True], "integer index in [0, 3), got 2.9"),  # not department, then score
        (["department"], [3], "integer index in [0, 3), got 3"),
    ],
    ids=["overlap", "no-sensitive", "float-and-bool", "index-out-of-range"],
)
def test_audit_rejects_its_feature_lists_before_any_evaluation(resolving, sensitive, message):
    process = AdmissionsProcess(unfair=True)
    ds = process.sample(50, 0)
    pred = CountingPredictor(BayesPredictor(process))
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_fairness_audit(pred, ds, resolving, sensitive, ExactMatchSampler(ds), m=4, budget=4, seed=0)
    assert pred.calls == 0


def count_cases():
    """(call, the message naming the argument) for each library count given a float or a bool."""
    ds = AdmissionsProcess().sample(50, 0)
    plan = RunPlan(BayesPredictor(AdmissionsProcess()), OrderingSpec(3), ds)
    processes = {"admissions": AdmissionsProcess(), "two-feature": TwoFeatureGraphProcess("chain"),
                 "markov": MarkovSeriesProcess(T=3)}
    cases = {f"T={bad!r}": (lambda bad=bad: MarkovSeriesProcess(T=bad), f"T must be in [1, 16], got {bad!r}")
             for bad in (2.5, True)}
    for name, process in processes.items():
        for bad in (2.5, True):
            cases[f"{name}-n_rows={bad!r}"] = (lambda p=process, bad=bad: p.sample(bad, 0),
                                               f"n_rows must be positive, got {bad!r}")
    for bad in (2.5, True):
        cases[f"k={bad!r}"] = (lambda bad=bad: KNNSampler(ds, k=bad), f"k must be positive, got {bad!r}")
    cases["trials=2.5"] = (lambda: run_feature_selection_study(MarkovSeriesProcess(T=3), trials=2.5),
                           "at least 2 trials, got 2.5")
    cases["budget=2.5"] = (lambda: global_asv(plan, ds, budget=2.5), "point budget must be positive, got 2.5")
    return cases


COUNT_CASES = count_cases()


@pytest.mark.parametrize("case", list(COUNT_CASES))
def test_library_counts_must_be_integers(case):
    # numpy would raise its own TypeError for these, or read True as 1.
    call, message = COUNT_CASES[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
