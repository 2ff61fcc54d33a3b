"""Shapley and asymmetric Shapley attribution.

Local attributions average the marginal contribution of each feature over
permutations, either by exact enumeration of the consistent set or by Monte
Carlo draws from it. The contributions form a (steps x features) matrix,
entry [k, i] being what feature i adds to the coalition before it in step k,
and every average here (per point over orders, per dataset over points) is
one column reduction of such a matrix. What depends on the orders alone, the
distinct coalitions they pass through and where each step's two coalitions
sit among them, is a CoalitionChains, built once per order set, so a point
only evaluates its own value function on those coalitions and takes
differences: a chunk of coalitions per predictor call, and v(N) in a call of
its own. A Monte Carlo draw keeps one step per order and feature, for
column_means and column_stderrs. An exact run enumerates its orders once and
counts each feature's distinct steps from them a column at a time, for many
orders add a feature right after the same coalition: every point then
reduces only those steps, each weighted by its integer count, in
weighted_column_means, which equals the per-order column mean bit for bit.
A RunPlan holds what a run's points share, built once per command: the
predictor, ordering, completion, estimator and its settings, and an exact
run's merged chains. plan.local explains one point with its own value
function, and global_asv averages plan.local over (x, y) pairs from a dataset,
which ties their sum to an accuracy decomposition: the attribution mass
equals the model's sampled-label accuracy minus the accuracy left when every
feature is marginalized away. Every consistent order passes through each
prefix of the ordering's groups, so a global run keeps its points' mean value
at each prefix, read from their caches, and partition_sum_check checks the
paper's partition identities on those values with no second evaluation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .coalitions import (
    DEFAULT_ENUMERATION_CAP,
    MAX_EXACT_ORDERS,
    OrderingSpec,
    _orders,
    enumerate_consistent,
    sample_consistent_batch,
)
from .data import Dataset, _positive
from .errors import ValidationError
from .values import (
    PREDICT_ROWS,
    BackgroundSet,
    CachedValueFunction,
    ConditionalSampler,
    _stream,
    _stream_key,
)


@dataclass
class AttributionResult:
    """Per-feature attribution with its baseline v({}) and total v(N)."""

    means: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    baseline: float
    total: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stderrs = np.asarray(self.stderrs, dtype=np.float64)
        if (self.stderrs < 0).any():
            raise ValidationError("negative stderr")

    def sum(self) -> float:
        return math.fsum(map(float, self.means))

    def efficiency_gap(self) -> float:
        """Sum of attributions minus (total - baseline); ~0 by Axiom 1."""
        return self.sum() - (self.total - self.baseline)

    def to_json_dict(self, feature_names=None) -> dict:
        d = {
            "means": self.means.tolist(),
            "stderrs": self.stderrs.tolist(),
            "n_samples": self.n_samples,
            "baseline": self.baseline,
            "total": self.total,
            "metadata": self.metadata,
        }
        if feature_names is not None:
            d["features"] = list(feature_names)
        return d


def _as_spec(ordering) -> OrderingSpec:
    if not isinstance(ordering, OrderingSpec):
        raise ValidationError(f"expected an OrderingSpec, got {type(ordering).__name__}")
    return ordering


class CoalitionChains:
    """The coalitions a set of orders passes through, and the steps between them.

    P is an integer matrix of shape (count, n), one permutation of 0..n-1 per
    row, first feature first: int64 as sampled or int8 as enumerated; any
    other rows raise ValidationError. masks holds the distinct nonempty
    coalitions that follow some position of some order, ascending. Index 0
    stands for the empty coalition and index k + 1 for masks[k], so after[i, k]
    and before[i, k] locate the coalitions with and without feature i of its
    step k among v({}) and v(masks): every coalition before a feature is {} or
    the coalition after the feature preceding it. counts[i, k] is how many
    orders take that step.

    CoalitionChains(P) keeps one step per order and feature, step r being
    order r's; CoalitionChains.merged(P) takes each feature's identical steps
    once and counts them, reading P a column at a time, for an exact average.
    Neither keeps P, and nothing here depends on a point, so one instance
    serves every point of a run; its arrays are read-only for that reason.
    """

    def __init__(self, P):
        P = _orders(P)
        R, n = P.shape
        after_masks = np.cumsum(np.int64(1) << P, axis=1)
        # n indices in range sum to the full mask only as n distinct bits.
        if (after_masks[:, -1] != (1 << n) - 1).any():
            raise ValidationError(f"an order repeats a feature; orders must be permutations of 0..{n - 1}")
        masks, inv = np.unique(after_masks, return_inverse=True)  # never 0: each mask holds a feature
        del after_masks
        inv = inv.reshape(R, n)
        inv += 1
        # Position k of order r moves to row P[r, k] (its feature), column r.
        rows = np.arange(R)[:, None]
        after = np.empty((n, R), dtype=np.intp)
        after[P, rows] = inv
        before = np.zeros((n, R), dtype=np.intp)  # {} precedes each order's first feature
        before[P[:, 1:], rows] = inv[:, :-1]
        self._hold(masks, before, after, np.broadcast_to(np.int64(1), (n, R)), R)

    @classmethod
    def merged(cls, P) -> "CoalitionChains":
        """The chains of orders P with each feature's identical steps taken once, their counts added.

        A step of feature i is fixed by the coalition before it, so row i of
        the (n, K) arrays lists feature i's distinct steps by ascending
        before; a feature with fewer than K of them is padded with (0, 0)
        steps of count 0. masks, count and n are those of CoalitionChains(P),
        so every row of counts sums to count. P is read, widened and checked
        against the coalitions before it a column at a time, so beside it
        only vectors of one entry per order and the distinct steps are held.
        Raises ValidationError from MAX_EXACT_ORDERS orders on, where a count
        could make a weighted term inexact.
        """
        P = _orders(P)
        R, n = P.shape
        if R >= MAX_EXACT_ORDERS:
            raise ValidationError(
                f"a merged exact reduction supports fewer than {MAX_EXACT_ORDERS} orders, got {R}"
            )
        before = np.zeros(R, dtype=np.int64)  # each order's coalition ahead of the current column
        seen = np.zeros(1, dtype=np.int64)  # those coalitions, distinct and ascending
        steps = []
        for col in P.T:
            if (before & np.int64(1) << col).any():
                raise ValidationError(f"an order repeats a feature; orders must be permutations of 0..{n - 1}")
            w = seen.shape[0]
            # Feature-major step keys, below n * w < 2^32 where keys holding masks could overflow.
            keys, counts = np.unique(col * np.int64(w) + np.searchsorted(seen, before), return_counts=True)
            feats, befores = keys // w, seen[keys % w]
            steps.append((feats, befores, counts))
            # Asking for counts keeps np.unique on its sort path: the plain call imports numpy.ma.
            seen = np.unique(befores | np.int64(1) << feats, return_counts=True)[0]
            before |= np.int64(1) << col
        feats, befores, counts = map(np.concatenate, zip(*steps))
        order = np.lexsort((befores, feats))
        feats, befores, counts = feats[order], befores[order], counts[order]
        afters = befores | np.int64(1) << feats
        masks = np.unique(afters, return_counts=True)[0]
        index = np.concatenate([[0], masks]).searchsorted  # a coalition's index among {} and masks
        rank = np.arange(feats.shape[0]) - np.searchsorted(feats, feats)  # position within its row
        layout = np.zeros((3, n, int(rank.max()) + 1), dtype=np.int64)
        layout[:, feats, rank] = index(befores), index(afters), counts
        return cls.__new__(cls)._hold(masks, *layout, R)

    def _hold(self, masks, before, after, counts, count) -> "CoalitionChains":
        for a in (masks, before, after, counts):
            a.flags.writeable = False
        self.masks, self.before, self.after, self.counts = masks, before, after, counts
        self.count, self.n = count, before.shape[0]
        return self


def marginal_contributions(v, chains: CoalitionChains) -> np.ndarray:
    """Matrix D of v(pre ∪ {i}) - v(pre) terms, one row per step, one column per feature.

    chains holds the orders' coalitions, deduped once for the whole order set;
    a run shares one instance across its points. D[k, i] is the marginal
    contribution of feature i in its step k, pre being the coalition that
    step adds i to: for per-order chains row k is order k, and each row
    telescopes to v(N) - v({}) up to one rounding per term. v is evaluated on
    {} and then on each of chains.masks in ascending order, once each,
    regardless of how many orders touch them. v.value takes one or more
    masks, and v.m is the completion rows a mask takes at most for a sampler
    that draws, so the masks go in calls of at most max(1, PREDICT_ROWS // v.m),
    each one predictor call of about PREDICT_ROWS = 2,048 rows for a
    CachedValueFunction, whose means come from that call's one list. v(N), the
    last, gets a call of its own, for the on-manifold one-row prediction at x.
    """
    *head, full = [0, *chains.masks.tolist()]
    step = max(1, PREDICT_ROWS // v.m)
    vals = np.hstack([*(v.value(*head[k:k + step]) for k in range(0, len(head), step)), v.value(full)])
    D = vals[chains.after]
    D -= vals[chains.before]
    return D.T


def column_means(A: np.ndarray) -> np.ndarray:
    """Mean of each column of A, math.fsum over its rows divided by their count."""
    R = A.shape[0]
    return np.array([math.fsum(col.tolist()) / R for col in A.T])


# Clears the low 27 of a float64's 52 stored significand bits.
_HIGH_BITS = np.int64(~((1 << 27) - 1))


def weighted_column_means(A: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Mean of each column of A with row k of column j repeated counts[j, k] times.

    total is the sum of each row of counts, all below MAX_EXACT_ORDERS. While
    no partial sum of either fsum overflows, as in any game with probability
    values, the result is math.fsum over the expanded column divided by
    total, bit for bit: each entry d splits exactly into hi, d with its low
    27 significand bits cleared, and lo = d - hi, so that c * hi and c * lo
    are exact for c < 2^26 (an error-free transformation), and fsum,
    correctly rounded, sums those exact terms to the float that it sums the
    expanded column to. A column with a weighted term that is not finite,
    from a non-finite entry or an overflowing c * hi, is summed expanded, in
    step order, for then fsum returns nan or inf or raises; where a partial
    sum overflows, which of those it does depends on the order of the terms.
    """
    C = counts.T
    hi = (A.view(np.int64) & _HIGH_BITS).view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # such columns are summed expanded
        terms = np.concatenate([hi * C, (A - hi) * C])
    finite = np.isfinite(terms).all(axis=0)
    return np.array([
        math.fsum((col if finite[j] else np.repeat(A[:, j], C[:, j])).tolist()) / total
        for j, col in enumerate(np.ascontiguousarray(terms.T))
    ])


def column_stderrs(A: np.ndarray) -> np.ndarray:
    """Standard error of each column mean of A: np.std(ddof=1) / sqrt(rows), for 2 or more rows.

    The standard deviation runs along the rows of the contiguous transpose, so
    each column gets numpy's pairwise sum, as np.std of that column alone would.
    """
    return np.std(np.ascontiguousarray(A.T), axis=1, ddof=1) / math.sqrt(A.shape[0])


def exact_asv(v, spec: OrderingSpec, chains: CoalitionChains | None = None) -> AttributionResult:
    """Attribution averaged over every permutation consistent with spec.

    With an empty spec this is the plain Shapley value in permutation form.
    chains are the CoalitionChains of spec's consistent orders, merged or
    not: a RunPlan, explaining many points under one spec, builds them once
    with CoalitionChains.merged and passes them to each. Without them the
    orders are enumerated here, under DEFAULT_ENUMERATION_CAP, and merged.
    Either way the means are the per-order column means, bit for bit while no
    partial sum overflows (see weighted_column_means), which holds for every
    game with probability values.
    """
    spec = _as_spec(spec)
    n = spec.n
    if chains is None:
        chains = CoalitionChains.merged(enumerate_consistent(spec))
    if chains.n != n:
        raise ValidationError(f"chains cover {chains.n} features, ordering has {n}")
    return AttributionResult(
        means=weighted_column_means(marginal_contributions(v, chains), chains.counts, chains.count),
        stderrs=np.zeros(n),
        n_samples=chains.count,
        baseline=v.value(0),
        total=v.value((1 << n) - 1),
        metadata={"estimator": "exact", "ordering": spec.to_json_dict()},
    )


def mc_asv(
    v,
    ordering,
    n_perms: int,
    rng: np.random.Generator,
) -> AttributionResult:
    """Monte Carlo attribution over permutations drawn uniformly from the
    consistent set. Per-feature stderr comes from across-permutation variance;
    each draw's contributions telescope, so efficiency carries no MC error.
    """
    if n_perms < 2:
        raise ValidationError(f"need at least 2 permutation draws for stderr, got {n_perms}")
    spec = _as_spec(ordering)
    D = marginal_contributions(v, CoalitionChains(sample_consistent_batch(spec, n_perms, rng)))
    n = spec.n
    return AttributionResult(
        means=column_means(D),
        stderrs=column_stderrs(D),
        n_samples=n_perms,
        baseline=v.value(0),
        total=v.value((1 << n) - 1),
        metadata={"estimator": "mc", "ordering": spec.to_json_dict()},
    )


class RunPlan:
    """What every point of one run shares, built once per command.

    pred is explained under spec, its unknown features filled by completion
    as in CachedValueFunction (a BackgroundSet off-manifold, a sampler
    on-manifold) with m draws and the run's seed; spec covers pred's features.
    estimator must be "exact" or "mc", checked before anything is enumerated
    or evaluated. An exact plan enumerates spec's orders once, under cap,
    after its first point's checks, and keeps their CoalitionChains.merged;
    a Monte Carlo plan draws n_perms orders per point.
    """

    def __init__(self, pred, spec: OrderingSpec, completion: BackgroundSet | ConditionalSampler, *,
                 estimator: str = "exact", n_perms: int = 200, m: int = 100, seed: int = 0,
                 cap: int = DEFAULT_ENUMERATION_CAP):
        if estimator not in ("exact", "mc"):
            raise ValidationError(f"estimator must be 'exact' or 'mc', got {estimator!r}")
        seed = _stream_key(seed, "seed")
        spec = _as_spec(spec)
        if spec.n != pred.n_features:
            raise ValidationError(f"ordering covers {spec.n} features, predictor has {pred.n_features}")
        self.pred, self.spec, self.completion = pred, spec, completion
        self.estimator, self.n_perms, self.m, self.seed, self.cap = estimator, n_perms, m, seed, cap

    @cached_property
    def _chains(self) -> CoalitionChains:
        return CoalitionChains.merged(enumerate_consistent(self.spec, cap=self.cap))

    def local(self, x, y: int, point_index: int) -> tuple[AttributionResult, CachedValueFunction]:
        """The local attribution of class y at point x, and the value function it evaluated.

        The Monte Carlo orders come from a stream keyed by (seed, point_index),
        as do the point's completions, so a point gets the same result alone
        as inside a global run. The result's metadata records vf.counts.
        """
        vf = CachedValueFunction(self.pred, x, y, self.completion, m=self.m, seed=self.seed,
                                 point_index=point_index)
        if self.estimator == "exact":
            res = exact_asv(vf, self.spec, self._chains)
        else:
            res = mc_asv(vf, self.spec, self.n_perms, _stream(self.seed, 0x9E12, point_index))
        res.metadata.update(vf.counts)
        return res, vf


@dataclass
class GlobalAttribution:
    """Dataset-averaged attribution plus the accuracy terms its sum decomposes into.

    prefix_accuracies holds, for each prefix U of the ordering's groups, the
    mean of v_{f_y(x)}(U) over the run's points: the empty set first, then
    G1, G1 ∪ G2, ..., and the full set last (the empty and full sets alone
    when no groups were declared). Each is a column mean of values the run
    already computed. accuracy_empty, the first, is what remains with every
    feature marginalized away; accuracy_full, the last, is E[f_y(x)], the
    model's sampled-label accuracy. By the sum rule, sum(means) ~
    accuracy_full - accuracy_empty, and partition_sum_check checks it group
    by group. locals holds the per-point attributions, one row per point,
    that means averages.
    """

    means: np.ndarray
    stderrs: np.ndarray
    n_points: int
    prefix_accuracies: tuple[float, ...]
    locals: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.means.shape[0]

    @property
    def accuracy_empty(self) -> float:
        return self.prefix_accuracies[0]

    @property
    def accuracy_full(self) -> float:
        return self.prefix_accuracies[-1]

    def sum(self) -> float:
        return math.fsum(map(float, self.means))

    def to_json_dict(self, feature_names=None) -> dict:
        d = {
            "means": self.means.tolist(),
            "stderrs": self.stderrs.tolist(),
            "n_points": self.n_points,
            "accuracy_full": self.accuracy_full,
            "accuracy_empty": self.accuracy_empty,
            "metadata": self.metadata,
        }
        if feature_names is not None:
            d["features"] = list(feature_names)
        return d


def _point_budget(n_rows: int, budget, seed: int) -> np.ndarray:
    """The rows of a dataset average, ascending: at least 2, for its across-point stderr."""
    if budget is not None:
        _positive(budget, "point budget")
    B = n_rows if budget is None else min(budget, n_rows)
    if B < 2:
        raise ValidationError(
            f"a dataset average needs at least 2 points for its across-point stderr, got {B}"
        )
    if B == n_rows:
        return np.arange(n_rows)
    return np.sort(_stream(seed, 0xB0D6E7).choice(n_rows, size=B, replace=False))


def global_asv(plan: RunPlan, dataset: Dataset, *, budget: int | None = None) -> GlobalAttribution:
    """Average plan's local attributions over (x, y) rows, y taken as the true label.

    budget caps how many rows participate (sampled without replacement,
    default all); the stderrs are the spread across them, so at least 2 must.
    Each row gets its own frozen value-function cache and its own derived
    random stream, so a row's result does not depend on the other rows. Every
    consistent order passes through each prefix of the ordering's groups, so
    each row's value there is a hit in its cache, not evaluated again, for
    prefix_accuracies.
    """
    spec = plan.spec
    if spec.n != dataset.n:
        raise ValidationError(f"ordering covers {spec.n} features, dataset has {dataset.n}")
    idx = _point_budget(dataset.n_rows, budget, plan.seed)
    prefixes = list(accumulate(sum(1 << i for i in g) for g in (spec.groups or ())[:-1]))
    L = np.empty((idx.shape[0], spec.n))
    V = np.empty((idx.shape[0], len(prefixes) + 2))  # v at {}, at each interior group prefix and at N, per point
    counts = Counter()
    for j, row in enumerate(idx.tolist()):
        res, vf = plan.local(dataset.X[row], int(dataset.y[row]), row)
        L[j] = res.means
        V[j] = [res.baseline, *map(vf.value, prefixes), res.total]
        counts.update(vf.counts)
        del res, vf  # so the next point is evaluated without this one's cache alive
    return GlobalAttribution(
        means=column_means(L),
        # Across-point spread of noisy local estimates; absorbs their MC error.
        stderrs=column_stderrs(L),
        n_points=idx.shape[0],
        prefix_accuracies=tuple(column_means(V).tolist()),
        locals=L,
        metadata={
            "estimator": plan.estimator,
            "ordering": spec.to_json_dict(),
            "seed": plan.seed,
            "m": plan.m,
            "n_perms": plan.n_perms if plan.estimator == "mc" else None,
            **counts,
        },
    )


def partition_sum_check(glob: GlobalAttribution) -> dict:
    """Check the group-sum identities tying attribution mass to accuracy gains.

    The partition is the ordered groups glob's ordering declared, or the
    single group of all features, the sum rule, when it declared none. For
    each group, the sum of its attributions is compared to the accuracy
    gained when it joins the groups before it, and the cumulative sum to the
    accuracy above the empty set. The accuracies are glob.prefix_accuracies,
    the run's own values at each prefix of groups, averaged over its points,
    with no second evaluation. Every consistent order passes through each
    prefix, so each gap is a float identity: zero up to rounding, not an
    estimate with an error bar.
    """
    groups = glob.metadata["ordering"]["groups"] or [list(range(glob.n))]
    acc = glob.prefix_accuracies
    means = glob.means.tolist()
    rows = []
    for k, g in enumerate(groups, 1):
        phi_sum = math.fsum(means[i] for i in g)
        cum_phi = math.fsum(means[i] for h in groups[:k] for i in h)
        rows.append(
            {
                "group": g,
                "phi_sum": phi_sum,
                "accuracy_gain": acc[k] - acc[k - 1],
                "gap": phi_sum - (acc[k] - acc[k - 1]),
                "cumulative_phi": cum_phi,
                "cumulative_gain": acc[k] - acc[0],
                "cumulative_gap": cum_phi - (acc[k] - acc[0]),
            }
        )
    return {"accuracy_empty": acc[0], "groups": rows}
