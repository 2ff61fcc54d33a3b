"""Shapley and asymmetric Shapley attribution.

Local attributions average the marginal contribution of each feature over
permutations, either by exact enumeration of the consistent set or by Monte
Carlo draws from it. The contributions form an (orders x features) matrix,
entry [r, i] being what feature i adds to the features before it in order r,
and every average here (per point over orders, per dataset over points) is
one column reduction of such a matrix: column_means and column_stderrs.
What depends on the orders alone, the distinct coalitions they pass through
and where each entry's two coalitions sit among them, is a CoalitionChains,
built once per order set: an exact global run enumerates and dedupes its
orders once and every point reuses the result, so a point only evaluates its
own value function on those coalitions and takes differences.
Global attributions average local ones over (x, y) pairs from a dataset,
which ties their sum to an accuracy decomposition: the attribution mass
equals the model's sampled-label accuracy minus the accuracy left when every
feature is marginalized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coalitions import (
    DEFAULT_ENUMERATION_CAP,
    OrderingSpec,
    enumerate_consistent,
    sample_consistent_batch,
)
from .data import Dataset
from .errors import ValidationError
from .values import MAX_MASK_FEATURES, BackgroundSet, CachedValueFunction, ConditionalSampler, as_mask


@dataclass
class TableValueFunction:
    """v(S) read straight from a table of 2^n values; the exact-oracle workhorse."""

    table: np.ndarray
    n: int

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64).reshape(-1)
        if self.table.shape[0] != (1 << self.n):
            raise ValidationError(
                f"table has {self.table.shape[0]} entries, expected {1 << self.n}"
            )

    def value(self, S) -> float:
        return float(self.table[as_mask(S, self.n)])


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

    @property
    def n(self) -> int:
        return self.means.shape[0]

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
    """The coalitions a set of orders passes through, and where each step starts and ends.

    P is an int matrix of shape (count, n), one order per row, first feature
    first. masks holds the distinct nonempty coalitions that follow some
    position of some order, ascending. Index 0 stands for the empty coalition
    and index k + 1 for masks[k], so after[i, r] and before[i, r] locate the
    coalition of order r with and without feature i among v({}) and v(masks):
    every coalition before a feature is {} or the coalition after the feature
    preceding it. P itself is not kept.

    Nothing here depends on a point, so one instance serves every point of a
    run; its arrays are read-only for that reason.
    """

    def __init__(self, P):
        P = np.asarray(P, dtype=np.int64)
        R, n = P.shape
        if n > MAX_MASK_FEATURES:
            raise ValidationError(f"coalition masks support up to {MAX_MASK_FEATURES} features, got {n}")
        after_masks = np.cumsum(np.int64(1) << P, axis=1)
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
        for a in (masks, after, before):
            a.flags.writeable = False
        self.masks = masks
        self.after = after
        self.before = before
        self.count = R
        self.n = n


def marginal_contributions(v, chains: CoalitionChains) -> np.ndarray:
    """Matrix D of v(pre ∪ {i}) - v(pre) terms, one row per order, one column per feature.

    chains holds the orders' coalitions, deduped once for the whole order set;
    a run shares one instance across its points. D[r, i] is the marginal
    contribution of feature i within order r, pre being the features before i
    in that order. Each row telescopes to v(N) - v({}) up to one rounding per
    term. v is evaluated on {} and then on each of chains.masks in ascending
    order, once each, regardless of how many orders touch them.
    """
    vals = np.array([v.value(0)] + [v.value(mk) for mk in chains.masks.tolist()])
    D = vals[chains.after]
    D -= vals[chains.before]
    return D.T


def column_means(A: np.ndarray) -> np.ndarray:
    """Mean of each column of A, math.fsum over its rows divided by their count."""
    R = A.shape[0]
    return np.array([math.fsum(col.tolist()) / R for col in A.T])


def column_stderrs(A: np.ndarray) -> np.ndarray:
    """Standard error of each column mean of A: np.std(ddof=1) / sqrt(rows), for 2 or more rows.

    The standard deviation runs along the rows of the contiguous transpose, so
    each column gets numpy's pairwise sum, as np.std of that column alone would.
    """
    return np.std(np.ascontiguousarray(A.T), axis=1, ddof=1) / math.sqrt(A.shape[0])


def exact_asv(v, spec: OrderingSpec, chains: CoalitionChains | None = None) -> AttributionResult:
    """Attribution averaged over every permutation consistent with spec.

    With an empty spec this is the plain Shapley value in permutation form.
    chains are the CoalitionChains of spec's consistent orders: a caller
    explaining many points under one spec enumerates once and passes them to
    each, so no point repeats the work. Without them the orders are enumerated
    here, under DEFAULT_ENUMERATION_CAP.
    """
    spec = _as_spec(spec)
    n = spec.n
    if chains is None:
        chains = CoalitionChains(enumerate_consistent(spec))
    if chains.n != n:
        raise ValidationError(f"chains cover {chains.n} features, ordering has {n}")
    return AttributionResult(
        means=column_means(marginal_contributions(v, chains)),
        stderrs=np.zeros(n),
        n_samples=chains.count,
        baseline=v.value(0),
        total=v.value((1 << n) - 1),
        metadata={"estimator": "exact", "ordering": spec.to_json_dict()},
    )


def exact_shapley_subset_form(v) -> AttributionResult:
    """Shapley values by the coalition-weighted subset formula.

    phi(i) = sum over S not containing i of |S|!(n-|S|-1)!/n! [v(S+i) - v(S)].
    Independent of the permutation form; used to cross-check it.
    """
    n = v.n
    if n > MAX_MASK_FEATURES:
        raise ValidationError(f"subset form supports up to {MAX_MASK_FEATURES} features, got {n}")
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    terms: list[list[float]] = [[] for _ in range(n)]
    table = [v.value(mask) for mask in range(1 << n)]
    for mask in range(1 << n):
        s = bin(mask).count("1")
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                terms[i].append(weight[s] * (table[mask | bit] - table[mask]))
    means = np.array([math.fsum(t) for t in terms])
    return AttributionResult(
        means=means,
        stderrs=np.zeros(n),
        n_samples=1 << n,
        baseline=table[0],
        total=table[(1 << n) - 1],
        metadata={"estimator": "subset-form"},
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


def point_asv(
    vf: CachedValueFunction,
    ordering,
    estimator: str = "exact",
    n_perms: int = 200,
    chains: CoalitionChains | None = None,
) -> AttributionResult:
    """Local attribution of the point vf explains, exact or Monte Carlo.

    The exact estimator reduces chains, the CoalitionChains of the ordering's
    consistent orders that a run builds once for all its points; without them
    it enumerates the orders under the default cap. The Monte Carlo draws come
    from a stream keyed by (vf.seed, vf.point_index), so a point gets the same
    result alone as inside a global run.
    """
    if estimator == "exact":
        return exact_asv(vf, ordering, chains)
    rng = np.random.default_rng(np.random.SeedSequence([vf.seed, 0x9E12, vf.point_index]))
    return mc_asv(vf, ordering, n_perms, rng)


@dataclass
class GlobalAttribution:
    """Dataset-averaged attribution plus the accuracy terms its sum decomposes into.

    accuracy_full is E[f_y(x)] (sampled-label accuracy of the model);
    accuracy_empty is what remains with every feature marginalized away.
    By the sum rule, sum(means) ~ accuracy_full - accuracy_empty. locals holds
    the per-point attributions, one row per point, that means averages.
    """

    means: np.ndarray
    stderrs: np.ndarray
    n_points: int
    accuracy_full: float
    accuracy_empty: float
    locals: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.means.shape[0]

    def sum(self) -> float:
        return math.fsum(map(float, self.means))

    def sum_rule_gap(self) -> float:
        return self.sum() - (self.accuracy_full - self.accuracy_empty)

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
    if budget is not None and budget < 1:
        raise ValidationError(f"point budget must be positive, got {budget}")
    B = n_rows if budget is None else min(budget, n_rows)
    if B < 2:
        raise ValidationError(
            f"a dataset average needs at least 2 points for its across-point stderr, got {B}"
        )
    if B == n_rows:
        return np.arange(n_rows)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0D6E7]))
    return np.sort(rng.choice(n_rows, size=B, replace=False))


def global_asv(
    pred,
    dataset: Dataset,
    ordering,
    completion: BackgroundSet | ConditionalSampler,
    *,
    m: int = 100,
    estimator: str = "exact",
    n_perms: int = 200,
    budget: int | None = None,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> GlobalAttribution:
    """Average local attributions over (x, y) rows, y taken as the true label.

    completion fills the features outside each coalition, as in
    CachedValueFunction: a BackgroundSet off-manifold, a sampler on-manifold.
    budget caps how many rows participate (sampled without replacement,
    default all); the stderrs are the spread across them, so at least 2 must.
    Each row gets its own frozen value-function cache and its own derived
    random stream, so a row's result does not depend on the other rows. The
    exact estimator enumerates the consistent orders once and every row
    reduces the same read-only CoalitionChains.
    """
    spec = _as_spec(ordering)
    if spec.n != dataset.n:
        raise ValidationError(f"ordering covers {spec.n} features, dataset has {dataset.n}")
    if estimator not in ("exact", "mc"):
        raise ValidationError(f"estimator must be 'exact' or 'mc', got {estimator!r}")
    idx = _point_budget(dataset.n_rows, budget, seed)
    B = idx.shape[0]
    chains = CoalitionChains(enumerate_consistent(spec, cap=cap)) if estimator == "exact" else None
    n = dataset.n
    L = np.empty((B, n))
    ends = np.empty((B, 2))  # v(N) and v({}) per point
    value_evaluations = prediction_rows = 0
    for j, row in enumerate(idx.tolist()):
        vf = CachedValueFunction(pred, dataset.X[row], int(dataset.y[row]), completion,
                                 m=m, seed=seed, point_index=row)
        res = point_asv(vf, spec, estimator, n_perms, chains)
        L[j] = res.means
        ends[j] = (res.total, res.baseline)
        value_evaluations += vf.evaluations
        prediction_rows += vf.prediction_rows
    accuracy_full, accuracy_empty = column_means(ends).tolist()
    return GlobalAttribution(
        means=column_means(L),
        # Across-point spread of noisy local estimates; absorbs their MC error.
        stderrs=column_stderrs(L),
        n_points=B,
        accuracy_full=accuracy_full,
        accuracy_empty=accuracy_empty,
        locals=L,
        metadata={
            "estimator": estimator,
            "ordering": spec.to_json_dict(),
            "seed": seed,
            "m": m,
            "n_perms": n_perms if estimator == "mc" else None,
            "value_evaluations": value_evaluations,
            "prediction_rows": prediction_rows,
        },
    )


def coalition_accuracy(
    pred,
    dataset: Dataset,
    U,
    completion: BackgroundSet | ConditionalSampler,
    *,
    m: int = 100,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Sampled-label accuracy attainable from the features in U alone:
    the average of v_{f_y(x)}(U) over at least 2 dataset points. Returns
    (mean, stderr across the points)."""
    mask = as_mask(U, dataset.n)
    vals = [
        CachedValueFunction(
            pred, dataset.X[row], int(dataset.y[row]), completion, m=m, seed=seed, point_index=row
        ).value(mask)
        for row in _point_budget(dataset.n_rows, budget, seed).tolist()
    ]
    col = np.array(vals)[:, None]
    return float(column_means(col)[0]), float(column_stderrs(col)[0])


def partition_sum_check(
    glob: GlobalAttribution,
    partition,
    accuracy_fn,
) -> dict:
    """Check the group-sum identities tying attribution mass to accuracy gains.

    partition must be the ordered groups the global run's ordering was built
    from. accuracy_fn(coalition mask) -> (mean, stderr) evaluates the
    features-only accuracy. For each group, the sum of its attributions is
    compared to the accuracy gained when that group joins the features before
    it; cumulative sums are compared against accuracy above the empty set.
    """
    groups = [tuple(sorted(g)) for g in partition]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(glob.n)):
        raise ValidationError(f"partition {groups} does not cover features 0..{glob.n - 1}")
    echo = glob.metadata.get("ordering") or {}
    declared = echo.get("groups")
    if declared is not None and [list(g) for g in groups] != [sorted(g) for g in declared]:
        raise ValidationError(
            f"partition {groups} does not match the ordering the attribution was run with: {declared}"
        )
    acc_empty, se_empty = accuracy_fn(0)
    rows = []
    prefix_mask = 0
    prev_acc, prev_se = acc_empty, se_empty
    for g in groups:
        gmask = sum(1 << i for i in g)
        prefix_mask |= gmask
        acc, se = accuracy_fn(prefix_mask)
        phi_sum = math.fsum(float(glob.means[i]) for i in g)
        phi_se = math.sqrt(math.fsum(float(glob.stderrs[i]) ** 2 for i in g))
        gain = acc - prev_acc
        gain_se = math.sqrt(se**2 + prev_se**2)
        cum_phi = math.fsum(float(glob.means[i]) for i in range(glob.n) if prefix_mask >> i & 1)
        cum_se = math.sqrt(
            math.fsum(float(glob.stderrs[i]) ** 2 for i in range(glob.n) if prefix_mask >> i & 1)
        )
        cum_gain = acc - acc_empty
        cum_gain_se = math.sqrt(se**2 + se_empty**2)
        rows.append(
            {
                "group": list(g),
                "phi_sum": phi_sum,
                "phi_stderr": phi_se,
                "accuracy_gain": gain,
                "accuracy_gain_stderr": gain_se,
                "gap": phi_sum - gain,
                "combined_stderr": math.sqrt(phi_se**2 + gain_se**2),
                "cumulative_phi": cum_phi,
                "cumulative_gain": cum_gain,
                "cumulative_gap": cum_phi - cum_gain,
                "cumulative_combined_stderr": math.sqrt(cum_se**2 + cum_gain_se**2),
            }
        )
        prev_acc, prev_se = acc, se
    gaps = [
        abs(r["gap"]) / r["combined_stderr"] if r["combined_stderr"] > 0 else 0.0
        for r in rows
    ]
    return {
        "accuracy_empty": acc_empty,
        "groups": rows,
        "max_gap_in_stderr": max(gaps) if gaps else 0.0,
    }
