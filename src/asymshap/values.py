"""Coalition value functions: what a prediction is worth when only some features are known.

CachedValueFunction is the game v(S) = E[f_y(x_S, x'_{S-bar})] for one point
x and class y, memoized per coalition. The out-of-coalition slots x' come from
its completion, one of two marginalizations. A BackgroundSet is off-manifold:
it splices unconditional background draws. A ConditionalSampler is
on-manifold: it draws from p(x' | x_S) by exact match, k-NN, or a generative
process with closed-form conditionals.

Per-instance draws are frozen: the off-manifold background subsample is drawn
once and shared by every coalition, and on-manifold per-coalition draws are
keyed by (seed, point index, coalition mask). That makes nullity and
efficiency hold exactly as float identities, not just in expectation.

v(S) is one float, the mean of f_y over the completions. Its uncertainty lives
in the estimators, as the spread of their averages across orders or points.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .data import Dataset
from .errors import EstimatorError, SchemaError, ValidationError

logger = logging.getLogger(__name__)

DEFAULT_KNN_K = 10
MAX_MASK_FEATURES = 62  # coalition masks live in int64


@runtime_checkable
class Predictor(Protocol):
    n_features: int
    n_classes: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Rows of class probabilities, shape (len(X), n_classes)."""
        ...


def as_mask(S, n: int) -> int:
    """Accept an int bitmask or an iterable of feature indices (duplicates allowed)."""
    if isinstance(S, (int, np.integer)):
        mask = int(S)
        if not 0 <= mask < (1 << n):
            raise ValidationError(f"mask {mask} outside [0, 2^{n})")
        return mask
    members = {operator.index(i) for i in S}
    if not all(0 <= i < n for i in members):
        raise ValidationError(f"coalition members {sorted(members)} outside [0, {n})")
    return sum(1 << i for i in members)


@dataclass
class BackgroundSet:
    """Rows standing in for p(x')."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValidationError(f"background needs a nonempty 2-d row array, got shape {self.rows.shape}")

    def __len__(self) -> int:
        return self.rows.shape[0]


def _mean(col: np.ndarray) -> float:
    """math.fsum(col) / len(col), or col[0] when every value == it (so 0.0 and
    -0.0 are equal), which returns coalitions whose completions all agree
    (the full set, ignored features, constant models) bit for bit."""
    lst = col.tolist()
    if lst.count(lst[0]) == len(lst):
        return lst[0]
    return math.fsum(lst) / len(lst)


def _stream(*keys: int) -> np.random.Generator:
    """np.random.default_rng(np.random.SeedSequence(list(keys))) for keys >= 0,
    seeded with the same little-endian 32-bit words (one 0 word for a 0)
    without numpy's per-call list coercion."""
    words = []
    for key in keys:
        words.append(key & 0xFFFFFFFF)
        while key := key >> 32:
            words.append(key & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


class ConditionalSampler(Protocol):
    def complete(
        self, x: np.ndarray, s_idx: np.ndarray, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, bool]:
        """m rows agreeing with x on s_idx, plus whether they exhaust the
        conditional population (every match used once)."""
        ...


def _discrete_mutual_information(codes: np.ndarray, labels: np.ndarray) -> float:
    """Empirical mutual information between two integer-coded columns, in nats."""
    a = codes.astype(np.int64)
    b = labels.astype(np.int64)
    ka, kb = a.max() + 1, b.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (a, b), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log(joint[nz] / (pa @ pb)[nz])))


def _matching_rows(X: np.ndarray, x: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Ascending indices of the rows of X equal to x on every feature in idx
    (every row when idx is empty), read-only."""
    keep = np.ones(X.shape[0], dtype=bool)
    for i in idx:
        keep &= X[:, i] == x[i]
    rows = np.flatnonzero(keep)
    rows.flags.writeable = False
    return rows


def _nearest_on_line(vals: np.ndarray, rows: np.ndarray, xv: float, scale: float, k: int) -> np.ndarray:
    """The k rows nearest xv on one feature, ordered by (distance, row).

    vals are the rows' finite values on that feature, sorted by (value, row);
    xv is finite and 0 < scale < inf. The distance is ((v - xv) * scale)**2,
    the arithmetic of the full ranking, and it never decreases moving away
    from xv on either side, so the k nearest lie within k places of xv's
    insertion point. Rows beyond that window can only tie the k-th distance;
    bisection finds those runs, and a (distance, row) sort of the window
    picks the k that a stable argsort over the whole pool in row order would.
    """
    n = vals.size
    p = int(np.searchsorted(vals, xv))
    lo, hi = max(p - k, 0), min(p + k, n)
    diffs = (vals[lo:hi] - xv) * scale
    d = diffs * diffs
    window = rows[lo:hi]
    order = np.lexsort((window, d))
    if d.size >= k:
        kth = float(d[order[k - 1]])

        def tied(j: int) -> bool:
            diff = (float(vals[j]) - xv) * scale
            return diff * diff == kth

        # Rows outside the window are no nearer than the k-th, so the rows
        # tying it beyond each edge form one run: bisect for its far end.
        start, stop = lo, hi
        if lo > 0 and tied(lo - 1):
            start = bisect.bisect_left(range(lo), True, key=tied)
        if hi < n and tied(hi):
            stop = hi + bisect.bisect_left(range(hi, n), True, key=lambda j: not tied(j))
        if (start, stop) != (lo, hi):
            diffs = (vals[start:stop] - xv) * scale
            d = diffs * diffs
            window = rows[start:stop]
            order = np.lexsort((window, d))
    return window[order[:k]]


class KNNSampler:
    """Conditional completions from the k nearest dataset rows.

    Discrete conditioning features must match exactly; continuous ones rank
    candidates by standardized Euclidean distance, and the k closest form the
    neighborhood. Ties at equal distance go to the earlier dataset row: the
    order of a stable argsort. With no continuous conditioning there is no
    ranking, so the whole candidate set is the neighborhood. Zero exact
    matches on the discrete side are handled by relaxing discrete features
    one at a time, least label-informative first; the warning for each
    relaxation is logged once, when its pool is built.

    Candidate pools are cached on the sampler and live as long as it does.
    The rows matching each (discrete conditioning features, x values on
    them) are found once, in one table keyed by both; a relaxed key maps to
    the pool it relaxed to, shared, not copied. With exactly one continuous
    conditioning feature a pool is also kept sorted by that feature, so the
    k nearest are found by bisection instead of a scan. The dataset must not
    be mutated after the sampler is built. Memory is at most one index array
    of N rows per discrete coalition (the pools of one coalition partition
    the rows), plus, per discrete coalition and continuous feature queried
    alone, a sorted copy of N values and N row indices. Pools are read-only,
    because every point of a run shares them.
    """

    def __init__(self, dataset: Dataset, k: int = DEFAULT_KNN_K):
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        self.dataset = dataset
        self.k = k
        self.schema = dataset.schema
        self._discrete = set(self.schema.discrete_indices().tolist())
        sd = dataset.X.std(axis=0)
        safe = np.where(sd > 0, sd, 1.0)
        self._inv_scale = np.where(sd > 0, 1.0 / safe, 0.0)
        # Relaxation order: ascending mutual information with the label.
        mi = {
            i: _discrete_mutual_information(dataset.X[:, i], dataset.y)
            for i in sorted(self._discrete)
        }
        self._relax_order = sorted(mi, key=lambda i: (mi[i], i))
        # (discrete features, their x bytes) -> (key of the pool used, its rows)
        self._pools: dict[tuple, tuple[tuple, np.ndarray]] = {}
        # (pool key, continuous feature) -> (sorted values, rows)
        self._lines: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _pool(self, disc: tuple[int, ...], x: np.ndarray) -> tuple[tuple, np.ndarray]:
        """Rows matching x on disc, relaxing features until some row does,
        with the key of the pool they came from."""
        key = (disc, x[list(disc)].tobytes())
        entry = self._pools.get(key)
        if entry is None:
            rows = _matching_rows(self.dataset.X, x, disc)
            if rows.size:
                entry = (key, rows)
            else:
                drop = next(i for i in self._relax_order if i in disc)
                logger.warning(
                    "no rows match the discrete conditioning set; relaxing feature %r",
                    self.schema.features[drop].name,
                )
                entry = self._pool(tuple(i for i in disc if i != drop), x)
            self._pools[key] = entry
        return entry

    def _line(self, key: tuple, rows: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
        """The pool's values on feature c and its rows, sorted by (value, row)."""
        line_key = (key, c)
        if line_key not in self._lines:
            vals = self.dataset.X[rows, c]
            order = np.argsort(vals, kind="stable")  # rows ascend, so ties stay in row order
            line = (vals[order], rows[order])
            for a in line:
                a.flags.writeable = False
            self._lines[line_key] = line
        return self._lines[line_key]

    def complete(self, x, s_idx, m, rng):
        idx = np.asarray(s_idx).tolist()
        disc = tuple(i for i in idx if i in self._discrete)
        cont = [i for i in idx if i not in self._discrete]
        key, cand = self._pool(disc, x)
        if not cont:
            pool = cand
        elif len(cont) == 1 and 0.0 < self._inv_scale[cont[0]] < math.inf and math.isfinite(x[cont[0]]):
            c = cont[0]
            vals, rows = self._line(key, cand, c)
            pool = _nearest_on_line(vals, rows, float(x[c]), float(self._inv_scale[c]), self.k)
        else:
            diffs = (self.dataset.X[:, cont][cand] - x[cont]) * self._inv_scale[cont]
            d = np.einsum("ij,ij->i", diffs, diffs)
            pool = cand[np.argsort(d, kind="stable")[: self.k]]
        sel = pool[rng.integers(0, pool.size, size=m)]
        out = self.dataset.X[sel]
        out[:, s_idx] = x[s_idx]
        return out, False


class ExactMatchSampler(KNNSampler):
    """Conditional completions from rows matching x exactly on the coalition.

    Valid for all-discrete conditioning sets; conditioning on a continuous
    feature (where exact matching is degenerate) or hitting zero matches
    falls back to the k-NN completion. When the match population fits within
    m, every match is used once and the conditional mean is exact.

    The matches of an all-discrete coalition are the k-NN sampler's pool for
    it, read from the same table: an unrelaxed pool is the exact matches, and
    a relaxed one means there were none. So the sampler keeps nothing beyond
    what KNNSampler keeps, and the zero-match warning is logged once, when
    that pool is built.
    """

    def complete(self, x, s_idx, m, rng):
        idx = tuple(np.asarray(s_idx).tolist())
        if any(i not in self._discrete for i in idx):
            logger.debug("continuous feature in conditioning set; using k-NN completion")
            return super().complete(x, s_idx, m, rng)
        key = (idx, x[list(idx)].tobytes())
        built = key in self._pools
        used, cand = self._pool(idx, x)
        if used != key:
            if not built:
                logger.warning(
                    "exact-match conditioning found no rows for features %s; falling back to k-NN",
                    [self.schema.features[i].name for i in idx],
                )
            return super().complete(x, s_idx, m, rng)
        exhaustive = cand.size <= m
        sel = cand if exhaustive else cand[rng.integers(0, cand.size, size=m)]
        out = self.dataset.X[sel]
        out[:, s_idx] = x[s_idx]
        return out, exhaustive


@runtime_checkable
class GenerativeProcessLike(Protocol):
    def conditional_samples(
        self, x: np.ndarray, s_idx: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        ...


class GenerativeSampler:
    """Closed-form conditionals supplied by a synthetic generative process."""

    def __init__(self, process: GenerativeProcessLike):
        if not isinstance(process, GenerativeProcessLike):
            raise ValidationError("generative strategy needs a process with conditional_samples")
        self.process = process

    def complete(self, x, s_idx, m, rng):
        rows = np.array(self.process.conditional_samples(x, s_idx, m, rng), dtype=np.float64)
        if rows.shape != (m, x.shape[-1]):
            raise EstimatorError(f"process returned shape {rows.shape}, expected ({m}, {x.shape[-1]})")
        rows[:, s_idx] = x[s_idx]
        return rows, False


def _check_point(x: np.ndarray, y: int, pred: Predictor) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != pred.n_features:
        raise SchemaError(f"point has {x.shape[0]} features, predictor expects {pred.n_features}")
    if not np.isfinite(x).all():
        raise SchemaError(f"point has non-finite feature values: {x.tolist()}")
    if not 0 <= y < pred.n_classes:
        raise ValidationError(f"class index {y} outside [0, {pred.n_classes})")
    return x


class CachedValueFunction:
    """Memoized v(S) for one (predictor, point, class) context.

    completion fills the slots outside S. A BackgroundSet (off-manifold)
    splices them from m background draws, frozen once per point from
    (seed, point_index) and shared by every coalition; an unweighted
    background no larger than m is used whole, once per row. A sampler, any
    object with a complete method (on-manifold), draws them from p(x' | x_S),
    m conditional completions per coalition on a stream keyed by (seed,
    point_index, mask); the full coalition is the prediction at x. seed and
    point_index must be nonnegative. v(S) is the mean of f_y over the
    completions.

    Each distinct coalition calls the predictor once. evaluations counts the
    distinct coalitions evaluated and prediction_rows the predictor rows; a
    repeated coalition is read from the cache and changes neither.
    """

    def __init__(
        self,
        pred: Predictor,
        x,
        y: int,
        completion: BackgroundSet | ConditionalSampler,
        *,
        m: int = 100,
        seed: int = 0,
        point_index: int = 0,
    ):
        off_manifold = isinstance(completion, BackgroundSet)
        if not (off_manifold or callable(getattr(completion, "complete", None))):
            raise ValidationError(
                "completion must be a BackgroundSet (off-manifold) or a sampler with a complete "
                f"method (on-manifold), got {type(completion).__name__}"
            )
        self.pred = pred
        self.x = _check_point(x, y, pred)
        self.y = int(y)
        self.n = pred.n_features
        if self.n > MAX_MASK_FEATURES:
            raise ValidationError(f"coalition masks support up to {MAX_MASK_FEATURES} features, got {self.n}")
        self._bit = np.int64(1) << np.arange(self.n, dtype=np.int64)
        if m < 1:
            raise ValidationError(f"sample count must be positive, got {m}")
        self.sampler = None if off_manifold else completion
        self.m = m
        self.seed = int(seed)
        self.point_index = int(point_index)
        if min(self.seed, self.point_index) < 0:
            raise ValidationError(
                f"seed and point_index must be nonnegative, got {self.seed}, {self.point_index}"
            )
        if off_manifold:
            rows = completion.rows
            if rows.shape[1] != self.n:
                raise SchemaError(f"background rows have {rows.shape[1]} features, expected {self.n}")
            if m >= len(rows):
                self._draws = rows
            else:
                sel = _stream(self.seed, self.point_index).choice(len(rows), size=m, replace=True)
                self._draws = rows[sel]
        self._cache: dict[int, float] = {}
        self.evaluations = 0
        self.prediction_rows = 0

    def value(self, S) -> float:
        """Mean of f_y over the completions of x_S."""
        mask = as_mask(S, self.n)
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        self.evaluations += 1
        bits = (mask & self._bit) != 0
        if self.sampler is None:
            rows = np.where(bits, self.x, self._draws)
        elif bits.all():
            rows = self.x[None, :]
        else:
            rng = _stream(self.seed, self.point_index, mask)
            rows = self.sampler.complete(self.x, np.flatnonzero(bits), self.m, rng)[0]
        self.prediction_rows += rows.shape[0]
        out = _mean(self.pred.predict(rows)[:, self.y])
        self._cache[mask] = out
        return out
