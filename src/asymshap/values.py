"""Coalition value functions: what a prediction is worth when only some features are known.

CachedValueFunction is the game v(S) = E[f_y(x_S, x'_{S-bar})] for one point
x and class y, memoized per coalition. A coalition S is an int bitmask with
bit i set for feature i. The out-of-coalition slots x' come from its
completion, one of two marginalizations. A BackgroundSet is off-manifold: it
holds unconditional background draws. A ConditionalSampler is on-manifold:
given x and the coalition's int mask, it returns rows from p(x' | x_S) and their
weights: draws by exact match, k-NN or a generative process, or a finite process's
exact support. Either way the value function writes x_S over the rows, in one place.

Per-instance draws are frozen: the off-manifold background subsample is drawn
once and shared by every coalition, and on-manifold per-coalition draws are
keyed by (seed, point index, coalition mask). That makes nullity and
efficiency hold exactly as float identities, not just in expectation.

v(S) is one float, the weighted mean of f_y over the completions. Its uncertainty
lives in the estimators, as the spread of their averages across orders or points.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import Dataset, _is_int, _positive
from .errors import EstimatorError, SchemaError, ValidationError

logger = logging.getLogger(__name__)

DEFAULT_KNN_K = 10
MAX_MASK_FEATURES = 62  # coalition masks live in int64
# About the rows of one predictor call: marginal_contributions asks a value call for at most
# max(1, PREDICT_ROWS // m) coalitions. On explain_mc_markov12 (T = 12, m = 64, a 12-wide design)
# run in-process on a 2-vCPU VM, a point took 15.2-15.7 / 14.5 / 13.6-13.9 / 14.1 / 18.2 ms at
# 1,024 / 1,536 / 2,048 / 3,072 / 4,096 rows: larger calls fall out of cache.
PREDICT_ROWS = 2048
# Seeds and point indices lie below this, so each fills one word of a stream key.
STREAM_KEY_LIMIT = 1 << 32


def _stream_key(key, what: str) -> int:
    """key, a seed or point index, as an int: a Python or numpy integer, not a bool,
    in [0, STREAM_KEY_LIMIT). Anything else raises ValidationError naming what."""
    if not _is_int(key):
        raise ValidationError(f"{what} must be an integer, got {key!r}")
    if not 0 <= key < STREAM_KEY_LIMIT:
        raise ValidationError(f"{what} must be nonnegative and below 2^32, got {key}")
    return int(key)


class Predictor(Protocol):
    n_features: int
    n_classes: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Rows of class probabilities, shape (len(X), n_classes)."""
        ...


def _checked_mask(mask, n: int) -> int:
    """mask as a Python int, which must lie in [0, 2^n)."""
    mask = operator.index(mask)
    if not 0 <= mask < (1 << n):
        raise ValidationError(f"mask {mask} outside [0, 2^{n})")
    return mask


@dataclass
class BackgroundSet:
    """Rows standing in for p(x')."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValidationError(f"background needs a nonempty 2-d row array, got shape {self.rows.shape}")


def _mean(lst: list[float], weights: np.ndarray | None = None) -> float:
    """math.fsum(lst) / len(lst), or the fsum of weights * lst for a probability vector weights;
    lst[0] when every value == it (so 0.0 and -0.0 are equal), which returns coalitions whose
    completions all agree (the full set, ignored features, constant models) bit for bit. lst is
    a list of floats, a slice of one predictor call's tolist(); the count scan runs only when the
    last entry is or == the first, which every column the scan would accept passes."""
    first = lst[0]
    if (lst[-1] is first or lst[-1] == first) and lst.count(first) == len(lst):
        return first
    return math.fsum(lst) / len(lst) if weights is None else math.fsum(map(operator.mul, weights.tolist(), lst))


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
        self, x: np.ndarray, mask: int, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Full rows for p(x' | x_S), S the int mask with bit i set for feature i, and their weights:
        None if they count alike (m draws, or every exact match once), else a probability vector
        over a finite support of any size. The value function writes x_S over the columns in S."""
        ...


def _members(mask: int) -> list[int]:
    """The features in coalition mask, ascending."""
    return [i for i in range(operator.index(mask).bit_length()) if mask >> i & 1]


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


def _matching_rows(X: np.ndarray, x: np.ndarray, idx: list[int]) -> np.ndarray:
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
    relaxation is logged once, when its pool is built. complete returns the
    chosen rows whole; the value function writes x_S over them.

    Candidate pools are cached on the sampler and live as long as it does.
    The rows matching each (discrete conditioning mask, x values on it) are
    found once, in one table keyed by both; a relaxed key maps to
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
        _positive(k, "k")
        self.dataset = dataset
        self.k = k
        self.schema = dataset.schema
        discrete = self.schema.discrete_indices().tolist()
        self._disc_mask = sum(1 << i for i in discrete)
        sd = dataset.X.std(axis=0)
        safe = np.where(sd > 0, sd, 1.0)
        self._inv_scale = np.where(sd > 0, 1.0 / safe, 0.0)
        # Relaxation order: ascending mutual information with the label.
        mi = {i: _discrete_mutual_information(dataset.X[:, i], dataset.y) for i in discrete}
        self._relax_order = sorted(mi, key=lambda i: (mi[i], i))
        # (discrete features' mask, their x bytes) -> (key of the pool used, its rows)
        self._pools: dict[tuple, tuple[tuple, np.ndarray]] = {}
        # (pool key, continuous feature) -> (sorted values, rows)
        self._lines: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _pool(self, disc: int, x: np.ndarray) -> tuple[tuple, np.ndarray]:
        """Rows matching x on the features in mask disc, relaxing features
        until some row does, with the key of the pool they came from: the one
        place, for both samplers, that decides no row matches. Each relaxation
        logs one warning, naming the features, when its pool is built."""
        idx = _members(disc)
        key = (disc, x[idx].tobytes())
        entry = self._pools.get(key)
        if entry is None:
            rows = _matching_rows(self.dataset.X, x, idx)
            if rows.size:
                entry = (key, rows)
            else:
                drop = next(i for i in self._relax_order if disc >> i & 1)
                logger.warning(
                    "no rows match the discrete conditioning set %s; relaxing feature %r",
                    [self.schema.features[i].name for i in idx], self.schema.features[drop].name,
                )
                entry = self._pool(disc & ~(1 << drop), x)
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

    def complete(self, x, mask, m, rng):
        cont = _members(mask & ~self._disc_mask)
        key, cand = self._pool(mask & self._disc_mask, x)
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
        return self.dataset.X[pool[rng.integers(0, pool.size, size=m)]], None


class ExactMatchSampler(KNNSampler):
    """Conditional completions from rows matching x exactly on the coalition.

    Valid for all-discrete conditioning sets; conditioning on a continuous
    feature, where exact matching is degenerate, is the k-NN completion. The
    matches of an all-discrete coalition are the k-NN sampler's pool for it,
    read from the same table, so the sampler keeps nothing of its own. A
    relaxed pool, which _pool warned of, means there were none, and goes to
    the k-NN completion. Otherwise, when the matches fit within m, every match
    is used once and the conditional mean is exact; else m are drawn.
    """

    def complete(self, x, mask, m, rng):
        if mask & ~self._disc_mask:
            return super().complete(x, mask, m, rng)
        (used, _), cand = self._pool(mask, x)
        if used != mask:
            return super().complete(x, mask, m, rng)
        sel = cand if cand.size <= m else cand[rng.integers(0, cand.size, size=m)]
        return self.dataset.X[sel], None


class GenerativeSampler:
    """m draws from a process's closed-form conditional_samples(x, mask, m, rng), the Markov series'
    Gaussian block: m full rows from p(x | x_S), over which the value function writes x_S."""

    def __init__(self, process):
        if not callable(getattr(process, "conditional_samples", None)):
            raise ValidationError("generative strategy needs a process with conditional_samples")
        self.process = process

    def complete(self, x, mask, m, rng):
        rows = np.asarray(self.process.conditional_samples(x, mask, m, rng), dtype=np.float64)
        if rows.shape != (m, x.shape[-1]):
            raise EstimatorError(f"process returned shape {rows.shape}, expected ({m}, {x.shape[-1]})")
        return rows, None


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
    """Memoized v(S) for one (predictor, point, class) context, S an int bitmask.

    completion fills the slots outside S. A BackgroundSet (off-manifold)
    gives m background draws, frozen once per point from (seed, point_index)
    and shared by every coalition; a background no larger than m
    is used whole, once per row. A sampler, any object with a complete method
    (on-manifold), returns rows from p(x' | x_S) and their weights per
    coalition, given x and the mask, on a stream keyed by (seed, point_index,
    mask); the full coalition is the prediction at x. Either way value writes
    x_S over the rows, here and nowhere else, and v(S) is the weighted mean of
    f_y over them. seed and point_index must be integers in [0, STREAM_KEY_LIMIT), not bools.

    value takes one or more masks and calls the predictor once for all of
    those not yet cached. counts holds the work: evaluations (predictor calls),
    coalitions_evaluated and prediction_rows, which a repeated coalition, read
    from the cache, does not change. marginal_contributions passes a point's
    coalitions in chunks of at most max(1, PREDICT_ROWS // m), and v(N) alone.
    Off-manifold, a chunk's rows come from one 2-d np.where: its masks' bits,
    tiled once per draw, pick between x tiled and the draws flattened. The
    predictor's class column is turned into one list per call, and each v(S)
    is _mean over its slice of that list.
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
        _positive(m, "sample count")
        self.sampler = None if off_manifold else completion
        self.m = m
        self.seed, self.point_index = _stream_key(seed, "seed"), _stream_key(point_index, "point_index")
        if off_manifold:
            rows = completion.rows
            if rows.shape[1] != self.n:
                raise SchemaError(f"background rows have {rows.shape[1]} features, expected {self.n}")
            if m >= len(rows):
                self._draws = rows
            else:
                sel = _stream(self.seed, self.point_index).choice(len(rows), size=m, replace=True)
                self._draws = rows[sel]
            # A mask's k completion rows, flattened, are x tiled k times where its bits are set and
            # the k draws flattened elsewhere, k = self._draws.shape[0].
            self._x_tiled = np.tile(self.x, self._draws.shape[0])
            self._draws_flat = self._draws.ravel()
        self._cache: dict[int, float] = {}
        self.evaluations = 0
        self.prediction_rows = 0

    @property
    def coalitions_evaluated(self) -> int:
        """The distinct coalitions evaluated: one cache entry each."""
        return len(self._cache)

    @property
    def counts(self) -> dict[str, int]:
        """The work counts a run reports, by their names in its output."""
        return {"value_evaluations": self.evaluations, "coalitions_evaluated": self.coalitions_evaluated,
                "prediction_rows": self.prediction_rows}

    def value(self, mask: int, *more: int) -> float | list[float]:
        """Weighted mean of f_y over the completions of x_S, S an int with bit i
        set for feature i: a float for one mask, a list of floats, in order,
        for more. Anything but an integer raises TypeError, hit or miss, for
        3.0 would hash to the entry of 3; a mask outside [0, 2^n) raises
        ValidationError, checked on a miss: a cached mask was checked when it
        first missed. Either is raised before any prediction or cache write.

        The masks not yet cached are evaluated in one predictor call over their
        stacked completion rows, each v(S) the weighted mean over its own slice
        of them. A predictor that predicts a row alike in any stack of two or
        more, as a TrainedModel does, so gives a mask of two or more rows the
        bits of a call of its own. One row alone takes another BLAS path and
        can come out an ulp apart: marginal_contributions gives the on-manifold
        full coalition, x alone, a call of its own for that reason, while a
        one-row completion in a stack (m = 1, a one-row background or pool)
        gets the stack's bits.
        """
        masks = [operator.index(mask), *map(operator.index, more)]
        todo = [_checked_mask(mask, self.n) for mask in dict.fromkeys(masks) if mask not in self._cache]
        if todo:
            self._evaluate(todo)
        return self._cache[masks[0]] if not more else [self._cache[mask] for mask in masks]

    def _evaluate(self, masks: list[int]) -> None:
        """Cache v(S) for each of masks, distinct and checked, from one predictor call."""
        if self.sampler is None:
            k = self._draws.shape[0]
            keep = (np.array(masks, dtype=np.int64)[:, None] & self._bit).astype(bool)
            rows = np.where(np.tile(keep, k), self._x_tiled, self._draws_flat).reshape(-1, self.n)
            parts = [(k, None)] * len(masks)
        else:
            blocks, parts = [], []
            for mask in masks:
                if mask == (1 << self.n) - 1:
                    block, weights = self.x[None, :], None
                else:
                    draws, weights = self.sampler.complete(
                        self.x, mask, self.m, _stream(self.seed, self.point_index, mask))
                    block = np.where(self._bit & mask, self.x, draws)
                blocks.append(block)
                parts.append((block.shape[0], weights))
            rows = np.concatenate(blocks)
        self.evaluations += 1
        self.prediction_rows += rows.shape[0]
        f = self.pred.predict(rows)[:, self.y].tolist()
        start = 0
        for mask, (size, weights) in zip(masks, parts):
            self._cache[mask] = _mean(f[start:start + size], weights)
            start += size
