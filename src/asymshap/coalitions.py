"""Precedence-constrained feature orderings.

An OrderingSpec declares which features must precede which, either as an
ordered partition into groups (every member of an earlier group before every
member of a later one) or as individual precedence edges, or both. The
distribution over orders is always uniform over the consistent set.

Orders are integer matrices of shape (count, n): row r lists the features of
order r, first to last. Enumeration yields the rows in lexicographic order,
as int8, which holds 0.3 MB of orders at 8 features and 3.3 MB at 9 (a
coalition mask caps features at 62, so every index fits); sampling yields
independent uniform draws, as int64. Coalitions elsewhere in the package are
int bitmasks (bit i set when feature i is in the coalition).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimatorError, ValidationError
from .values import MAX_MASK_FEATURES

logger = logging.getLogger(__name__)

DEFAULT_ENUMERATION_CAP = 10
DEFAULT_REJECTION_BUDGET = 1_000_000  # rejected draws allowed per requested sample
# enumerate_consistent warns when it returns more orders than this.
AUTO_EXACT_WARN_ORDERS = math.factorial(8)
# enumerate_consistent refuses this many orders: below it every step count c is
# under 2^26, so c times either half of a split difference is exact in float64.
MAX_EXACT_ORDERS = 1 << 26


@dataclass(frozen=True)
class OrderingSpec:
    """Precedence constraints defining a uniform distribution over consistent permutations.

    groups, when given, must be an ordered partition of {0, ..., n-1}; every
    feature of an earlier group precedes every feature of a later one. edges
    are individual (i, j) pairs meaning i must precede j. An empty spec means
    the uniform distribution over all n! permutations.

    predecessors[i] lists, ascending, the features directly before feature i:
    the group before its own and the tails of its incoming edges. Every check reads it.
    """

    n: int
    groups: tuple[tuple[int, ...], ...] | None = None
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    predecessors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"feature count must be positive, got {self.n}")
        preds: list[set[int]] = [set() for _ in range(self.n)]
        if self.groups is not None:
            object.__setattr__(
                self, "groups", tuple(tuple(sorted(g)) for g in self.groups)
            )
            seen: set[int] = set()
            for g in self.groups:
                if not g:
                    raise ValidationError("empty group in ordered partition")
                if seen & set(g):
                    raise ValidationError("groups are not pairwise disjoint")
                seen.update(g)
            if seen != set(range(self.n)):
                raise ValidationError(
                    f"groups must partition all {self.n} features, got {sorted(seen)}"
                )
            for ga, gb in zip(self.groups, self.groups[1:]):
                for j in gb:
                    preds[j].update(ga)
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i}, {j}) outside [0, {self.n})")
            if i == j:
                raise ValidationError(f"self-loop edge ({i}, {j})")
            preds[j].add(i)
        object.__setattr__(self, "predecessors", tuple(tuple(sorted(p)) for p in preds))
        # Fail fast on cycles: a round that places no feature is stuck on one.
        placed: set[int] = set()
        left = range(self.n)
        while left:
            ready = [i for i in left if placed.issuperset(self.predecessors[i])]
            if not ready:
                raise ValidationError(
                    "precedence constraints contain a cycle; the consistent set is empty"
                )
            placed.update(ready)
            left = [i for i in left if i not in placed]

    def reversed(self) -> "OrderingSpec":
        """The spec with every precedence constraint flipped."""
        groups = None if self.groups is None else tuple(reversed(self.groups))
        return OrderingSpec(self.n, groups, frozenset((j, i) for i, j in self.edges))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "groups": None if self.groups is None else [list(g) for g in self.groups],
            "edges": sorted([i, j] for i, j in self.edges),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OrderingSpec":
        """The spec a JSON object declares, in the direction it asks for.

        Keys: "n", the feature count (the CLI defaults it to the dataset's width);
        "groups", an optional ordered partition, earliest group first; "edges", an
        optional list of [before, after] pairs; "direction", optional, "distal" (the
        constraints as declared, the default) or "proximate" (every one reversed).
        "n" and the entries are integers, not bools (the CLI also takes feature
        names as entries). Any other key or direction, an "n" of another type, or
        an entry of another shape raises ValidationError.
        """
        unknown = sorted(set(obj) - {"n", "groups", "edges", "direction"})
        if unknown:
            raise ValidationError(
                f"unknown ordering-spec keys {unknown}; expected n, groups, edges, direction"
            )
        n = obj.get("n")
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValidationError(f"ordering spec needs an integer 'n', got {n!r}")
        direction = obj.get("direction", "distal")
        if direction not in ("distal", "proximate"):
            raise ValidationError(f"direction must be 'distal' or 'proximate', got {direction!r}")
        groups = _index_lists(obj, "groups")
        edges = frozenset(_index_lists(obj, "edges", size=2) or ())
        spec = cls(int(n), groups, edges)
        return spec if direction == "distal" else spec.reversed()


def _index_lists(obj: dict, key: str, size: int | None = None) -> tuple[tuple[int, ...], ...] | None:
    """obj[key] as tuples of feature indices, None when it is absent or null.

    Raises ValidationError unless it is a list of lists of integers, each of
    length size when given.
    """
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(isinstance(e, (list, tuple)) for e in value):
        raise ValidationError(f"ordering-spec {key!r} must be a list of lists, got {value!r}")
    for entry in value:
        if size is not None and len(entry) != size:
            raise ValidationError(f"ordering-spec {key!r} entry {entry!r} must have {size} items")
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in entry):
            raise ValidationError(f"ordering-spec {key!r} entry {entry!r} must hold feature indices")
    return tuple(tuple(int(i) for i in entry) for entry in value)


def _orders(P) -> np.ndarray:
    """P as a nonempty signed-integer matrix of orders, uncopied, its entries checked to lie in [0, n).

    Orders over more features than a coalition mask holds are refused. Whether each row is a
    permutation is left to the caller.
    """
    P = np.asarray(P)
    if P.ndim != 2 or P.dtype.kind != "i" or not P.size:
        raise ValidationError(
            f"orders must be a nonempty signed-integer matrix, got {P.dtype} of shape {P.shape}"
        )
    n = P.shape[1]
    if n > MAX_MASK_FEATURES:
        raise ValidationError(f"coalition masks support up to {MAX_MASK_FEATURES} features, got {n}")
    lo, hi = P.min(), P.max()
    if lo < 0 or hi >= n:
        raise ValidationError(f"orders must be permutations of 0..{n - 1}, got entries in [{lo}, {hi}]")
    return P


def is_consistent(P, spec: OrderingSpec) -> np.ndarray:
    """Whether each order places every feature after all its predecessors in spec.

    P is a signed-integer matrix of orders, shape (count, n), row r listing the
    features of order r first to last; a single order is a 1-row matrix. Returns
    one bool per row. Raises ValidationError, as _orders does, for a float or
    bool matrix or one over more than MAX_MASK_FEATURES features, and when the
    width is not spec.n or a row is not a permutation of 0..n-1.
    """
    P = _orders(P)
    if P.shape[1] != spec.n:
        raise ValidationError(f"orders of shape {P.shape} do not fit a spec over {spec.n} features")
    if not (np.sort(P, axis=1) == np.arange(spec.n)).all():
        raise ValidationError(f"not every row is a permutation of 0..{spec.n - 1}")
    pos = np.argsort(P, axis=1)
    ok = np.ones(P.shape[0], dtype=bool)
    for i, before in enumerate(spec.predecessors):
        if before:
            ok &= pos[:, list(before)].max(axis=1) < pos[:, i]
    return ok


def enumerate_consistent(spec: OrderingSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Every order consistent with spec, as a C-contiguous int8 matrix of shape (count, n).

    Row r lists the features of the r-th order, first to last, and the rows
    come in lexicographic order. They are the linear extensions of the
    precedence relation, the support of the uniform distribution the spec
    denotes; an empty spec yields all n! permutations. Only available up to
    the enumeration cap, and never above the MAX_MASK_FEATURES features that
    int64 masks hold. Every exact run enumerates through here, once, so here
    it logs one warning when there are more than AUTO_EXACT_WARN_ORDERS
    orders, before any of them is evaluated.

    Orders grow one slot at a time: a prefix is extended by each unplaced
    feature whose predecessors are all placed, in ascending feature order.
    The last slot takes the one feature left, which is always addable. The
    result and the prefixes it is stacked from are int8, and no int64 array
    wider than one entry per prefix is formed. Every prefix extends to an
    order, so MAX_EXACT_ORDERS prefixes raise ValidationError, before they are built.
    """
    if spec.n > cap:
        raise ValidationError(
            f"exact enumeration over {spec.n} features exceeds the cap of {cap}; "
            "use sampling instead"
        )
    if spec.n > MAX_MASK_FEATURES:
        raise ValidationError(f"coalition masks support up to {MAX_MASK_FEATURES} features, got {spec.n}")
    bit = np.int64(1) << np.arange(spec.n, dtype=np.int64)
    need = np.array([bit[list(before)].sum() for before in spec.predecessors], dtype=np.int64)
    P = np.zeros((1, 0), dtype=np.int8)
    placed = np.zeros(1, dtype=np.int64)
    for _ in range(spec.n - 1):
        P, placed = _extend(P, placed, bit, need)
    del placed
    # The feature left is 0 + 1 + ... + (n - 1) minus those placed; the sum fits int16 for n <= 62.
    last = spec.n * (spec.n - 1) // 2 - P.sum(axis=1, dtype=np.int16)
    P = np.column_stack([P, last.astype(np.int8)])
    if P.shape[0] > AUTO_EXACT_WARN_ORDERS:
        logger.warning(
            "exact enumeration yields %d consistent orders over %d features, and an exact "
            "attribution reduces every one; the Monte Carlo estimator samples orders instead",
            P.shape[0], spec.n,
        )
    return P


def _extend(P, placed, bit, need) -> tuple[np.ndarray, np.ndarray]:
    """Each prefix of P extended by every feature it can take next, and the masks of the longer prefixes.

    placed[r] is the mask of prefix r's features, bit[i] feature i's bit and
    need[i] the mask of its predecessors. The features are tested one at a
    time, so no (prefixes, n) int64 temporary exists.
    """
    ok = np.column_stack([((placed & b) == 0) & ((placed & r) == r) for b, r in zip(bit, need)])
    counts = ok.sum(axis=1)
    if (total := int(counts.sum())) >= MAX_EXACT_ORDERS:
        raise ValidationError(f"exact enumeration would build at least {total} consistent orders over "
                              f"{len(bit)} features, {MAX_EXACT_ORDERS} or more; use sampling instead")
    feats = np.broadcast_to(np.arange(ok.shape[1], dtype=np.int8), ok.shape)[ok]  # row by row, ascending
    del ok
    return np.column_stack([np.repeat(P, counts, axis=0), feats]), np.repeat(placed, counts) | bit[feats]


def _sample_group_consistent(
    spec: OrderingSpec, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draws respecting the group partition only, shape (size, n); no groups is one group of all."""
    groups = (range(spec.n),) if spec.groups is None else spec.groups
    parts = [rng.permuted(np.tile(np.array(g, dtype=np.int64), (size, 1)), axis=1) for g in groups]
    return np.concatenate(parts, axis=1)


def sample_consistent_batch(spec: OrderingSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """size independent uniform draws from the consistent set, shape (size, n).

    Group constraints are sampled directly (exactly uniform); edge constraints
    are enforced by rejection on top. The rejection guard raises EstimatorError
    after DEFAULT_REJECTION_BUDGET rejected draws per requested permutation.
    """
    if size < 1:
        raise ValidationError(f"sample size must be positive, got {size}")
    if not spec.edges:
        return _sample_group_consistent(spec, size, rng)
    rejected = 0
    got: list[np.ndarray] = []
    n_got = 0
    while n_got < size:
        want = size - n_got
        # Oversample against the observed acceptance rate, within reason.
        batch = min(max(4 * want, 1024), 1_000_000)
        cand = _sample_group_consistent(spec, batch, rng)
        keep = cand[is_consistent(cand, spec)]
        rejected += batch - keep.shape[0]
        if keep.shape[0] > want:
            keep = keep[:want]
        got.append(keep)
        n_got += keep.shape[0]
        if n_got < size and rejected > DEFAULT_REJECTION_BUDGET * size:
            raise EstimatorError(
                f"rejection sampling exhausted its budget ({rejected} rejected draws "
                f"for {size} requested); enumerate the consistent set or express the "
                "constraints as ordered groups"
            )
    return np.concatenate(got, axis=0)
