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

from .data import _is_int, _positive
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

    n is the feature count, an int in [1, 2^63); a numpy int is stored as int.
    groups, when given, is a list or tuple of lists or tuples forming an ordered
    partition of {0, ..., n-1}: every feature of an earlier group precedes every
    feature of a later one. edges is a collection of (i, j) pairs, each meaning i
    must precede j. Every entry is an int feature index in [0, n), not a bool. An
    empty spec means the uniform distribution over all n! permutations. This is
    the one validator of a spec, whether built directly or by from_json_dict: a
    broken rule raises ValidationError naming the entry, and so does a cycle.

    need[i] is the bitmask of the features directly before feature i: the group
    before its own and the tails of its incoming edges. Features placed so far,
    as a mask, admit i exactly when (placed & need[i]) == need[i] (_admits); the
    cycle check, enumeration and sampling all test precedence that one way.
    """

    n: int
    groups: tuple[tuple[int, ...], ...] | None = None
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    need: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValidationError(f"ordering spec needs an integer 'n', got {self.n!r}")
        if not 1 <= self.n < 2**63:
            raise ValidationError(f"feature count must be positive and below 2^63, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        need = [0] * self.n
        if self.groups is not None:
            groups = tuple(tuple(sorted(g)) for g in self._index_tuples("groups", (list, tuple)))
            object.__setattr__(self, "groups", groups)
            if not all(groups) or sorted(i for g in groups for i in g) != list(range(self.n)):
                raise ValidationError(f"groups must be nonempty and partition all {self.n} features, got {groups}")
            for earlier, later in zip(groups, groups[1:]):
                for j in later:
                    need[j] = sum(1 << i for i in earlier)
        object.__setattr__(self, "edges", frozenset(self._index_tuples("edges", (list, tuple, set, frozenset))))
        for edge in self.edges:
            if len(edge) != 2 or edge[0] == edge[1]:
                raise ValidationError(f"ordering-spec 'edges' entry {edge!r} must be a pair of two features")
            need[edge[1]] |= 1 << edge[0]
        object.__setattr__(self, "need", tuple(need))
        # Fail fast on cycles: place every admitted feature, round by round; a cycle's features never are.
        placed = 0
        while ready := ~placed & sum(1 << i for i, r in enumerate(need) if _admits(placed, r)):
            placed |= ready
        if placed != (1 << self.n) - 1:
            raise ValidationError("precedence constraints contain a cycle; the consistent set is empty")

    def _index_tuples(self, key: str, kinds: tuple[type, ...]) -> list[tuple[int, ...]]:
        """The entries of self.<key>, one of kinds, as tuples of feature indices.

        Raises ValidationError unless each entry is a list or tuple of int
        feature indices in [0, n), bools and floats refused.
        """
        value = getattr(self, key)
        if not isinstance(value, kinds):
            raise ValidationError(f"ordering-spec {key!r} must be a list of lists, got {value!r}")
        for entry in value:
            if not isinstance(entry, (list, tuple)) or not all(_is_int(i) and 0 <= i < self.n for i in entry):
                raise ValidationError(f"ordering-spec {key!r} entry {entry!r} must hold feature indices "
                                      f"in [0, {self.n})")
        return [tuple(int(i) for i in entry) for entry in value]

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
        Any other key or direction raises ValidationError here; "n" and the entries
        are checked by the constructor, as for any spec (the CLI resolves feature
        names to indices first).
        """
        unknown = sorted(set(obj) - {"n", "groups", "edges", "direction"})
        if unknown:
            raise ValidationError(
                f"unknown ordering-spec keys {unknown}; expected n, groups, edges, direction"
            )
        direction = obj.get("direction", "distal")
        if direction not in ("distal", "proximate"):
            raise ValidationError(f"direction must be 'distal' or 'proximate', got {direction!r}")
        edges = obj.get("edges")
        spec = cls(obj.get("n"), obj.get("groups"), frozenset() if edges is None else edges)
        return spec if direction == "distal" else spec.reversed()


def _admits(placed, need):
    """Whether mask placed holds every feature of mask need: the one precedence test, on ints or int64 arrays."""
    return (placed & need) == need


def _mask_table(spec: OrderingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's bit and spec.need, as int64 vectors; more features than a mask holds raise ValidationError."""
    if spec.n > MAX_MASK_FEATURES:
        raise ValidationError(f"coalition masks support up to {MAX_MASK_FEATURES} features, got {spec.n}")
    return np.int64(1) << np.arange(spec.n, dtype=np.int64), np.array(spec.need, dtype=np.int64)


def _consistent(P, spec: OrderingSpec) -> np.ndarray:
    """Whether each row of P, an order over spec's features, admits every feature where it places it."""
    bit, need = _mask_table(spec)
    placed = np.zeros(P.shape[0], dtype=np.int64)
    ok = np.ones(P.shape[0], dtype=bool)
    for f in P.T:
        ok &= _admits(placed, need[f])
        placed |= bit[f]
    return ok


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
    bit, need = _mask_table(spec)
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
    ok = np.column_stack([((placed & b) == 0) & _admits(placed, r) for b, r in zip(bit, need)])
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
    are enforced by rejection on top, by the spec's mask test. The rejection guard
    raises EstimatorError after DEFAULT_REJECTION_BUDGET rejected draws per
    requested permutation. size must be a positive int, not a bool.
    """
    _positive(size, "sample size")
    if not spec.edges:
        return _sample_group_consistent(spec, size, rng)
    rejected = 0
    got: list[np.ndarray] = []
    n_got = 0
    while n_got < size:
        want = size - n_got
        # A fixed 4x oversample of the shortfall, from 1,024 to 1,000,000 draws; no acceptance rate is kept.
        batch = min(max(4 * want, 1024), 1_000_000)
        cand = _sample_group_consistent(spec, batch, rng)
        keep = cand[_consistent(cand, spec)]
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
