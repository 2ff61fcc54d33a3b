"""Precedence-constrained feature orderings.

An OrderingSpec declares which features must precede which, either as an
ordered partition into groups (every member of an earlier group before every
member of a later one) or as individual precedence edges, or both. The
distribution over orders is always uniform over the consistent set.

Orders are int64 matrices of shape (count, n): row r lists the features of
order r, first to last. Enumeration yields the rows in lexicographic order;
sampling yields independent uniform draws. Coalitions elsewhere in the
package are int bitmasks (bit i set when feature i is in the coalition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CyclicOrderingError,
    EnumerationCapError,
    SamplingBudgetError,
    ValidationError,
)

DEFAULT_ENUMERATION_CAP = 10
DEFAULT_REJECTION_BUDGET = 1_000_000  # rejected draws allowed per requested sample


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
                raise CyclicOrderingError(
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
        Entries are feature indices (the CLI also takes feature names). Any other
        key or direction, or an entry of another shape, raises ValidationError.
        """
        unknown = sorted(set(obj) - {"n", "groups", "edges", "direction"})
        if unknown:
            raise ValidationError(
                f"unknown ordering-spec keys {unknown}; expected n, groups, edges, direction"
            )
        try:
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"ordering spec needs an integer 'n': {exc}") from exc
        direction = obj.get("direction", "distal")
        if direction not in ("distal", "proximate"):
            raise ValidationError(f"direction must be 'distal' or 'proximate', got {direction!r}")
        groups = _index_lists(obj, "groups")
        edges = frozenset(_index_lists(obj, "edges", size=2) or ())
        spec = cls(n, groups, edges)
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


def is_consistent(P, spec: OrderingSpec) -> np.ndarray:
    """Whether each order places every feature after all its predecessors in spec.

    P is an int matrix of orders, shape (count, n), row r listing the features
    of order r first to last; a single order is a 1-row matrix. Returns one
    bool per row. Raises ValidationError when the width is not spec.n or a row
    is not a permutation of 0..n-1.
    """
    P = np.asarray(P, dtype=np.int64)
    if P.ndim != 2 or P.shape[1] != spec.n:
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
    """Every order consistent with spec, as an int64 matrix of shape (count, n).

    Row r lists the features of the r-th order, first to last, and the rows
    come in lexicographic order. They are the linear extensions of the
    precedence relation, the support of the uniform distribution the spec
    denotes; an empty spec yields all n! permutations. Only available up to
    the enumeration cap.

    Orders grow one slot at a time: a prefix is extended by each unplaced
    feature whose predecessors are all placed, in ascending feature order.
    """
    if spec.n > cap:
        raise EnumerationCapError(
            f"exact enumeration over {spec.n} features exceeds the cap of {cap}; "
            "use sampling instead"
        )
    bit = np.int64(1) << np.arange(spec.n, dtype=np.int64)
    need = np.array([bit[list(before)].sum() for before in spec.predecessors], dtype=np.int64)
    P = np.zeros((1, 0), dtype=np.int64)
    placed = np.zeros(1, dtype=np.int64)
    for _ in range(spec.n):
        ok = ((placed[:, None] & bit) == 0) & ((placed[:, None] & need) == need)
        rows, feats = np.nonzero(ok)
        P = np.column_stack([P[rows], feats])
        placed = placed[rows] | bit[feats]
    return P


def count_consistent(spec: OrderingSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of consistent permutations.

    Groups-only specs have the closed form prod(|G|!) and are counted without
    enumeration (and without the cap). Specs with edges are counted by
    enumeration, subject to the cap.
    """
    if not spec.edges:
        if spec.groups is None:
            return math.factorial(spec.n)
        return math.prod(math.factorial(len(g)) for g in spec.groups)
    return len(enumerate_consistent(spec, cap=cap))


def _sample_group_consistent(
    spec: OrderingSpec, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draws respecting the group partition only, shape (size, n)."""
    if spec.groups is None:
        base = np.tile(np.arange(spec.n), (size, 1))
        return rng.permuted(base, axis=1)
    parts = []
    for g in spec.groups:
        block = np.tile(np.array(g, dtype=np.int64), (size, 1))
        parts.append(rng.permuted(block, axis=1))
    return np.concatenate(parts, axis=1)


def sample_consistent_batch(spec: OrderingSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """size independent uniform draws from the consistent set, shape (size, n).

    Group constraints are sampled directly (exactly uniform); edge constraints
    are enforced by rejection on top. The rejection guard aborts after
    DEFAULT_REJECTION_BUDGET rejected draws per requested permutation.
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
            raise SamplingBudgetError(
                f"rejection sampling exhausted its budget ({rejected} rejected draws "
                f"for {size} requested); enumerate the consistent set or express the "
                "constraints as ordered groups"
            )
    return np.concatenate(got, axis=0)


def random_ordering_spec(n: int, rng: np.random.Generator) -> OrderingSpec:
    """A random spec: empty, a random ordered partition, or random acyclic edges.

    Meant for self-checks and stress tests that want broad coverage of the
    constraint families without hand-writing cases.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 features, got {n}")
    kind = rng.integers(0, 3)
    if kind == 0:
        return OrderingSpec(n)
    if kind == 1:
        perm = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
        groups, start = [], 0
        for c in list(cuts) + [n]:
            groups.append(tuple(int(i) for i in perm[start:c]))
            start = c
        return OrderingSpec(n, groups=tuple(groups))
    # Edges drawn consistent with a hidden base order, hence acyclic.
    base = rng.permutation(n)
    pos = np.argsort(base)
    edges = set()
    for _ in range(int(rng.integers(1, n))):
        i, j = rng.choice(n, size=2, replace=False)
        if pos[i] < pos[j]:
            edges.add((int(i), int(j)))
        else:
            edges.add((int(j), int(i)))
    return OrderingSpec(n, edges=frozenset(edges))
