"""Tiny predictor doubles shared across the test modules, a memory probe, the CLI's refusal contract, and
reference implementations.

The exact oracles live here too: TableValueFunction, the subset form of the
Shapley value, random ordering specs, is_consistent, which judges orders by
position, and estimator_self_check, which ties the estimators to each other
on random games.
"""

import math
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from asymshap import (
    AttributionResult,
    CachedValueFunction,
    CoalitionChains,
    OrderingSpec,
    Standardizer,
    ValidationError,
    enumerate_consistent,
    exact_asv,
    marginal_contributions,
    mc_asv,
    one_hot_design,
    train_test_split,
)
from asymshap.attribution import _point_budget, column_means
from asymshap.cli import main
from asymshap.coalitions import _orders
from asymshap.values import MAX_MASK_FEATURES, _checked_mask


def peak_traced_bytes(fn, *args):
    """The most memory that tracemalloc sees fn(*args) hold above what was held before the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


def refusal_fault(capsys, out_dir, argv, *words):
    """Why the command line run on argv breaks the refusal contract, or None. A refusal exits 2 (argparse's
    SystemExit(2) counts), prints each of words and no traceback on stderr, and leaves no new file in out_dir."""
    before = set(out_dir.iterdir())
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    missing = [w for w in words if w not in err]
    written = sorted(p.name for p in set(out_dir.iterdir()) - before)
    if code != 2 or missing or written or "Traceback" in err:
        return f"exit {code}, missing {missing}, wrote {written}, stderr: {err}"
    return None


class ConstantPredictor:
    """Ignores its input entirely; predicts a fixed class-1 probability."""

    def __init__(self, p1=0.3, n_features=3, n_classes=2):
        self.p1 = float(p1)
        self.n_features = n_features
        self.n_classes = n_classes

    def predict(self, X):
        X = np.atleast_2d(X)
        out = np.full((X.shape[0], self.n_classes), (1.0 - self.p1) / (self.n_classes - 1))
        out[:, 1] = self.p1
        return out


class LinearProbPredictor:
    """Binary predictor with class-1 probability sigmoid(w @ x + b)."""

    def __init__(self, w, b=0.0):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.n_features = self.w.shape[0]
        self.n_classes = 2

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        p1 = 1.0 / (1.0 + np.exp(-((X * self.w).sum(axis=1) + self.b)))  # row-wise: a row's bits are its own
        return np.column_stack([1.0 - p1, p1])


class FirstFeatureProbPredictor:
    """Class-1 probability equal to the first feature (assumed in [0, 1])."""

    def __init__(self, n_features=2):
        self.n_features = n_features
        self.n_classes = 2

    def predict(self, X):
        X = np.atleast_2d(X)
        p1 = np.clip(X[:, 0], 0.0, 1.0)
        return np.column_stack([1.0 - p1, p1])


class CountingPredictor:
    """Delegates to pred, counting its predict calls and the rows they pass."""

    def __init__(self, pred):
        self.pred = pred
        self.n_features = pred.n_features
        self.n_classes = pred.n_classes
        self.calls = self.rows = 0

    def predict(self, X):
        self.calls += 1
        self.rows += len(X)
        return self.pred.predict(X)


class CountingGame:
    """A random table game over n features that records every mask it is asked for, in order."""

    m = 1  # one worth per coalition

    def __init__(self, n, seed=0):
        self.n = n
        self.table = np.random.default_rng(seed).random(1 << n)
        self.masks = []

    def value(self, mask, *more):
        masks = [int(k) for k in (mask, *more)]
        self.masks += masks
        vals = [float(self.table[k]) for k in masks]
        return vals if more else vals[0]


def forward_out_of_place(net, X):
    """FeedForwardNet._forward with a fresh array at every step."""
    acts = [X]
    h = X
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ W + b
        if l < len(net.weights) - 1:
            h = np.tanh(h) if net.activation == "tanh" else np.maximum(h, 0.0)
        acts.append(h)
    return acts


def loss_and_grad(net, X, y):
    """Mean cross-entropy of the labels y and its gradient w.r.t. every weight and bias, as lists of arrays."""
    B = X.shape[0]
    acts = forward_out_of_place(net, X)
    logits = acts[-1]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(B), y].mean())
    delta = np.exp(log_probs)
    delta[np.arange(B), y] -= 1.0
    delta /= B
    gW, gb = [], []
    for l in range(len(net.weights) - 1, -1, -1):
        gW.append(acts[l].T @ delta)
        gb.append(delta.sum(axis=0))
        if l > 0:
            a = acts[l]
            act_grad = 1.0 - a * a if net.activation == "tanh" else (a > 0).astype(np.float64)
            delta = (delta @ net.weights[l].T) * act_grad
    return loss, gW[::-1], gb[::-1]


def reference_train(ds, config, kind):
    """What train_logistic or train_mlp fits, by the plain per-array loop.

    Every weight and bias is its own array with its own velocity, every step
    computes a loss and a backward pass, and each epoch's losses come from
    full loss_and_grad passes. Returns the best epoch's weights and biases and
    the history's loss and epoch entries.
    """
    if kind == "logistic":
        config = replace(config, hidden=())
    train, val = train_test_split(ds, test_fraction=config.val_fraction, seed=config.seed)
    standardizer = Standardizer.fit(train.X, ds.schema)
    Xtr = one_hot_design(train.X, ds.schema, standardizer)
    Xva = one_hot_design(val.X, ds.schema, standardizer)
    rng = np.random.default_rng(config.seed)
    sizes = [Xtr.shape[1], *config.hidden, ds.schema.n_classes]
    net = SimpleNamespace(
        weights=[rng.normal(0.0, np.sqrt(1.0 / a), size=(a, b)) for a, b in zip(sizes, sizes[1:])],
        biases=[np.zeros(b) for b in sizes[1:]],
        activation=config.activation,
    )
    params = net.weights + net.biases
    velocity = [np.zeros_like(p) for p in params]
    best_val, best, best_epoch, since_best = np.inf, [p.copy() for p in params], 0, 0
    train_losses, val_losses = [], []
    B = Xtr.shape[0]
    batch = min(config.batch_size, B)
    for epoch in range(config.epochs):
        order = rng.permutation(B)
        for start in range(0, B, batch):
            sel = order[start : start + batch]
            _, gW, gb = loss_and_grad(net, Xtr[sel], train.y[sel])
            for v, p, g in zip(velocity, params, gW + gb):
                v *= config.momentum
                v -= config.learning_rate * g
                p += v
        train_loss, _, _ = loss_and_grad(net, Xtr, train.y)
        val_loss, _, _ = loss_and_grad(net, Xva, val.y)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if val_loss < best_val - 1e-12:
            best_val, best, best_epoch, since_best = val_loss, [p.copy() for p in params], epoch, 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    k = len(net.weights)
    history = {"train_loss": train_losses, "val_loss": val_losses, "best_epoch": best_epoch,
               "epochs_run": len(train_losses)}
    return best[:k], best[k:], history


def coalition_accuracy(pred, dataset, mask, completion, *, m=100, budget=None, seed=0):
    """Mean of v_{f_y(x)}(mask) over the points that a global_asv run with this
    budget and seed averages, each evaluated in a new CachedValueFunction with
    that run's frozen draws: the run's value at mask, evaluated again."""
    vals = [
        CachedValueFunction(pred, dataset.X[row], int(dataset.y[row]), completion, m=m, seed=seed,
                            point_index=row).value(mask)
        for row in _point_budget(dataset.n_rows, budget, seed).tolist()
    ]
    return math.fsum(vals) / len(vals)


def reference_partition_report(glob, pred, dataset, completion):
    """partition_sum_check(glob), each prefix accuracy evaluated again by
    coalition_accuracy on glob's points and draws instead of read from glob."""
    meta = glob.metadata
    means = glob.means.tolist()

    def accuracy(mask):
        return coalition_accuracy(pred, dataset, mask, completion, m=meta["m"], budget=glob.n_points,
                                  seed=meta["seed"])

    acc_empty = prev_acc = accuracy(0)
    rows = []
    mask = 0
    for g in meta["ordering"]["groups"] or [list(range(glob.n))]:
        mask |= sum(1 << i for i in g)
        acc = accuracy(mask)
        phi_sum = math.fsum(means[i] for i in g)
        cum_phi = math.fsum(means[i] for i in range(glob.n) if mask >> i & 1)
        rows.append({
            "group": g,
            "phi_sum": phi_sum,
            "accuracy_gain": acc - prev_acc,
            "gap": phi_sum - (acc - prev_acc),
            "cumulative_phi": cum_phi,
            "cumulative_gain": acc - acc_empty,
            "cumulative_gap": cum_phi - (acc - acc_empty),
        })
        prev_acc = acc
    return {"accuracy_empty": acc_empty, "groups": rows}


def standardize(standardizer, continuous, X):
    """X with each column listed in continuous, a schema's continuous indices, mapped to
    (x - mean) / scale: the standardization one_hot_design applies, computed column by column."""
    out = np.array(X, dtype=np.float64, copy=True)
    if continuous.size:
        out[:, continuous] = (out[:, continuous] - standardizer.mean) / standardizer.scale
    return out


@dataclass
class TableValueFunction:
    """v(S) read straight from entry S, an int bitmask, of a table of 2^n values: the exact oracle."""

    table: np.ndarray
    n: int

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64).reshape(-1)
        if self.table.shape[0] != (1 << self.n):
            raise ValidationError(
                f"table has {self.table.shape[0]} entries, expected {1 << self.n}"
            )

    m = 1  # one worth per coalition

    def value(self, mask: int, *more: int) -> float | list[float]:
        vals = [float(self.table[_checked_mask(k, self.n)]) for k in (mask, *more)]
        return vals if more else vals[0]


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
        for i in range(n):
            if not mask >> i & 1:
                terms[i].append(weight[mask.bit_count()] * (table[mask | 1 << i] - table[mask]))
    means = np.array([math.fsum(t) for t in terms])
    return AttributionResult(
        means=means,
        stderrs=np.zeros(n),
        n_samples=1 << n,
        baseline=table[0],
        total=table[(1 << n) - 1],
        metadata={"estimator": "subset-form"},
    )


def is_consistent(P, spec) -> np.ndarray:
    """Whether each order puts every feature of an earlier group before every feature of a later one,
    and i before j for every edge (i, j): the consistency definition by position, read from spec.groups
    and spec.edges, independent of the precedence masks the package tests.

    P is a signed-integer matrix of orders, shape (count, n), row r listing the
    features of order r first to last; a single order is a 1-row matrix. Returns
    one bool per row. Raises ValidationError, as CoalitionChains does, for a float
    or bool matrix or one over more than MAX_MASK_FEATURES features, and when the
    width is not spec.n or a row is not a permutation of 0..n-1.
    """
    P = _orders(P)
    if P.shape[1] != spec.n:
        raise ValidationError(f"orders of shape {P.shape} do not fit a spec over {spec.n} features")
    if not (np.sort(P, axis=1) == np.arange(spec.n)).all():
        raise ValidationError(f"not every row is a permutation of 0..{spec.n - 1}")
    pos = np.argsort(P, axis=1)
    groups = spec.groups or ()
    ok = np.ones(P.shape[0], dtype=bool)
    for earlier, later in zip(groups, groups[1:]):
        ok &= pos[:, list(earlier)].max(axis=1) < pos[:, list(later)].min(axis=1)
    for i, j in spec.edges:
        ok &= pos[:, i] < pos[:, j]
    return ok


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


def estimator_self_check(n, games, perms, seed):
    """The estimators checked against each other on random games over n features.

    Each game is a random table drawn from one stream seeded by seed. On it
    the unconstrained exact ASV meets the subset form (the dual-formula gap).
    Then, under a random spec, the exact ASV's attributions sum to
    v(N) - v({}) (the efficiency gap), and its merged-step means equal the
    per-order column means (the merged-step gap). The first order's
    contributions telescope to v(N) - v({}) (the telescoping gap). Last, a
    Monte Carlo run of perms draws lands within 4 stderrs of the exact means.
    Returns each gap's maximum over the games, and the share of (game,
    feature) pairs that Monte Carlo covers.
    """
    rng = np.random.default_rng(seed)
    gaps = {"max_dual_formula_gap": 0.0, "max_efficiency_gap": 0.0, "max_telescoping_gap": 0.0,
            "max_merged_step_gap": 0.0}
    covered = 0
    shapley = OrderingSpec(n)
    shapley_chains = CoalitionChains.merged(shapley)  # consumes no randomness

    def widen(key, gap):
        gaps[key] = max(gaps[key], float(gap))

    for _ in range(games):
        vf = TableValueFunction(rng.random(1 << n), n)
        widen("max_dual_formula_gap", np.max(np.abs(
            exact_asv(vf, shapley, shapley_chains).means - exact_shapley_subset_form(vf).means)))
        spec = random_ordering_spec(n, rng)
        exact = exact_asv(vf, spec, CoalitionChains.merged(spec))
        widen("max_efficiency_gap", abs(exact.efficiency_gap()))
        D = marginal_contributions(vf, CoalitionChains(enumerate_consistent(spec)))  # per order: an independent check
        widen("max_merged_step_gap", np.max(np.abs(exact.means - column_means(D))))
        widen("max_telescoping_gap", abs(math.fsum(D[0].tolist()) - (exact.total - exact.baseline)))
        est = mc_asv(vf, spec, perms, rng)
        # A contribution equal in every consistent order has a stderr of
        # rounding noise, so the floor of 1e-9 judges it, as it does a stderr of 0.
        covered += int(np.sum(np.abs(est.means - exact.means) <= np.maximum(4.0 * est.stderrs, 1e-9)))
    return {**gaps, "mc_within_4_stderr": covered / (games * n)}
