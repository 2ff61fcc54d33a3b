"""Synthetic generative processes and the experiment pipelines built on them.

Three process families: a two-gate admissions process (fair and unfair
variants), three two-feature causal graphs, and a label-shifted AR(1) series.
Each declares its law once and conditions it in closed form, without density
estimation: the finite-law processes complete a coalition exactly, the series
by Gaussian draws. Exact label probabilities make a Bayes predictor available
as a noise-free reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attribution import GlobalAttribution, RunPlan, column_means, column_stderrs, global_asv
from .coalitions import OrderingSpec
from .data import CONTINUOUS, DISCRETE, Dataset, FeatureSpec, Schema, _is_int, train_test_split
from .errors import ValidationError
from .models import TrainConfig, sampled_label_accuracy, train_logistic
from .values import BackgroundSet, ConditionalSampler, GenerativeSampler

# P(x2 = 1 | x1) of each two-feature graph, indexed by x1: x2 follows x1 except in the collider.
_P_X2_GIVEN_X1 = {"chain": (0.1, 0.8), "collider": (0.5, 0.5), "mixed": (0.1, 0.8)}
TWO_FEATURE_KINDS = tuple(_P_X2_GIVEN_X1)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def _probs_from_p1(p1: np.ndarray) -> np.ndarray:
    p1 = np.asarray(p1, dtype=np.float64)
    return np.stack([1.0 - p1, p1], axis=-1)


def _binary_joint(p1_given) -> np.ndarray:
    """P(a, b) as a 2x2 array, for a uniform binary a and P(b = 1 | a) = p1_given[a]."""
    return 0.5 * _probs_from_p1(p1_given)


def _cells_given(table: np.ndarray, codes, known) -> tuple[np.ndarray, np.ndarray]:
    """The joint table's cells, in C order, that agree with codes where known, as rows, and p(cell | codes)."""
    cells = [c for c in np.ndindex(table.shape) if all(c[a] == codes[a] for a in range(table.ndim) if known[a])]
    p = np.array([table[c] for c in cells])
    return np.array(cells, dtype=np.float64), p / p.sum()


@dataclass
class AdmissionsProcess:
    """Gender -> department funnel with an exam score, and an optional hidden
    audit channel that leaks gender into the unfair variant's label.

    Features: gender (binary, uniform), score (standard normal, independent),
    department (binary, P_DEPT1_GIVEN_GENDER): the process declares its law
    once, and complete conditions the joint table of gender and department
    and crosses it with the nodes of a free score. The unfair variant samples
    an extra binary X4 from gender that shifts the label logit but is never
    exported as a feature.
    """

    unfair: bool = False
    schema: Schema = field(init=False)

    P_DEPT1_GIVEN_GENDER = (0.8, 0.2)  # indexed by gender code
    P_AUDIT1_GIVEN_GENDER = (1.0 / 3.0, 2.0 / 3.0)

    GENDER, SCORE, DEPT = 0, 1, 2

    def __post_init__(self):
        self.schema = Schema(
            features=(
                FeatureSpec("gender", DISCRETE, 2),
                FeatureSpec("score", CONTINUOUS),
                FeatureSpec("department", DISCRETE, 2),
            ),
            label="y",
            n_classes=2,
        )
        self._score_nodes = np.polynomial.hermite_e.hermegauss(32)  # of N(0, 1): 32 integrate a sigmoid to rounding

    def _logit(self, score, dept, audit):
        if self.unfair:
            return score + 2.0 * dept + 2.0 * audit - 2.0
        return score + 2.0 * dept - 1.0

    def sample_with_audit(self, n_rows: int, seed: int) -> tuple[Dataset, np.ndarray | None]:
        if not _is_int(n_rows) or n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows!r}")
        rng = np.random.default_rng(seed)
        gender = rng.integers(0, 2, size=n_rows)
        score = rng.standard_normal(n_rows)
        p_dept = np.asarray(self.P_DEPT1_GIVEN_GENDER)[gender]
        dept = (rng.random(n_rows) < p_dept).astype(np.int64)
        if self.unfair:
            p_audit = np.asarray(self.P_AUDIT1_GIVEN_GENDER)[gender]
            audit = (rng.random(n_rows) < p_audit).astype(np.int64)
        else:
            audit = np.zeros(n_rows, dtype=np.int64)
        y = (rng.random(n_rows) < _sigmoid(self._logit(score, dept, audit))).astype(np.int64)
        X = np.column_stack([gender.astype(np.float64), score, dept.astype(np.float64)])
        ds = Dataset(X, y, self.schema)
        return ds, (audit if self.unfair else None)

    def sample(self, n_rows: int, seed: int) -> Dataset:
        return self.sample_with_audit(n_rows, seed)[0]

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        score, dept = X[:, self.SCORE], X[:, self.DEPT]
        if not self.unfair:
            return _probs_from_p1(_sigmoid(self._logit(score, dept, 0.0)))
        # X4 is unobserved: mix over its conditional law given gender.
        gender = X[:, self.GENDER].astype(np.int64)
        p4 = np.asarray(self.P_AUDIT1_GIVEN_GENDER)[gender]
        p1 = p4 * _sigmoid(self._logit(score, dept, 1.0)) + (1.0 - p4) * _sigmoid(
            self._logit(score, dept, 0.0)
        )
        return _probs_from_p1(p1)

    def complete(self, x, mask, m, rng) -> tuple[np.ndarray, np.ndarray]:
        """p(x' | x_S) exactly, ignoring m and rng: _cells_given, crossed with the nodes of a free score."""
        axes = [self.GENDER, self.DEPT]
        cells, p_cells = _cells_given(_binary_joint(self.P_DEPT1_GIVEN_GENDER), x[axes], [mask >> a & 1 for a in axes])
        scores, w_scores = (x[[self.SCORE]], np.ones(1)) if mask >> self.SCORE & 1 else self._score_nodes
        rows = np.insert(np.repeat(cells, len(scores), axis=0), self.SCORE, np.tile(scores, len(cells)), axis=1)
        return rows, np.outer(p_cells, w_scores / w_scores.sum()).ravel()


@dataclass
class TwoFeatureGraphProcess:
    """The three two-feature generating graphs: chain (X1 -> X2 -> Y),
    collider (X1 -> Y <- X2 with independent parents), and mixed
    (X1 -> X2, both into Y).

    X1 is uniform and the kind declares P(x2 = 1 | x1) once; sampling, the
    joint table and complete, which conditions that table, all read it.
    """

    kind: str
    schema: Schema = field(init=False)

    def __post_init__(self):
        if self.kind not in TWO_FEATURE_KINDS:
            raise ValidationError(f"kind must be one of {TWO_FEATURE_KINDS}, got {self.kind!r}")
        self.schema = Schema(
            features=(FeatureSpec("x1", DISCRETE, 2), FeatureSpec("x2", DISCRETE, 2)),
            label="y",
            n_classes=2,
        )

    def joint_table(self) -> np.ndarray:
        """P(X1=a, X2=b) as a 2x2 array."""
        return _binary_joint(_P_X2_GIVEN_X1[self.kind])

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        x1, x2 = X[:, 0], X[:, 1]
        if self.kind == "chain":
            p1 = _sigmoid(2.0 * x2 - 1.0)
        else:
            p1 = _sigmoid(x1 + x2 - 1.0)
        return _probs_from_p1(p1)

    def sample(self, n_rows: int, seed: int) -> Dataset:
        if not _is_int(n_rows) or n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows!r}")
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 2, size=n_rows)
        p2 = np.asarray(_P_X2_GIVEN_X1[self.kind])[x1]
        x2 = (rng.random(n_rows) < p2).astype(np.int64)
        X = np.column_stack([x1, x2]).astype(np.float64)
        p1 = self.label_probs(X)[:, 1]
        y = (rng.random(n_rows) < p1).astype(np.int64)
        return Dataset(X, y, self.schema)

    def complete(self, x, mask, m, rng) -> tuple[np.ndarray, np.ndarray]:
        """p(x' | x_S) exactly, ignoring m and rng: the joint table's cells that agree with x_S."""
        return _cells_given(self.joint_table(), x, [mask >> a & 1 for a in (0, 1)])


@dataclass
class MarkovSeriesProcess:
    """Order-1 autoregressive series whose innovations are mean-shifted by the
    label, the shift decaying geometrically with time. Innovations are
    recoverable from the series, so the exact posterior is logistic in them
    and early steps carry most of the signal once predecessors are known.
    """

    T: int = 12
    ar: float = 0.7
    shift: float = 1.0
    decay: float = 0.7
    schema: Schema = field(init=False)

    def __post_init__(self):
        if not _is_int(self.T) or not 1 <= self.T <= 16:
            raise ValidationError(f"T must be in [1, 16], got {self.T!r}")
        self.schema = Schema(
            features=tuple(FeatureSpec(f"t{t}", CONTINUOUS) for t in range(self.T)),
            label="y",
            n_classes=2,
        )
        t = np.arange(self.T)
        self._mu = self.shift * self.decay**t
        # x = L e with L[t, k] = ar^(t-k) for k <= t.
        L = np.zeros((self.T, self.T))
        for i in range(self.T):
            L[i, : i + 1] = self.ar ** (i - np.arange(i + 1))
        self._L = L
        self._mean1 = L @ self._mu  # E[x | y=1]; y=0 mirrors it
        self._cov = L @ L.T
        self._cond_cache: dict[int, tuple] = {}

    def _innovations(self, X: np.ndarray) -> np.ndarray:
        e = np.array(X, dtype=np.float64, copy=True)
        e[:, 1:] -= self.ar * X[:, :-1]
        return e

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        # A row-wise sum, not a matrix-vector product: BLAS gemv can take a row on another path by
        # where it falls in the call, so a row's bits would depend on the rows it is scored with.
        score = 2.0 * (self._innovations(X) * self._mu).sum(axis=1)
        return _probs_from_p1(_sigmoid(score))

    def sample(self, n_rows: int, seed: int) -> Dataset:
        if not _is_int(n_rows) or n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows!r}")
        X, y = self._draw(n_rows, np.random.default_rng(seed))
        return Dataset(X, y, self.schema)

    def _draw(self, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """m rows and labels: a fair label, then x = L e with e ~ N(+-mu, I) on its side."""
        y = rng.integers(0, 2, size=m)
        signs = np.where(y == 1, 1.0, -1.0)
        e = rng.standard_normal((m, self.T)) + signs[:, None] * self._mu
        return e @ self._L.T, y

    def chain_spec(self) -> OrderingSpec:
        """Time ordering: each step's group precedes the next."""
        return OrderingSpec(self.T, groups=tuple((t,) for t in range(self.T)))

    def _conditionals_for(self, mask: int):
        cached = self._cond_cache.get(mask)
        if cached is not None:
            return cached
        known = (mask >> np.arange(self.T)) & 1
        G, H = np.flatnonzero(known), np.flatnonzero(known == 0)
        SGG = self._cov[np.ix_(G, G)]
        SHG = self._cov[np.ix_(H, G)]
        SHH = self._cov[np.ix_(H, H)]
        SGG_inv = np.linalg.inv(SGG)
        gain = SHG @ SGG_inv
        cond_cov = SHH - gain @ SHG.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        chol = np.linalg.cholesky(cond_cov + 1e-12 * np.eye(H.size))
        out = (G, H, SGG_inv, gain, chol)
        self._cond_cache[mask] = out
        return out

    def conditional_samples(self, x, mask, m, rng) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not mask:
            return self._draw(m, rng)[0]
        G, H, SGG_inv, gain, chol = self._conditionals_for(mask)
        xG = x[G]
        # Class posterior from the Gaussian marginal on the observed block.
        log_w = np.empty(2)
        for c, sign in enumerate((-1.0, 1.0)):
            d = xG - sign * self._mean1[G]
            log_w[c] = -0.5 * float(d @ SGG_inv @ d)
        log_w -= log_w.max()
        w = np.exp(log_w)
        w /= w.sum()
        cls = rng.random(m) < w[1]
        signs = np.where(cls, 1.0, -1.0)
        cond_mean = (
            signs[:, None] * self._mean1[H][None, :]
            + (xG[None, :] - signs[:, None] * self._mean1[G][None, :]) @ gain.T
        )
        draws = cond_mean + rng.standard_normal((m, H.size)) @ chol.T
        out = np.empty((m, self.T))
        out[:, G] = xG
        out[:, H] = draws
        return out


@dataclass
class FairnessReport:
    """Global ASVs under a resolving-before-sensitive ordering, with a verdict
    on whether the sensitive attributes still carry attribution.

    significance is |sensitive_asv| / max(sensitive_stderr, STDERR_FLOOR), and detectable_asv,
    SIGNIFICANCE_THRESHOLD times that max, is the smallest |sensitive_asv| it can flag. Values are
    probabilities, so rounding keeps a point's sensitive ASV within a few x 1.1e-16, while the
    smallest ASV that any test or job flags is about 3e-3: a floor of 1e-12 keeps an exact fair
    audit, all rounding, from reading as many stderrs from zero."""

    attribution: GlobalAttribution
    feature_names: tuple[str, ...]
    resolving: tuple[int, ...]
    sensitive: tuple[int, ...]
    sensitive_asv: float
    sensitive_stderr: float
    detectable_asv: float
    significance: float
    verdict: str

    def to_json_dict(self) -> dict:
        d = self.attribution.to_json_dict(feature_names=self.feature_names)
        d.update(
            {
                "resolving": [self.feature_names[i] for i in self.resolving],
                "sensitive": [self.feature_names[i] for i in self.sensitive],
                "sensitive_asv": self.sensitive_asv,
                "sensitive_stderr": self.sensitive_stderr,
                "detectable_asv": self.detectable_asv,
                "significance": self.significance,
                "verdict": self.verdict,
            }
        )
        return d


def fairness_spec(n: int, resolving, sensitive) -> OrderingSpec:
    """Every resolving feature precedes every sensitive one; the rest float."""
    edges = frozenset((r, s) for r in resolving for s in sensitive)
    return OrderingSpec(n, groups=None, edges=edges)


SIGNIFICANCE_THRESHOLD = 3.0
STDERR_FLOOR = 1e-12  # see FairnessReport


def run_fairness_audit(
    model,
    dataset: Dataset,
    resolving,
    sensitive,
    completion: BackgroundSet | ConditionalSampler,
    *,
    m: int = 64,
    estimator: str = "exact",
    n_perms: int = 200,
    budget: int | None = None,
    seed: int = 0,
) -> FairnessReport:
    """Measure attribution that survives resolving-variable ordering.

    Sensitive attributes keeping significant credit once the resolving
    variables come first is the audit's discrimination signal. Its stderr is
    the spread of the sensitive ASVs' per-point sums over the audited points,
    at least two, as those ASVs share the points and need not be independent.
    """
    schema = dataset.schema
    r_idx, s_idx = (tuple(map(schema.index_of, features)) for features in (resolving, sensitive))
    if set(r_idx) & set(s_idx):
        raise ValidationError(f"resolving and sensitive features overlap: {set(r_idx) & set(s_idx)}")
    if not s_idx:
        raise ValidationError("need at least one sensitive feature")
    plan = RunPlan(model, fairness_spec(schema.n, r_idx, s_idx), completion, estimator=estimator,
                   n_perms=n_perms, m=m, seed=seed)
    glob = global_asv(plan, dataset, budget=budget)
    asv = math.fsum(float(glob.means[i]) for i in s_idx)
    stderr = float(column_stderrs(glob.locals[:, list(s_idx)].sum(axis=1)[:, None])[0])
    significance = abs(asv) / max(stderr, STDERR_FLOOR)
    names = schema.names
    if significance > SIGNIFICANCE_THRESHOLD:
        flagged = ", ".join(names[i] for i in s_idx)
        verdict = (
            f"unresolved discrimination detected: {flagged} retains attribution "
            f"{asv:+.4f} ({significance:.1f} stderr from zero)"
        )
    else:
        verdict = "no unresolved discrimination detected"
    return FairnessReport(
        attribution=glob,
        feature_names=names,
        resolving=r_idx,
        sensitive=s_idx,
        sensitive_asv=asv,
        sensitive_stderr=stderr,
        detectable_asv=SIGNIFICANCE_THRESHOLD * max(stderr, STDERR_FLOOR),
        significance=significance,
        verdict=verdict,
    )


@dataclass
class FeatureSelectionStudy:
    """Cumulative chain-ordered ASVs of one full model, next to the accuracy
    gains of models retrained on each prefix of the feature order."""

    ts: tuple[int, ...]
    cumulative_asv: np.ndarray
    cumulative_stderr: np.ndarray
    empirical_mean: np.ndarray
    empirical_sd: np.ndarray
    trial_matrix: np.ndarray  # (trials, T) accuracy gains per retrained model
    attribution: GlobalAttribution
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ts": list(self.ts),
            "cumulative_asv": self.cumulative_asv.tolist(),
            "cumulative_stderr": self.cumulative_stderr.tolist(),
            "empirical_mean": self.empirical_mean.tolist(),
            "empirical_sd": self.empirical_sd.tolist(),
            "trials": self.trial_matrix.tolist(),
            "attribution": self.attribution.to_json_dict(),
            "metadata": self.metadata,
        }


def _prefix_dataset(ds: Dataset, t: int) -> Dataset:
    sub_schema = Schema(ds.schema.features[: t + 1], ds.schema.label, ds.schema.n_classes)
    return Dataset(ds.X[:, : t + 1], ds.y, sub_schema)


def _empty_set_accuracy(model, bg_X: np.ndarray, y_test: np.ndarray) -> float:
    """E over independent background x' and labels y of f_y(x')."""
    mean_probs = model.predict(bg_X).mean(axis=0)
    return float(np.mean(mean_probs[y_test]))


def run_feature_selection_study(
    process: MarkovSeriesProcess,
    trials: int = 5,
    *,
    n_rows: int = 4000,
    seed: int = 0,
    m: int = 64,
    point_budget: int = 300,
) -> FeatureSelectionStudy:
    """For each prefix length t, compare the cumulative ASV mass of the full
    model against the accuracy gain of a model retrained on just that prefix.

    The ASV side uses the time-ordered chain spec and the process's own
    conditionals; the empirical side retrains per (t, trial) on fresh data and
    evaluates on one shared test split.
    """
    if not _is_int(trials) or trials < 2:
        raise ValidationError(f"the empirical spread needs at least 2 trials, got {trials!r}")
    T = process.T
    base = process.sample(n_rows, seed)
    train, test = train_test_split(base, test_fraction=0.25, seed=seed)
    full_model = train_logistic(train, TrainConfig(seed=seed))
    # The chain has a single consistent order, so two Monte Carlo draws give it exactly.
    plan = RunPlan(full_model, process.chain_spec(), GenerativeSampler(process), estimator="mc", n_perms=2,
                   m=m, seed=seed)
    glob = global_asv(plan, test, budget=point_budget)
    local_cum = np.cumsum(glob.locals, axis=1)
    trial_matrix = np.empty((trials, T))
    for r in range(trials):
        trial_seed = seed + 1000 * (r + 1)
        trial_data = process.sample(train.n_rows, trial_seed)
        for t in range(T):
            sub_train = _prefix_dataset(trial_data, t)
            model_t = train_logistic(sub_train, TrainConfig(seed=trial_seed))
            sub_test = _prefix_dataset(test, t)
            acc = sampled_label_accuracy(model_t, sub_test.X, sub_test.y)
            base_acc = _empty_set_accuracy(model_t, sub_train.X, sub_test.y)
            trial_matrix[r, t] = acc - base_acc
    return FeatureSelectionStudy(
        ts=tuple(range(T)),
        cumulative_asv=column_means(local_cum),
        cumulative_stderr=column_stderrs(local_cum),
        empirical_mean=trial_matrix.mean(axis=0),
        empirical_sd=trial_matrix.std(axis=0, ddof=1),
        trial_matrix=trial_matrix,
        attribution=glob,
        metadata={
            "T": T,
            "trials": trials,
            "n_rows": n_rows,
            "seed": seed,
            "m": m,
            "point_budget": point_budget,
        },
    )
