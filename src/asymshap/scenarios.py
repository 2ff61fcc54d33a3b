"""Synthetic generative processes and the experiment pipelines built on them.

Three process families: a two-gate admissions process (fair and unfair
variants), three two-feature causal graphs, and a label-shifted AR(1) series.
Each carries closed-form conditionals so on-manifold value functions can be
evaluated without density estimation, and exact label probabilities so a
Bayes predictor is available as a noise-free reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attribution import GlobalAttribution, column_means, column_stderrs, global_asv
from .coalitions import OrderingSpec
from .data import CONTINUOUS, DISCRETE, Dataset, FeatureSpec, Schema, train_test_split
from .errors import ValidationError
from .models import TrainConfig, sampled_label_accuracy, train_logistic
from .values import BackgroundSet, ConditionalSampler, GenerativeSampler

TWO_FEATURE_KINDS = ("chain", "collider", "mixed")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def _probs_from_p1(p1: np.ndarray) -> np.ndarray:
    p1 = np.asarray(p1, dtype=np.float64)
    return np.stack([1.0 - p1, p1], axis=-1)


@dataclass
class AdmissionsProcess:
    """Gender -> department funnel with an exam score, and an optional hidden
    audit channel that leaks gender into the unfair variant's label.

    Features: gender (binary), score (standard normal, independent),
    department (binary, depends on gender). The unfair variant samples an
    extra binary X4 from gender that shifts the label logit but is never
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

    def _logit(self, score, dept, audit):
        if self.unfair:
            return score + 2.0 * dept + 2.0 * audit - 2.0
        return score + 2.0 * dept - 1.0

    def sample_with_audit(self, n_rows: int, seed: int) -> tuple[Dataset, np.ndarray | None]:
        if n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows}")
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

    def p_gender_given_dept(self, dept: int) -> np.ndarray:
        """Posterior over gender; the funnel is symmetric so it mirrors the forward table."""
        fwd = np.asarray(self.P_DEPT1_GIVEN_GENDER)
        lik = fwd if dept == 1 else 1.0 - fwd
        joint = 0.5 * lik
        return joint / joint.sum()

    def conditional_samples(self, x, s_idx, m, rng) -> np.ndarray:
        s = set(int(i) for i in s_idx)
        out = np.empty((m, 3))
        if self.SCORE in s:
            out[:, self.SCORE] = x[self.SCORE]
        else:
            out[:, self.SCORE] = rng.standard_normal(m)
        g_known, d_known = self.GENDER in s, self.DEPT in s
        if g_known and d_known:
            out[:, self.GENDER] = x[self.GENDER]
            out[:, self.DEPT] = x[self.DEPT]
        elif g_known:
            out[:, self.GENDER] = x[self.GENDER]
            p = self.P_DEPT1_GIVEN_GENDER[int(x[self.GENDER])]
            out[:, self.DEPT] = rng.random(m) < p
        elif d_known:
            out[:, self.DEPT] = x[self.DEPT]
            post = self.p_gender_given_dept(int(x[self.DEPT]))
            out[:, self.GENDER] = rng.random(m) < post[1]
        else:
            gender = rng.integers(0, 2, size=m)
            out[:, self.GENDER] = gender
            p = np.asarray(self.P_DEPT1_GIVEN_GENDER)[gender]
            out[:, self.DEPT] = rng.random(m) < p
        return out


@dataclass
class TwoFeatureGraphProcess:
    """The three two-feature generating graphs: chain (X1 -> X2 -> Y),
    collider (X1 -> Y <- X2 with independent parents), and mixed
    (X1 -> X2, both into Y)."""

    kind: str
    schema: Schema = field(init=False)

    P_X2_GIVEN_X1 = (0.1, 0.8)  # chain and mixed; collider uses Bern(1/2)

    def __post_init__(self):
        if self.kind not in TWO_FEATURE_KINDS:
            raise ValidationError(f"kind must be one of {TWO_FEATURE_KINDS}, got {self.kind!r}")
        self.schema = Schema(
            features=(FeatureSpec("x1", DISCRETE, 2), FeatureSpec("x2", DISCRETE, 2)),
            label="y",
            n_classes=2,
        )

    def p_x2_given_x1(self, x1: int) -> np.ndarray:
        if self.kind == "collider":
            return np.array([0.5, 0.5])
        p1 = self.P_X2_GIVEN_X1[int(x1)]
        return np.array([1.0 - p1, p1])

    def joint_table(self) -> np.ndarray:
        """P(X1=a, X2=b) as a 2x2 array."""
        tab = np.empty((2, 2))
        for a in (0, 1):
            tab[a] = 0.5 * self.p_x2_given_x1(a)
        return tab

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        x1, x2 = X[:, 0], X[:, 1]
        if self.kind == "chain":
            p1 = _sigmoid(2.0 * x2 - 1.0)
        else:
            p1 = _sigmoid(x1 + x2 - 1.0)
        return _probs_from_p1(p1)

    def sample(self, n_rows: int, seed: int) -> Dataset:
        if n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows}")
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 2, size=n_rows)
        p2 = np.array([self.p_x2_given_x1(a)[1] for a in (0, 1)])[x1]
        x2 = (rng.random(n_rows) < p2).astype(np.int64)
        X = np.column_stack([x1, x2]).astype(np.float64)
        p1 = self.label_probs(X)[:, 1]
        y = (rng.random(n_rows) < p1).astype(np.int64)
        return Dataset(X, y, self.schema)

    def conditional_samples(self, x, s_idx, m, rng) -> np.ndarray:
        s = set(int(i) for i in s_idx)
        out = np.empty((m, 2))
        tab = self.joint_table()
        if 0 in s and 1 in s:
            out[:, 0], out[:, 1] = x[0], x[1]
        elif 0 in s:
            out[:, 0] = x[0]
            out[:, 1] = rng.random(m) < self.p_x2_given_x1(int(x[0]))[1]
        elif 1 in s:
            out[:, 1] = x[1]
            col = tab[:, int(x[1])]
            out[:, 0] = rng.random(m) < col[1] / col.sum()
        else:
            flat = rng.choice(4, size=m, p=tab.ravel())
            out[:, 0] = flat // 2
            out[:, 1] = flat % 2
        return out


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
        if not 1 <= self.T <= 16:
            raise ValidationError(f"T must be in [1, 16], got {self.T}")
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
        self._cond_cache: dict[tuple[int, ...], tuple] = {}

    def _innovations(self, X: np.ndarray) -> np.ndarray:
        e = np.array(X, dtype=np.float64, copy=True)
        e[:, 1:] -= self.ar * X[:, :-1]
        return e

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        score = 2.0 * self._innovations(X) @ self._mu
        return _probs_from_p1(_sigmoid(score))

    def sample(self, n_rows: int, seed: int) -> Dataset:
        if n_rows < 1:
            raise ValidationError(f"n_rows must be positive, got {n_rows}")
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n_rows)
        signs = np.where(y == 1, 1.0, -1.0)
        e = rng.standard_normal((n_rows, self.T)) + signs[:, None] * self._mu
        X = e @ self._L.T
        return Dataset(X, y, self.schema)

    def chain_spec(self) -> OrderingSpec:
        """Time ordering: each step's group precedes the next."""
        return OrderingSpec(self.T, groups=tuple((t,) for t in range(self.T)))

    def _conditionals_for(self, key: tuple[int, ...]):
        cached = self._cond_cache.get(key)
        if cached is not None:
            return cached
        G = np.array(key, dtype=np.int64)
        H = np.array([i for i in range(self.T) if i not in set(key)], dtype=np.int64)
        SGG = self._cov[np.ix_(G, G)]
        SHG = self._cov[np.ix_(H, G)]
        SHH = self._cov[np.ix_(H, H)]
        SGG_inv = np.linalg.inv(SGG)
        gain = SHG @ SGG_inv
        cond_cov = SHH - gain @ SHG.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        chol = np.linalg.cholesky(cond_cov + 1e-12 * np.eye(H.size))
        out = (G, H, SGG_inv, gain, chol)
        self._cond_cache[key] = out
        return out

    def conditional_samples(self, x, s_idx, m, rng) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        key = tuple(sorted(int(i) for i in s_idx))
        if len(key) == self.T:
            return np.tile(x, (m, 1))
        if not key:
            y = rng.integers(0, 2, size=m)
            signs = np.where(y == 1, 1.0, -1.0)
            e = rng.standard_normal((m, self.T)) + signs[:, None] * self._mu
            return e @ self._L.T
        G, H, SGG_inv, gain, chol = self._conditionals_for(key)
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
    on whether the sensitive attributes still carry attribution."""

    attribution: GlobalAttribution
    feature_names: tuple[str, ...]
    resolving: tuple[int, ...]
    sensitive: tuple[int, ...]
    sensitive_asv: float
    sensitive_stderr: float
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
                "significance": self.significance,
                "verdict": self.verdict,
            }
        )
        return d


def _resolve_features(schema: Schema, wanted) -> tuple[int, ...]:
    out = []
    for f in wanted:
        if isinstance(f, str):
            out.append(schema.index_of(f))
        else:
            i = int(f)
            if not 0 <= i < schema.n:
                raise ValidationError(f"feature index {i} outside [0, {schema.n})")
            out.append(i)
    return tuple(out)


def fairness_spec(n: int, resolving, sensitive) -> OrderingSpec:
    """Every resolving feature precedes every sensitive one; the rest float."""
    edges = frozenset((r, s) for r in resolving for s in sensitive)
    return OrderingSpec(n, groups=None, edges=edges)


SIGNIFICANCE_THRESHOLD = 3.0


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
    the spread across audited points, so the audit needs at least two.
    """
    schema = dataset.schema
    r_idx = _resolve_features(schema, resolving)
    s_idx = _resolve_features(schema, sensitive)
    if set(r_idx) & set(s_idx):
        raise ValidationError(f"resolving and sensitive features overlap: {set(r_idx) & set(s_idx)}")
    if not s_idx:
        raise ValidationError("need at least one sensitive feature")
    spec = fairness_spec(schema.n, r_idx, s_idx)
    glob = global_asv(
        model,
        dataset,
        spec,
        completion,
        m=m,
        estimator=estimator,
        n_perms=n_perms,
        budget=budget,
        seed=seed,
    )
    asv = math.fsum(float(glob.means[i]) for i in s_idx)
    stderr = math.sqrt(math.fsum(float(glob.stderrs[i]) ** 2 for i in s_idx))
    significance = abs(asv) / stderr if stderr > 0 else (0.0 if asv == 0 else math.inf)
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


def _empty_coalition_accuracy(model, bg_X: np.ndarray, y_test: np.ndarray) -> float:
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
    if trials < 2:
        raise ValidationError(f"the empirical spread needs at least 2 trials, got {trials}")
    T = process.T
    base = process.sample(n_rows, seed)
    train, test = train_test_split(base, test_fraction=0.25, seed=seed)
    full_model = train_logistic(train, TrainConfig(seed=seed))
    glob = global_asv(
        full_model,
        test,
        process.chain_spec(),
        GenerativeSampler(process),
        m=m,
        estimator="mc",
        n_perms=2,  # the chain has a single consistent order
        budget=point_budget,
        seed=seed,
    )
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
            base_acc = _empty_coalition_accuracy(model_t, sub_train.X, sub_test.y)
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
