"""Span tracing installed from outside the package, around its layer boundaries.

Every declared boundary is a public function or method of an `asymshap`
module. `Tracer.install` replaces each one with a wrapper that records a span
(name, start, end, parent span, item count). A function is patched on every
`asymshap.*` module that binds it, so a call is traced whichever namespace it
is looked up in; the trace self-check in `run.py` then confirms that each span
fires where it should.

Spans are kept in memory and reduced to per-name totals when the job ends. A
span's self time is its duration minus the durations of its direct children;
the traced program is single-threaded (the benchmark pins `--workers 1`), so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(out) -> int:
    return int(out.shape[0])


def _n_rows(out) -> int:
    return int(out.n_rows)


def _completion_rows(out) -> int:
    return _rows(out[0])


def _masks(out) -> int:
    # One mask before and one after each entry of the (draws, n) matrix.
    return 2 * int(out.size)


def _one(out) -> int:
    return 1


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: span name, where it lives, and what a call counts."""

    name: str
    module: str
    attr: str
    owner: str | None = None  # class name for methods
    count: Callable = _one  # result -> items the call handled

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


BOUNDARIES = (
    Boundary("cli.main", "asymshap.cli", "main"),
    Boundary("data.load_csv", "asymshap.data", "load_csv", count=_n_rows),
    Boundary("data.one_hot_design", "asymshap.data", "one_hot_design", count=_rows),
    Boundary("data.train_test_split", "asymshap.data", "train_test_split"),
    Boundary("models.load", "asymshap.models", "load", owner="TrainedModel"),
    Boundary("models.predict", "asymshap.models", "predict", owner="TrainedModel", count=_rows),
    Boundary("models.train_logistic", "asymshap.models", "train_logistic"),
    Boundary("models.train_mlp", "asymshap.models", "train_mlp"),
    Boundary("coalitions.enumerate_consistent", "asymshap.coalitions", "enumerate_consistent",
             count=len),
    Boundary("coalitions.sample_consistent_batch", "asymshap.coalitions", "sample_consistent_batch",
             count=_rows),
    Boundary("attribution.global_asv", "asymshap.attribution", "global_asv"),
    Boundary("attribution.exact_asv", "asymshap.attribution", "exact_asv"),
    Boundary("attribution.mc_asv", "asymshap.attribution", "mc_asv"),
    Boundary("attribution.marginal_contributions", "asymshap.attribution", "marginal_contributions",
             count=_masks),
    Boundary("values.value", "asymshap.values", "value", owner="CachedValueFunction"),
    Boundary("values.exact_match_complete", "asymshap.values", "complete", owner="ExactMatchSampler",
             count=_completion_rows),
    Boundary("values.knn_complete", "asymshap.values", "complete", owner="KNNSampler",
             count=_completion_rows),
    Boundary("values.generative_complete", "asymshap.values", "complete", owner="GenerativeSampler",
             count=_completion_rows),
    Boundary("scenarios.run_fairness_audit", "asymshap.scenarios", "run_fairness_audit"),
    Boundary("scenarios.run_feature_selection_study", "asymshap.scenarios",
             "run_feature_selection_study"),
    Boundary("scenarios.conditional_samples", "asymshap.scenarios", "conditional_samples",
             owner="MarkovSeriesProcess", count=_rows),
    Boundary("scenarios.markov_sample", "asymshap.scenarios", "sample", owner="MarkovSeriesProcess",
             count=_n_rows),
)

LAYERS = ("cli", "data", "models", "coalitions", "attribution", "values", "scenarios")


class Tracer:
    """Records spans from the wrappers it installs; `summary()` reduces them."""

    def __init__(self):
        self.boundaries = BOUNDARIES
        # Per span: boundary index, start, end, parent span index (-1 for none), count.
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[int] = []

    def _wrap(self, b_index: int, boundary: Boundary, fn):
        spans, stack = self.spans, self._stack
        count = boundary.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (b_index, start, clock(), parent, 0)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[idx] = (b_index, start, end, parent, count(out))
            return out

        return traced

    def install(self) -> None:
        """Patch every boundary; the `asymshap` package must already be imported."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "asymshap" or name.startswith("asymshap.")) and m is not None]
        for b_index, b in enumerate(self.boundaries):
            home = sys.modules[b.module]
            if b.owner is not None:
                cls = getattr(home, b.owner)
                raw = cls.__dict__[b.attr]
                if isinstance(raw, classmethod):
                    setattr(cls, b.attr, classmethod(self._wrap(b_index, b, raw.__func__)))
                else:
                    setattr(cls, b.attr, self._wrap(b_index, b, raw))
                continue
            original = getattr(home, b.attr)
            wrapped = self._wrap(b_index, b, original)
            for mod in modules:
                if mod.__dict__.get(b.attr) is original:
                    setattr(mod, b.attr, wrapped)

    def summary(self) -> dict:
        """Per-boundary calls, counts, total and self seconds, plus the
        cross-span tallies the per-layer metrics need."""
        names = [b.name for b in self.boundaries]
        nb = len(names)
        calls = [0] * nb
        items = [0] * nb
        total = [0.0] * nb
        child = [0.0] * len(self.spans)
        for b_index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * nb
        b_value = names.index("values.value")
        b_knn = names.index("values.knn_complete")
        b_exact_match = names.index("values.exact_match_complete")
        b_marginal = names.index("attribution.marginal_contributions")
        b_predict = names.index("models.predict")
        b_global = names.index("attribution.global_asv")
        masks_unique = 0
        knn_fallbacks = 0
        predict_rows_in_global = 0
        # A value call that missed its cache computes the coalition, which
        # calls the predictor once; a hit returns without predicting.
        evaluated = set()
        in_global = [False] * len(self.spans)
        for idx, (b_index, start, end, parent, n) in enumerate(self.spans):
            dur = end - start
            calls[b_index] += 1
            items[b_index] += n
            total[b_index] += dur
            self_s[b_index] += dur - child[idx]
            in_global[idx] = b_index == b_global or (parent >= 0 and in_global[parent])
            parent_b = self.spans[parent][0] if parent >= 0 else -1
            if b_index == b_value and parent_b == b_marginal:
                masks_unique += 1
            elif b_index == b_knn and parent_b == b_exact_match:
                knn_fallbacks += 1
            elif b_index == b_predict:
                if parent_b == b_value:
                    evaluated.add(parent)
                if in_global[idx]:
                    predict_rows_in_global += n
        return {
            "spans": len(self.spans),
            "boundaries": {
                name: {"calls": calls[i], "items": items[i], "total_s": total[i], "self_s": self_s[i]}
                for i, name in enumerate(names)
            },
            "value_evaluations": len(evaluated),
            "masks_unique": masks_unique,
            "knn_fallbacks": knn_fallbacks,
            "predict_rows_in_global": predict_rows_in_global,
        }
