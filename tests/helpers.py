"""Tiny predictor doubles shared across the test modules, and a memory probe."""

import tracemalloc

import numpy as np


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
        p1 = 1.0 / (1.0 + np.exp(-(X @ self.w + self.b)))
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


class CountingGame:
    """A random table game over n features that records every mask it is asked for."""

    def __init__(self, n, seed=0):
        self.n = n
        self.table = np.random.default_rng(seed).random(1 << n)
        self.masks = []

    def value(self, mask):
        self.masks.append(int(mask))
        return float(self.table[mask])
