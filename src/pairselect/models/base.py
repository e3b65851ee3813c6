"""Shared plumbing for the classifier zoo.

Every model exposes ``score_samples`` returning a class-1 score in
[0, 1].  ``decide`` is the package's one 0.5 decision rule on such
scores; ``predict`` is ``decide`` of ``score_samples``, so the two can
never disagree.  ``Classifier`` checks the inputs and, for kinds
with ``standardize = True``, scales features by statistics of their own
training set; subclasses implement ``_fit(Z, y, rng)`` and ``_score(Z)``
on the resulting matrix ``Z``.
"""

from __future__ import annotations

import numpy as np

from ..data import stream_seed
from ..errors import TrainingError


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from (master seed, symbol, model id, ...)."""
    return stream_seed(*parts)


def as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    return X


def check_training_data(X: np.ndarray, y: np.ndarray) -> None:
    if len(X) == 0:
        raise TrainingError("empty training set")
    if len(X) != len(y):
        raise TrainingError(f"feature/label length mismatch: {len(X)} vs {len(y)}")
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values in training set")
    classes = np.unique(y)
    if len(classes) < 2:
        raise TrainingError("degenerate labels: training set has a single class")


def check_query(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values in query")


class Standardizer:
    """Per-feature mean/variance scaling fitted on the learn set."""

    def fit(self, X: np.ndarray) -> "Standardizer":
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant features pass through centered
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.scale_


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances; rounding negatives clip to 0."""
    return np.maximum((A * A).sum(axis=1)[:, None] - 2.0 * A @ B.T + (B * B).sum(axis=1)[None, :], 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def decide(scores) -> np.ndarray:
    """Class predictions from class-1 scores: 1 where the score is >= 0.5."""
    return (scores >= 0.5).astype(np.int64)


class Classifier:
    """Base for all zoo members; subclasses implement ``_fit`` and ``_score``."""

    kind = "base"
    standardize = False  # scale-sensitive kinds set this to True

    def fit(self, X, y, seed: int = 0) -> "Classifier":
        X = as_matrix(X)
        y = np.asarray(y, dtype=np.int64)
        check_training_data(X, y)
        if self.standardize:
            self._std = Standardizer().fit(X)
            X = self._std.transform(X)
        self._fit(X, y, np.random.default_rng(seed))
        return self

    def score_samples(self, X) -> np.ndarray:
        X = as_matrix(X)
        check_query(X)
        if self.standardize:
            X = self._std.transform(X)
        return self._score(X)

    def _fit(self, Z: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _score(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        return decide(self.score_samples(X))
