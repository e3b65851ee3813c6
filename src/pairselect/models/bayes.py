"""Gaussian naive Bayes."""

from __future__ import annotations

import numpy as np

from .base import Classifier


class GaussianNBModel(Classifier):
    """Per-class feature Gaussians with variance smoothing.

    Variances are floored by ``var_smoothing`` times the largest feature
    variance of the whole training set (or by ``var_smoothing`` itself
    when every feature is constant), so degenerate features fall back to
    the class priors.
    """

    kind = "gaussian_nb"

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = float(var_smoothing)

    def _fit(self, X, y, rng) -> None:
        eps = self.var_smoothing * float(X.var(axis=0).max())
        if eps == 0.0:
            eps = self.var_smoothing
        self._classes = np.array([0, 1])
        self._mean = np.stack([X[y == c].mean(axis=0) for c in self._classes])
        self._var = np.stack([X[y == c].var(axis=0) + eps for c in self._classes])
        counts = np.array([(y == c).sum() for c in self._classes], dtype=np.float64)
        self._log_prior = np.log(counts / counts.sum())

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        jll = np.empty((len(X), 2))
        for c in (0, 1):
            diff = X - self._mean[c]
            jll[:, c] = self._log_prior[c] - 0.5 * (
                np.log(2.0 * np.pi * self._var[c]).sum() + (diff * diff / self._var[c]).sum(axis=1)
            )
        return jll

    def _score(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        shifted = jll - jll.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return expd[:, 1] / expd.sum(axis=1)
