"""RBF-kernel SVM fitted on the box-constrained dual."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .base import Classifier, sigmoid, squared_distances


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(A, B))


@dataclass(eq=False)
class KernelSVMModel(Classifier):
    """Soft-margin RBF SVM via deterministic projected gradient ascent.

    The intercept is absorbed by adding a constant to the kernel, which
    removes the dual equality constraint; plain box projection then
    suffices.  The step size comes from a power-iteration estimate of the
    dual Hessian's largest eigenvalue.  ``gamma="scale"`` resolves to
    ``1 / (d * var)`` on the standardized features.
    """

    kind = "kernel_svm"
    standardize = True

    C: float = 1.0
    gamma: float | Literal["scale"] = "scale"
    max_iter: int = 5_000
    tol: float = 1e-6

    def _fit(self, Z, y, rng) -> None:
        n, d = Z.shape
        if self.gamma == "scale":
            var = float(Z.var())
            self._gamma = 1.0 / (d * var) if var > 0 else 1.0 / d
        else:
            self._gamma = self.gamma

        s = 2.0 * y.astype(np.float64) - 1.0
        K = _rbf(Z, Z, self._gamma) + 1.0  # +1 absorbs the intercept
        Q = (s[:, None] * s[None, :]) * K

        # at most 30 power iterations approximate the top eigenvalue well
        vec = np.ones(n) / np.sqrt(n)
        lam = 1.0
        for _ in range(30):
            nxt = Q @ vec
            lam = float(np.linalg.norm(nxt))
            if lam == 0.0:
                lam = 1.0
                break
            vec = nxt / lam
        step = 1.0 / lam

        alpha = np.zeros(n)
        for _ in range(self.max_iter):
            grad = 1.0 - Q @ alpha
            nxt = np.clip(alpha + step * grad, 0.0, self.C)
            if np.max(np.abs(nxt - alpha)) < self.tol:
                alpha = nxt
                break
            alpha = nxt

        keep = alpha > 0.0
        self._alpha_s = (alpha * s)[keep]
        self._support = Z[keep]

    def _score(self, Z) -> np.ndarray:
        if len(self._support) == 0:
            return np.full(len(Z), 0.5)
        margin = (_rbf(Z, self._support, self._gamma) + 1.0) @ self._alpha_s
        return sigmoid(margin)
