"""k-nearest-neighbors with inverse-distance weighting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Classifier, squared_distances


@dataclass(eq=False)
class KNeighborsModel(Classifier):
    """Euclidean kNN on standardized features.

    Queries landing exactly on training points short-circuit to the mean
    label of those points; otherwise the score is the inverse-distance
    weighted vote of the ``k`` nearest neighbors (stable order on ties).
    """

    kind = "kneighbors"
    standardize = True

    n_neighbors: int = 7

    def _fit(self, Z, y, rng) -> None:
        self._Z = Z
        self._y = y.astype(np.float64)

    def _score(self, Q) -> np.ndarray:
        d2 = squared_distances(Q, self._Z)
        k = min(self.n_neighbors, self._Z.shape[0])
        scores = np.empty(len(Q))
        for i in range(len(Q)):
            row = d2[i]
            exact = row <= 1e-18
            if exact.any():
                scores[i] = self._y[exact].mean()
                continue
            nearest = np.argsort(row, kind="stable")[:k]
            w = 1.0 / np.sqrt(row[nearest])
            scores[i] = float(w @ self._y[nearest] / w.sum())
        return scores
