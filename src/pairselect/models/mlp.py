"""Single-hidden-layer perceptron trained by full-batch Adam."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Classifier, sigmoid


@dataclass(eq=False)
class MLPModel(Classifier):
    """ReLU hidden layer, sigmoid output, mean cross-entropy plus L2.

    Full-batch Adam with seeded weight init keeps training deterministic;
    it stops once the training loss fails to improve by ``tol`` for
    ``patience`` consecutive epochs.
    """

    kind = "mlp"
    standardize = True

    hidden_units: int = 69
    alpha: float = 1e-4
    max_iter: int = 10_000
    tol: float = 1e-6
    patience: int = 10
    learning_rate: float = 0.01

    def _fit(self, Z, y, rng) -> None:
        n, d = Z.shape
        h = self.hidden_units
        yf = y.astype(np.float64)

        params = [
            rng.standard_normal((d, h)) * np.sqrt(2.0 / d),
            np.zeros(h),
            rng.standard_normal((h, 1)) * np.sqrt(1.0 / h),
            np.zeros(1),
        ]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        best_loss = np.inf
        stale = 0
        for epoch in range(1, self.max_iter + 1):
            W1, b1, W2, b2 = params
            A = Z @ W1 + b1
            H = np.maximum(A, 0.0)
            out = (H @ W2).ravel() + b2[0]
            # stable mean cross-entropy: log(1+e^o) - y*o
            loss = float(np.mean(np.logaddexp(0.0, out) - yf * out))
            loss += self.alpha * 0.5 * ((W1 * W1).sum() + (W2 * W2).sum()) / n

            delta = (sigmoid(out) - yf) / n
            gW2 = H.T @ delta[:, None] + self.alpha * W2 / n
            gb2 = np.array([delta.sum()])
            dH = delta[:, None] @ W2.T
            dA = dH * (A > 0.0)
            gW1 = Z.T @ dA + self.alpha * W1 / n
            gb1 = dA.sum(axis=0)

            for i, g in enumerate((gW1, gb1, gW2, gb2)):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
                m_hat = m[i] / (1.0 - beta1**epoch)
                v_hat = v[i] / (1.0 - beta2**epoch)
                params[i] = params[i] - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

            if loss < best_loss - self.tol:
                best_loss = loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        self._params = params

    def _score(self, Z) -> np.ndarray:
        W1, b1, W2, b2 = self._params
        H = np.maximum(Z @ W1 + b1, 0.0)
        return sigmoid((H @ W2).ravel() + b2[0])
