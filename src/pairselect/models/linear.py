"""Linear margin models: L2 logistic regression and a hinge-loss SVM."""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .base import Classifier, sigmoid


class LogisticRegressionModel(Classifier):
    """L2-regularized logistic regression fitted by batch L-BFGS.

    The data term is summed and the penalty is ``||w||^2 / (2 C)`` with
    the intercept unpenalized, so smaller ``C`` means stronger shrinkage.
    """

    kind = "logistic"
    standardize = True

    def __init__(self, C: float = 0.1, max_iter: int = 10_000, tol: float = 1e-6):
        self.C = float(C)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _fit(self, Z, y, rng) -> None:
        s = 2.0 * y - 1.0
        n, d = Z.shape

        def objective(theta):
            w, b = theta[:d], theta[d]
            margins = s * (Z @ w + b)
            loss = np.logaddexp(0.0, -margins).sum() + 0.5 / self.C * w @ w
            # d/dm of log(1+e^-m) is -sigmoid(-m)
            coef = -s * sigmoid(-margins)
            grad = np.empty(d + 1)
            grad[:d] = Z.T @ coef + w / self.C
            grad[d] = coef.sum()
            return loss, grad

        result = optimize.minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol, "ftol": 1e-12},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = result.x[d]

    def _score(self, Z) -> np.ndarray:
        return sigmoid(Z @ self.coef_ + self.intercept_)


class LinearSVMModel(Classifier):
    """Hinge-loss linear SVM fitted by deterministic full-batch subgradient.

    Pegasos-style steps with a decaying rate and an L2-ball projection; the
    intercept rides along as an augmented, regularized constant feature
    (the liblinear convention).  The class-1 score is the logistic squash
    of the signed margin.
    """

    kind = "linear_svm"
    standardize = True

    def __init__(self, C: float = 1.0, max_iter: int = 10_000, tol: float = 1e-6):
        self.C = float(C)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _fit(self, Z, y, rng) -> None:
        Z = np.column_stack([Z, np.ones(len(Z))])
        s = 2.0 * y - 1.0
        n, d = Z.shape
        lam = 1.0 / (self.C * n)
        radius = 1.0 / np.sqrt(lam)

        w = np.zeros(d)
        for t in range(1, self.max_iter + 1):
            margins = s * (Z @ w)
            viol = margins < 1.0
            grad = lam * w
            if viol.any():
                grad = grad - (s[viol, None] * Z[viol]).sum(axis=0) / n
            step = 1.0 / (lam * t)
            w_new = w - step * grad
            norm = np.linalg.norm(w_new)
            if norm > radius:
                w_new = w_new * (radius / norm)
            if np.max(np.abs(w_new - w)) < self.tol * (1.0 + np.max(np.abs(w))):
                w = w_new
                break
            w = w_new
        self.coef_ = w[:-1]
        self.intercept_ = w[-1]

    def _score(self, Z) -> np.ndarray:
        return sigmoid(Z @ self.coef_ + self.intercept_)
