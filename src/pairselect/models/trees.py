"""CART trees and the ensembles built on them.

One grower serves both impurity criteria: Gini on binary labels for the
classification tree and forest, variance for the boosting stage's
regression trees.  Splits are exact (every midpoint between distinct
sorted values is a candidate); ties break toward the lower feature index
and then the lower threshold, which keeps training deterministic.

Each feature is sorted once per tree (the exact pre-sorted search of
Chen & Guestrin, "XGBoost", KDD 2016).  The invariant that keeps the trees
exact: every node holds, per feature, its rows sorted by (value, row id),
which is the order a stable argsort of the node's own rows would give.
Splitting a node partitions those lists stably with a row mask, so both
children inherit the invariant.  A midpoint that rounds onto the upper of
its two values falls back to the lower one (scikit-learn's splitter rule),
so ``x <= threshold`` always makes the cut that was scored.

Queries descend level by level: each step moves every row still on an
internal node to its child, so a query takes one array pass per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Classifier, decide, sigmoid

_EPS_IMPROVEMENT = 1e-12


class _Tree:
    """Flat-array binary tree; leaves carry the mean target of their node."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.value) - 1

    def freeze(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id reached by every row; one step moves every row down a level."""
        node = np.zeros(len(X), dtype=np.int64)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while len(rows):
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] >= 0]
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def _node_score(total_sum: float, total_sq: float, m: int, criterion: str) -> float:
    if criterion == "gini":
        # weighted gini: m * 2p(1-p) with s ones among m
        return 2.0 * total_sum * (m - total_sum) / m
    return total_sq - total_sum * total_sum / m  # sse


def _best_split(Xt, t, tsq, order, features, min_samples_leaf, criterion):
    """Best (score, feature, threshold) over candidate cuts, or None.

    ``order`` holds the node's rows per feature, sorted by (value, row id);
    all candidate features are scored in one (k, m) pass.
    """
    m = order.shape[1]
    # cut j puts the first j + 1 sorted rows on the left; only these leave
    # min_samples_leaf rows on both sides
    lo, hi = min_samples_leaf - 1, m - min_samples_leaf
    if lo >= hi:
        return None
    rows = order if len(features) == len(order) else order[features]
    xo = Xt[features[:, None], rows]
    valid = xo[:, lo:hi] < xo[:, lo + 1 : hi + 1]
    if not valid.any():
        return None
    csum = np.cumsum(t[rows], axis=1)  # sequential per row, like a 1-D cumsum
    ml = np.arange(lo + 1, hi + 1, dtype=np.float64)
    mr = m - ml
    sl = csum[:, lo:hi]
    sr = csum[:, -1:] - sl
    if criterion == "gini":
        score = 2.0 * (sl * (ml - sl) / ml + sr * (mr - sr) / mr)
    else:
        csq = np.cumsum(tsq[rows], axis=1)
        sql = csq[:, lo:hi]
        sqr = csq[:, -1:] - sql
        score = (sql - sl * sl / ml) + (sqr - sr * sr / mr)
    score[~valid] = np.inf
    cut = score.argmin(axis=1)  # first minimum -> lowest threshold wins ties
    best = score[np.arange(len(features)), cut]
    i = int(best.argmin())  # first minimum -> lowest feature index wins ties
    j = lo + int(cut[i])
    lower, upper = xo[i, j], xo[i, j + 1]
    mid = (lower + upper) / 2.0
    return float(best[i]), int(features[i]), float(mid if mid < upper else lower)


def grow_tree(
    X: np.ndarray,
    target: np.ndarray,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> _Tree:
    """Grow one CART tree on ``target`` (binary labels or real residuals)."""
    t = np.asarray(target, dtype=np.float64)
    tsq = t * t
    n, d = X.shape
    Xt = np.ascontiguousarray(X.T)
    in_left = np.zeros(n, dtype=bool)
    tree = _Tree()

    def build(idx: np.ndarray, order: np.ndarray, depth: int) -> int:
        m = len(idx)
        ssum = float(t[idx].sum())
        node = tree.add_node(ssum / m)
        sq = float(tsq[idx].sum())
        parent_score = _node_score(ssum, sq, m, criterion)
        if depth >= max_depth or m < min_samples_split or parent_score <= _EPS_IMPROVEMENT:
            return node
        if max_features is not None and max_features < d:
            features = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            features = np.arange(d)
        best = _best_split(Xt, t, tsq, order, features, min_samples_leaf, criterion)
        if best is None or best[0] >= parent_score - _EPS_IMPROVEMENT:
            return node
        _, f, thr = best
        go_left = X[idx, f] <= thr
        left = idx[go_left]
        in_left[left] = True
        to_left = in_left[order]
        in_left[left] = False
        tree.feature[node] = f
        tree.threshold[node] = thr
        # boolean indexing partitions stably: rows stay sorted by (value, row id)
        tree.left[node] = build(left, order[to_left].reshape(d, -1), depth + 1)
        tree.right[node] = build(idx[~go_left], order[~to_left].reshape(d, -1), depth + 1)
        return node

    build(np.arange(n), np.argsort(Xt, axis=1, kind="stable"), 0)
    tree.freeze()
    return tree


@dataclass(eq=False)
class DecisionTreeModel(Classifier):
    """CART classification tree; the score is the leaf's class-1 fraction."""

    kind = "decision_tree"

    max_depth: int = 12
    min_samples_split: int = 6
    min_samples_leaf: int = 4

    def _fit(self, X, y, rng) -> None:
        self._tree = grow_tree(
            X,
            y,
            criterion="gini",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )

    def _score(self, X) -> np.ndarray:
        return self._tree.predict_value(X)


@dataclass(eq=False)
class RandomForestModel(Classifier):
    """Bootstrap ensemble of Gini trees with per-split feature subsampling.

    Each tree sees a bootstrap resample and draws ``sqrt(d)`` candidate
    features at every split; the score is the fraction of trees voting
    class 1.
    """

    kind = "random_forest"

    n_estimators: int = 500
    max_depth: int = 10
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def _fit(self, X, y, rng) -> None:
        n, d = X.shape
        mtry = max(1, int(np.sqrt(d)))
        self._trees = []
        for seq in np.random.SeedSequence(rng.integers(2**63)).spawn(self.n_estimators):
            tree_rng = np.random.default_rng(seq)
            boot = tree_rng.integers(0, n, size=n)
            tree = grow_tree(
                X[boot],
                y[boot],
                criterion="gini",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=mtry,
                rng=tree_rng,
            )
            self._trees.append(tree)

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) matrix of individual tree votes."""
        return np.stack([decide(t.predict_value(X)) for t in self._trees])

    def _score(self, X) -> np.ndarray:
        return self.tree_votes(X).mean(axis=0)


@dataclass(eq=False)
class GradientBoostingModel(Classifier):
    """Additive regression trees on logistic-loss gradients.

    Starts from the prior log-odds; each round fits a variance-split tree
    to the residual ``y - p`` and replaces leaf values with the Newton
    step ``sum(residual) / sum(p (1-p))``.  The score is the sigmoid of
    the boosted margin.
    """

    kind = "gradient_boosting"

    n_estimators: int = 100
    learning_rate: float = 0.01
    max_depth: int = 12
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def _fit(self, X, y, rng) -> None:
        p_prior = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        self.base_margin_ = float(np.log(p_prior / (1.0 - p_prior)))
        margin = np.full(len(y), self.base_margin_)
        self._trees = []
        for _ in range(self.n_estimators):
            p = sigmoid(margin)
            residual = y - p
            hessian = p * (1.0 - p)
            tree = grow_tree(
                X,
                residual,
                criterion="sse",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            leaves = tree.apply(X)
            # Newton step per leaf; a stable sort keeps each leaf's rows in row order
            order = np.argsort(leaves, kind="stable")
            for rows in np.split(order, np.flatnonzero(np.diff(leaves[order])) + 1):
                tree.value[leaves[rows[0]]] = residual[rows].sum() / (hessian[rows].sum() + 1e-12)
            margin = margin + self.learning_rate * tree.value[leaves]
            self._trees.append(tree)

    def decision_margin(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(len(X), self.base_margin_)
        for tree in self._trees:
            margin = margin + self.learning_rate * tree.predict_value(X)
        return margin

    def _score(self, X) -> np.ndarray:
        return sigmoid(self.decision_margin(X))
