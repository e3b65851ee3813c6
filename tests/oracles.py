"""Independent brute-force references used to check the library.

Every function here recomputes its value from scratch per index or by
exhaustive enumeration, deliberately avoiding the running-state
recurrences and rank tricks the implementations use.
"""

import numpy as np

from pairselect.models.base import sigmoid
from pairselect.models.trees import _EPS_IMPROVEMENT, _Tree, _node_score


def sma_oracle(x, n):
    x = np.asarray(x, dtype=np.float64)
    out = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        out[t] = x[t - n + 1 : t + 1].sum() / n
    return out


def ema_oracle(x, n):
    """Closed-form EMA per index: decayed seed plus decayed-weight sum."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(len(x), np.nan)
    if len(x) < n:
        return out
    alpha = 2.0 / (n + 1.0)
    seed = x[:n].sum() / n
    for t in range(n - 1, len(x)):
        k = t - (n - 1)
        tail = x[n : t + 1]
        weights = (1.0 - alpha) ** np.arange(len(tail) - 1, -1, -1)
        out[t] = (1.0 - alpha) ** k * seed + alpha * (weights * tail).sum()
    return out


def rsi_oracle(closes, n):
    """Closed-form Wilder RSI per index."""
    x = np.asarray(closes, dtype=np.float64)
    out = np.full(len(x), np.nan)
    if len(x) < n + 1:
        return out
    moves = np.diff(x)
    gains = np.maximum(moves, 0.0)
    losses = np.maximum(-moves, 0.0)
    beta = (n - 1.0) / n
    seed_gain = gains[:n].sum() / n
    seed_loss = losses[:n].sum() / n
    for t in range(n, len(x)):
        k = t - n
        tail_g = gains[n : t]
        tail_l = losses[n : t]
        weights = beta ** np.arange(len(tail_g) - 1, -1, -1)
        avg_gain = beta**k * seed_gain + (weights * tail_g).sum() / n
        avg_loss = beta**k * seed_loss + (weights * tail_l).sum() / n
        if avg_loss == 0.0:
            out[t] = 100.0
        elif avg_gain == 0.0:
            out[t] = 0.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


def macd_oracle(closes, fast=12, slow=26, signal=9):
    x = np.asarray(closes, dtype=np.float64)
    line = ema_oracle(x, fast) - ema_oracle(x, slow)
    sig = np.full(len(x), np.nan)
    hist = np.full(len(x), np.nan)
    defined = ~np.isnan(line)
    if defined.sum() >= signal:
        start = int(np.argmax(defined))
        compact_sig = ema_oracle(line[start:], signal)
        sig[start:] = compact_sig
        hist = line - sig
    return line, sig, hist


def confusion_oracle(predictions, labels):
    tp = fp = fn = tn = 0
    for p, l in zip(predictions, labels):
        if p == 1 and l == 1:
            tp += 1
        elif p == 1 and l == 0:
            fp += 1
        elif p == 0 and l == 1:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def balanced_acc_oracle(predictions, labels):
    hits1 = [p for p, l in zip(predictions, labels) if l == 1]
    hits0 = [p for p, l in zip(predictions, labels) if l == 0]
    r1 = sum(1 for p in hits1 if p == 1) / len(hits1)
    r0 = sum(1 for p in hits0 if p == 0) / len(hits0)
    return (r1 + r0) / 2.0


def auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def compound_oracle(daily_returns_pct):
    value = 1.0
    for r in daily_returns_pct:
        value *= 1.0 + r / 100.0
    return (value - 1.0) * 100.0


def _best_split_oracle(X, t, idx, features, min_samples_leaf, criterion):
    """Best (score, feature, threshold) over candidate cuts, or None."""
    m = len(idx)
    best = None
    tt = t[idx]
    tsq = tt * tt
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xo = xs[order]
        to = tt[order]
        so = tsq[order]
        csum = np.cumsum(to)
        csq = np.cumsum(so)
        pos = np.arange(1, m)  # left part takes pos elements
        valid = xo[:-1] < xo[1:]
        valid &= (pos >= min_samples_leaf) & (m - pos >= min_samples_leaf)
        if not valid.any():
            continue
        ml = pos.astype(np.float64)
        mr = m - ml
        sl = csum[:-1]
        sr = csum[-1] - sl
        if criterion == "gini":
            score = 2.0 * (sl * (ml - sl) / ml + sr * (mr - sr) / mr)
        else:
            sql = csq[:-1]
            sqr = csq[-1] - sql
            score = (sql - sl * sl / ml) + (sqr - sr * sr / mr)
        score = np.where(valid, score, np.inf)
        j = int(np.argmin(score))  # first minimum -> lowest threshold wins ties
        if best is None or score[j] < best[0]:
            mid = (xo[j] + xo[j + 1]) / 2.0
            best = (float(score[j]), int(f), float(mid if mid < xo[j + 1] else xo[j]))
    return best


def grow_tree_oracle(
    X: np.ndarray,
    target: np.ndarray,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> _Tree:
    """Reference CART grower: a stable argsort of every feature at every node."""
    t = np.asarray(target, dtype=np.float64)
    d = X.shape[1]
    tree = _Tree()

    def build(idx: np.ndarray, depth: int) -> int:
        m = len(idx)
        ssum = float(t[idx].sum())
        node = tree.add_node(ssum / m)
        sq = float((t[idx] * t[idx]).sum())
        parent_score = _node_score(ssum, sq, m, criterion)
        if depth >= max_depth or m < min_samples_split or parent_score <= _EPS_IMPROVEMENT:
            return node
        if max_features is not None and max_features < d:
            features = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            features = np.arange(d)
        best = _best_split_oracle(X, t, idx, features, min_samples_leaf, criterion)
        if best is None or best[0] >= parent_score - _EPS_IMPROVEMENT:
            return node
        _, f, thr = best
        go_left = X[idx, f] <= thr
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.left[node] = build(idx[go_left], depth + 1)
        tree.right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    tree.freeze()
    return tree


def apply_oracle(tree: _Tree, X: np.ndarray) -> np.ndarray:
    """Leaf id of every row by a walk from the root, one row at a time."""
    out = np.empty(len(X), dtype=np.int64)
    for i, row in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = node
    return out


def gradient_boosting_margin_oracle(
    X: np.ndarray,
    y: np.ndarray,
    query: np.ndarray,
    n_estimators: int,
    learning_rate: float,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
) -> np.ndarray:
    """Boosted margin on ``query`` from a fit that finds each leaf's rows with a mask."""
    p_prior = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    base_margin = float(np.log(p_prior / (1.0 - p_prior)))
    margin = np.full(len(y), base_margin)
    out = np.full(len(query), base_margin)
    for _ in range(n_estimators):
        p = sigmoid(margin)
        residual = y - p
        hessian = p * (1.0 - p)
        tree = grow_tree_oracle(X, residual, "sse", max_depth, min_samples_split, min_samples_leaf)
        leaves = apply_oracle(tree, X)
        for leaf in np.unique(leaves):
            members = leaves == leaf
            tree.value[leaf] = residual[members].sum() / (hessian[members].sum() + 1e-12)
        margin = margin + learning_rate * tree.value[leaves]
        out = out + learning_rate * tree.value[apply_oracle(tree, query)]
    return out
