"""The pre-sorted CART grower, the level-wise descent and boosting's leaf
step against their per-node, per-row and per-leaf-mask references.

Both growers must build the same tree bit for bit: same split features,
thresholds, child links and leaf values, including every tie-break.  The
descent must reach the same leaf as a walk from the root, and boosting
must give the same margin as the mask-per-leaf fit.
"""

import itertools

import numpy as np
import pytest

from pairselect.models import ClassifierSpec, train
from pairselect.models import trees
from pairselect.models.trees import GradientBoostingModel, grow_tree

from oracles import apply_oracle, gradient_boosting_margin_oracle, grow_tree_oracle

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _features(rng, n, d):
    """A feature matrix mixing the column shapes that stress tie handling."""
    cols = []
    for _ in range(d):
        shape = rng.integers(4)
        if shape == 0:
            cols.append(rng.integers(0, 4, size=n).astype(np.float64))  # tie-heavy
        elif shape == 1:
            cols.append(np.full(n, 1.5))  # constant
        elif shape == 2:
            cols.append(np.round(rng.normal(size=n), 1))
        else:
            cols.append(rng.normal(size=n))
    X = np.column_stack(cols)
    if rng.random() < 0.3:
        X = X[rng.integers(0, max(1, n // 2), size=n)]  # duplicate rows
    return X


def _target(rng, n, criterion):
    if criterion == "gini":
        return rng.integers(0, 2, size=n).astype(np.float64)
    return rng.integers(-3, 4, size=n) * 0.25 if rng.random() < 0.5 else rng.normal(size=n)


def _assert_same_tree(a, b):
    for name in TREE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _random_cases():
    """(X, target, grower kwargs, feature-draw seed or None) for 240 mixed cases."""
    rng = np.random.default_rng(2016)
    for case in range(240):
        n = int(rng.integers(2, 301))
        d = int(rng.integers(1, 7))
        criterion = ("gini", "sse")[case % 2]
        X = _features(rng, n, d)
        target = _target(rng, n, criterion)
        kwargs = dict(
            criterion=criterion,
            max_depth=int(rng.integers(1, 31)) if rng.random() < 0.9 else 200,
            min_samples_split=int(rng.integers(2, 7)),
            min_samples_leaf=int(rng.integers(1, 5)),
        )
        seed = None
        if d > 1 and rng.random() < 0.4:
            kwargs["max_features"] = int(rng.integers(1, d))
            seed = int(rng.integers(2**32))
        yield X, target, kwargs, seed


def _probe(rng, X, tree):
    """Training rows, rows sitting exactly on split thresholds, and rows far outside the training range."""
    on_split = X[rng.integers(0, len(X), size=len(tree.feature))]
    inner = np.flatnonzero(tree.feature >= 0)
    on_split[inner, tree.feature[inner]] = tree.threshold[inner]
    span = np.ptp(X, axis=0) + 1.0
    beyond = [X.min(axis=0) - span, X.max(axis=0) + span, 10.0 * span * rng.normal(size=X.shape[1])]
    return np.vstack([X, on_split, *beyond])


def test_grower_matches_reference_on_random_cases():
    for X, target, kwargs, seed in _random_cases():
        if seed is not None:
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _assert_same_tree(
                grow_tree(X, target, rng=rng_new, **kwargs),
                grow_tree_oracle(X, target, rng=rng_ref, **kwargs),
            )
            assert rng_new.random() == rng_ref.random()  # same draws, same order
        else:
            _assert_same_tree(grow_tree(X, target, **kwargs), grow_tree_oracle(X, target, **kwargs))


def test_descent_matches_per_row_walk_on_random_cases():
    rng = np.random.default_rng(1999)
    for X, target, kwargs, seed in _random_cases():
        tree = grow_tree(X, target, rng=None if seed is None else np.random.default_rng(seed), **kwargs)
        probe = _probe(rng, X, tree)
        assert np.array_equal(tree.apply(probe), apply_oracle(tree, probe))


def test_descent_edge_cases():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    tree = grow_tree(X, np.array([0.0, 0.0, 1.0, 1.0]), "gini", 5, 2, 1)
    empty = tree.apply(np.empty((0, 2)))
    assert empty.dtype == np.int64 and empty.shape == (0,)
    threshold = tree.threshold[0]
    above = np.nextafter(threshold, 9.0)
    on_and_off = np.array([[threshold, 0.0], [above, 0.0], [-1e300, 0.0], [1e300, 0.0]])
    leaves = tree.apply(on_and_off)
    assert leaves.tolist() == [tree.left[0], tree.right[0], tree.left[0], tree.right[0]]
    assert np.array_equal(leaves, apply_oracle(tree, on_and_off))
    stump = grow_tree(X, np.ones(4), "gini", 5, 2, 1)  # a pure target never splits
    assert len(stump.value) == 1
    assert np.array_equal(stump.apply(np.vstack([X, -X])), np.zeros(8, dtype=np.int64))


@pytest.mark.parametrize(
    "n, d, max_depth, min_samples_leaf",
    [(400, 3, 2, 1), (300, 5, 4, 3), (250, 4, 12, 1)],
    ids=["few-large-leaves", "mid-depth", "deep"],
)
def test_boosting_matches_mask_per_leaf_fit(n, d, max_depth, min_samples_leaf):
    rng = np.random.default_rng(n + d)
    X = np.column_stack([_features(rng, n, d - 1), rng.normal(size=n)])
    y = (X[:, -1] + rng.normal(size=n) > 0).astype(np.int64)
    probe = np.vstack([X, 3.0 * rng.normal(size=(60, d))])
    params = dict(
        n_estimators=12,
        learning_rate=0.3,
        max_depth=max_depth,
        min_samples_split=2,
        min_samples_leaf=min_samples_leaf,
    )
    model = GradientBoostingModel(**params).fit(X, y)
    reference = gradient_boosting_margin_oracle(X, y, probe, **params)
    assert np.array_equal(model.decision_margin(probe), reference)


@pytest.mark.parametrize("criterion", ["gini", "sse"])
def test_grower_matches_reference_on_edge_shapes(criterion):
    rng = np.random.default_rng(7)
    shapes = [
        np.array([[0.0], [1.0]]),  # n = 2
        np.zeros((9, 3)),  # all constant
        np.repeat(np.arange(5.0), 6).reshape(-1, 1),  # tie blocks
        np.tile(rng.normal(size=(4, 2)), (10, 1)),  # duplicated rows
        np.tile([[1.0], [np.nextafter(1.0, 2.0)], [3.0]], (5, 1)),  # midpoint rounds down to 1.0
    ]
    for X, _ in itertools.product(shapes, range(3)):
        target = _target(rng, len(X), criterion)
        for leaf in range(1, 5):
            for depth in (1, 30, 200):
                kwargs = dict(criterion=criterion, max_depth=depth, min_samples_split=2, min_samples_leaf=leaf)
                _assert_same_tree(grow_tree(X, target, **kwargs), grow_tree_oracle(X, target, **kwargs))


def test_partition_follows_threshold_when_midpoint_rounds_up():
    below = np.nextafter(2.0, 0.0)
    X = np.repeat([below, 2.0, 3.0], 3).reshape(-1, 1)
    target = np.repeat([0.0, 1.0, 1.0], 3)
    kwargs = dict(criterion="gini", max_depth=1, min_samples_split=2, min_samples_leaf=1)
    tree = grow_tree(X, target, **kwargs)
    assert tree.threshold[0] == below  # the midpoint rounds onto 2.0, so the lower value serves
    assert tree.value[tree.left[0]] == 0.0  # and the 2.0 rows go right, as scored
    _assert_same_tree(tree, grow_tree_oracle(X, target, **kwargs))


def test_midpoint_rounding_onto_the_largest_value_still_splits():
    X = np.array([[np.nextafter(2.0, 0.0)], [2.0]])
    tree = grow_tree(X, np.array([0.0, 1.0]), "gini", 5, 2, 1)
    assert len(tree.value) == 3


@pytest.mark.parametrize(
    "kind, params",
    [
        ("decision_tree", {}),
        ("random_forest", {"n_estimators": 15}),
        ("gradient_boosting", {"n_estimators": 15}),
    ],
)
def test_tree_models_score_as_with_reference_grower(kind, params, monkeypatch):
    rng = np.random.default_rng(11)
    X = np.column_stack([_features(rng, 250, 4), rng.normal(size=250)])
    y = (X[:, -1] + rng.normal(size=250) > 0).astype(np.int64)
    probe = np.vstack([X, rng.normal(size=(50, 5))])
    spec = ClassifierSpec.resolve(kind, params)
    scores = train(spec, X, y, seed=3).score_samples(probe)
    monkeypatch.setattr(trees, "grow_tree", grow_tree_oracle)
    reference = train(spec, X, y, seed=3).score_samples(probe)
    assert np.array_equal(scores, reference)
