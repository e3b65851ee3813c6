import inspect

import numpy as np
import pytest

from pairselect.data import InstrumentSource, SyntheticSpec
from pairselect.errors import ConfigError, TrainingError
from pairselect.models import (
    KIND_ORDER,
    REGISTRY,
    ClassifierSpec,
    grid_combinations,
    load_model,
    save_model,
    train,
)
from pairselect.models.base import derive_seed
from pairselect.pipeline import RunConfig

from helpers import make_separable_2d

FAST_KINDS = ("logistic", "decision_tree", "gaussian_nb", "kneighbors", "linear_svm")
SCALE_SENSITIVE = ("logistic", "linear_svm", "kernel_svm", "mlp", "kneighbors")


@pytest.fixture(scope="module")
def benchmark_2d():
    rng = np.random.default_rng(42)
    return make_separable_2d(rng, n_per_class=200)


@pytest.fixture(scope="module")
def probe_inputs():
    rng = np.random.default_rng(43)
    return rng.uniform(-3, 3, size=(1000, 2))


DEFAULT_IDS = {
    "gradient_boosting": "gradient_boosting(learning_rate=0.01;max_depth=12;n_estimators=100)",
    "logistic": "logistic(C=0.1;max_iter=10000;tol=1e-06)",
    "decision_tree": "decision_tree(max_depth=12;min_samples_leaf=4;min_samples_split=6)",
    "random_forest": "random_forest(max_depth=10;n_estimators=500)",
    "kneighbors": "kneighbors(n_neighbors=7)",
    "gaussian_nb": "gaussian_nb(var_smoothing=1e-09)",
    "linear_svm": "linear_svm(C=1.0;max_iter=10000)",
    "mlp": "mlp(alpha=0.0001;hidden_units=69;max_iter=10000)",
    "kernel_svm": "kernel_svm(C=1.0;gamma='scale';max_iter=5000)",
}


def test_kind_order_is_fixed():
    assert KIND_ORDER == (
        "gradient_boosting", "logistic", "decision_tree", "random_forest", "kneighbors",
        "gaussian_nb", "linear_svm", "mlp", "kernel_svm",
    )


@pytest.mark.parametrize("kind", list(DEFAULT_IDS))
def test_canonical_id_is_stable_and_sorted(kind):
    a = ClassifierSpec.resolve(kind).canonical_id
    axis, values = next(iter(REGISTRY[kind].default_grid.items()))
    default = REGISTRY[kind].defaults[axis]
    b = ClassifierSpec.resolve(kind, {axis: default}).canonical_id
    assert a == b == DEFAULT_IDS[kind]
    c = ClassifierSpec.resolve(kind, {axis: next(v for v in values if v != default)}).canonical_id
    assert c != a
    assert "," not in a  # ids must stay CSV-safe


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_id_names_and_grid_axes_are_constructor_parameters(kind):
    entry = REGISTRY[kind]
    accepted = inspect.signature(entry.factory).parameters
    assert entry.factory.kind == kind
    assert set(entry.defaults) <= set(accepted)
    assert set(entry.default_grid) <= set(accepted)
    for axis, values in entry.default_grid.items():
        assert entry.defaults[axis] in values  # the grid brackets the default


def test_unknown_kind_error_is_the_same_everywhere(tmp_path):
    with pytest.raises(ConfigError) as resolved:
        ClassifierSpec.resolve("xgboost")
    with pytest.raises(ConfigError) as combined:
        grid_combinations("xgboost")
    source = InstrumentSource("A", synthetic=SyntheticSpec("random_walk", 200))
    with pytest.raises(ConfigError) as validated:
        RunConfig(
            sources=(source,), seed=0, out_dir=tmp_path, store_path=tmp_path / "s.csv",
            model_kinds=("xgboost",),
        )
    assert "unknown model kind 'xgboost'" in str(resolved.value)
    assert str(resolved.value) == str(combined.value) == str(validated.value)


def test_derive_seed_is_stable():
    s = derive_seed(42, "AAPL", "logistic(C=0.1)")
    assert s == derive_seed(42, "AAPL", "logistic(C=0.1)")
    assert s != derive_seed(42, "AAPL", "logistic(C=1.0)")
    assert s != derive_seed(43, "AAPL", "logistic(C=0.1)")


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_capacity_on_margin_separated_benchmark(kind, benchmark_2d):
    X, y = benchmark_2d
    model = train(ClassifierSpec.resolve(kind), X, y, seed=7)
    assert (model.predict(X) == y).mean() >= 0.95


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_predict_equals_thresholded_score(kind, benchmark_2d, probe_inputs):
    X, y = benchmark_2d
    model = train(ClassifierSpec.resolve(kind), X, y, seed=7)
    scores = model.score_samples(probe_inputs)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    np.testing.assert_array_equal(model.predict(probe_inputs), (scores >= 0.5).astype(int))


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_same_seed_same_predictions(kind, benchmark_2d, probe_inputs):
    X, y = benchmark_2d
    a = train(ClassifierSpec.resolve(kind), X, y, seed=11)
    b = train(ClassifierSpec.resolve(kind), X, y, seed=11)
    np.testing.assert_array_equal(a.score_samples(probe_inputs), b.score_samples(probe_inputs))


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_single_class_labels_rejected(kind):
    X = np.random.default_rng(0).normal(size=(30, 3))
    with pytest.raises(TrainingError, match="degenerate labels"):
        train(ClassifierSpec.resolve(kind), X, np.ones(30, dtype=int), seed=0)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_non_finite_features_rejected(kind, benchmark_2d):
    X, y = benchmark_2d
    bad = X.copy()
    bad[3, 1] = np.nan
    with pytest.raises(TrainingError, match="non-finite"):
        train(ClassifierSpec.resolve(kind), bad, y, seed=0)
    model = train(ClassifierSpec.resolve(kind), X, y, seed=0)
    with pytest.raises(TrainingError, match="non-finite"):
        model.predict(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("kind", SCALE_SENSITIVE)
def test_standardization_invariance(kind, benchmark_2d):
    X, y = benchmark_2d
    query = np.random.default_rng(1).uniform(-3, 3, size=(200, 2))

    base = train(ClassifierSpec.resolve(kind), X, y, seed=3)
    # power-of-two scaling is exact in floating point end to end
    pow2 = train(ClassifierSpec.resolve(kind), X * 4.0, y, seed=3)
    if kind in ("kneighbors", "logistic"):
        np.testing.assert_array_equal(
            base.score_samples(query), pow2.score_samples(query * 4.0)
        )
    # general affine rescale of one column
    A = X.copy()
    A[:, 1] = A[:, 1] * 1.7 - 3.2
    qa = query.copy()
    qa[:, 1] = qa[:, 1] * 1.7 - 3.2
    affine = train(ClassifierSpec.resolve(kind), A, y, seed=3)
    np.testing.assert_allclose(
        affine.score_samples(qa), base.score_samples(query), atol=1e-6
    )
    np.testing.assert_array_equal(affine.predict(qa), base.predict(query))


def test_gaussian_nb_separated_clouds():
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.normal(-5.0, 1.0, 100), rng.normal(5.0, 1.0, 100)]).reshape(-1, 1)
    y = np.array([0] * 100 + [1] * 100)
    model = train(ClassifierSpec.resolve("gaussian_nb"), X, y, seed=0)
    assert (model.predict(X) == y).mean() >= 0.99
    # deep in class-1 territory the posterior saturates
    assert model.score_samples(np.array([[6.0]]))[0] > 0.99


def test_gaussian_nb_constant_features_fall_back_to_prior():
    X = np.ones((100, 3))
    y = np.array([0] * 10 + [1] * 90)
    model = train(ClassifierSpec.resolve("gaussian_nb"), X, y, seed=0)
    assert model.predict(np.ones((1, 3)))[0] == 1
    assert model.score_samples(np.ones((1, 3)))[0] == pytest.approx(0.9, abs=1e-6)


def test_logistic_on_linearly_separable_data(benchmark_2d):
    X, y = benchmark_2d
    model = train(ClassifierSpec.resolve("logistic"), X, y, seed=0)
    assert (model.predict(X) == y).all()
    # the fitted boundary agrees with a known separator on fresh points
    rng = np.random.default_rng(9)
    fresh = rng.uniform(-2, 2, size=(500, 2))
    separator = (fresh.sum(axis=1) > 0).astype(int)
    clear = np.abs(fresh.sum(axis=1)) > 0.6
    assert (model.predict(fresh[clear]) == separator[clear]).all()


def test_decision_tree_memorizes_unique_samples():
    # depth 12 suffices here; greedy splits on adversarial labels can need
    # more, so the universal capacity claim is checked without a depth cap
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 7))
    y = rng.integers(0, 2, 200)
    y[:2] = [0, 1]
    spec = ClassifierSpec.resolve(
        "decision_tree", {"max_depth": 12, "min_samples_split": 2, "min_samples_leaf": 1}
    )
    model = train(spec, X, y, seed=0)
    assert (model.predict(X) == y).all()
    for other_seed in (9, 10):
        rng = np.random.default_rng(other_seed)
        X = rng.normal(size=(200, 7))
        y = rng.integers(0, 2, 200)
        y[:2] = [0, 1]
        deep = ClassifierSpec.resolve(
            "decision_tree", {"max_depth": 200, "min_samples_split": 2, "min_samples_leaf": 1}
        )
        model = train(deep, X, y, seed=0)
        assert (model.predict(X) == y).all()


def test_kneighbors_exact_match_short_circuit():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, 50)
    y[:2] = [0, 1]
    model = train(ClassifierSpec.resolve("kneighbors"), X, y, seed=0)
    np.testing.assert_array_equal(model.predict(X), y)


def test_kneighbors_midpoint_of_symmetric_pair():
    X = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    model = train(ClassifierSpec.resolve("kneighbors", {"n_neighbors": 2}), X, y, seed=0)
    score = model.score_samples(np.array([[0.0, 0.5]]))[0]
    assert score == pytest.approx(0.5)


def test_random_forest_vote_fraction(benchmark_2d):
    X, y = benchmark_2d
    spec = ClassifierSpec.resolve("random_forest", {"n_estimators": 21})
    model = train(spec, X, y, seed=1)
    votes = model.tree_votes(X)
    # brute-force majority equals the thresholded vote fraction
    np.testing.assert_array_equal(model.predict(X), (votes.mean(axis=0) >= 0.5).astype(int))
    # deep inside a class every tree agrees
    deep = np.array([[1.9, 1.9]])
    assert model.score_samples(deep)[0] == 1.0


def test_gradient_boosting_margin_consistency(benchmark_2d):
    X, y = benchmark_2d
    spec = ClassifierSpec.resolve("gradient_boosting", {"n_estimators": 20, "max_depth": 3})
    model = train(spec, X, y, seed=1)
    # recompute the additive margin by brute force over the stored trees
    margin = np.full(len(X), model.base_margin_)
    for tree in model._trees:
        margin += model.learning_rate * tree.predict_value(X)
    np.testing.assert_allclose(model.decision_margin(X), margin)
    np.testing.assert_array_equal(model.predict(X), (margin >= 0).astype(int))


@pytest.mark.parametrize("kind", FAST_KINDS)
def test_model_persistence_round_trip(tmp_path, kind, benchmark_2d, probe_inputs):
    X, y = benchmark_2d
    model = train(ClassifierSpec.resolve(kind), X, y, seed=21)
    path = tmp_path / f"{kind}.model"
    save_model(model, path)
    again = load_model(path)
    np.testing.assert_array_equal(model.score_samples(probe_inputs), again.score_samples(probe_inputs))
    assert again.spec.canonical_id == model.spec.canonical_id


def test_grid_combinations_include_defaults_in_order():
    combos = grid_combinations("logistic")
    ids = [c.canonical_id for c in combos]
    assert len(ids) == 3
    assert ids[1] == ClassifierSpec.resolve("logistic").canonical_id
    assert combos[0].params["C"] == 0.01
