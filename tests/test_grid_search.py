import numpy as np
import pytest

from pairselect.errors import TrainingError
from pairselect.models import grid_search

from helpers import make_separable_2d


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(1)
    learn_X, learn_y = make_separable_2d(rng, n_per_class=100)
    val_X, val_y = make_separable_2d(rng, n_per_class=50)
    return learn_X, learn_y, val_X, val_y


def test_singleton_grid_returns_that_combination(planted):
    lx, ly, vx, vy = planted
    result = grid_search("kneighbors", {"n_neighbors": (5,)}, lx, ly, vx, vy, seed_parts=(0, "S"))
    assert result.spec.params["n_neighbors"] == 5
    assert len(result.trials) == 1


def test_picks_the_better_combination():
    # XOR quadrants: a depth-1 stump is a coin flip, depth 5 is near perfect
    rng = np.random.default_rng(2)
    def xor_data(n):
        X = rng.uniform(-1, 1, size=(n, 2))
        X = X[np.abs(X).min(axis=1) > 0.05]
        return X, (np.sign(X[:, 0] * X[:, 1]) > 0).astype(int)

    lx, ly = xor_data(400)
    vx, vy = xor_data(200)
    result = grid_search("decision_tree", {"max_depth": (1, 5)}, lx, ly, vx, vy, seed_parts=(0, "S"))
    accs = [acc for _, acc, _ in result.trials]
    assert accs[0] < 0.7 < 0.9 < accs[1]
    assert result.spec.params["max_depth"] == 5
    assert result.validation_accuracy == max(accs)


def test_tie_breaks_to_earliest_grid_entry(planted):
    lx, ly, vx, vy = planted
    # separable data: both depths reach identical validation accuracy
    result = grid_search(
        "decision_tree", {"max_depth": (6, 18)}, lx, ly, vx, vy, seed_parts=(0, "S")
    )
    accs = [acc for _, acc, _ in result.trials]
    assert accs[0] == accs[1]
    assert result.spec.params["max_depth"] == 6


def test_winner_keeps_the_scores_it_was_chosen_on(planted):
    lx, ly, vx, vy = planted
    # separable data: both sizes reach the same accuracy with different scores
    result = grid_search(
        "kneighbors", {"n_neighbors": (3, 11)}, lx, ly, vx, vy, seed_parts=(0, "S")
    )
    accs = [acc for _, acc, _ in result.trials]
    assert accs[0] == accs[1]
    assert result.spec.params["n_neighbors"] == 3
    assert result.validation_scores.tobytes() == result.model.score_samples(vx).tobytes()
    assert result.validation_accuracy == np.mean((result.validation_scores >= 0.5) == vy)


def test_all_failures_raise_with_reasons(planted):
    lx, _, vx, vy = planted
    single = np.zeros(len(lx), dtype=int)
    with pytest.raises(TrainingError, match="degenerate labels"):
        grid_search("logistic", None, lx, single, vx, vy, seed_parts=(0, "S"))


def test_winner_model_is_deterministic(planted):
    lx, ly, vx, vy = planted
    a = grid_search("logistic", None, lx, ly, vx, vy, seed_parts=(7, "S"))
    b = grid_search("logistic", None, lx, ly, vx, vy, seed_parts=(7, "S"))
    assert a.spec == b.spec
    np.testing.assert_array_equal(a.model.score_samples(vx), b.model.score_samples(vx))
