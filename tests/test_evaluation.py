import numpy as np
import pytest

from pairselect.errors import EvaluationError
from pairselect.evaluation import (
    CSV_COLUMNS,
    auc,
    backtest,
    compound_pct,
    confusion_metrics,
    equity_curve_pct,
    evaluate_pair,
    nnp,
    normalized_acc,
    pred_pos_rate,
    records_to_csv,
    strategy_returns,
    window_backtest,
)
from pairselect.features import build_dataset
from pairselect.models import ClassifierSpec, train

from helpers import make_series, random_walk_closes
from oracles import auc_oracle, balanced_acc_oracle, compound_oracle, confusion_oracle


def test_confusion_perfect():
    preds = [1, 0, 1, 0]
    assert confusion_metrics(preds, preds) == (1.0, 1.0, 1.0, 1.0)


def test_confusion_degenerate_all_zero():
    acc, prec, rec, f1 = confusion_metrics([0, 0, 0, 0], [1, 1, 0, 0])
    assert acc == 0.5
    assert prec == 0.0 and rec == 0.0 and f1 == 0.0


def test_confusion_hand_example():
    acc, prec, rec, f1 = confusion_metrics([1, 0, 1, 1], [1, 0, 0, 1])
    assert acc == 0.75
    assert prec == pytest.approx(2 / 3)
    assert rec == 1.0
    assert f1 == pytest.approx(0.8)


def test_confusion_length_mismatch():
    with pytest.raises(EvaluationError):
        confusion_metrics([1, 0], [1])


def test_confusion_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        assert confusion_metrics(preds, labels) == pytest.approx(confusion_oracle(preds, labels))


def test_normalized_acc_perfect_and_constant():
    labels = [1] * 9 + [0]
    assert normalized_acc(labels, labels) == 1.0
    # the all-1 predictor scores 0.9 plain accuracy but only 0.5 balanced
    acc, *_ = confusion_metrics([1] * 10, labels)
    assert acc == 0.9
    assert normalized_acc([1] * 10, labels) == 0.5
    assert normalized_acc([0] * 10, labels) == 0.5


def test_normalized_acc_coin_flip_near_half():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 20_000)
    preds = rng.integers(0, 2, 20_000)
    assert normalized_acc(preds, labels) == pytest.approx(0.5, abs=0.05)


def test_normalized_acc_needs_both_classes():
    with pytest.raises(EvaluationError, match="both classes"):
        normalized_acc([1, 0, 1], [1, 1, 1])


def test_normalized_acc_matches_oracle():
    rng = np.random.default_rng(2)
    done = 0
    while done < 200:
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        if len(np.unique(labels)) < 2:
            continue
        preds = rng.integers(0, 2, n)
        assert normalized_acc(preds, labels) == pytest.approx(balanced_acc_oracle(preds, labels))
        done += 1


def test_auc_examples():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    done = 0
    while done < 200:
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, n)
        if len(np.unique(labels)) < 2:
            continue
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        assert auc(scores, labels) == pytest.approx(auc_oracle(scores, labels), abs=1e-12)
        done += 1


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, 50)
    labels[0], labels[1] = 0, 1
    scores = rng.random(50)
    base = auc(scores, labels)
    assert auc(np.exp(3.0 * scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(2.0 * scores - 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_needs_both_classes():
    with pytest.raises(EvaluationError):
        auc([0.1, 0.9], [1, 1])


def test_backtest_worked_example():
    assert backtest([1, 0], [1.0, 2.0]) == pytest.approx(-1.02, abs=1e-9)


def test_backtest_always_long_equals_nnp():
    rng = np.random.default_rng(5)
    rets = rng.standard_normal(100)
    assert backtest(np.ones(100, dtype=int), rets) == nnp(rets)


def test_backtest_flip_negates_daily_returns():
    rng = np.random.default_rng(6)
    rets = rng.standard_normal(100)
    preds = rng.integers(0, 2, 100)
    a = strategy_returns(preds, rets)
    b = strategy_returns(1 - preds, rets)
    np.testing.assert_array_equal(a, -b)


def test_backtest_perfect_foresight_identity_and_dominance():
    rng = np.random.default_rng(7)
    rets = rng.standard_normal(50)
    perfect = (rets > 0).astype(int)
    expected = compound_oracle(np.abs(rets))
    assert backtest(perfect, rets) == pytest.approx(expected, abs=1e-9)
    for _ in range(20):
        other = rng.integers(0, 2, 50)
        assert backtest(perfect, rets) >= backtest(other, rets) - 1e-9


def test_backtest_flat_mode():
    rets = np.array([1.0, 2.0])
    assert backtest([1, 0], rets, short_on_down=False) == pytest.approx(1.0)


def test_backtest_rejects_impossible_moves():
    with pytest.raises(EvaluationError, match="contract"):
        backtest([1, 1], [5.0, 120.0])
    with pytest.raises(EvaluationError):
        nnp([-100.0])


def test_nnp_examples():
    assert nnp([0.0, 0.0, 0.0]) == 0.0
    assert nnp([10.0, -10.0]) == pytest.approx(-1.0, abs=1e-9)
    assert nnp([2.5]) == pytest.approx(2.5)


def test_compound_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rets = rng.standard_normal(int(rng.integers(1, 60)))
        assert compound_pct(rets) == pytest.approx(compound_oracle(rets), abs=1e-9)


def test_equity_curve_last_point_is_total():
    rets = np.array([1.0, -2.0, 0.5])
    curve = equity_curve_pct(rets)
    assert curve[-1] == pytest.approx(compound_pct(rets))
    assert len(curve) == 3


def _trained_pair(seed=0, n=200):
    rng = np.random.default_rng(seed)
    series = make_series(random_walk_closes(rng, n))
    ds = build_dataset(series)
    learn = ds.take(range(0, len(ds) - 40))
    window = ds.take(range(len(ds) - 40, len(ds)))
    model = train(ClassifierSpec.resolve("gaussian_nb"), learn.X, learn.y, seed=1)
    return model, window


def test_evaluate_pair_record_fields():
    model, window = _trained_pair()
    rec = evaluate_pair(model.spec.canonical_id, model.score_samples(window.X), window, run_id="r1")
    assert rec.instrument == "TEST"
    assert rec.model.startswith("gaussian_nb(")
    assert rec.window_start == window.dates[0]
    assert rec.window_end == window.dates[-1]
    assert rec.profit_label == (1 if rec.metrics.backtest_return_pct > 0 else 0)
    strat_pct, base_pct, strat_curve, base_curve = window_backtest(
        model.predict(window.X), window.returns
    )
    assert (strat_pct, base_pct) == (rec.metrics.backtest_return_pct, rec.metrics.nnp_pct)
    assert len(strat_curve) == len(base_curve) == len(window)
    assert strat_curve[-1] == pytest.approx(strat_pct)
    assert base_curve[-1] == pytest.approx(base_pct)


def test_evaluate_pair_always_long_model():
    model, window = _trained_pair(seed=2)
    rec = evaluate_pair("stub", np.ones(len(window)), window, run_id="r1")
    assert rec.metrics.backtest_return_pct == rec.metrics.nnp_pct
    assert rec.metrics.pred_pos_rate == 1.0
    _, _, strat_curve, base_curve = window_backtest(np.ones(len(window)), window.returns)
    np.testing.assert_allclose(strat_curve, base_curve)


def test_evaluate_pair_degenerate_window_fails():
    model, window = _trained_pair(seed=3)
    constant = make_series([100.0] * 80)
    flat_ds = build_dataset(constant).take(range(0, 10))
    with pytest.raises(EvaluationError, match="degenerate"):
        evaluate_pair(model.spec.canonical_id, np.ones(len(flat_ds)), flat_ds, run_id="r1")


def test_records_csv_column_order():
    model, window = _trained_pair(seed=4)
    rec = evaluate_pair(model.spec.canonical_id, model.score_samples(window.X), window, run_id="r1")
    text = records_to_csv([rec])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0].startswith("dataset,model,accuracy,normalized_acc,precision,recall,f1,auc")
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[0] == "TEST"
    assert float(fields[2]) == rec.metrics.accuracy
