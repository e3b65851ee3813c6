import datetime as dt

import numpy as np
import pytest

from pairselect.errors import ConfigError, TrainingError
from pairselect.evaluation import EvaluationRecord, MetricSet
from pairselect.meta import (
    META_FEATURES,
    MODE_BEST_SINGLE,
    MODE_PROFITABLE_LIST,
    mean_system_accuracy,
    metric_rows,
    select_pairs,
    train_meta,
)


def random_record(rng, label_rule=None, run_id="r1", instrument=None, model=None, backtest=None):
    """Record with metric values drawn uniformly; label via rule or coin."""
    values = {name: float(np.round(rng.random(), 6)) for name in META_FEATURES}
    if label_rule is None:
        label = int(rng.integers(0, 2))
    else:
        label = label_rule(values)
    bt = float(backtest) if backtest is not None else (1.0 if label else -1.0)
    metrics = MetricSet(
        accuracy=values["accuracy"],
        normalized_acc=values["normalized_acc"],
        precision=values["precision"],
        recall=values["recall"],
        f1=values["f1"],
        auc=values["auc"],
        pred_pos_rate=values["pred_pos_rate"],
        backtest_return_pct=bt,
        nnp_pct=0.0,
    )
    return EvaluationRecord(
        run_id=run_id,
        instrument=instrument or f"SYM{rng.integers(0, 999)}",
        model=model or f"kind(p={rng.integers(0, 999)})",
        window_start=dt.date(2021, 1, 4),
        window_end=dt.date(2021, 3, 1),
        metrics=metrics,
        profit_label=label,
    )


def planted_records(rng, n, **kwargs):
    return [random_record(rng, label_rule=lambda v: int(v["normalized_acc"] > 0.5), **kwargs)
            for _ in range(n)]


def test_meta_features_exclude_return_columns():
    assert "backtest_return_pct" not in META_FEATURES
    assert "nnp_pct" not in META_FEATURES
    assert len(META_FEATURES) == 7


def test_train_meta_needs_enough_history():
    rng = np.random.default_rng(0)
    with pytest.raises(TrainingError, match="insufficient meta history"):
        train_meta(planted_records(rng, 29), seed=1)


def test_train_meta_needs_both_labels():
    rng = np.random.default_rng(1)
    records = [random_record(rng, label_rule=lambda v: 1) for _ in range(40)]
    with pytest.raises(TrainingError, match="single class"):
        train_meta(records, seed=1)


def test_meta_learns_a_planted_rule():
    rng = np.random.default_rng(2)
    history = planted_records(rng, 250)
    holdout = planted_records(rng, 80, run_id="r2")
    meta = train_meta(history, seed=5)
    rows = metric_rows(holdout)
    labels = np.array([r.profit_label for r in holdout])
    acc = (meta.predict(rows) == labels).mean()
    assert acc >= 0.95


def test_meta_on_independent_labels_is_uninformative():
    accs = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        history = [random_record(rng) for _ in range(200)]
        holdout = [random_record(rng, run_id="r2") for _ in range(100)]
        meta = train_meta(history, seed=seed)
        rows = metric_rows(holdout)
        labels = np.array([r.profit_label for r in holdout])
        accs.append((meta.predict(rows) == labels).mean())
    assert abs(float(np.mean(accs)) - 0.5) <= 0.1


def test_meta_prediction_is_majority_of_voters():
    rng = np.random.default_rng(3)
    meta = train_meta(planted_records(rng, 120), seed=9)
    rows = metric_rows([random_record(rng) for _ in range(200)])
    ballots = meta.votes(rows)
    majority = (ballots.sum(axis=0) >= 2).astype(int)
    np.testing.assert_array_equal(meta.predict(rows), majority)
    assert len(meta.voters) == 3  # odd voter count: no ties possible


def test_select_pairs_scores_each_voter_once(monkeypatch):
    rng = np.random.default_rng(3)
    meta = train_meta(planted_records(rng, 120), seed=9)
    records = [random_record(rng, instrument=f"I{i}", model="m") for i in range(40)]
    rows = metric_rows(records)
    votes, scores = meta.predict(rows), meta.score(rows)
    calls = []
    for voter in meta.voters:
        score_samples = voter.score_samples
        monkeypatch.setattr(voter, "score_samples", lambda X, f=score_samples: calls.append(1) or f(X))
    chosen = select_pairs(meta, records, MODE_PROFITABLE_LIST).entries
    assert len(calls) == len(meta.voters)
    by_instrument = {r.instrument: i for i, r in enumerate(records)}
    assert [e.meta_score for e in chosen] == [scores[by_instrument[e.instrument]] for e in chosen]
    assert {e.instrument for e in chosen} == {r.instrument for r, v in zip(records, votes) if v == 1}


def test_meta_deterministic_and_order_independent():
    rng = np.random.default_rng(4)
    history = planted_records(rng, 150)
    probe = metric_rows([random_record(rng) for _ in range(50)])
    a = train_meta(history, seed=11)
    b = train_meta(list(reversed(history)), seed=11)
    np.testing.assert_array_equal(a.predict(probe), b.predict(probe))
    np.testing.assert_array_equal(a.score(probe), b.score(probe))


def test_meta_superset_history_still_trains():
    rng = np.random.default_rng(5)
    history = planted_records(rng, 60)
    train_meta(history, seed=1)
    more = history + planted_records(rng, 60, run_id="r2")
    train_meta(more, seed=1)  # must not raise


def test_duplicate_records_weight_rows():
    rng = np.random.default_rng(6)
    history = planted_records(rng, 60)
    doubled = history + history
    meta = train_meta(doubled, seed=2)
    assert meta.n_records == 120


def test_select_pairs_best_single_dominant():
    rng = np.random.default_rng(7)
    meta = train_meta(planted_records(rng, 200), seed=3)
    # one record dominates every metric
    strong = random_record(rng, label_rule=lambda v: 1, instrument="GOOD", model="m(a=1)")
    strong = _with_metrics(strong, {name: 0.99 for name in META_FEATURES})
    weak = [_with_metrics(random_record(rng), {name: 0.01 for name in META_FEATURES})
            for _ in range(5)]
    sel = select_pairs(meta, weak + [strong], MODE_BEST_SINGLE)
    assert len(sel.entries) == 1
    assert sel.entries[0].instrument == "GOOD"


def test_select_pairs_profitable_list_and_empty():
    rng = np.random.default_rng(8)
    meta = train_meta(planted_records(rng, 200), seed=3)
    low = [_with_metrics(random_record(rng), {name: 0.01 for name in META_FEATURES})
           for _ in range(4)]
    sel = select_pairs(meta, low, MODE_PROFITABLE_LIST)
    assert sel.entries == ()  # no trade, no crash

    high = [_with_metrics(random_record(rng, instrument=f"S{i}"), {name: 0.95 for name in META_FEATURES})
            for i in range(4)]
    sel = select_pairs(meta, low + high, MODE_PROFITABLE_LIST)
    assert {e.instrument for e in sel.entries} == {"S0", "S1", "S2", "S3"}
    scores = [e.meta_score for e in sel.entries]
    assert scores == sorted(scores, reverse=True)


def test_select_best_single_is_in_profitable_list():
    rng = np.random.default_rng(9)
    meta = train_meta(planted_records(rng, 200), seed=3)
    current = planted_records(rng, 30, run_id="r3")
    best = select_pairs(meta, current, MODE_BEST_SINGLE).entries[0]
    listed = select_pairs(meta, current, MODE_PROFITABLE_LIST).entries
    if listed and best.vote == 1:
        assert (best.instrument, best.model) in {(e.instrument, e.model) for e in listed}


def test_select_pairs_tie_breaks_on_backtest():
    rng = np.random.default_rng(10)
    meta = train_meta(planted_records(rng, 200), seed=3)
    vals = {name: 0.95 for name in META_FEATURES}
    a = _with_metrics(random_record(rng, instrument="A", model="m(x=1)", backtest=1.0), vals)
    b = _with_metrics(random_record(rng, instrument="B", model="m(x=1)", backtest=9.0), vals)
    sel = select_pairs(meta, [a, b], MODE_BEST_SINGLE)
    assert sel.entries[0].instrument == "B"


def test_select_pairs_validates_inputs():
    rng = np.random.default_rng(11)
    meta = train_meta(planted_records(rng, 120), seed=3)
    with pytest.raises(ConfigError):
        select_pairs(meta, [], MODE_BEST_SINGLE)
    with pytest.raises(ConfigError):
        select_pairs(meta, [random_record(rng)], "bogus")


def test_mean_system_accuracy():
    assert mean_system_accuracy(0.80) == pytest.approx(0.60)
    assert mean_system_accuracy(0.50) == 0.0
    assert mean_system_accuracy(1.00) == 1.0
    with pytest.raises(ConfigError):
        mean_system_accuracy(1.2)


def _with_metrics(record, values):
    merged = {
        "accuracy": record.metrics.accuracy,
        "normalized_acc": record.metrics.normalized_acc,
        "precision": record.metrics.precision,
        "recall": record.metrics.recall,
        "f1": record.metrics.f1,
        "auc": record.metrics.auc,
        "pred_pos_rate": record.metrics.pred_pos_rate,
    }
    merged.update(values)
    metrics = MetricSet(
        backtest_return_pct=record.metrics.backtest_return_pct,
        nnp_pct=record.metrics.nnp_pct,
        **merged,
    )
    return EvaluationRecord(
        run_id=record.run_id,
        instrument=record.instrument,
        model=record.model,
        window_start=record.window_start,
        window_end=record.window_end,
        metrics=metrics,
        profit_label=record.profit_label,
    )
