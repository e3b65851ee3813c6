"""Per-pair scoring: predictive metrics, backtest return, and baseline.

The backtest goes long on a 1-prediction and (by default) short on a 0,
full notional, open-to-close only, zero costs; daily strategy returns
compound geometrically.  ``nnp`` is the always-long baseline over the
same window, so an all-1 predictor reproduces it exactly.
"""

from __future__ import annotations

import datetime as dt
import operator
from dataclasses import dataclass, fields

import numpy as np

from .data import csv_lines
from .errors import EvaluationError
from .features import LabeledDataset
from .models.base import decide


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    normalized_acc: float
    precision: float
    recall: float
    f1: float
    auc: float
    pred_pos_rate: float
    backtest_return_pct: float
    nnp_pct: float


_METRIC_NAMES = tuple(f.name for f in fields(MetricSet))
CSV_COLUMNS = ("dataset", "model") + _METRIC_NAMES + ("profit_label",)
_metric_values = operator.attrgetter(*_METRIC_NAMES)


@dataclass(frozen=True)
class EvaluationRecord:
    """One (instrument, model) pair's metric vector for one window."""

    run_id: str
    instrument: str
    model: str
    window_start: dt.date
    window_end: dt.date
    metrics: MetricSet
    profit_label: int


def _as_int_arrays(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.int64)
    l = np.asarray(labels, dtype=np.int64)
    if p.shape != l.shape:
        raise EvaluationError(f"length mismatch: {p.shape} vs {l.shape}")
    if len(p) == 0:
        raise EvaluationError("empty window")
    return p, l


def confusion_metrics(predictions, labels) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) with class 1 positive; 0/0 -> 0."""
    p, l = _as_int_arrays(predictions, labels)
    tp = float(((p == 1) & (l == 1)).sum())
    fp = float(((p == 1) & (l == 0)).sum())
    fn = float(((p == 0) & (l == 1)).sum())
    accuracy = float((p == l).mean())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return accuracy, precision, recall, f1


def normalized_acc(predictions, labels) -> float:
    """Balanced accuracy: mean of the two per-class recalls.

    A constant predictor lands on 0.5 no matter how skewed the labels
    are, which is the robustness the plain count ratio lacks.
    """
    p, l = _as_int_arrays(predictions, labels)
    if len(np.unique(l)) < 2:
        raise EvaluationError("normalized accuracy needs both classes in the labels")
    recall_1 = float((p[l == 1] == 1).mean())
    recall_0 = float((p[l == 0] == 0).mean())
    return (recall_1 + recall_0) / 2.0


def pred_pos_rate(predictions) -> float:
    """Share of 1-predictions: the literal count ratio, kept as a diagnostic."""
    p = np.asarray(predictions, dtype=np.int64)
    if len(p) == 0:
        raise EvaluationError("empty window")
    return float((p == 1).mean())


def auc(scores, labels) -> float:
    """Mann-Whitney AUC; ties count one half."""
    s = np.asarray(scores, dtype=np.float64)
    l = np.asarray(labels, dtype=np.int64)
    if s.shape != l.shape:
        raise EvaluationError(f"length mismatch: {s.shape} vs {l.shape}")
    n_pos = int((l == 1).sum())
    n_neg = int((l == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("auc needs both classes in the labels")

    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    # tie block [start, end) of the sorted scores shares its average 1-based rank
    start = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    end = np.r_[start[1:], len(s)]
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
    rank_sum_pos = float(ranks[l == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _check_returns(r: np.ndarray) -> None:
    if np.any(np.abs(r) >= 100.0):
        worst = float(np.max(np.abs(r)))
        raise EvaluationError(f"daily return of {worst}% breaks the data contract (|r| < 100)")


def strategy_returns(predictions, realized_returns_pct, short_on_down: bool = True) -> np.ndarray:
    """Per-day strategy returns: +r on a 1, -r (or 0 when not shorting) on a 0."""
    p = np.asarray(predictions, dtype=np.int64)
    r = np.asarray(realized_returns_pct, dtype=np.float64)
    if p.shape != r.shape:
        raise EvaluationError(f"length mismatch: {p.shape} vs {r.shape}")
    _check_returns(r)
    if short_on_down:
        return np.where(p == 1, r, -r)
    return np.where(p == 1, r, 0.0)


def compound_pct(daily_returns_pct) -> float:
    r = np.asarray(daily_returns_pct, dtype=np.float64)
    if len(r) == 0:
        raise EvaluationError("empty window")
    return float((np.prod(1.0 + r / 100.0) - 1.0) * 100.0)


def equity_curve_pct(daily_returns_pct) -> np.ndarray:
    """Cumulative compounded return after each day, in percent."""
    r = np.asarray(daily_returns_pct, dtype=np.float64)
    return (np.cumprod(1.0 + r / 100.0) - 1.0) * 100.0


def nnp(realized_returns_pct) -> float:
    """Buy-and-hold (always long) compounded return over the same window."""
    r = np.asarray(realized_returns_pct, dtype=np.float64)
    _check_returns(r)
    return compound_pct(r)


def backtest(predictions, realized_returns_pct, short_on_down: bool = True) -> float:
    """Compounded strategy return over the window, in percent."""
    return compound_pct(strategy_returns(predictions, realized_returns_pct, short_on_down))


def window_backtest(predictions, realized_returns_pct, short_on_down: bool = True):
    """(strategy return, buy-and-hold return, strategy curve, buy-and-hold curve), in percent."""
    daily = strategy_returns(predictions, realized_returns_pct, short_on_down)
    return (
        compound_pct(daily),
        nnp(realized_returns_pct),
        equity_curve_pct(daily),
        equity_curve_pct(realized_returns_pct),
    )


def evaluate_pair(
    model_id: str,
    scores,
    window: LabeledDataset,
    run_id: str,
    short_on_down: bool = True,
) -> EvaluationRecord:
    """The evaluation record of the model ``model_id`` on one chronological
    window, from its class-1 ``scores`` on the window's rows; a score
    >= 0.5 predicts 1.

    Raises :class:`EvaluationError` when the window's labels are a single
    class; the caller records the pair as failed rather than crashing.
    """
    if len(window) == 0:
        raise EvaluationError("empty window")
    if len(np.unique(window.y)) < 2:
        raise EvaluationError("degenerate window: labels are a single class")

    predictions = decide(scores)

    accuracy, precision, recall, f1 = confusion_metrics(predictions, window.y)
    strat_pct = backtest(predictions, window.returns, short_on_down)
    metrics = MetricSet(
        accuracy=accuracy,
        normalized_acc=normalized_acc(predictions, window.y),
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc(scores, window.y),
        pred_pos_rate=pred_pos_rate(predictions),
        backtest_return_pct=strat_pct,
        nnp_pct=nnp(window.returns),
    )
    return EvaluationRecord(
        run_id=run_id,
        instrument=window.symbol,
        model=model_id,
        window_start=window.dates[0],
        window_end=window.dates[-1],
        metrics=metrics,
        profit_label=1 if strat_pct > 0.0 else 0,
    )


def record_row(record: EvaluationRecord) -> list:
    """The record's CSV_COLUMNS values, in order."""
    return [record.instrument, record.model, *_metric_values(record.metrics), record.profit_label]


def records_to_csv(records) -> str:
    """Evaluation records in the reporting column order, one per line."""
    return csv_lines([CSV_COLUMNS, *map(record_row, records)])
