"""Second layer: a voting classifier over metric vectors.

Each historical record contributes one row of predictive metrics (the
return-derived columns are deliberately excluded, since the profit label
is computed from them) and its profit label.  Three zoo members with
their default hyperparameters vote by hard majority; their mean score
orders the selected pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
from .evaluation import EvaluationRecord
from .models import ClassifierSpec, train
from .models.base import decide, derive_seed

logger = logging.getLogger(__name__)

META_FEATURES = ("accuracy", "normalized_acc", "precision", "recall", "f1", "auc", "pred_pos_rate")
META_VOTER_KINDS = ("logistic", "decision_tree", "kneighbors")
MIN_META_RECORDS = 30

MODE_BEST_SINGLE = "best_single"
MODE_PROFITABLE_LIST = "profitable_list"
SELECTION_MODES = (MODE_BEST_SINGLE, MODE_PROFITABLE_LIST)


def metric_rows(records) -> np.ndarray:
    """Feature matrix of META_FEATURES columns, one row per record."""
    return np.array(
        [[getattr(r.metrics, name) for name in META_FEATURES] for r in records],
        dtype=np.float64,
    )


def _canonical_order(records) -> list[EvaluationRecord]:
    # a stable total order makes training independent of append order
    return sorted(records, key=lambda r: (r.run_id, r.instrument, r.model))


@dataclass(frozen=True)
class MetaModel:
    """Hard-majority vote of three base classifiers over metric vectors."""

    voters: tuple
    n_records: int

    def votes(self, rows: np.ndarray) -> np.ndarray:
        """(n_voters, n_rows) individual voter predictions."""
        return np.stack([v.predict(rows) for v in self.voters])

    def assess(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Majority vote and mean voter score, from one scoring pass."""
        scores = np.stack([v.score_samples(rows) for v in self.voters])
        majority = decide(scores).sum(axis=0) * 2 > len(self.voters)
        return majority.astype(np.int64), scores.mean(axis=0)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return self.assess(rows)[0]

    def score(self, rows: np.ndarray) -> np.ndarray:
        """Mean voter score; used only to order selections."""
        return self.assess(rows)[1]


def train_meta(records, seed: int) -> MetaModel:
    """Fit the voting layer on all usable historical records.

    Needs at least ``MIN_META_RECORDS`` records carrying both profit
    labels; duplicated records simply weight their rows, mirroring the
    append-only store semantics.
    """
    ordered = _canonical_order(records)
    if len(ordered) < MIN_META_RECORDS:
        raise TrainingError(
            f"insufficient meta history: {len(ordered)} records, need {MIN_META_RECORDS}"
        )
    y = np.array([r.profit_label for r in ordered], dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise TrainingError("insufficient meta history: profit labels are a single class")
    X = metric_rows(ordered)

    voters = tuple(
        train(ClassifierSpec.resolve(kind), X, y, seed=derive_seed(seed, "meta", kind))
        for kind in META_VOTER_KINDS
    )
    return MetaModel(voters=voters, n_records=len(ordered))


@dataclass(frozen=True)
class SelectionEntry:
    instrument: str
    model: str
    meta_score: float
    vote: int
    backtest_return_pct: float


@dataclass(frozen=True)
class PairSelection:
    mode: str
    entries: tuple[SelectionEntry, ...]


def select_pairs(meta: MetaModel, current_records, mode: str) -> PairSelection:
    """Pick this run's pairs: the single best, or all voted profitable.

    The profitable list is ordered by meta score descending; ties break
    by higher backtest return, then instrument, then model id.  An empty
    list is a legitimate "no trade" outcome.
    """
    if mode not in SELECTION_MODES:
        raise ConfigError(f"unknown selection mode {mode!r}; expected one of {SELECTION_MODES}")
    records = list(current_records)
    if not records:
        raise ConfigError("select_pairs needs at least one current record")

    rows = metric_rows(records)
    votes, scores = meta.assess(rows)
    entries = [
        SelectionEntry(
            instrument=r.instrument,
            model=r.model,
            meta_score=float(scores[i]),
            vote=int(votes[i]),
            backtest_return_pct=r.metrics.backtest_return_pct,
        )
        for i, r in enumerate(records)
    ]

    def order(e: SelectionEntry):
        return (-e.meta_score, -e.backtest_return_pct, e.instrument, e.model)

    if mode == MODE_BEST_SINGLE:
        best = min(entries, key=order)
        return PairSelection(mode=mode, entries=(best,))
    chosen = sorted((e for e in entries if e.vote == 1), key=order)
    return PairSelection(mode=mode, entries=tuple(chosen))


def mean_system_accuracy(layer2_accuracy: float) -> float:
    """Signed expectation of a +1/-1 vote with the given hit rate."""
    if not (0.0 <= layer2_accuracy <= 1.0):
        raise ConfigError(f"accuracy must lie in [0, 1], got {layer2_accuracy}")
    return 2.0 * layer2_accuracy - 1.0
