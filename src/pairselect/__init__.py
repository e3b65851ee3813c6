"""Two-layer instrument-model pair selection for daily directional trading.

The first layer trains a zoo of classifiers per instrument on technical
features; the second layer votes over each pair's evaluation metrics to
pick the pairs expected to be profitable, replayed walk-forward against
a buy-and-hold baseline.
"""

from .data import (
    InstrumentSource,
    OhlcvBar,
    PriceSeries,
    SyntheticSpec,
    generate_synthetic_series,
    parse_ohlcv_csv,
    serialize_ohlcv_csv,
)
from .errors import (
    ConfigError,
    EvaluationError,
    PairselectError,
    ParseError,
    StoreError,
    TrainingError,
    ValidationError,
)
from .evaluation import (
    EvaluationRecord,
    MetricSet,
    auc,
    backtest,
    confusion_metrics,
    evaluate_pair,
    nnp,
    normalized_acc,
)
from .features import FeatureParams, LabeledDataset, build_dataset, ema, macd, rsi, sma
from .meta import MetaModel, PairSelection, mean_system_accuracy, select_pairs, train_meta
from .models import ClassifierSpec, grid_search, load_model, save_model, train
from .pipeline import RunConfig, RunReport, emit_reports, predict_next, run_training_cycle, walk_forward
from .splits import SplitView, chronological_split, walk_forward_plan
from .store import RecordStore

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "ConfigError",
    "EvaluationError",
    "EvaluationRecord",
    "FeatureParams",
    "InstrumentSource",
    "LabeledDataset",
    "MetaModel",
    "MetricSet",
    "OhlcvBar",
    "PairSelection",
    "PairselectError",
    "ParseError",
    "PriceSeries",
    "RecordStore",
    "RunConfig",
    "RunReport",
    "SplitView",
    "StoreError",
    "SyntheticSpec",
    "TrainingError",
    "ValidationError",
    "auc",
    "backtest",
    "build_dataset",
    "chronological_split",
    "confusion_metrics",
    "ema",
    "emit_reports",
    "evaluate_pair",
    "generate_synthetic_series",
    "grid_search",
    "load_model",
    "macd",
    "mean_system_accuracy",
    "nnp",
    "normalized_acc",
    "parse_ohlcv_csv",
    "predict_next",
    "rsi",
    "run_training_cycle",
    "save_model",
    "select_pairs",
    "serialize_ohlcv_csv",
    "sma",
    "train",
    "train_meta",
    "walk_forward",
    "walk_forward_plan",
]
