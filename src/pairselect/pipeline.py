"""End-to-end orchestration: train, evaluate, select, replay, report.

Each layer is one function.  ``_layer1`` grid-searches every enabled
(instrument, kind) pair on its learn range and scores the winner on
validation; ``_layer2`` fits the voting layer on a record history and
selects pairs, each with its fitted model.  ``walk_forward`` runs both
per test segment, growing the store window by window, and replays the
selected pairs on the untouched test range; ``predict_next`` runs both
once and reads their directions at the last bar.  Each caller keeps its
own layer-2 history rule.
"""

from __future__ import annotations

import datetime as dt
import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import InstrumentSource, PriceSeries, csv_lines, load_series
from .errors import ConfigError, EvaluationError, PairselectError, TrainingError
from .evaluation import EvaluationRecord, evaluate_pair, records_to_csv, window_backtest
from .features import FeatureParams, LabeledDataset, build_dataset, feature_matrix
from .meta import (
    MODE_PROFITABLE_LIST,
    SELECTION_MODES,
    PairSelection,
    mean_system_accuracy,
    metric_rows,
    select_pairs,
    train_meta,
)
from .models import KIND_ORDER, grid_combinations, grid_search, model_def
from .models.base import derive_seed
from .splits import (
    DEFAULT_TEST_FRAC,
    DEFAULT_VAL_FRAC,
    SplitView,
    check_fractions,
    learn_validation_split,
    min_dataset_size,
    walk_forward_plan,
)
from .store import RecordStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; file paths are resolved by the loader.

    The settings are checked when built, so a bad value is a
    :class:`ConfigError` whether it comes from a YAML file or from code.
    """

    sources: tuple[InstrumentSource, ...]
    seed: int
    out_dir: Path
    store_path: Path
    features: FeatureParams = FeatureParams()
    test_frac: float = DEFAULT_TEST_FRAC
    val_frac: float = DEFAULT_VAL_FRAC
    model_kinds: tuple[str, ...] = KIND_ORDER
    grids: Mapping[str, Mapping[str, tuple]] = field(default_factory=dict)
    selection_mode: str = MODE_PROFITABLE_LIST
    short_on_down: bool = True
    windows: int = 1

    def __post_init__(self) -> None:
        if not self.sources:
            raise ConfigError("config lists no instruments")
        symbols = [s.symbol for s in self.sources]
        if len(set(symbols)) != len(symbols):
            raise ConfigError(f"duplicate instrument symbols in universe: {symbols}")
        by_slug: dict[str, str] = {}
        for symbol in symbols:  # the slug names each selected pair's equity file
            other = by_slug.setdefault(_slug(symbol), symbol)
            if other != symbol:
                raise ConfigError(
                    f"instrument symbols {other!r} and {symbol!r} share the file name {_slug(symbol)!r}"
                )
        check_fractions(test_frac=self.test_frac, val_frac=self.val_frac)
        if not self.model_kinds:
            raise ConfigError("config enables no model kinds")
        for kind in self.model_kinds:
            model_def(kind)  # first, so a kind that is not a string is named, not hashed
        for kind, grid in self.grids.items():
            if kind not in self.model_kinds:
                raise ConfigError(f"grid given for model kind {kind!r}, which is not enabled")
            grid_combinations(kind, grid)  # resolves, so checks, every grid value
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(
                f"unknown selection mode {self.selection_mode!r}; expected one of {SELECTION_MODES}"
            )
        if self.windows < 1:
            raise ConfigError(f"windows must be >= 1, got {self.windows}")


@dataclass(frozen=True)
class FailureRecord:
    instrument: str
    model: str
    reason: str


@dataclass(frozen=True)
class TestOutcome:
    """One selected pair replayed on its untouched test segment."""

    instrument: str
    model: str
    dates: tuple[dt.date, ...]
    accuracy: float
    strategy_return_pct: float
    nnp_pct: float
    strategy_cum_pct: np.ndarray
    normal_cum_pct: np.ndarray


@dataclass(frozen=True)
class RunReport:
    run_id: str
    window_index: int
    n_windows: int
    records: tuple[EvaluationRecord, ...]
    failures: tuple[FailureRecord, ...]
    selection: PairSelection | None
    selection_note: str
    test_outcomes: tuple[TestOutcome, ...]
    meta_validation_accuracy: float | None
    paper_mean_accuracy: float | None
    store_size: int


def _run_id(seed: int, window_index: int) -> str:
    # deterministic on purpose: identical replays must produce identical files
    return f"{seed}-w{window_index:02d}"


def _load_datasets(config: RunConfig) -> tuple[list[PriceSeries], list[LabeledDataset]]:
    min_bars = config.features.min_bars(
        min_dataset_size(1, test_frac=config.test_frac, val_frac=config.val_frac)
    )
    series_list: list[PriceSeries] = []
    datasets: list[LabeledDataset] = []
    for source in config.sources:
        try:
            series = load_series(source)
            if len(series) < min_bars:
                raise ConfigError(
                    f"instrument {source.symbol!r}: {len(series)} bars is below the "
                    f"required minimum of {min_bars}"
                )
            dataset = build_dataset(series, config.features)
        except PairselectError as exc:
            logger.warning("skipping instrument %s: %s", source.symbol, exc)
            continue
        series_list.append(series)
        datasets.append(dataset)
    if not datasets:
        raise ConfigError("no instrument survived loading")
    return series_list, datasets


def _layer1(
    config: RunConfig,
    datasets: list[LabeledDataset],
    views: list[SplitView],
    run_id: str,
) -> tuple[list[EvaluationRecord], list[FailureRecord], dict]:
    """Records, failed pairs and fitted models keyed by (instrument, model
    id); a run in which no pair survives is a :class:`TrainingError`."""
    records: list[EvaluationRecord] = []
    failures: list[FailureRecord] = []
    models: dict[tuple[str, str], object] = {}
    for dataset, view in zip(datasets, views):
        learn = dataset.take(view.learn)
        validation = dataset.take(view.validation)
        for kind in config.model_kinds:
            try:
                result = grid_search(
                    kind,
                    config.grids.get(kind),
                    learn.X,
                    learn.y,
                    validation.X,
                    validation.y,
                    seed_parts=(config.seed, dataset.symbol),
                )
                record = evaluate_pair(
                    result.spec.canonical_id,
                    result.validation_scores,
                    validation,
                    run_id,
                    short_on_down=config.short_on_down,
                )
            except (TrainingError, EvaluationError) as exc:
                logger.warning("pair (%s, %s) failed: %s", dataset.symbol, kind, exc)
                failures.append(FailureRecord(dataset.symbol, kind, str(exc)))
                continue
            records.append(record)
            models[(dataset.symbol, record.model)] = result.model
    if not records:
        raise TrainingError(f"run {run_id}: no (instrument, model) pair survived")
    return records, failures, models


def _test_outcome(model, window: LabeledDataset, short_on_down: bool) -> TestOutcome:
    predictions = model.predict(window.X)
    strat_pct, base_pct, strat_curve, base_curve = window_backtest(
        predictions, window.returns, short_on_down
    )
    return TestOutcome(
        instrument=window.symbol,
        model=model.spec.canonical_id,
        dates=window.dates,
        accuracy=float((predictions == window.y).mean()),
        strategy_return_pct=strat_pct,
        nnp_pct=base_pct,
        strategy_cum_pct=strat_curve,
        normal_cum_pct=base_curve,
    )


def _layer2(
    config: RunConfig, records, models, histories, run_id: str
) -> tuple[PairSelection | None, str, list]:
    """Pairs among ``records`` picked by the voting layer fitted on the first
    of ``histories`` it trains on: the selection, a note, and each selected
    entry with its fitted model from ``models``.  The note is "ok" when the
    first history trained the voting layer and otherwise the reason the last
    one could not; the selection is None when none could."""
    meta_seed = derive_seed(config.seed, run_id)
    note = "ok"
    for history in histories:
        try:
            meta = train_meta(history, seed=meta_seed)
        except TrainingError as exc:
            note = str(exc)
            continue
        selection = select_pairs(meta, records, config.selection_mode)
        return selection, note, [(e, models[(e.instrument, e.model)]) for e in selection.entries]
    return None, note, []


def walk_forward(config: RunConfig, n_windows: int | None = None) -> list[RunReport]:
    """Run ``config.windows`` consecutive training cycles with a shared store.

    An explicit ``n_windows`` replaces ``config.windows``.  Window
    feasibility for every instrument is checked before any training work
    starts.
    """
    if n_windows is not None:
        config = replace(config, windows=n_windows)
    _, datasets = _load_datasets(config)
    plans = [
        walk_forward_plan(len(ds), config.windows, test_frac=config.test_frac, val_frac=config.val_frac)
        for ds in datasets
    ]

    store = RecordStore(config.store_path)
    reports: list[RunReport] = []
    for w in range(config.windows):
        run_id = _run_id(config.seed, w + 1)
        views = [plan[w] for plan in plans]
        prior = store.load()

        records, failures, models = _layer1(config, datasets, views, run_id)
        store.append(records)

        meta_val_acc = None
        if prior:
            try:
                prior_meta = train_meta(prior, seed=derive_seed(config.seed, run_id))
                rows = metric_rows(records)
                labels = np.array([r.profit_label for r in records])
                meta_val_acc = float((prior_meta.predict(rows) == labels).mean())
            except TrainingError:
                meta_val_acc = None

        selection, selection_note, picks = _layer2(config, records, models, [prior + records], run_id)
        if selection is None:
            logger.warning("window %d: %s; skipping selection", w + 1, selection_note)
        tests = {ds.symbol: ds.take(view.test) for ds, view in zip(datasets, views)}
        outcomes = [
            _test_outcome(model, tests[entry.instrument], config.short_on_down)
            for entry, model in picks
        ]

        reports.append(
            RunReport(
                run_id=run_id,
                window_index=w + 1,
                n_windows=config.windows,
                records=tuple(records),
                failures=tuple(failures),
                selection=selection,
                selection_note=selection_note,
                test_outcomes=tuple(outcomes),
                meta_validation_accuracy=meta_val_acc,
                paper_mean_accuracy=(
                    mean_system_accuracy(meta_val_acc) if meta_val_acc is not None else None
                ),
                store_size=len(prior) + len(records),
            )
        )
    return reports


def run_training_cycle(config: RunConfig) -> RunReport:
    """One full cycle: the degenerate single-window walk-forward."""
    return walk_forward(config, 1)[0]


@dataclass(frozen=True)
class NextDayPrediction:
    instrument: str
    model: str
    direction: int  # 1 = up, 0 = down
    meta_score: float
    last_date: dt.date


def predict_next(config: RunConfig) -> list[NextDayPrediction]:
    """Directions for the day after each selected pair's latest bar.

    Trains on all available history (validation carved from its newest
    part), selects pairs with the store-trained meta model when the store
    is deep enough and otherwise, logging a cold start, with this run's
    own records, then reads each selected model's feature row at the very
    last bar.  Nothing is appended to the store.
    """
    series_list, datasets = _load_datasets(config)
    run_id = f"{config.seed}-next"

    views = []
    for ds in datasets:
        learn, validation = learn_validation_split(len(ds), val_frac=config.val_frac)
        views.append(SplitView(learn, validation, range(len(ds), len(ds))))

    records, _, models = _layer1(config, datasets, views, run_id)
    histories = [RecordStore(config.store_path).load(), records]
    selection, note, picks = _layer2(config, records, models, histories, run_id)
    if selection is None:
        raise TrainingError("insufficient meta history in both the store and this run's records")
    if note != "ok":
        logger.warning("cold start: the record store cannot train the voting layer (%s); "
                       "falling back to this run's own records", note)

    selected = {entry.instrument for entry, _ in picks}
    latest = {
        s.symbol: (feature_matrix(s, config.features)[-1:], s.bars[-1].date)
        for s in series_list
        if s.symbol in selected
    }
    out = []
    for entry, model in picks:
        row, last_date = latest[entry.instrument]
        direction = int(model.predict(row)[0])
        out.append(NextDayPrediction(entry.instrument, entry.model, direction, entry.meta_score, last_date))
    return out


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")


def emit_reports(report: RunReport, outdir) -> list[Path]:
    """Write records.csv, selection.csv, per-pair equity CSVs, summary.txt."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    records_path = outdir / "records.csv"
    records_path.write_text(records_to_csv(report.records), encoding="utf-8")
    written.append(records_path)

    rows = [("mode", "rank", "instrument", "model", "meta_score", "vote")]
    if report.selection is not None:
        rows += [
            (report.selection.mode, rank, entry.instrument, entry.model, entry.meta_score, entry.vote)
            for rank, entry in enumerate(report.selection.entries, start=1)
        ]
    selection_path = outdir / "selection.csv"
    selection_path.write_text(csv_lines(rows), encoding="utf-8")
    written.append(selection_path)

    for outcome in report.test_outcomes:
        path = outdir / f"equity_{_slug(outcome.instrument)}_{_slug(outcome.model)}.csv"
        rows = [("date", "strategy_cum_pct", "normal_cum_pct")]
        rows += zip(outcome.dates, outcome.strategy_cum_pct, outcome.normal_cum_pct)
        path.write_text(csv_lines(rows), encoding="utf-8")
        written.append(path)

    summary_path = outdir / "summary.txt"
    summary_path.write_text(_summary_text(report), encoding="utf-8")
    written.append(summary_path)
    return written


def _summary_text(report: RunReport) -> str:
    instruments = sorted({r.instrument for r in report.records})
    lines = [
        f"run_id: {report.run_id}",
        f"window: {report.window_index}/{report.n_windows}",
        f"instruments: {len(instruments)}",
        f"records: {len(report.records)}",
        f"failures: {len(report.failures)}",
        f"store_size: {report.store_size}",
    ]
    for failure in report.failures:
        lines.append(f"  failed: {failure.instrument} {failure.model}: {failure.reason}")
    if report.selection is None:
        lines.append(f"selection: none ({report.selection_note})")
    else:
        lines.append(f"selection: {report.selection.mode}, {len(report.selection.entries)} pair(s)")
    if report.meta_validation_accuracy is None:
        prior = report.store_size - len(report.records)
        reason = f"untrained on {prior} prior records" if prior else "no prior history"
        lines.append(f"layer2_validation_accuracy: n/a ({reason})")
        lines.append("paper_mean_accuracy: n/a")
    else:
        lines.append(f"layer2_validation_accuracy: {report.meta_validation_accuracy!r}")
        lines.append(f"paper_mean_accuracy: {report.paper_mean_accuracy!r}")
    for outcome in report.test_outcomes:
        lines.append(
            f"test: {outcome.instrument} {outcome.model} "
            f"acc={outcome.accuracy!r} strategy_pct={outcome.strategy_return_pct!r} "
            f"nnp_pct={outcome.nnp_pct!r}"
        )
    return "\n".join(lines) + "\n"
