import itertools

import numpy as np
import pytest

import pairselect.meta as meta
import pairselect.models as models
import pairselect.pipeline as pipeline
from pairselect.data import InstrumentSource, SyntheticSpec
from pairselect.errors import ConfigError, TrainingError
from pairselect.pipeline import (
    RunConfig,
    emit_reports,
    predict_next,
    run_training_cycle,
    walk_forward,
)
from pairselect.store import RecordStore

FAST_KINDS = ("logistic", "decision_tree", "gaussian_nb", "kneighbors")


def synthetic_sources(n_trend=2, n_noise=2, length=600, seed=0):
    sources = []
    for i in range(n_trend):
        sources.append(
            InstrumentSource(
                f"TREND{i}",
                synthetic=SyntheticSpec(
                    kind="persistent_sign", length=length, persistence=0.70, seed=seed + i
                ),
            )
        )
    for i in range(n_noise):
        sources.append(
            InstrumentSource(
                f"NOISE{i}",
                synthetic=SyntheticSpec(kind="random_walk", length=length, seed=seed + 50 + i),
            )
        )
    return tuple(sources)


def make_config(tmp_path, *, sources=None, kinds=FAST_KINDS, seed=42, **kwargs):
    return RunConfig(
        sources=sources if sources is not None else synthetic_sources(),
        seed=seed,
        out_dir=tmp_path / "out",
        store_path=tmp_path / "out" / "record_store.csv",
        model_kinds=tuple(kinds),
        **kwargs,
    )


def test_cycle_record_cardinality(tmp_path):
    config = make_config(tmp_path)
    report = run_training_cycle(config)
    assert len(report.records) + len(report.failures) == 4 * len(FAST_KINDS)
    assert report.store_size == len(report.records)
    pairs = {(r.instrument, r.model) for r in report.records}
    assert len(pairs) == len(report.records)


def test_singleton_universe_single_kind(tmp_path):
    config = make_config(
        tmp_path,
        sources=synthetic_sources(n_trend=1, n_noise=0),
        kinds=("gaussian_nb",),
    )
    with pytest.raises(TrainingError, match="insufficient meta history in both the store and this run's"):
        predict_next(config)  # empty store
    report = run_training_cycle(config)
    assert len(report.records) == 1
    # 1 record cannot reach the meta-history minimum: selection is skipped
    assert report.selection is None
    assert "insufficient meta history" in report.selection_note


def test_two_identical_runs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        config = RunConfig(
            sources=synthetic_sources(),
            seed=7,
            out_dir=out,
            store_path=out / "store.csv",
            model_kinds=FAST_KINDS,
        )
        report = run_training_cycle(config)
        emit_reports(report, out)
    for name in ("records.csv", "selection.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "store.csv").read_bytes() == (out_b / "store.csv").read_bytes()


def test_instrument_order_does_not_change_pair_results(tmp_path):
    base = synthetic_sources()
    config_a = RunConfig(
        sources=base, seed=9, out_dir=tmp_path / "a", store_path=tmp_path / "a" / "s.csv",
        model_kinds=FAST_KINDS,
    )
    config_b = RunConfig(
        sources=tuple(reversed(base)), seed=9, out_dir=tmp_path / "b",
        store_path=tmp_path / "b" / "s.csv", model_kinds=FAST_KINDS,
    )
    rec_a = {(r.instrument, r.model): r for r in run_training_cycle(config_a).records}
    rec_b = {(r.instrument, r.model): r for r in run_training_cycle(config_b).records}
    assert rec_a == rec_b


def test_walk_forward_windows_accumulate_history(tmp_path):
    config = make_config(tmp_path, seed=13)
    reports = walk_forward(config, 3)
    assert [r.window_index for r in reports] == [1, 2, 3]
    sizes = [r.store_size for r in reports]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    store = RecordStore(config.store_path)
    assert len(store) == sizes[-1]
    run_ids = {r.run_id for r in store.load()}
    assert run_ids == {"13-w01", "13-w02", "13-w03"}
    # prior history reaches the meta minimum (30) by window 3, making
    # layer-2 accuracy measurable out of sample
    assert reports[0].meta_validation_accuracy is None
    assert reports[1].meta_validation_accuracy is None
    assert reports[2].meta_validation_accuracy is not None
    assert reports[2].paper_mean_accuracy == pytest.approx(
        2 * reports[2].meta_validation_accuracy - 1
    )
    # the summary tells an empty prior history from one too small to train on
    assert sizes[:2] == [16, 32]
    summaries = [emit_reports(r, tmp_path / r.run_id)[-1].read_text() for r in reports]
    assert "layer2_validation_accuracy: n/a (no prior history)\n" in summaries[0]
    assert "layer2_validation_accuracy: n/a (untrained on 16 prior records)\n" in summaries[1]
    assert f"layer2_validation_accuracy: {reports[2].meta_validation_accuracy!r}\n" in summaries[2]


def test_walk_forward_single_window_equals_cycle(tmp_path):
    config_a = make_config(tmp_path / "a", seed=21)
    config_b = make_config(tmp_path / "b", seed=21)
    by_cycle = run_training_cycle(config_a)
    by_wf = walk_forward(config_b, 1)[0]
    assert by_cycle.records == by_wf.records
    assert by_cycle.run_id == by_wf.run_id


def test_test_segment_isolation(tmp_path):
    """Perturbing test-segment bars must not move any learn/validation artifact."""
    from pairselect.data import OhlcvBar, build_series, generate_synthetic_series
    from pairselect.data import serialize_ohlcv_csv
    from pairselect.features import FeatureParams, build_dataset
    from pairselect.splits import chronological_split

    spec = SyntheticSpec(kind="persistent_sign", length=500, persistence=0.7, seed=3)
    series = generate_synthetic_series(spec, "ISO")
    ds = build_dataset(series)
    view = chronological_split(len(ds))
    first_test_bar = FeatureParams().first_target_index() + view.test.start

    rng = np.random.default_rng(0)
    bars = list(series.bars)
    for i in range(first_test_bar, len(bars)):
        b = bars[i]
        close = b.close * float(1.0 + 0.01 * rng.standard_normal())
        bars[i] = OhlcvBar(
            b.date, b.open, max(b.high, close, b.open), min(b.low, close, b.open),
            close, close, b.volume,
        )
    perturbed = build_series("ISO", bars)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d, ser in ((dir_a, series), (dir_b, perturbed)):
        d.mkdir()
        (d / "ISO.csv").write_bytes(serialize_ohlcv_csv(ser))
        config = RunConfig(
            sources=(
                InstrumentSource("ISO", csv_path=d / "ISO.csv"),
                *synthetic_sources(n_trend=1, n_noise=1, length=500, seed=77),
            ),
            seed=5,
            out_dir=d / "out",
            store_path=d / "out" / "store.csv",
            model_kinds=FAST_KINDS,
        )
        report = run_training_cycle(config)
        emit_reports(report, d / "out")

    # validation records and selection match byte for byte; only the test
    # replay (equity curves) may differ
    assert (dir_a / "out" / "records.csv").read_bytes() == (dir_b / "out" / "records.csv").read_bytes()
    assert (dir_a / "out" / "selection.csv").read_bytes() == (dir_b / "out" / "selection.csv").read_bytes()


def test_emit_reports_files_and_curves(tmp_path):
    config = make_config(tmp_path, seed=31)
    reports = walk_forward(config, 2)
    out = tmp_path / "report2"
    paths = emit_reports(reports[1], out)
    names = {p.name for p in paths}
    assert "records.csv" in names and "selection.csv" in names and "summary.txt" in names
    assert (out / "records.csv").read_text().startswith("dataset,model,accuracy")
    curves = [p for p in paths if p.name.startswith("equity_")]
    assert reports[1].test_outcomes and len(curves) == len(reports[1].test_outcomes)
    for path, outcome in zip(curves, reports[1].test_outcomes):
        header, *rows = path.read_text().splitlines()
        assert header == "date,strategy_cum_pct,normal_cum_pct"
        assert [row.split(",")[0] for row in rows] == [d.isoformat() for d in outcome.dates]
        values = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.array_equal(values[:, 0], outcome.strategy_cum_pct)
        assert np.array_equal(values[:, 1], outcome.normal_cum_pct)


def test_always_long_pair_curves_coincide(tmp_path):
    from pairselect.evaluation import window_backtest
    from pairselect.features import build_dataset
    from pairselect.data import generate_synthetic_series

    spec = SyntheticSpec(kind="random_walk", length=300, seed=8)
    ds = build_dataset(generate_synthetic_series(spec, "RW"))

    _, _, strat_curve, base_curve = window_backtest(np.ones(60), ds.take(range(0, 60)).returns)
    np.testing.assert_allclose(strat_curve, base_curve)


def test_predict_next_directions(tmp_path):
    config = make_config(tmp_path, seed=33)
    # warm the store so the meta layer has history
    walk_forward(config, 2)
    predictions = predict_next(config)
    for p in predictions:
        assert p.direction in (0, 1)
        assert p.instrument in {s.symbol for s in config.sources}
    # nothing new appended by predict-next
    assert {r.run_id for r in RecordStore(config.store_path).load()} == {"33-w01", "33-w02"}


def test_predict_next_logs_a_cold_start_only_when_the_store_cannot_train(tmp_path, caplog, monkeypatch):
    import logging

    config = make_config(tmp_path, sources=synthetic_sources(n_trend=4, n_noise=4), seed=33)
    with caplog.at_level(logging.WARNING):
        cold = predict_next(config)
    assert cold
    assert [m for m in caplog.messages if m.startswith("cold start")] == [
        "cold start: the record store cannot train the voting layer "
        "(insufficient meta history: 0 records, need 30); falling back to this run's own records"
    ]

    walk_forward(config, 2)
    caplog.clear()
    histories, train_meta = [], pipeline.train_meta

    def spy(records, seed):
        histories.append(len(records))
        return train_meta(records, seed)

    monkeypatch.setattr(pipeline, "train_meta", spy)
    with caplog.at_level(logging.WARNING):
        warm = predict_next(config)
    assert warm
    assert not [m for m in caplog.messages if m.startswith("cold start")]
    # the voting layer is fitted once, on the store alone
    assert histories == [len(RecordStore(config.store_path).load())] == [64]


def test_every_pair_failing_is_a_training_error_naming_the_run(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise TrainingError("fit diverged")

    monkeypatch.setattr(pipeline, "grid_search", failing)
    config = make_config(tmp_path, seed=8)
    with pytest.raises(TrainingError, match="run 8-w01: no .instrument, model. pair survived"):
        walk_forward(config, 2)
    with pytest.raises(TrainingError, match="run 8-next: no .instrument, model. pair survived"):
        predict_next(config)


def test_skipped_instrument_logged_not_fatal(tmp_path, caplog):
    import logging

    good = synthetic_sources(n_trend=1, n_noise=1)
    missing = InstrumentSource("GHOST", csv_path=tmp_path / "ghost.csv")
    config = make_config(tmp_path, sources=(missing, *good), kinds=("gaussian_nb", "logistic"))
    with caplog.at_level(logging.WARNING):
        report = run_training_cycle(config)
    assert any("GHOST" in m for m in caplog.messages)
    assert {r.instrument for r in report.records} == {"TREND0", "NOISE0"}


def test_all_instruments_failing_is_fatal(tmp_path):
    config = make_config(
        tmp_path, sources=(InstrumentSource("GHOST", csv_path=tmp_path / "ghost.csv"),)
    )
    with pytest.raises(ConfigError, match="no instrument survived"):
        run_training_cycle(config)


def test_duplicate_symbols_rejected(tmp_path):
    trend = synthetic_sources(n_trend=1, n_noise=0)
    with pytest.raises(ConfigError, match="duplicate"):
        config = make_config(tmp_path, sources=trend + trend)
        run_training_cycle(config)


def test_mixed_csv_and_synthetic_universe(tmp_path, caplog):
    import logging

    from pairselect.data import generate_synthetic_series, serialize_ohlcv_csv

    spec = SyntheticSpec(kind="persistent_sign", length=600, persistence=0.7, seed=9)
    csv_sources = []
    for symbol, length in (("FILE0", 600), ("SHORT", 40)):
        path = tmp_path / f"{symbol}.csv"
        path.write_bytes(serialize_ohlcv_csv(generate_synthetic_series(spec, symbol).truncate(length)))
        csv_sources.append(InstrumentSource(symbol, csv_path=path))
    sources = (*csv_sources, *synthetic_sources(n_trend=0, n_noise=1))
    config = make_config(tmp_path, sources=sources, kinds=("gaussian_nb",))
    with caplog.at_level(logging.WARNING):
        report = run_training_cycle(config)
    assert any("SHORT" in m and "below the required minimum" in m for m in caplog.messages)
    assert {r.instrument for r in report.records} == {"FILE0", "NOISE0"}


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(sources=(), seed=1, out_dir=".", store_path="s.csv")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig(
            sources=synthetic_sources(), seed=1, out_dir=".", store_path="s.csv",
            model_kinds=("bogus",),
        )
    with pytest.raises(ConfigError, match="nope"):
        RunConfig(
            sources=synthetic_sources(), seed=1, out_dir=".", store_path="s.csv",
            selection_mode="nope",
        )


def test_split_fraction_is_refused_when_the_config_is_built():
    with pytest.raises(ConfigError, match=r"test_frac must lie in \(0, 1\), got 1.5"):
        RunConfig(
            sources=synthetic_sources(), seed=1, out_dir=".", store_path="s.csv", test_frac=1.5
        )


def test_the_benchmark_hooks_see_every_layer_and_one_store_read_per_window(tmp_path, monkeypatch):
    """perfbench's tracer wraps these ten names, and its untraced clock takes
    each RecordStore.load as the start of a walk-forward window."""
    hooks = [
        (pipeline, "load_series"), (pipeline, "build_dataset"), (pipeline, "grid_search"),
        (pipeline, "evaluate_pair"), (pipeline, "train_meta"), (pipeline, "select_pairs"),
        (models, "train"), (meta, "train"), (RecordStore, "load"), (RecordStore, "append"),
    ]
    calls = []

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls.append(key)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in hooks:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), f"{owner.__name__}.{name}"))
    walk_forward(make_config(tmp_path, seed=35), 3)

    assert {f"{owner.__name__}.{name}" for owner, name in hooks} <= set(calls)
    load, search = "RecordStore.load", "pairselect.pipeline.grid_search"
    order = [key for key, _ in itertools.groupby(k for k in calls if k in (load, search))]
    assert calls.count(load) == 3 and order == [load, search] * 3
