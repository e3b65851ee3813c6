"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import run
import tracing
from inputs import Instrument, ohlcv_csv, prefill_store, prior_records
from tracing import Span, Tracer


def _spans(*rows):
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_times_subtract_nested_children():
    spans = _spans(
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 7.0, 0),
        ("e", 12.0, 13.0, None),
    )
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(tracing.top_level_seconds(spans))


def test_self_times_count_overlapping_children_once():
    spans = _spans(("a", 0.0, 10.0, None), ("b", 1.0, 5.0, 0), ("c", 3.0, 12.0, 0))
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_stack():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0), ("next", None),
    ]
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0, 1.0]


def test_layer_metrics_partition_the_traced_time():
    spans = _spans(
        ("pipeline.walk_forward", 0.0, 20.0, None),
        ("data.load", 0.5, 1.0, 0),
        ("features.build", 1.0, 1.5, 0),
        ("models.grid_search.logistic", 2.0, 8.0, 0),
        ("models.fit.logistic", 2.5, 6.5, 3),
        ("evaluation.evaluate_pair", 8.0, 9.0, 0),
        ("store.load", 9.0, 10.0, 0),
        ("meta.train", 10.0, 14.0, 0),
        ("meta.voter_fit.kneighbors", 10.5, 11.5, 7),
        ("meta.select", 14.0, 15.0, 0),
        ("store.append", 15.0, 15.5, 0),
        ("pipeline.emit_reports", 20.0, 21.0, None),
    )
    counts = Counter(selected=3, considered=4)
    m = tracing.layer_metrics(spans, counts, ("logistic", "mlp"))
    assert m["models.grid_search_s.logistic"] == pytest.approx(6.0)
    assert m["models.fit_s.logistic"] == pytest.approx(4.0)
    assert m["models.fits.logistic"] == 1
    assert m["models.grid_search_s.mlp"] == 0.0
    assert m["meta.train_s"] == pytest.approx(4.0)
    assert m["meta.voter_fit_s.kneighbors"] == pytest.approx(1.0)
    assert m["pipeline.walk_forward_self_s"] == pytest.approx(20.0 - 14.5)
    assert m["meta.voted_profitable_share"] == pytest.approx(0.75)
    assert tracing.partition_sum(m) == pytest.approx(21.0)


def test_instrument_traces_a_real_cycle_and_restores_names(tmp_path):
    import pairselect.models as models
    import pairselect.pipeline as pipeline
    from pairselect.data import InstrumentSource
    from pairselect.store import RecordStore

    originals = (pipeline.grid_search, models.train, RecordStore.load)
    inst = Instrument("SIG0", "persistent_sign", 400, 5)
    path = tmp_path / "SIG0.csv"
    path.write_bytes(ohlcv_csv(inst))
    config = pipeline.RunConfig(
        sources=(InstrumentSource("SIG0", csv_path=path),), seed=1, out_dir=tmp_path,
        store_path=tmp_path / "store.csv", model_kinds=("gaussian_nb", "logistic"),
    )
    tracer = Tracer()
    with tracing.instrument(tracer):
        with tracer.span("pipeline.walk_forward"):
            pipeline.walk_forward(config, 1)
    assert (pipeline.grid_search, models.train, RecordStore.load) == originals

    m = tracing.layer_metrics(tracer.spans, tracer.counts, run.ZOO_KINDS)
    assert m["models.fits.gaussian_nb"] == 3 and m["models.fits.logistic"] == 3
    assert m["evaluation.pairs"] == 2
    assert m["data.bars_loaded"] == 400
    assert m["store.records_appended"] == 2
    assert tracing.partition_sum(m) == pytest.approx(tracing.top_level_seconds(tracer.spans))


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_timing_summary_states_count_and_supported_percentile():
    assert run.timing_summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    summary = run.timing_summary([float(i) for i in range(1, 41)])
    assert summary == {"n": 40, "p50": 20.5, "p75": pytest.approx(30.25)}


def _report(selected=(), records=0, failures=0, outcomes=()):
    entries = tuple(SimpleNamespace(instrument=s) for s in selected)
    return SimpleNamespace(
        run_id="0-w01",
        selection=SimpleNamespace(entries=entries),
        records=(None,) * records,
        failures=(None,) * failures,
        test_outcomes=tuple(
            SimpleNamespace(strategy_return_pct=s, nnp_pct=b) for s, b in outcomes
        ),
    )


def test_selection_precision_averages_cycles_that_selected():
    reports = [
        _report(["SIG0", "RND0"]),
        _report(["SIG0", "SIG1", "SIG2", "RND1"]),
        _report([]),
        SimpleNamespace(selection=None),
    ]
    assert run.selection_precision(reports, {"SIG0", "SIG1", "SIG2"}) == pytest.approx(0.625)
    assert run.selection_precision(reports[2:], {"SIG0"}) is None


def test_failed_pair_share_counts_against_attempted():
    reports = [_report(records=7, failures=1), _report(records=8, failures=0)]
    assert run.failed_pair_share(reports) == pytest.approx(1 / 16)
    assert run.failed_pair_share([]) == 0.0


def test_excess_return_is_mean_strategy_minus_mean_buy_and_hold():
    reports = [_report(outcomes=[(4.0, 1.0)]), _report(outcomes=[(-2.0, 3.0), (1.0, 2.0)])]
    assert run.excess_return_pct(reports) == pytest.approx(1.0 - 2.0)
    assert run.excess_return_pct([_report()]) is None


def test_check_pairs_flags_missing_pairs():
    good = [_report(records=7, failures=1)]
    assert run.check_pairs(good, [2], ("a", "b", "c", "d"), 1) == []
    assert run.check_pairs([_report(records=6)], [2], ("a", "b", "c", "d"), 1)
    assert run.check_pairs(good, [2], ("a", "b", "c", "d"), 2)


def test_prior_records_are_deterministic_with_both_labels():
    a, b = prior_records(500, seed=3), prior_records(500, seed=3)
    assert a == b
    assert a != prior_records(500, seed=4)
    assert {r.profit_label for r in a} == {0, 1}
    assert all("," not in r.model and "," not in r.instrument for r in a)


def test_prefilled_store_loads_back_the_generated_records(tmp_path):
    from pairselect.store import RecordStore

    prefill_store(tmp_path / "store.csv", 200, seed=9)
    assert RecordStore(tmp_path / "store.csv").load() == prior_records(200, seed=9)
    prefill_store(tmp_path / "empty.csv", 0, seed=9)
    assert not (tmp_path / "empty.csv").exists()


@pytest.mark.parametrize("kind", ["persistent_sign", "random_walk"])
def test_csv_inputs_match_the_package_synthetic_series(kind):
    from pairselect.data import SyntheticSpec, generate_synthetic_series, serialize_ohlcv_csv

    inst = Instrument("SIG0", kind, 300, 1000 * 1000 + 2)
    spec = SyntheticSpec(kind=kind, length=300, persistence=0.65, seed=inst.seed)
    assert ohlcv_csv(inst) == serialize_ohlcv_csv(generate_synthetic_series(spec, "SIG0"))


def test_cycles_follow_the_seed():
    cycles, windows, kinds, prior_n = run.build_cycles("planted_loop", run.DEFAULT_SEED)
    assert [master for master, _ in cycles] == list(range(1000, 1020))
    assert (windows, kinds, prior_n) == (1, run.FAST_KINDS, 0)
    for name in run.WORKLOADS:
        assert run.build_cycles(name, 1) == run.build_cycles(name, 1)
        assert run.build_cycles(name, 1) != run.build_cycles(name, 2)


def test_refuses_to_run_without_package_source(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "zoo_cycle", "--seed", "1", "--seconds", "1"]) == 2
