import datetime as dt
import logging

import pytest

from pairselect.errors import StoreError
from pairselect.evaluation import EvaluationRecord, MetricSet
from pairselect.store import STORE_COLUMNS, RecordStore


def make_record(i=0, run_id="r1", instrument="AAPL", profit=1):
    metrics = MetricSet(
        accuracy=0.5 + i / 100.0,
        normalized_acc=0.49,
        precision=0.56,
        recall=0.61,
        f1=0.58,
        auc=0.52,
        pred_pos_rate=0.7,
        backtest_return_pct=1.25 if profit else -0.77,
        nnp_pct=0.4,
    )
    return EvaluationRecord(
        run_id=run_id,
        instrument=instrument,
        model=f"logistic(C=0.1;idx={i})",
        window_start=dt.date(2021, 1, 4),
        window_end=dt.date(2021, 3, 1),
        metrics=metrics,
        profit_label=profit,
    )


def test_append_then_load_round_trips_every_field(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    record = make_record()
    store.append([record])
    loaded = store.load()
    assert loaded == [record]


def test_append_grows_by_batch_size(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(i) for i in range(143)])
    assert len(store) == 143
    store.append([make_record(i, run_id="r2") for i in range(7)])
    assert len(store) == 150


def test_two_runs_distinguishable_by_run_id(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(run_id="r1")])
    store.append([make_record(run_id="r2")])
    runs = [r.run_id for r in store.load()]
    assert runs == ["r1", "r2"]


def test_empty_or_missing_store_loads_empty(tmp_path):
    store = RecordStore(tmp_path / "nothing.csv")
    assert store.load() == []


def test_corrupt_trailing_line_is_skipped_with_warning(tmp_path, caplog):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0), make_record(1)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("AAPL,logistic,0.5")  # interrupted mid-write, no newline
    with caplog.at_level(logging.WARNING):
        loaded = store.load()
    assert len(loaded) == 2
    assert any("trailing line" in m for m in caplog.messages)


def test_terminated_but_malformed_trailing_line_is_skipped(tmp_path, caplog):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("half,a,record\n")
    with caplog.at_level(logging.WARNING):
        loaded = store.load()
    assert len(loaded) == 1


def test_mid_file_corruption_is_an_error(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0)])
    good_line = store.path.read_text().split("\n")[1]
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("broken,line\n" + good_line + "\n")  # written behind the append's back
    with pytest.raises(StoreError, match="corrupt line 3"):
        store.load()


def test_header_written_once(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0)])
    store.append([make_record(1)])
    lines = store.path.read_text().strip().split("\n")
    assert lines[0] == ",".join(STORE_COLUMNS)
    assert sum(1 for l in lines if l.startswith("dataset,")) == 1


def test_rejects_fields_containing_delimiter(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    bad = make_record()
    bad = EvaluationRecord(
        run_id="r,1",
        instrument=bad.instrument,
        model=bad.model,
        window_start=bad.window_start,
        window_end=bad.window_end,
        metrics=bad.metrics,
        profit_label=bad.profit_label,
    )
    with pytest.raises(StoreError, match="delimiter"):
        store.append([bad])


def test_append_after_a_torn_tail_keeps_every_record(tmp_path, caplog, monkeypatch):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0), make_record(1)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("AAPL,logistic,0.5")  # interrupted mid-write, no newline
    monkeypatch.setattr(RecordStore, "load", None)  # append must not read the whole store
    with caplog.at_level(logging.WARNING):
        store.append([make_record(2)])
        store.append([make_record(3)])
    monkeypatch.undo()
    assert store.load() == [make_record(i) for i in range(4)]
    assert any("torn or corrupt trailing line" in m for m in caplog.messages)


@pytest.mark.parametrize(
    "corrupt", ["half,a,record\n", "x" * 10_000 + "\n"], ids=["short", "longer-than-the-read-tail"]
)
def test_append_after_a_corrupt_last_line_keeps_the_store_readable(tmp_path, corrupt):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(0)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write(corrupt)
    store.append([make_record(1)])
    assert store.load() == [make_record(0), make_record(1)]


def test_append_to_an_empty_file_writes_the_header(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.path.touch()
    store.append([make_record(0)])
    assert store.path.read_text().split("\n")[0] == ",".join(STORE_COLUMNS)
    assert store.load() == [make_record(0)]


def _spoil_line(path, number):
    """Put a byte that is not UTF-8 into line ``number`` (1-based) of the file."""
    lines = path.read_bytes().split(b"\n")
    lines[number - 1] = lines[number - 1].replace(b"AAPL", b"AA\xffL")
    path.write_bytes(b"\n".join(lines))


def test_a_non_utf8_byte_mid_file_is_a_store_error_naming_its_line(tmp_path):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(i) for i in range(3)])
    _spoil_line(store.path, 3)
    with pytest.raises(StoreError, match="corrupt line 3"):
        store.load()


def test_a_non_utf8_last_record_is_skipped_then_cut(tmp_path, caplog):
    store = RecordStore(tmp_path / "store.csv")
    store.append([make_record(i) for i in range(3)])
    _spoil_line(store.path, 4)
    with caplog.at_level(logging.WARNING):
        assert store.load() == [make_record(0), make_record(1)]
        store.append([make_record(3)])
    assert any("ignoring a torn or corrupt trailing line" in m for m in caplog.messages)
    assert any("cutting a torn or corrupt trailing line" in m for m in caplog.messages)
    assert store.load() == [make_record(0), make_record(1), make_record(3)]
