"""Append-only evaluation-record store.

One file, one record per line, comma-delimited with a header written at
creation; no value may contain the delimiter.  Appends are buffered and
flushed in a single write so readers never observe a partial batch.  An
unterminated last line (the signature of an interrupted write), and then
a corrupt last record, are skipped with a warning on load and cut before
the next append, while corruption anywhere else is an error.
"""

from __future__ import annotations

import datetime as dt
import logging
import os
from pathlib import Path

from .data import csv_lines
from .errors import StoreError
from .evaluation import CSV_COLUMNS, EvaluationRecord, MetricSet, record_row

logger = logging.getLogger(__name__)

STORE_COLUMNS = CSV_COLUMNS + ("run_id", "window_start", "window_end")


class RecordStore:
    """Durable append-only sequence of evaluation records."""

    def __init__(self, path):
        self.path = Path(path)

    def append(self, records) -> None:
        records = list(records)
        if not records:
            return
        rows = []
        for record in records:
            for text in (record.instrument, record.model, record.run_id):
                if "," in text or "\n" in text:
                    raise StoreError(f"record field contains a delimiter: {text!r}")
            rows.append(record_row(record) + [record.run_id, record.window_start, record.window_end])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            keep, size = _kept_length(fh)
            if keep < size:
                logger.warning("%s: cutting a torn or corrupt trailing line", self.path)
                fh.truncate(keep)
            if keep == 0:
                rows.insert(0, STORE_COLUMNS)
            fh.write(csv_lines(rows).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> list[EvaluationRecord]:
        """All records, oldest first; empty when the store does not exist."""
        if not self.path.exists():
            return []
        with open(self.path, "rb") as fh:
            keep, size = _kept_length(fh)
            fh.seek(0)
            lines = fh.read(keep).split(b"\n")[:-1]
        if keep < size:
            logger.warning("%s: ignoring a torn or corrupt trailing line", self.path)
        if not lines:
            return []
        header = lines[0].decode("utf-8", "replace")
        if tuple(header.split(",")) != STORE_COLUMNS:
            raise StoreError(f"{self.path}: unexpected header {header!r}")
        records = []
        for number, line in enumerate(lines[1:], start=2):
            try:  # a UnicodeDecodeError is a ValueError too
                records.append(_parse_fields(line.decode("utf-8").split(",")))
            except ValueError as exc:
                raise StoreError(f"{self.path}: corrupt line {number}: {exc}") from None
        return records

    def __len__(self) -> int:
        return len(self.load())


def _kept_length(fh) -> tuple[int, int]:
    """(bytes of the store that count, its size): all but an unterminated
    last line and then a corrupt last record, found from the last few KiB."""
    size = fh.seek(0, os.SEEK_END)
    span = 4096
    while True:
        start = max(0, size - span)
        fh.seek(start)
        tail = fh.read()
        last = tail.rfind(b"\n")  # ends the last complete line
        prev = tail.rfind(b"\n", 0, max(last, 0))  # ends the line before it
        if prev >= 0 or start == 0:
            break
        span *= 16
    if prev < 0:  # no complete line, or only the header
        return last + 1, size
    try:
        _parse_fields(tail[prev + 1 : last].decode("utf-8").split(","))
    except ValueError:
        return start + prev + 1, size
    return start + last + 1, size


def _parse_fields(fields: list[str]) -> EvaluationRecord:
    if len(fields) != len(STORE_COLUMNS):
        raise ValueError(f"expected {len(STORE_COLUMNS)} fields, got {len(fields)}")
    # the STORE_COLUMNS layout: the metrics are everything between model and profit_label
    instrument, model, *metrics, profit_label, run_id, window_start, window_end = fields
    return EvaluationRecord(
        run_id=run_id,
        instrument=instrument,
        model=model,
        window_start=dt.date.fromisoformat(window_start),
        window_end=dt.date.fromisoformat(window_end),
        metrics=MetricSet(*map(float, metrics)),
        profit_label=int(profit_label),
    )
