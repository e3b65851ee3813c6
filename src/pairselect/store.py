"""Append-only evaluation-record store.

One file, one record per line, comma-delimited with a header written at
creation; no value may contain the delimiter.  Appends are buffered and
flushed in a single write so readers never observe a partial batch; a
corrupt trailing line (the signature of an interrupted write) is skipped
with a warning on load, while corruption anywhere else is an error.
"""

from __future__ import annotations

import datetime as dt
import logging
import os
from pathlib import Path

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
        lines = []
        if not self.path.exists():
            lines.append(",".join(STORE_COLUMNS))
        for record in records:
            fields = record_row(record) + [
                record.run_id,
                record.window_start.isoformat(),
                record.window_end.isoformat(),
            ]
            for f in fields:
                if "," in f or "\n" in f:
                    raise StoreError(f"record field contains a delimiter: {f!r}")
            lines.append(",".join(fields))
        payload = "\n".join(lines) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> list[EvaluationRecord]:
        """All records, oldest first; empty when the store does not exist."""
        if not self.path.exists():
            return []
        raw = self.path.read_text(encoding="utf-8")
        if raw == "":
            return []
        complete = raw.endswith("\n")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not complete and lines:
            logger.warning("%s: ignoring unterminated trailing line (partial write)", self.path)
            lines.pop()
        if not lines:
            return []
        if tuple(lines[0].split(",")) != STORE_COLUMNS:
            raise StoreError(f"{self.path}: unexpected header {lines[0]!r}")

        records = []
        last_index = len(lines) - 1
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            try:
                records.append(_parse_fields(fields))
            except ValueError as exc:
                if i == last_index:
                    logger.warning("%s: ignoring corrupt trailing line: %s", self.path, exc)
                    continue
                raise StoreError(f"{self.path}: corrupt line {i + 1}: {exc}") from None
        return records

    def __len__(self) -> int:
        return len(self.load())


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
