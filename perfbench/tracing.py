"""Spans around the package's public calls, recorded from the benchmark.

The package is not edited: :func:`instrument` swaps the names that
``pairselect.pipeline`` calls (and the two ``train`` names behind grid
search and the voting layer) for timing wrappers, and restores them on
exit.  Each span records its name, start, end and parent; a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

META_VOTERS = ("logistic", "decision_tree", "kneighbors")

# Layer metrics that partition the traced wall time: every traced second
# lands in exactly one of them.  grid_search includes its zoo fits and
# meta.train includes its voter fits, since both stay inside one layer.
PARTITION = (
    "data.load_s",
    "features.build_s",
    "models.grid_search_s.*",
    "evaluation.evaluate_pair_s",
    "store.load_s",
    "store.append_s",
    "meta.train_s",
    "meta.select_s",
    "pipeline.walk_forward_self_s",
    "pipeline.emit_reports_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


@dataclass
class Tracer:
    """In-memory span and counter log; read once the run has ended."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name_of, count=None):
        """``fn`` timed as a span named ``name_of(*args)``; ``count(result, *args)``
        may add to the counters afterwards."""

        def traced(*args, **kwargs):
            with self.span(name_of(*args)):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, *args)
            return result

        return traced


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        ]
        covered = _covered((a, b) for a, b in clipped if b > a)
        out.append(span.end - span.start - covered)
    return out


def top_level_seconds(spans) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)


def layer_metrics(spans, counts, kinds) -> dict[str, float]:
    """Per-layer seconds and counts, keyed by metric name.

    Seconds are the self time of each layer: the self time of its spans
    plus that of nested spans of the same layer (a grid search's fits, a
    meta training's voter fits).
    """
    self_s = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    n_by_name: Counter = Counter()
    for span, own in zip(spans, self_s):
        by_name[span.name] += own
        n_by_name[span.name] += 1

    m: dict[str, float] = {}
    for kind in kinds:
        fit = by_name[f"models.fit.{kind}"]
        m[f"models.grid_search_s.{kind}"] = by_name[f"models.grid_search.{kind}"] + fit
        m[f"models.fit_s.{kind}"] = fit
        m[f"models.fits.{kind}"] = n_by_name[f"models.fit.{kind}"]
    voter_s = {v: by_name[f"meta.voter_fit.{v}"] for v in META_VOTERS}
    m.update(
        {
            "data.load_s": by_name["data.load"],
            "data.bars_loaded": counts["bars_loaded"],
            "features.build_s": by_name["features.build"],
            "evaluation.evaluate_pair_s": by_name["evaluation.evaluate_pair"],
            "evaluation.pairs": n_by_name["evaluation.evaluate_pair"],
            "store.load_s": by_name["store.load"],
            "store.records_loaded": counts["records_loaded"],
            "store.append_s": by_name["store.append"],
            "store.records_appended": counts["records_appended"],
            "meta.train_s": by_name["meta.train"] + sum(voter_s.values()),
            "meta.train_rows": counts["meta_train_rows"],
            "meta.select_s": by_name["meta.select"],
            "meta.voted_profitable_share": (
                counts["selected"] / counts["considered"] if counts["considered"] else 0.0
            ),
            "pipeline.walk_forward_self_s": by_name["pipeline.walk_forward"],
            "pipeline.emit_reports_s": by_name["pipeline.emit_reports"],
            "pipeline.files_written": counts["files_written"],
        }
    )
    for voter, seconds in voter_s.items():
        m[f"meta.voter_fit_s.{voter}"] = seconds
    return m


def partition_sum(metrics) -> float:
    """Sum of the PARTITION metrics; equals the traced top-level time."""
    total = 0.0
    for name in PARTITION:
        if name.endswith(".*"):
            prefix = name[:-1]
            total += sum(v for k, v in metrics.items() if k.startswith(prefix))
        else:
            total += metrics[name]
    return total


def _add(key, size=len):
    def count(counts, result, *args):
        counts[key] += size(result)

    return count


def _count_append(counts, result, store, records):
    counts["records_appended"] += len(records)


def _count_selection(counts, selection, meta, records, mode):
    counts["selected"] += len(selection.entries)
    counts["considered"] += len(records)


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's layer calls through ``tracer`` while active."""
    import pairselect.meta as meta
    import pairselect.models as models
    import pairselect.pipeline as pipeline
    from pairselect.store import RecordStore

    patches = [
        (pipeline, "load_series", lambda *a: "data.load", _add("bars_loaded")),
        (pipeline, "build_dataset", lambda *a: "features.build", None),
        (pipeline, "grid_search", lambda kind, *a: f"models.grid_search.{kind}", None),
        (pipeline, "evaluate_pair", lambda *a: "evaluation.evaluate_pair", None),
        (
            pipeline,
            "train_meta",
            lambda *a: "meta.train",
            _add("meta_train_rows", lambda r: r.n_records),
        ),
        (pipeline, "select_pairs", lambda *a: "meta.select", _count_selection),
        (models, "train", lambda spec, *a: f"models.fit.{spec.kind}", None),
        (meta, "train", lambda spec, *a: f"meta.voter_fit.{spec.kind}", None),
        (RecordStore, "load", lambda *a: "store.load", _add("records_loaded")),
        (RecordStore, "append", lambda *a: "store.append", _count_append),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name_of, count in patches:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name_of, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
