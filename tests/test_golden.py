"""Cross-version golden-output test: criterion 7's walk-forward must still
write the outputs committed under ``tests/golden/``.

Criterion 7 compares two runs of the same code; this test compares a run
with the outputs of the code that produced the golden files.  When every
CSV digest in the manifest matches, it passes at once.  Otherwise each
window's CSV files (records, selection and equity curves) must match the
golden copy row by row: ids, labels, votes, dates and order exactly, float
columns within 1e-12 relative, so an ulp-level BLAS difference on another machine is
told apart from a real change.  A change that means to alter outputs
re-pins them with ``tests/golden/regenerate.py``.
"""

import csv
import io
import itertools
import json
import math
from dataclasses import fields
from pathlib import PurePosixPath

import pytest

from golden.regenerate import GOLDEN, KEPT, run
from pairselect.evaluation import MetricSet

FLOAT_COLUMNS = {f.name for f in fields(MetricSet)} | {"meta_score", "strategy_cum_pct", "normal_cum_pct"}


def _same(column: str, golden: str, now: str) -> bool:
    if column in FLOAT_COLUMNS:
        return math.isclose(float(golden), float(now), rel_tol=1e-12, abs_tol=0.0)
    return golden == now


def first_difference(name: str, golden_text: str, text: str) -> str | None:
    """A readable account of the first row where ``text`` departs from
    ``golden_text``, or None when the two match."""
    golden_rows = list(csv.reader(io.StringIO(golden_text)))
    rows = list(csv.reader(io.StringIO(text)))
    header = golden_rows[0]
    for line, (want, got) in enumerate(itertools.zip_longest(golden_rows, rows), start=1):
        if want is None or got is None or len(want) != len(got):
            return f"{name} line {line}:\n  golden: {want}\n  now:    {got}"
        for column, a, b in zip(header, want, got):
            if not (a == b if line == 1 else _same(column, a, b)):
                return (
                    f"{name} line {line}, column {column!r}: golden {a!r}, now {b!r}\n"
                    f"  golden: {','.join(want)}\n  now:    {','.join(got)}"
                )
    return None


def test_walk_forward_matches_the_golden_outputs(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    digests = run(tmp_path)
    if digests == manifest["sha256"]:
        return
    for name in sorted(manifest["sha256"]):
        if PurePosixPath(name).match(KEPT):
            now = (tmp_path / name).read_text() if (tmp_path / name).exists() else ""
            difference = first_difference(name, (GOLDEN / name).read_text(), now)
            if difference:
                pytest.fail(
                    f"walk-forward output departs from tests/golden (made with Python "
                    f"{manifest['python']}, numpy {manifest['numpy']}, scipy {manifest['scipy']}):\n"
                    f"{difference}",
                    pytrace=False,
                )
    assert sorted(digests) == sorted(manifest["sha256"]), "the run writes another set of CSV files"
