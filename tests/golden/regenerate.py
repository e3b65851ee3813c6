"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

Run it from the repository root, and only in a change that means to alter
the package's outputs; say in CHANGES.md what changed and why::

    PYTHONPATH=src python tests/golden/regenerate.py

It reruns acceptance criterion 7's walk-forward (four synthetic
instruments, seed 77, the four fast kinds, four windows), copies each
window's CSV files (records, selection and equity curves) next to this
script, and rewrites ``manifest.json`` with the SHA-256 of every CSV file the run
writes and the Python, numpy and scipy versions that produced them.
"""

import hashlib
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path, PurePosixPath

import numpy as np
import scipy

from pairselect.data import InstrumentSource, SyntheticSpec
from pairselect.pipeline import RunConfig, emit_reports, walk_forward

GOLDEN = Path(__file__).resolve().parent
KEPT = "window_*/*.csv"  # the files committed here: all but the store


def run(out: Path) -> dict[str, str]:
    """Run the walk-forward into ``out``; the SHA-256 of each CSV file it
    writes, keyed by its path relative to ``out``."""
    sources = tuple(
        InstrumentSource(
            f"X{i}",
            synthetic=SyntheticSpec(
                kind="persistent_sign" if i % 2 == 0 else "random_walk",
                length=800, persistence=0.7, seed=300 + i,
            ),
        )
        for i in range(4)
    )
    config = RunConfig(
        sources=sources, seed=77, out_dir=out, store_path=out / "store.csv",
        model_kinds=("logistic", "decision_tree", "gaussian_nb", "kneighbors"),
    )
    for report in walk_forward(config, 4):
        emit_reports(report, out / f"window_{report.window_index:02d}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        digests = run(out)
        for old in GOLDEN.glob("window_*"):
            shutil.rmtree(old)
        for name in digests:
            if PurePosixPath(name).match(KEPT):
                (GOLDEN / name).parent.mkdir(exist_ok=True)
                shutil.copyfile(out / name, GOLDEN / name)
    manifest = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sha256": digests,
    }
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN / 'manifest.json'} ({len(digests)} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
