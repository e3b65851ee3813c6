"""pairselect benchmark: one command, three workloads, two kinds of run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload planted_loop --seed 0 --seconds 20 --trace 0

Set-up writes the workload's instruments as OHLCV CSV files and
pre-fills its record store, both from ``--seed`` alone; the package only
ever sees those files.  The timed region then repeats the workload until
``--seconds`` have passed (at least once), each repeat from a fresh copy
of the pre-filled store.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same untraced repeats and then one traced repeat,
and reports per-layer metrics.  Untraced runs time a multi-window
walk-forward's windows by the moment each window first reads the store;
nothing else is hooked.  The last stdout line is the result JSON;
the line before it holds the run's details (environment, seed, sample
counts, output digests).

Every repeat's ``records.csv``/``selection.csv`` outputs must hash the
same and every cycle must account for instruments x kinds pairs; a failed
check sets ``"correct": false``.  At the default seed ``planted_loop`` is
acceptance criterion 6's experiment, read through the CSV path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

DEFAULT_SEED = 0
# never used while the benchmark was tuned; re-check claims on it
HELDOUT_SEED = 7919
SETUP_REPEATS = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ZOO_KINDS = (
    "gradient_boosting",
    "logistic",
    "decision_tree",
    "random_forest",
    "kneighbors",
    "gaussian_nb",
    "linear_svm",
    "mlp",
    "kernel_svm",
)
FAST_KINDS = ("logistic", "decision_tree", "gaussian_nb", "kneighbors")
WORKLOADS = ("zoo_cycle", "planted_loop", "deep_store")
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS pools at the usable core count; must precede importing numpy."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def build_cycles(workload: str, seed: int):
    """(run seed, instruments) per cycle, plus windows per cycle, kinds and
    the pre-filled store size."""
    from inputs import Instrument, stream_seed

    if workload == "zoo_cycle":
        base = stream_seed("zoo_cycle", seed) % 10**9
        universe = (
            Instrument("SIG0", "persistent_sign", 1500, base),
            Instrument("RND0", "random_walk", 1500, base + 1),
        )
        return [(base, universe)], 1, ZOO_KINDS, 300
    if workload == "planted_loop":
        # criterion 6 verbatim at the default seed: masters 1000-1019
        cycles = []
        for i in range(20):
            master = 1000 + 20 * seed + i
            universe = tuple(
                Instrument(f"SIG{j}", "persistent_sign", 2000, master * 1000 + j)
                for j in range(3)
            ) + tuple(
                Instrument(f"RND{j}", "random_walk", 2000, master * 1000 + 500 + j)
                for j in range(3)
            )
            cycles.append((master, universe))
        return cycles, 1, FAST_KINDS, 0
    if workload == "deep_store":
        base = stream_seed("deep_store", seed) % 10**9
        universe = tuple(
            Instrument(f"SIG{j}", "persistent_sign", 2000, base + j) for j in range(3)
        ) + tuple(Instrument(f"RND{j}", "random_walk", 2000, base + 500 + j) for j in range(3))
        return [(base, universe)], 8, FAST_KINDS, 20_000
    raise ValueError(f"unknown workload {workload!r}")


def tail_percentile(n: int) -> float | None:
    """Highest of the usual reporting percentiles with at least ten of ``n``
    samples beyond it; None when even the median lacks ten."""
    for per_mille in TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= 10_000:
            return per_mille / 10
    return None


def timing_summary(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    out = {"n": len(values), "p50": statistics.median(values)}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        per_mille = statistics.quantiles(values, n=1000, method="inclusive")
        out[f"p{tail:g}"] = per_mille[round(tail * 10) - 1]
    return out


def selection_precision(reports, predictable) -> float | None:
    """Mean over cycles that selected anything of the share of selected
    pairs on predictable instruments (criterion 6's statistic)."""
    shares = [
        sum(1 for e in r.selection.entries if e.instrument in predictable)
        / len(r.selection.entries)
        for r in reports
        if r.selection is not None and r.selection.entries
    ]
    return statistics.fmean(shares) if shares else None


def excess_return_pct(reports) -> float | None:
    """Mean strategy return minus mean buy-and-hold return, replayed pairs."""
    outcomes = [o for r in reports for o in r.test_outcomes]
    if not outcomes:
        return None
    return statistics.fmean(o.strategy_return_pct for o in outcomes) - statistics.fmean(
        o.nnp_pct for o in outcomes
    )


def failed_pair_share(reports) -> float:
    attempted = sum(len(r.records) + len(r.failures) for r in reports)
    return sum(len(r.failures) for r in reports) / attempted if attempted else 0.0


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every records.csv and selection.csv below ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        if path.name in ("records.csv", "selection.csv"):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(root: Path, blas_cap: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "blas_threads": blas_cap,
    }


def import_seconds(src: Path) -> float:
    """Time a fresh interpreter takes to import the package."""
    code = (
        "import time; t = time.perf_counter(); import pairselect; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(work: Path, src: Path, cycles, prior_n: int, seed: int) -> tuple[list, Path, float]:
    """Write the CSVs and the pre-filled store; returns per-cycle sources,
    the pristine store and the seconds taken, package import included."""
    from inputs import prefill_store, write_universe
    from pairselect.data import InstrumentSource

    started = time.perf_counter()
    sources = []
    for c, (_, universe) in enumerate(cycles):
        paths = write_universe(universe, work / "inputs" / f"cycle_{c:02d}")
        sources.append(
            tuple(InstrumentSource(inst.symbol, csv_path=paths[inst.symbol]) for inst in universe)
        )
    store = work / "prior_store.csv"
    prefill_store(store, prior_n, seed)
    return sources, store, time.perf_counter() - started + import_seconds(src)


@contextmanager
def window_clock(marks: list):
    """Note the time each walk-forward window starts (its first store read)."""
    from pairselect.store import RecordStore

    original = RecordStore.load

    def load(self):
        marks.append(time.perf_counter())
        return original(self)

    RecordStore.load = load
    try:
        yield
    finally:
        RecordStore.load = original


def run_repeat(rep_dir: Path, cycles, sources, windows, kinds, prior_store, tracer=None):
    """One full pass of the workload; returns (reports, wall, cycle times)."""
    import tracing
    from pairselect.pipeline import RunConfig, emit_reports, walk_forward

    store = rep_dir / "store.csv"
    rep_dir.mkdir(parents=True)
    if prior_store.exists():
        shutil.copyfile(prior_store, store)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    marks: list[float] = []
    reports, cycle_s = [], []
    with tracing.instrument(tracer) if tracer is not None else window_clock(marks):
        started = time.perf_counter()
        for c, ((run_seed, _), cycle_sources) in enumerate(zip(cycles, sources)):
            out = rep_dir / f"cycle_{c:02d}"
            config = RunConfig(
                sources=cycle_sources, seed=run_seed, out_dir=out, store_path=store,
                model_kinds=kinds, windows=windows,
            )
            cycle_start = time.perf_counter()
            marks.clear()
            with span("pipeline.walk_forward"):
                cycle_reports = walk_forward(config, windows)
            replayed = time.perf_counter()
            for report in cycle_reports:
                with span("pipeline.emit_reports"):
                    written = emit_reports(report, out / f"window_{report.window_index:02d}")
                if tracer is not None:
                    tracer.counts["files_written"] += len(written)
            cycle_end = time.perf_counter()
            if windows == 1 or tracer is not None:
                cycle_s.append(cycle_end - cycle_start)
            else:
                bounds = [cycle_start] + marks[1:] + [replayed]
                cycle_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
            reports.extend(cycle_reports)
        wall = time.perf_counter() - started
    return reports, wall, cycle_s


def check_pairs(reports, n_instruments_by_cycle, kinds, windows) -> list[str]:
    problems = []
    expected = [n * len(kinds) for n in n_instruments_by_cycle for _ in range(windows)]
    if len(reports) != len(expected):
        problems.append(f"{len(reports)} reports, expected {len(expected)}")
    for report, want in zip(reports, expected):
        got = len(report.records) + len(report.failures)
        if got != want:
            problems.append(f"{report.run_id}: {got} records+failures, expected {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pairselect" / "__init__.py").is_file():
        print(f"no package source at {src / 'pairselect'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, root, src, work, blas_cap, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, root: Path, src: Path, work: Path, blas_cap: int, units: dict) -> int:
    import tracing

    cycles, windows, kinds, prior_n = build_cycles(args.workload, args.seed)
    predictable = {i.symbol for _, universe in cycles for i in universe if i.predictable}

    setups = [
        set_up(work / f"setup_{k}", src, cycles, prior_n, args.seed)
        for k in range(SETUP_REPEATS)
    ]
    sources, prior_store, _ = setups[0]
    setup_s = statistics.median(s[2] for s in setups)

    walls, cycle_s, digests, problems = [], [], [], []
    n_instruments = [len(universe) for _, universe in cycles]
    first_reports = None
    while sum(walls) < args.seconds or not walls:
        rep_dir = work / f"rep_{len(walls):02d}"
        reports, wall, rep_cycles = run_repeat(
            rep_dir, cycles, sources, windows, kinds, prior_store
        )
        walls.append(wall)
        cycle_s.extend(rep_cycles)
        digests.append(output_digest(rep_dir))
        problems += check_pairs(reports, n_instruments, kinds, windows)
        if first_reports is None:
            first_reports = reports
        shutil.rmtree(rep_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r.records) + len(r.failures) for r in first_reports) * len(walls)
    failed = sum(len(r.failures) for r in first_reports) * len(walls)
    # selection quality spreads too widely across seeds to carry a bound, so
    # the traced run reports it with the per-layer figures (0 = none selected)
    quality = {
        "failed_pair_share": failed_pair_share(first_reports),
        "selection_precision": selection_precision(first_reports, predictable) or 0.0,
        "excess_return_pct": excess_return_pct(first_reports) or 0.0,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "environment": environment(root, blas_cap),
        "repeats": len(walls),
        "wall_s": timing_summary(walls),
        "cycle_s": timing_summary(cycle_s),
        "setup_s": [s[2] for s in setups],
        "output_sha256": digests[0],
        "quality": quality,
    }

    if args.trace:
        tracer = tracing.Tracer()
        rep_dir = work / "traced"
        reports, traced_wall, _ = run_repeat(
            rep_dir, cycles, sources, windows, kinds, prior_store, tracer
        )
        digests.append(output_digest(rep_dir))
        problems += check_pairs(reports, n_instruments, kinds, windows)
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, ZOO_KINDS)
        layers["store.bytes"] = (rep_dir / "store.csv").stat().st_size
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layers.update(quality)
        traced_total = tracing.top_level_seconds(tracer.spans)
        accounted = tracing.partition_sum(layers)
        if abs(accounted - traced_total) > 1e-6 * traced_total:
            problems.append(f"layer self times sum to {accounted}, spans to {traced_total}")
        if not 0.0 <= traced_wall - traced_total <= 0.01 * traced_wall + 0.01:
            problems.append(f"spans cover {traced_total} s of {traced_wall} s traced wall")
        details["traced_wall_s"] = traced_wall
        details["unattributed_s"] = traced_wall - traced_total
        values = layers
    else:
        values = {
            "wall_s": statistics.median(walls),
            "pairs_per_s": sum(len(r.records) for r in first_reports) * len(walls) / sum(walls),
            "cycle_p50_s": statistics.median(cycle_s),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values
    }

    if len(set(digests)) != 1:
        problems.append(f"outputs differ between repeats: {sorted(set(digests))}")
    details["problems"] = problems
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
