"""Command-line entry point.

Verbs: ``synth`` materializes the synthetic instruments of a config as
CSV files, ``run`` executes one training cycle, ``walkforward`` replays
N consecutive windows, ``predict-next`` prints next-day directions for
the selected pairs, and ``report`` re-emits records from the store.
Flags override config-file values; logs go to stderr, artifacts under
the output directory.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .data import generate_synthetic_series, serialize_ohlcv_csv
from .errors import ConfigError, PairselectError, ParseError
from .evaluation import records_to_csv
from .pipeline import emit_reports, predict_next, run_training_cycle, walk_forward
from .store import RecordStore

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the YAML run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--store", default=None, help="record store path (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairselect", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="write synthetic instruments as CSV files")
    _add_common(p)

    p = sub.add_parser("run", help="one training cycle")
    _add_common(p)

    p = sub.add_parser("walkforward", help="walk-forward replay over N windows")
    p.add_argument(
        "--windows", type=int, default=None, help="number of consecutive windows (overrides config)"
    )
    _add_common(p)

    p = sub.add_parser("predict-next", help="print next-day directions for selected pairs")
    _add_common(p)

    p = sub.add_parser("report", help="re-emit records.csv from the store")
    _add_common(p)
    return parser


def _cmd_synth(config) -> int:
    outdir = Path(config.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for source in config.sources:
        if source.synthetic is None:
            continue
        series = generate_synthetic_series(source.synthetic, source.symbol)
        path = outdir / f"{source.symbol}.csv"
        path.write_bytes(serialize_ohlcv_csv(series))
        logger.info("wrote %s (%d bars)", path, len(series))
        count += 1
    if count == 0:
        raise ConfigError("config has no synthetic instruments to materialize")
    return 0


def _cmd_run(config) -> int:
    report = run_training_cycle(config)
    paths = emit_reports(report, config.out_dir)
    for path in paths:
        logger.info("wrote %s", path)
    print((Path(config.out_dir) / "summary.txt").read_text(encoding="utf-8"), end="")
    return 0


def _cmd_walkforward(config, n_windows: int) -> int:
    reports = walk_forward(config, n_windows)
    for report in reports:
        window_dir = Path(config.out_dir) / f"window_{report.window_index:02d}"
        emit_reports(report, window_dir)
        logger.info("window %d/%d -> %s", report.window_index, len(reports), window_dir)
        print((window_dir / "summary.txt").read_text(encoding="utf-8"), end="")
        print()
    return 0


def _cmd_predict_next(config) -> int:
    predictions = predict_next(config)
    if not predictions:
        print("no pairs selected (no trade)")
        return 0
    for p in predictions:
        word = "UP" if p.direction == 1 else "DOWN"
        print(f"{p.instrument}\t{p.model}\t{word}\tmeta_score={p.meta_score:.6f}\tafter={p.last_date}")
    return 0


def _cmd_report(config) -> int:
    records = RecordStore(config.store_path).load()
    if not records:
        raise ConfigError(f"record store is empty: {config.store_path}")
    outdir = Path(config.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "records.csv"
    path.write_text(records_to_csv(records), encoding="utf-8")
    logger.info("wrote %s (%d records)", path, len(records))
    print(f"{len(records)} records re-emitted to {path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.seed, args.out, args.store)
        if args.verb == "synth":
            return _cmd_synth(config)
        if args.verb == "run":
            return _cmd_run(config)
        if args.verb == "walkforward":
            return _cmd_walkforward(config, args.windows)
        if args.verb == "predict-next":
            return _cmd_predict_next(config)
        if args.verb == "report":
            return _cmd_report(config)
        raise ConfigError(f"unknown verb {args.verb!r}")
    except (ConfigError, ParseError) as exc:
        logger.error("configuration error: %s", exc)
        return 2
    except PairselectError as exc:
        logger.error("run failed: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
