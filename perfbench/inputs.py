"""Benchmark inputs: OHLCV CSV files and a pre-filled record store.

Everything here is a pure function of the workload seed.  The OHLCV
generator re-states the package's synthetic recipe (sign-persistent or
random-walk open-to-close returns) so the benchmark's inputs stay fixed
when the package's own generator changes; at this commit its CSV bytes
equal ``serialize_ohlcv_csv(generate_synthetic_series(...))``, which the
tests check.  The store is pre-filled through the package's own
``RecordStore`` so its on-disk format is always the one the package
reads.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OHLCV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"
_BASE_PRICE = 100.0
_PERSISTENCE = 0.65  # chance a day's return keeps the previous day's sign
_RANGE_PAD = 1e-3
_FIRST_DATE = dt.date(2000, 1, 3)

# model ids of the pre-filled history: the four fast kinds' default fits
_PRIOR_MODELS = (
    "logistic(C=0.1;max_iter=10000;tol=1e-06)",
    "decision_tree(max_depth=12;min_samples_leaf=4;min_samples_split=6)",
    "gaussian_nb(var_smoothing=1e-09)",
    "kneighbors(n_neighbors=7)",
)
_PRIOR_INSTRUMENTS = 12


@dataclass(frozen=True)
class Instrument:
    """One synthetic instrument of a workload's universe."""

    symbol: str
    kind: str  # "persistent_sign" or "random_walk"
    length: int
    seed: int

    @property
    def predictable(self) -> bool:
        return self.kind == "persistent_sign"


def stream_seed(*parts) -> int:
    """Stable 64-bit seed from the SHA-256 of the joined parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _trading_dates(n: int) -> list[dt.date]:
    dates = []
    day = _FIRST_DATE
    while len(dates) < n:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    return dates


def ohlcv_csv(inst: Instrument) -> bytes:
    """CSV bytes of one synthetic instrument, header included."""
    rng = np.random.default_rng(stream_seed(inst.seed, inst.symbol))
    mags = np.maximum(np.abs(rng.standard_normal(inst.length)), 1e-4)
    if inst.kind == "persistent_sign":
        signs = np.empty(inst.length)
        signs[0] = 1.0 if rng.random() < 0.5 else -1.0
        keep = rng.random(inst.length - 1) < _PERSISTENCE
        for t in range(1, inst.length):
            signs[t] = signs[t - 1] if keep[t - 1] else -signs[t - 1]
    elif inst.kind == "random_walk":
        signs = np.where(rng.random(inst.length) < 0.5, 1.0, -1.0)
    else:
        raise ValueError(f"unknown instrument kind {inst.kind!r}")
    returns_pct = signs * mags  # 1% volatility
    volumes = rng.integers(100, 10_000, size=inst.length)

    lines = [OHLCV_HEADER]
    prev_close = _BASE_PRICE
    for t, date in enumerate(_trading_dates(inst.length)):
        open_ = prev_close
        close = open_ * (1.0 + float(returns_pct[t]) / 100.0)
        hi = max(open_, close) * (1.0 + _RANGE_PAD)
        lo = min(open_, close) * (1.0 - _RANGE_PAD)
        lines.append(
            f"{date.isoformat()},{open_!r},{hi!r},{lo!r},{close!r},{close!r},{int(volumes[t])}"
        )
        prev_close = close
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_universe(instruments, directory: Path) -> dict[str, Path]:
    """Write one CSV per instrument; returns symbol -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in instruments:
        path = directory / f"{inst.symbol}.csv"
        path.write_bytes(ohlcv_csv(inst))
        paths[inst.symbol] = path
    return paths


def prior_records(n: int, seed: int) -> list:
    """``n`` plausible historical evaluation records, deterministic in ``seed``.

    Metrics loosely follow a per-record skill level, and the profit label
    follows the backtest return, so both labels occur and the voters have
    a learnable signal.
    """
    from pairselect.evaluation import EvaluationRecord, MetricSet

    rng = np.random.default_rng(stream_seed("prior-records", seed))
    skill = rng.uniform(0.40, 0.70, n)
    noise = rng.normal(0.0, 0.03, (n, 5))
    pos_rate = rng.uniform(0.2, 0.8, n)
    backtest = 40.0 * (skill - 0.5) + rng.normal(0.0, 6.0, n)
    nnp = rng.normal(0.5, 5.0, n)
    records = []
    for i in range(n):
        window = i // (_PRIOR_INSTRUMENTS * len(_PRIOR_MODELS))
        end = _FIRST_DATE + dt.timedelta(days=7 * (window + 1))
        metrics = MetricSet(
            accuracy=float(skill[i]),
            normalized_acc=float(np.clip(skill[i] + noise[i, 0], 0.0, 1.0)),
            precision=float(np.clip(skill[i] + noise[i, 1], 0.0, 1.0)),
            recall=float(np.clip(pos_rate[i] + noise[i, 2], 0.0, 1.0)),
            f1=float(np.clip(skill[i] + noise[i, 3], 0.0, 1.0)),
            auc=float(np.clip(skill[i] + noise[i, 4], 0.0, 1.0)),
            pred_pos_rate=float(pos_rate[i]),
            backtest_return_pct=float(backtest[i]),
            nnp_pct=float(nnp[i]),
        )
        records.append(
            EvaluationRecord(
                run_id=f"prior-w{window:04d}",
                instrument=f"HIST{i % _PRIOR_INSTRUMENTS:02d}",
                model=_PRIOR_MODELS[(i // _PRIOR_INSTRUMENTS) % len(_PRIOR_MODELS)],
                window_start=end - dt.timedelta(days=6),
                window_end=end,
                metrics=metrics,
                profit_label=1 if backtest[i] > 0.0 else 0,
            )
        )
    return records


def prefill_store(path: Path, n: int, seed: int) -> None:
    """Create the record store at ``path`` holding ``prior_records(n, seed)``."""
    from pairselect.store import RecordStore

    if n:
        RecordStore(path).append(prior_records(n, seed))
