"""OHLCV ingestion: CSV parsing, validation, and synthetic series.

Real feeds are consumed as CSV files with the header
``Date,Open,High,Low,Close,Adj Close,Volume``; dates are ISO-8601 and may
skip calendar days (weekends, holidays), but must be strictly increasing.
Synthetic instruments provide a controlled test universe: a sign-persistent
process with a tunable predictability level, and a random walk with none.

:func:`csv_lines` is the one writer of every CSV text the package makes
(price series, records, the record store, selections, equity curves,
feature dumps).  A float, numpy floats included, is written as
``repr(float(x))``, which round-trips doubles exactly; any other value
(ints, strings, dates as ISO text) is written with ``str``.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

logger = logging.getLogger(__name__)

OHLCV_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")

# A bar whose low or high sits more than 50% away from its close is almost
# certainly a bad tick; it is reported but not rejected.
OUTLIER_RATIO = 0.5

# Bars consumed before the first feature-complete sample with default
# indicator periods (see features.FeatureParams), plus a 100-sample floor.
MIN_SYNTHETIC_LENGTH = 135

SYNTHETIC_KINDS = ("persistent_sign", "random_walk")
_SYNTHETIC_BASE_PRICE = 100.0
_SYNTHETIC_RANGE_PAD = 1e-3


def stream_seed(*parts) -> int:
    """Stable 64-bit seed derived from the SHA-256 of the joined parts."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class OhlcvBar:
    """One validated daily price bar."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: int


@dataclass(frozen=True)
class PriceSeries:
    """Date-sorted, validated bars for one instrument."""

    symbol: str
    bars: tuple[OhlcvBar, ...]

    def __len__(self) -> int:
        return len(self.bars)

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(b.date for b in self.bars)

    def opens(self) -> np.ndarray:
        return np.array([b.open for b in self.bars], dtype=np.float64)

    def closes(self) -> np.ndarray:
        return np.array([b.close for b in self.bars], dtype=np.float64)

    def truncate(self, n_bars: int) -> "PriceSeries":
        """First ``n_bars`` bars as a new series."""
        return PriceSeries(self.symbol, self.bars[:n_bars])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic price series.

    ``persistence`` is the probability that a day's return keeps the sign
    of the previous day's return; it only applies to ``persistent_sign``.
    ``volatility_pct`` scales daily open-to-close moves, in percent.
    """

    kind: str
    length: int
    volatility_pct: float = 1.0
    persistence: float = 0.65
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SYNTHETIC_KINDS:
            raise ConfigError(
                f"unknown synthetic kind {self.kind!r}; expected one of {SYNTHETIC_KINDS}"
            )
        if self.length < MIN_SYNTHETIC_LENGTH:
            raise ConfigError(
                f"synthetic length {self.length} is below the minimum "
                f"{MIN_SYNTHETIC_LENGTH} (indicator warmup + 100 samples)"
            )
        if not (0.0 <= self.persistence <= 1.0):
            raise ConfigError(f"persistence must lie in [0, 1], got {self.persistence}")
        if not (self.volatility_pct > 0.0):
            raise ConfigError(f"volatility_pct must be positive, got {self.volatility_pct}")


@dataclass(frozen=True)
class InstrumentSource:
    """Where one instrument's bars come from: a CSV file or a synthetic spec."""

    symbol: str
    csv_path: Path | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        if not self.symbol:
            raise ConfigError("instrument symbol must be non-empty")
        if any(ch in self.symbol for ch in ",\n\r"):
            raise ConfigError(f"instrument symbol {self.symbol!r} contains a delimiter character")
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError(
                f"instrument {self.symbol!r} needs exactly one of csv path or synthetic spec"
            )


def _validate_bar(bar: OhlcvBar, symbol: str) -> None:
    if min(bar.open, bar.high, bar.low, bar.close, bar.adj_close) <= 0.0:
        raise ValidationError(f"{symbol} {bar.date}: non-positive price")
    if bar.volume < 0:
        raise ValidationError(f"{symbol} {bar.date}: negative volume")
    if bar.high < max(bar.open, bar.close):
        raise ValidationError(f"{symbol} {bar.date}: high below open/close")
    if bar.low > min(bar.open, bar.close):
        raise ValidationError(f"{symbol} {bar.date}: low above open/close")
    if bar.low > bar.high:
        raise ValidationError(f"{symbol} {bar.date}: low above high")
    if abs(bar.low / bar.close - 1.0) > OUTLIER_RATIO or abs(bar.high / bar.close - 1.0) > OUTLIER_RATIO:
        logger.warning("%s %s: suspicious range (possible bad tick), keeping bar", symbol, bar.date)


def build_series(symbol: str, bars) -> PriceSeries:
    """Sort bars by date, enforce the bar invariants, reject duplicates."""
    ordered = tuple(sorted(bars, key=lambda b: b.date))
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.date == cur.date:
            raise ValidationError(f"{symbol}: duplicate date {cur.date}")
    for bar in ordered:
        _validate_bar(bar, symbol)
    return PriceSeries(symbol, ordered)


def parse_ohlcv_csv(raw: bytes, symbol: str) -> PriceSeries:
    """Parse CSV bytes into a validated, date-sorted series."""
    text = raw.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{symbol}: empty CSV") from None
    if tuple(h.strip() for h in header) != OHLCV_HEADER:
        raise ParseError(f"{symbol}: expected header {','.join(OHLCV_HEADER)!r}, got {header!r}")

    bars = []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(OHLCV_HEADER):
            raise ParseError(f"{symbol}: row {row_no}: expected {len(OHLCV_HEADER)} fields, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
            o, h, l, c, adj = (float(v) for v in row[1:6])
            volume = int(row[6])
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{symbol}: row {row_no}: {exc}") from None
        bars.append(OhlcvBar(date, o, h, l, c, adj, volume))
    return build_series(symbol, bars)


_FLOATS = (float, np.floating)


def csv_lines(rows) -> str:
    """Comma-joined rows, each line ending in a newline, by the module's value rule."""
    return "".join(
        ",".join([repr(float(v)) if isinstance(v, _FLOATS) else str(v) for v in row]) + "\n"
        for row in rows
    )


def serialize_ohlcv_csv(series: PriceSeries) -> bytes:
    """Emit the CSV form of a series; inverse of :func:`parse_ohlcv_csv`."""
    rows = ((b.date, b.open, b.high, b.low, b.close, b.adj_close, b.volume) for b in series.bars)
    return csv_lines([OHLCV_HEADER, *rows]).encode("utf-8")


def _trading_dates(n: int, start: dt.date = dt.date(2000, 1, 3)) -> list[dt.date]:
    dates = []
    day = start
    while len(dates) < n:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    return dates


def generate_synthetic_series(spec: SyntheticSpec, symbol: str) -> PriceSeries:
    """Deterministic synthetic series; a pure function of (spec, symbol).

    ``persistent_sign`` draws each day's return sign equal to the previous
    day's with probability ``spec.persistence``; ``random_walk`` draws
    independent symmetric returns.  Magnitudes are folded-normal times
    ``volatility_pct``.  Opens continue the prior close, so open-to-close
    returns carry the full daily move.
    """
    rng = np.random.default_rng(stream_seed(spec.seed, symbol))

    mags = np.abs(rng.standard_normal(spec.length))
    mags = np.maximum(mags, 1e-4)  # keep every return's sign well defined
    if spec.kind == "persistent_sign":
        signs = np.empty(spec.length)
        signs[0] = 1.0 if rng.random() < 0.5 else -1.0
        keep = rng.random(spec.length - 1) < spec.persistence
        for t in range(1, spec.length):
            signs[t] = signs[t - 1] if keep[t - 1] else -signs[t - 1]
    else:
        signs = np.where(rng.random(spec.length) < 0.5, 1.0, -1.0)
    returns_pct = signs * mags * spec.volatility_pct

    volumes = rng.integers(100, 10_000, size=spec.length)
    dates = _trading_dates(spec.length)

    bars = []
    prev_close = _SYNTHETIC_BASE_PRICE
    for t in range(spec.length):
        open_ = prev_close
        close = open_ * (1.0 + returns_pct[t] / 100.0)
        hi = max(open_, close) * (1.0 + _SYNTHETIC_RANGE_PAD)
        lo = min(open_, close) * (1.0 - _SYNTHETIC_RANGE_PAD)
        bars.append(OhlcvBar(dates[t], open_, hi, lo, close, close, int(volumes[t])))
        prev_close = close
    return build_series(symbol, bars)


def load_series(source: InstrumentSource) -> PriceSeries:
    """Load one instrument from its configured source."""
    if source.csv_path is not None:
        path = Path(source.csv_path)
        if not path.exists():
            raise ConfigError(f"instrument {source.symbol!r}: file not found: {path}")
        return parse_ohlcv_csv(path.read_bytes(), source.symbol)
    return generate_synthetic_series(source.synthetic, source.symbol)

