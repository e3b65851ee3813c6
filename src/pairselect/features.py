"""Price features and next-day direction labels.

Indicator outputs are aligned to their input: position ``t`` holds the
value computed from bars up to and including ``t``, with NaN where the
indicator is not yet defined.  EMA seeds with the simple mean of its
first window; RSI uses Wilder smoothing seeded the same way.

A labeled sample for target day ``t`` pairs the feature row of day
``t - 1`` with the binary sign of day ``t``'s open-to-close return, so no
feature can see its own label's day.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .data import OhlcvBar, PriceSeries, csv_lines
from .errors import ConfigError, ValidationError

FEATURE_NAMES = ("return_pct", "sma", "rsi", "macd", "signal", "histogram")


def compute_return(bar: OhlcvBar) -> float:
    """Open-to-close return of one bar, in percent."""
    if bar.open <= 0.0:
        raise ValidationError(f"non-positive open on {bar.date}")
    return (bar.close - bar.open) / bar.open * 100.0


def returns_pct(opens: np.ndarray, closes: np.ndarray) -> np.ndarray:
    return (closes - opens) / opens * 100.0


def sma(values, n: int) -> np.ndarray:
    """Simple moving average; defined from index ``n - 1``."""
    x = np.asarray(values, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if n < 1:
        raise ValidationError(f"sma period must be >= 1, got {n}")
    if len(x) < n:
        return out
    csum = np.concatenate(([0.0], np.cumsum(x)))
    out[n - 1 :] = (csum[n:] - csum[:-n]) / n
    return out


def _ema_compact(x: np.ndarray, n: int) -> np.ndarray:
    # seed with the simple mean of the first n values, then recurse
    alpha = 2.0 / (n + 1.0)
    out = np.empty(len(x) - n + 1)
    out[0] = x[:n].mean()
    for i in range(1, len(out)):
        out[i] = alpha * x[n - 1 + i] + (1.0 - alpha) * out[i - 1]
    return out


def ema(values, n: int) -> np.ndarray:
    """Exponential moving average with alpha = 2/(n+1); defined from ``n - 1``."""
    x = np.asarray(values, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if n < 1:
        raise ValidationError(f"ema period must be >= 1, got {n}")
    if len(x) < n:
        return out
    out[n - 1 :] = _ema_compact(x, n)
    return out


def rsi(closes, n: int = 14) -> np.ndarray:
    """Wilder relative strength index in [0, 100]; defined from index ``n``.

    First averages are simple means of the up and down moves over the
    first ``n`` changes; afterwards ``avg = (avg * (n-1) + move) / n``.
    An all-gain window reads 100, an all-loss window reads 0.
    """
    x = np.asarray(closes, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if n < 1:
        raise ValidationError(f"rsi period must be >= 1, got {n}")
    if len(x) < n + 1:
        return out
    moves = np.diff(x)
    gains = np.maximum(moves, 0.0)
    losses = np.maximum(-moves, 0.0)

    avg_gain = gains[:n].mean()
    avg_loss = losses[:n].mean()
    out[n] = _rsi_value(avg_gain, avg_loss)
    for t in range(n + 1, len(x)):
        avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        out[t] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0
    if avg_gain == 0.0:
        return 0.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def macd(closes, fast: int = 12, slow: int = 26, signal: int = 9):
    """MACD line, signal line, and histogram, NaN-aligned to the input.

    The line is ``ema(fast) - ema(slow)`` on their common support, the
    signal is a ``signal``-period EMA of the line, and the histogram is
    their difference.
    """
    x = np.asarray(closes, dtype=np.float64)
    line = np.full(x.shape, np.nan)
    sig = np.full(x.shape, np.nan)
    hist = np.full(x.shape, np.nan)
    if len(x) < slow:
        return line, sig, hist
    line[slow - 1 :] = ema(x, fast)[slow - 1 :] - _ema_compact(x, slow)
    compact = line[slow - 1 :]
    if len(compact) >= signal:
        sig[slow - 1 + signal - 1 :] = _ema_compact(compact, signal)
        hist[slow - 1 + signal - 1 :] = line[slow - 1 + signal - 1 :] - sig[slow - 1 + signal - 1 :]
    return line, sig, hist


@dataclass(frozen=True)
class FeatureParams:
    """Indicator periods; defaults follow the classical settings."""

    sma_period: int = 14
    rsi_period: int = 14
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9

    def __post_init__(self) -> None:
        for name, period in vars(self).items():
            if period < 1:
                raise ConfigError(f"{name} must be >= 1, got {period}")
        if self.macd_fast > self.macd_slow:
            raise ConfigError(
                f"macd_fast ({self.macd_fast}) must not exceed macd_slow ({self.macd_slow})"
            )

    def feature_complete_index(self) -> int:
        """First bar index at which every feature is defined."""
        return max(
            self.sma_period - 1,
            self.rsi_period,
            self.macd_slow - 1 + self.macd_signal - 1,
        )

    def first_target_index(self) -> int:
        """First bar index usable as a sample target (features shifted by one)."""
        return self.feature_complete_index() + 1

    def min_bars(self, n_samples: int = 1) -> int:
        """Series length needed to produce ``n_samples`` labeled samples."""
        return self.first_target_index() + n_samples


def feature_matrix(series: PriceSeries, params: FeatureParams = FeatureParams()) -> np.ndarray:
    """Per-bar feature rows ``(return_pct, sma, rsi, macd, signal, histogram)``.

    Row ``t`` holds the values computed from bars up to and including
    ``t``; rows before :meth:`FeatureParams.feature_complete_index` carry
    NaNs.
    """
    closes = series.closes()
    opens = series.opens()
    line, sig, hist = macd(closes, params.macd_fast, params.macd_slow, params.macd_signal)
    return np.column_stack(
        [
            returns_pct(opens, closes),
            sma(closes, params.sma_period),
            rsi(closes, params.rsi_period),
            line,
            sig,
            hist,
        ]
    )


@dataclass(frozen=True)
class LabeledDataset:
    """Chronological samples for one instrument.

    ``X[i]`` is the feature row of the bar before ``dates[i]``; ``y[i]``
    is 1 iff the open-to-close return of ``dates[i]`` is positive; the
    realized return itself is kept for backtesting.
    """

    symbol: str
    dates: tuple[dt.date, ...]
    X: np.ndarray
    y: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)

    def take(self, idx: range) -> "LabeledDataset":
        """View of a contiguous index range (no copies of the arrays)."""
        sl = slice(idx.start, idx.stop)
        return LabeledDataset(self.symbol, self.dates[sl], self.X[sl], self.y[sl], self.returns[sl])

    def to_debug_csv(self) -> str:
        rows = ((date, *x, label) for date, x, label in zip(self.dates, self.X, self.y))
        return csv_lines([("target_date", *FEATURE_NAMES, "label"), *rows])


def build_dataset(series: PriceSeries, params: FeatureParams = FeatureParams()) -> LabeledDataset:
    """Assemble the leakage-free supervised dataset for one instrument.

    Samples start at the first bar whose previous bar has every feature
    defined; truncating the series never changes earlier samples.
    """
    first = params.first_target_index()
    if len(series) <= first:
        raise ValidationError(
            f"{series.symbol}: {len(series)} bars is too short; "
            f"need at least {params.min_bars(1)} for one sample"
        )
    feats = feature_matrix(series, params)
    rets = returns_pct(series.opens(), series.closes())
    dates = series.dates()

    X = feats[first - 1 : -1]
    target_returns = rets[first:]
    y = (target_returns > 0.0).astype(np.int64)
    if not np.isfinite(X).all():
        raise ValidationError(f"{series.symbol}: non-finite feature values after warmup")
    return LabeledDataset(
        symbol=series.symbol,
        dates=tuple(dates[first:]),
        X=np.ascontiguousarray(X, dtype=np.float64),
        y=y,
        returns=np.ascontiguousarray(target_returns, dtype=np.float64),
    )
