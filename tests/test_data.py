import datetime as dt
import logging

import numpy as np
import pytest

from pairselect.data import (
    SyntheticSpec,
    generate_synthetic_series,
    parse_ohlcv_csv,
    serialize_ohlcv_csv,
)
from pairselect.errors import ConfigError, ParseError, ValidationError

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"

# the first rows of the gold contract sample, bad tick included
SAMPLE_ROWS = (
    "2013-12-24,1199.800049,1205.599976,1197.699951,1205.099976,1205.099976,184\n"
    "2013-12-26,1207.099976,1215.900024,1207.099976,1214.099976,1214.099976,140\n"
    "2013-12-30,1215.000000,1215.000000,1194.400024,1203.099976,1203.099976,351\n"
)


def test_parse_basic_row():
    series = parse_ohlcv_csv((HEADER + SAMPLE_ROWS).encode(), "GC=F")
    assert len(series) == 3
    bar = series.bars[0]
    assert bar.date == dt.date(2013, 12, 24)
    assert bar.open == 1199.800049
    assert bar.close == 1205.099976
    assert bar.volume == 184


def test_parse_sorts_out_of_order_rows():
    rows = HEADER + (
        "2020-01-03,10,11,9,10.5,10.5,100\n"
        "2020-01-01,10,11,9,10.5,10.5,100\n"
        "2020-01-02,10,11,9,10.5,10.5,100\n"
    )
    series = parse_ohlcv_csv(rows.encode(), "X")
    assert [b.date.day for b in series.bars] == [1, 2, 3]


def test_parse_rejects_duplicate_dates():
    rows = HEADER + (
        "2020-01-01,10,11,9,10.5,10.5,100\n"
        "2020-01-01,10,11,9,10.5,10.5,100\n"
    )
    with pytest.raises(ValidationError, match="duplicate date"):
        parse_ohlcv_csv(rows.encode(), "X")


def test_parse_rejects_bad_bounds():
    rows = HEADER + "2020-01-01,10,9.5,9,10.5,10.5,100\n"  # high below close
    with pytest.raises(ValidationError, match="2020-01-01"):
        parse_ohlcv_csv(rows.encode(), "X")
    rows = HEADER + "2020-01-01,10,11,10.2,10.5,10.5,100\n"  # low above open
    with pytest.raises(ValidationError, match="2020-01-01"):
        parse_ohlcv_csv(rows.encode(), "X")


def test_parse_rejects_nonpositive_price_and_negative_volume():
    rows = HEADER + "2020-01-01,0,11,0,10.5,10.5,100\n"
    with pytest.raises(ValidationError, match="non-positive"):
        parse_ohlcv_csv(rows.encode(), "X")
    rows = HEADER + "2020-01-01,10,11,9,10.5,10.5,-5\n"
    with pytest.raises(ValidationError, match="negative volume"):
        parse_ohlcv_csv(rows.encode(), "X")


def test_parse_names_malformed_row():
    rows = HEADER + "2020-01-01,10,11,9,10.5,10.5,100\nnot-a-date,1,2,3,4,5,6\n"
    with pytest.raises(ParseError, match="row 3"):
        parse_ohlcv_csv(rows.encode(), "X")


def test_parse_rejects_wrong_header():
    rows = "Date,Open,High,Low,Close,Volume\n2020-01-01,10,11,9,10.5,100\n"
    with pytest.raises(ParseError, match="header"):
        parse_ohlcv_csv(rows.encode(), "X")


def test_bad_tick_bar_passes_with_warning(caplog):
    # the low sits ~90% below the close but still under open/close, so the
    # bounds hold; it is only reported as a suspicious range
    row = "2013-12-27,1213.400024,1218.500000,121.9000024,1216.099976,1216.099976,278\n"
    with caplog.at_level(logging.WARNING):
        series = parse_ohlcv_csv((HEADER + row).encode(), "GC=F")
    assert len(series) == 1
    assert any("suspicious range" in message for message in caplog.messages)


def test_serialize_parse_round_trip_is_exact():
    series = parse_ohlcv_csv((HEADER + SAMPLE_ROWS).encode(), "GC=F")
    blob = serialize_ohlcv_csv(series)
    again = parse_ohlcv_csv(blob, "GC=F")
    assert again.bars == series.bars
    assert serialize_ohlcv_csv(again) == blob


def test_synthetic_is_deterministic():
    spec = SyntheticSpec(kind="random_walk", length=200, seed=5)
    a = generate_synthetic_series(spec, "S")
    b = generate_synthetic_series(spec, "S")
    assert a.bars == b.bars
    c = generate_synthetic_series(spec, "OTHER")
    assert c.bars != a.bars


def test_synthetic_bars_respect_invariants():
    spec = SyntheticSpec(kind="persistent_sign", length=300, persistence=0.3, seed=9)
    series = generate_synthetic_series(spec, "S")
    for bar in series.bars:
        assert bar.low <= min(bar.open, bar.close) <= max(bar.open, bar.close) <= bar.high
        assert bar.low > 0 and bar.volume >= 0


def test_persistent_sign_full_persistence():
    spec = SyntheticSpec(kind="persistent_sign", length=200, persistence=1.0, seed=3)
    series = generate_synthetic_series(spec, "S")
    rets = (series.closes() - series.opens()) / series.opens()
    signs = np.sign(rets)
    assert (signs == signs[0]).all()


def test_persistent_sign_empirical_rate():
    spec = SyntheticSpec(kind="persistent_sign", length=5000, persistence=0.65, seed=11)
    series = generate_synthetic_series(spec, "S")
    rets = (series.closes() - series.opens()) / series.opens()
    signs = np.sign(rets)
    rate = (signs[1:] == signs[:-1]).mean()
    assert 0.62 <= rate <= 0.68


def test_random_walk_signs_are_fair():
    spec = SyntheticSpec(kind="random_walk", length=5000, seed=21)
    series = generate_synthetic_series(spec, "S")
    rets = (series.closes() - series.opens()) / series.opens()
    up = (rets > 0).mean()
    assert 0.45 <= up <= 0.55
    signs = np.sign(rets)
    assert 0.45 <= (signs[1:] == signs[:-1]).mean() <= 0.55


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="nope", length=500)
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="random_walk", length=50)
    with pytest.raises(ConfigError):
        SyntheticSpec(kind="persistent_sign", length=500, persistence=1.5)

