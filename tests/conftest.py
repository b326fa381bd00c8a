import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from kellybt.candles import DEFAULT_START_TS, HOUR, CandleSeries, generate_synthetic_series
from kellybt.predictors import Scenarios


def from_file(load, text, *args, **kwargs):
    """``load(path, *args, **kwargs)`` on a temporary file holding ``text``
    as UTF-8, its line ends as written. A ``tempfile`` directory, not
    ``tmp_path``, so hypothesis tests can call it once per example."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        return load(path, *args, **kwargs)


def traced_peak(fn, *args):
    """fn's result and the peak of the memory traced while it ran."""
    fn(*args)  # any first-call allocation outside the count
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def scenarios_on(preds, a=0.05, b=0.05):
    """The same (a, b) on every timestamp of ``preds``: a run over it trades
    every point the predictions alone allow."""
    n = len(preds)
    return Scenarios(preds.timestamps, np.full(n, a), np.full(n, b))


def make_series_from_ohlc(rows, start_ts=DEFAULT_START_TS, volume=10.0):
    """Build a CandleSeries from (open, high, low, close[, volume]) tuples."""
    ts, o, h, l, c, v = [], [], [], [], [], []
    for i, row in enumerate(rows):
        ts.append(start_ts + i * HOUR)
        o.append(row[0])
        h.append(row[1])
        l.append(row[2])
        c.append(row[3])
        v.append(row[4] if len(row) > 4 else volume)
    return CandleSeries(ts, o, h, l, c, v, symbol="TEST")


def make_series_from_closes(closes, start_ts=DEFAULT_START_TS, volume=10.0):
    """Flat candles whose high/low exactly envelope open/close."""
    rows = []
    prev = closes[0]
    for c in closes:
        rows.append((prev, max(prev, c), min(prev, c), c, volume))
        prev = c
    return make_series_from_ohlc(rows, start_ts=start_ts)


def regime_series(seed, n=5000, segments=4, vol_low=0.004, vol_high=0.025,
                  start_price=30000.0):
    """Volatility-clustered synthetic series: alternating calm/crisis
    segments of a geometric random walk, price-continuous across joins."""
    seg_len = n // segments
    parts = []
    price = start_price
    ts = DEFAULT_START_TS
    for k in range(segments):
        vol = vol_low if k % 2 == 0 else vol_high
        count = seg_len if k < segments - 1 else n - seg_len * (segments - 1)
        part = generate_synthetic_series(seed * 1000 + k, count, 0.0, vol, price,
                                         start_ts=ts)
        parts.append(part)
        price = float(part.close[-1])
        ts = int(part.timestamps[-1]) + HOUR
    cat = lambda attr: np.concatenate([getattr(p, attr) for p in parts])
    return CandleSeries(cat("timestamps"), cat("open"), cat("high"), cat("low"),
                        cat("close"), cat("volume"), symbol="REGIME")
