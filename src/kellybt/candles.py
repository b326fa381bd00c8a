"""Hourly OHLCV candle series: parsing, validation, splitting, synthesis.

Canonical file format is CSV with header ``timestamp,open,high,low,close,volume``
and timestamps in epoch seconds (UTC, aligned to the hour), written by
``artifacts.write_csv`` with exact float text. Gaps in exchange data are kept
and indexed, never forward-filled.

The candle invariants (strictly increasing, interval-aligned timestamps;
finite positive prices; finite non-negative volume; low/high enveloping
open/close) are checked in one place, ``_first_invalid``. CandleSeries calls
it on construction; parse_candles reads the file straight into columns and
calls it to name the file line of the first bad row. parse_candles reads
the header with the ``csv`` module and the data rows with numpy's C reader
(``np.loadtxt``), after dropping whitespace-only lines; a reader error names
a data row, which is mapped back to its file line. ``positions`` is the one
timestamp lookup used to match predictions, scenarios and labels.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .artifacts import open_text, write_csv

HOUR = 3600

CANONICAL_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")

# Default epoch for synthetic series: 2020-01-01T00:00:00Z.
DEFAULT_START_TS = 1_577_836_800

# Where numpy's loadtxt names the data row in a ValueError.
_NUMPY_ROW = re.compile(r" at row (\d+)(,?)")


class DataError(ValueError):
    """Malformed or invariant-violating market data."""


@dataclass(frozen=True)
class Candle:
    """One hourly OHLCV bar. Prices are quote-currency, volume base-asset."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float


def _first_invalid(ts, o, h, l, c, v, interval: int) -> tuple[int, str] | None:
    """Index and message of the first row that breaks a candle invariant.

    Row i breaks one when its timestamp does not exceed row i-1's or is off
    the ``interval`` grid, when a price or the volume is not finite, a price
    is non-positive, the volume negative, or low/high do not envelope
    open/close. Returns None when every row holds.
    """
    repeated = np.zeros(ts.size, dtype=bool)
    repeated[1:] = ts[1:] <= ts[:-1]
    finite = np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v)
    checks = (
        (repeated, "duplicate or non-monotonic timestamp {t}"),
        (ts % interval != 0, "timestamp {t} is not aligned to the {interval}s interval"),
        (~finite, "non-finite price or volume at timestamp {t}"),
        (np.minimum(np.minimum(o, h), np.minimum(l, c)) <= 0,
         "non-positive price at timestamp {t}"),
        (v < 0, "negative volume at timestamp {t}"),
        ((l > np.minimum(o, c)) | (h < np.maximum(o, c)),
         "OHLC invariant violated at timestamp {t}: low {l} / high {h} do not "
         "envelope open {o} / close {c}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    message = next(text for mask, text in checks if mask[i])
    return i, message.format(t=int(ts[i]), interval=interval, o=float(o[i]),
                             h=float(h[i]), l=float(l[i]), c=float(c[i]))


class CandleSeries:
    """Immutable, strictly increasing series of hourly candles.

    Non-hourly jumps between consecutive candles are recorded in ``gaps`` as
    ``(index_before_gap, missing_bars)`` pairs; the data itself is untouched.
    """

    __slots__ = ("timestamps", "open", "high", "low", "close", "volume",
                 "symbol", "interval", "gaps")

    def __init__(self, timestamps, open, high, low, close, volume,
                 symbol: str = "UNKNOWN", interval: int = HOUR):
        ts = np.asarray(timestamps, dtype=np.int64)
        if ts.size == 0:
            raise DataError("empty candle series")
        cols = []
        for name, col in (("open", open), ("high", high), ("low", low),
                          ("close", close), ("volume", volume)):
            arr = np.asarray(col, dtype=np.float64)
            if arr.shape != ts.shape:
                raise DataError(f"column {name} length {arr.size} != timestamps {ts.size}")
            cols.append(arr)
        o, h, l, c, v = cols
        invalid = _first_invalid(ts, o, h, l, c, v, interval)
        if invalid is not None:
            raise DataError(invalid[1])

        diffs = np.diff(ts)
        gap_positions = np.flatnonzero(diffs != interval)
        self.gaps = tuple(
            (int(i), int(diffs[i] // interval) - 1) for i in gap_positions
        )
        for arr in (ts, o, h, l, c, v):
            arr.setflags(write=False)
        self.timestamps = ts
        self.open = o
        self.high = h
        self.low = l
        self.close = c
        self.volume = v
        self.symbol = symbol
        self.interval = interval

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def candle(self, i: int) -> Candle:
        return Candle(int(self.timestamps[i]), float(self.open[i]), float(self.high[i]),
                      float(self.low[i]), float(self.close[i]), float(self.volume[i]))

    def __iter__(self):
        return (self.candle(i) for i in range(len(self)))

    def slice(self, start: int, stop: int) -> "CandleSeries":
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad slice [{start}:{stop}] for series of length {len(self)}")
        return CandleSeries(
            self.timestamps[start:stop], self.open[start:stop], self.high[start:stop],
            self.low[start:stop], self.close[start:stop], self.volume[start:stop],
            symbol=self.symbol, interval=self.interval,
        )

    def to_csv(self, dest) -> None:
        """Write the canonical CSV to a path or an open text stream through
        ``artifacts.write_csv``; floats keep their shortest round-trip text,
        so ``parse_candles`` reads back the same series."""
        write_csv(dest, CANONICAL_COLUMNS, [self.timestamps, self.open, self.high,
                                            self.low, self.close, self.volume])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test boundaries (epoch seconds).

    The boundary candle belongs to the earlier split, so a label computed at
    the boundary cannot leak into the later set.
    """

    train_end: int
    validation_end: int

    def __post_init__(self):
        if self.train_end >= self.validation_end:
            raise ValueError(
                f"train_end {self.train_end} must precede validation_end {self.validation_end}"
            )


def parse_candles(source, mapping: dict | None = None, symbol: str = "UNKNOWN") -> CandleSeries:
    """Parse delimiter-separated OHLCV rows with a header into a CandleSeries.

    ``source`` is a path or an open text stream. ``mapping`` renames the six
    canonical columns to the file's header names (logical -> actual); columns
    missing from the mapping keep their canonical names. Rows are sorted
    stably by timestamp, then checked by the same invariants as CandleSeries;
    an error names the file line of the offending row.
    """
    mapping = dict(mapping or {})
    for key in mapping:
        if key not in CANONICAL_COLUMNS:
            raise DataError(f"unknown column mapping key {key!r}")
    with open_text(source, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        header = [h.strip() for h in header]
        col_idx = []
        for logical in CANONICAL_COLUMNS:
            actual = mapping.get(logical, logical)
            if actual not in header:
                raise DataError(f"missing column {actual!r} in header {header}")
            col_idx.append(header.index(actual))

        first_line = reader.line_num + 1
        blank = []  # positions after the header of the skipped whitespace-only lines

        def data_lines():
            for i, line in enumerate(fh):
                if line.isspace():
                    blank.append(i)
                else:
                    yield line

        def line_of(k: int) -> int:
            """File line of data row ``k``: each skipped line at or before it moves it down."""
            for b in blank:
                if b <= k:
                    k += 1
            return first_line + k

        rows = data_lines()
        first = next(rows, None)
        if first is None:
            raise DataError("no data rows in input")
        try:
            data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", usecols=col_idx,
                              ndmin=2, dtype=np.float64, comments=None, quotechar='"')
        except ValueError as exc:
            # numpy counts data rows from 0 in a conversion error ("at row R,
            # column C") and from 1 in a column-count error ("at row R with N columns").
            text = str(exc)
            found = _NUMPY_ROW.search(text)
            if found is None:
                raise DataError(f"malformed row: {text}") from None
            row = int(found[1]) if found[2] else int(found[1]) - 1
            raise DataError(f"malformed row at line {line_of(row)}: "
                            f"{text[:found.start()]}{text[found.end(1):]}") from None

    # Timestamps truncate toward zero, as int(float(field)) would.
    out_of_range = np.flatnonzero(~(np.abs(data[:, 0]) < 2.0 ** 63))
    if out_of_range.size:
        k = int(out_of_range[0])
        raise DataError(f"malformed row at line {line_of(k)}: timestamp {float(data[k, 0])!r} "
                        f"is not a finite 64-bit integer")
    ts = data[:, 0].astype(np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    o, h, l, c, v = (data[order, k] for k in range(1, 6))
    invalid = _first_invalid(ts, o, h, l, c, v, HOUR)
    if invalid is not None:
        i, message = invalid
        raise DataError(f"line {line_of(int(order[i]))}: {message}")
    return CandleSeries(ts, o, h, l, c, v, symbol=symbol)


def split_dataset(series: CandleSeries, spec: SplitSpec):
    """Split into contiguous (train, validation, test) sub-series.

    Boundaries must lie strictly inside the series range; each boundary candle
    goes to the earlier split.
    """
    start = int(series.timestamps[0])
    end = int(series.timestamps[-1])
    if not start < spec.train_end < spec.validation_end < end:
        raise ValueError(
            f"split boundaries ({spec.train_end}, {spec.validation_end}) must lie strictly "
            f"inside the series range ({start}, {end}); degenerate splits would leave an "
            f"empty train or test set"
        )
    i = int(np.searchsorted(series.timestamps, spec.train_end, side="right"))
    j = int(np.searchsorted(series.timestamps, spec.validation_end, side="right"))
    if i == 0 or j <= i or j >= len(series):
        raise ValueError("split produced an empty train, validation, or test set")
    return series.slice(0, i), series.slice(i, j), series.slice(j, len(series))


def positions(reference: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each ``query`` timestamp sits in the strictly increasing
    ``reference`` column: ``(pos, found)``, with ``reference[pos] == query``
    wherever ``found``. Elsewhere ``pos`` is the insertion point."""
    pos = np.searchsorted(reference, query)
    found = pos < reference.size
    found[found] = reference[pos[found]] == query[found]
    return pos, found


def generate_synthetic_series(seed: int, n: int, drift: float = 0.0,
                              volatility: float = 0.01, start_price: float = 100.0,
                              symbol: str = "SYNTH",
                              start_ts: int = DEFAULT_START_TS) -> CandleSeries:
    """Seeded geometric random walk on closes with an intrabar envelope.

    Per-bar log-returns are N(drift, volatility). open_t is the previous close
    (open_0 = start_price); high/low envelope open/close with a seeded
    excursion proportional to volatility. Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(drift):
        raise ValueError(f"drift must be finite, got {drift}")
    if not 0 <= volatility < math.inf:  # negated so NaN fails too
        raise ValueError(f"volatility must be finite and >= 0, got {volatility}")
    if not 0 < start_price < math.inf:
        raise ValueError(f"start_price must be finite and > 0, got {start_price}")

    rng = np.random.default_rng(seed)
    # Finite settings can still overflow or underflow; the prices are checked below.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        steps = rng.normal(drift, volatility, size=n)
        close = start_price * np.exp(np.cumsum(steps))
        open_ = np.concatenate(([start_price], close[:-1]))
        # Excursions capped below 1 so low stays positive.
        up_exc = np.minimum(np.abs(rng.normal(0.0, 0.5 * volatility, size=n)), 0.9)
        down_exc = np.minimum(np.abs(rng.normal(0.0, 0.5 * volatility, size=n)), 0.9)
        high = np.maximum(open_, close) * (1.0 + up_exc)
        low = np.minimum(open_, close) * (1.0 - down_exc)
    if not (np.isfinite(high).all() and (low > 0).all()):
        raise ValueError(f"drift {drift}, volatility {volatility} and start price "
                         f"{start_price} give prices that are not finite and positive")
    volume = np.exp(rng.normal(3.0, 0.5, size=n))
    timestamps = start_ts + HOUR * np.arange(n, dtype=np.int64)
    return CandleSeries(timestamps, open_, high, low, close, volume, symbol=symbol)


def parse_candles_text(text: str, mapping: dict | None = None,
                       symbol: str = "UNKNOWN") -> CandleSeries:
    return parse_candles(io.StringIO(text), mapping=mapping, symbol=symbol)
