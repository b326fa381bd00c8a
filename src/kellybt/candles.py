"""Hourly OHLCV candle series: parsing, validation, splitting, synthesis.

A candle input is a UTF-8 CSV file on disk (a leading byte-order mark is
skipped) with the canonical header ``timestamp,open,high,low,close,volume``
(more columns are ignored) and hourly bars: timestamps in epoch seconds
(UTC, aligned to the hour), written by ``artifacts.write_csv`` with exact
float text. Gaps in exchange data are kept and indexed, never forward-filled.

The candle invariants (strictly increasing, hour-aligned timestamps;
finite positive prices; finite non-negative volume; low/high enveloping
open/close) are checked in one place, ``_first_invalid``. CandleSeries calls
it on construction; parse_candles reads the file at a path straight into
columns with ``artifacts.read_csv``, the reader shared with the prediction
loader, hands them to CandleSeries read-only, so they are checked once and
held uncopied, and calls ``_first_invalid`` again only when the series
refuses them, to name the file line of the first bad row.
``DataError`` is re-exported from ``artifacts``. ``positions`` is the one
timestamp lookup used to match predictions, scenarios and labels.
``horizon_return`` is the one horizon return, over a close array:
``CandleSeries.forward_return`` (which labels, features, scenarios and
backtest P&L read) and the ROC indicator both call it. ``check_horizon``
holds the one bound on a horizon, which the backtest and barrier configs
also check when they are built.

``Frame`` is the base of every column frame passed between layers: the
series itself and the prediction, scenario, label, feature, trade and equity
frames. Its constructor is the one place that casts each ``column`` field to
its dtype (refusing a cast that would change an integer column's value),
checks that the columns are 1-D and of one length, and makes them read-only;
a column that is already a read-only array of its dtype, which no array can
write into, is held as it is. ``TimestampedFrame`` adds the strictly
increasing timestamps that ``positions`` binary-searches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .artifacts import DataError, _read_only, read_csv, write_csv

HOUR = 3600

CANONICAL_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")

# Default epoch for synthetic series: 2020-01-01T00:00:00Z.
DEFAULT_START_TS = 1_577_836_800

def _first_invalid(ts, o, h, l, c, v) -> tuple[int, str] | None:
    """Index and message of the first row that breaks a candle invariant.

    Row i breaks one when its timestamp does not exceed row i-1's or is off
    the hour grid, when a price or the volume is not finite, a price
    is non-positive, the volume negative, or low/high do not envelope
    open/close. Returns None when every row holds.
    """
    repeated = np.zeros(ts.size, dtype=bool)
    repeated[1:] = ts[1:] <= ts[:-1]
    finite = np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v)
    checks = (
        (repeated, "duplicate or non-monotonic timestamp {t}"),
        (ts % HOUR != 0, f"timestamp {{t}} is not aligned to the {HOUR}s interval"),
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
    return i, message.format(t=int(ts[i]), o=float(o[i]), h=float(h[i]), l=float(l[i]),
                             c=float(c[i]))


def positions(reference: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each ``query`` timestamp sits in the strictly increasing
    ``reference`` column: ``(pos, found)``, with ``reference[pos] == query``
    wherever ``found``. Elsewhere ``pos`` is the insertion point."""
    pos = np.searchsorted(reference, query)
    found = pos < reference.size
    found[found] = reference[pos[found]] == query[found]
    return pos, found


def check_horizon(horizon: int) -> None:
    """A ValueError unless ``horizon`` is at least one bar."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def horizon_return(close: np.ndarray, horizon: int) -> np.ndarray:
    """``(close[t+h] - close[t]) / close[t]`` for each t with t + h in
    ``close``."""
    check_horizon(horizon)
    return (close[horizon:] - close[:-horizon]) / close[:-horizon]


def column(dtype):
    """Declare a ``Frame`` field as a column of ``dtype``."""
    return field(metadata={"dtype": dtype})


def _cast(name: str, value, dtype) -> np.ndarray:
    """``value`` itself when it is an array of ``dtype`` that no array can
    write into (``artifacts._read_only``); else a copy of it as ``dtype``, a
    ValueError when an integer dtype would change a value (a fractional,
    non-finite or out-of-range one)."""
    if _read_only(value) and np.can_cast(value.dtype, dtype, "no"):
        return value
    if np.dtype(dtype).kind not in "iu":
        return np.array(value, dtype)
    src = np.asarray(value)
    if src.dtype == dtype:
        return src.copy()
    with np.errstate(invalid="ignore"):  # NaN or inf cast to an integer: caught below
        col = src.astype(dtype)
    changed = np.flatnonzero(col != src)
    if changed.size:
        raise ValueError(f"frame column {name} cannot hold "
                         f"{src.flat[changed[0]].item()!r} as {col.dtype}")
    return col


@dataclass(frozen=True, eq=False)
class Frame:
    """Read-only columns of one length; ``len`` is the row count.

    A subclass declares its columns with ``column(dtype)``. The constructor
    adopts a column that is already a read-only array of its dtype whose
    memory no array can write into (``artifacts._read_only``, the test
    ``write_csv`` uses to skip its range copy): the frame holds that object,
    so a producer that flags what it has just computed hands it over without
    a copy. Anything else, a writable array, a read-only view of a writable
    one, an array of another dtype or a list, is stored as a read-only copy
    cast to the dtype. Other fields pass through.
    """

    def __post_init__(self):
        columns = {f.name: _cast(f.name, getattr(self, f.name), f.metadata["dtype"])
                   for f in fields(self) if "dtype" in f.metadata}
        first = next(iter(columns.values()))
        for name, col in columns.items():
            if col.ndim != 1 or col.shape != first.shape:
                raise ValueError(f"frame columns must be 1-D and of one length, got "
                                 f"{name} of shape {col.shape}")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return next(getattr(self, f.name).size for f in fields(self) if "dtype" in f.metadata)


@dataclass(frozen=True, eq=False)
class TimestampedFrame(Frame):
    """A frame keyed by strictly increasing int64 ``timestamps``, so
    ``positions`` can look rows up by timestamp."""

    timestamps: np.ndarray = column(np.int64)

    def __post_init__(self):
        super().__post_init__()
        if (self.timestamps[1:] <= self.timestamps[:-1]).any():
            raise ValueError("frame timestamps must be strictly increasing")


@dataclass(frozen=True, eq=False)
class CandleSeries(Frame):
    """Immutable, strictly increasing series of hourly candles.

    Non-hourly jumps between consecutive candles are recorded in ``gaps`` as
    ``(index_before_gap, missing_bars)`` pairs; the data itself is untouched.
    """

    timestamps: np.ndarray = column(np.int64)
    open: np.ndarray = column(np.float64)
    high: np.ndarray = column(np.float64)
    low: np.ndarray = column(np.float64)
    close: np.ndarray = column(np.float64)
    volume: np.ndarray = column(np.float64)
    symbol: str = "UNKNOWN"
    gaps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if not len(self):
            raise DataError("empty candle series")
        invalid = _first_invalid(self.timestamps, self.open, self.high, self.low, self.close,
                                 self.volume)
        if invalid is not None:
            raise DataError(invalid[1])
        diffs = np.diff(self.timestamps)
        object.__setattr__(self, "gaps", tuple(
            (int(i), int(diffs[i] // HOUR) - 1) for i in np.flatnonzero(diffs != HOUR)))

    def slice(self, start: int, stop: int) -> "CandleSeries":
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad slice [{start}:{stop}] for series of length {len(self)}")
        return CandleSeries(
            self.timestamps[start:stop], self.open[start:stop], self.high[start:stop],
            self.low[start:stop], self.close[start:stop], self.volume[start:stop],
            symbol=self.symbol,
        )

    def forward_return(self, horizon: int) -> np.ndarray:
        """``(close[t+h] - close[t]) / close[t]`` for each bar t with t + h in
        the series (bars counted across gaps); it is > 0 exactly when the later
        close is higher, as closes are finite and positive."""
        return horizon_return(self.close, horizon)

    def to_csv(self, path) -> None:
        """Write the canonical CSV to the file at ``path`` through
        ``artifacts.write_csv``; floats keep their shortest round-trip text,
        so ``parse_candles`` reads back the same series."""
        write_csv(path, CANONICAL_COLUMNS, [self.timestamps, self.open, self.high,
                                            self.low, self.close, self.volume])


def parse_candles(path, symbol: str = "UNKNOWN") -> CandleSeries:
    """Parse the canonical candle CSV at ``path`` into a CandleSeries.

    Rows are sorted stably by timestamp, then checked once, as the
    CandleSeries is built; an error names the file line of the offending row.
    """
    def select(header):
        for name in CANONICAL_COLUMNS:
            if name not in header:
                raise DataError(f"missing column {name!r} in header {header}")
        return [header.index(name) for name in CANONICAL_COLUMNS]

    ts, data, line_of = read_csv(path, select)
    order = np.argsort(ts, kind="stable")
    columns = [ts[order], *(data[order, k] for k in range(5))]
    for col in columns:
        col.setflags(write=False)  # gathered, so owned: the series holds them uncopied
    try:
        return CandleSeries(*columns, symbol=symbol)
    except DataError:
        i, message = _first_invalid(*columns)
        raise DataError(f"line {line_of(int(order[i]))}: {message}") from None


def split_dataset(series: CandleSeries, train_end: int, validation_end: int):
    """Split into contiguous (train, validation, test) sub-series at the
    ``train_end`` and ``validation_end`` boundaries (epoch seconds).

    Boundaries must be in order and lie strictly inside the series range;
    each boundary candle goes to the earlier split, so a label computed at
    the boundary cannot leak into the later set.
    """
    if train_end >= validation_end:
        raise ValueError(f"train_end {train_end} must precede validation_end {validation_end}")
    start = int(series.timestamps[0])
    end = int(series.timestamps[-1])
    if not start < train_end < validation_end < end:
        raise ValueError(
            f"split boundaries ({train_end}, {validation_end}) must lie strictly "
            f"inside the series range ({start}, {end}); degenerate splits would leave an "
            f"empty train or test set"
        )
    i = int(np.searchsorted(series.timestamps, train_end, side="right"))
    j = int(np.searchsorted(series.timestamps, validation_end, side="right"))
    if j <= i:  # both boundaries fall inside one gap between timestamps
        raise ValueError("split produced an empty validation set")
    return series.slice(0, i), series.slice(i, j), series.slice(j, len(series))


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
    if start_ts % HOUR:
        raise ValueError(f"start_ts must be aligned to the {HOUR}s interval, got {start_ts}")
    if not -2**63 <= start_ts <= 2**63 - 1 - HOUR * (n - 1):
        raise ValueError(f"start_ts must keep all {n} bars in the int64 range, got {start_ts}")

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
    columns = (start_ts + HOUR * np.arange(n, dtype=np.int64), open_, high, low, close, volume)
    for col in columns:
        col.setflags(write=False)  # each owns its memory: the series holds them uncopied
    return CandleSeries(*columns, symbol=symbol)
