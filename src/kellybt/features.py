"""Normalized feature matrices, horizon labels, and sample weights.

The feature matrix, a ``candles.TimestampedFrame``, holds one column per
indicator spec; the optional price-model columns add the five trailing
horizon-length fractional price changes (``CandleSeries.forward_return``
shifted down one to five horizons) plus a market-direction column holding
the sign of the forward return, the realized direction (the scenario
machinery overrides it with +1/-1 at prediction time). Rows with any
undefined value (NaN, or a non-finite value from huge finite candles) are
dropped, so warm-up rows vanish from the front and, when the direction
column is present, the last ``horizon`` rows vanish from the tail.

Normalization stats are fitted on training rows only and frozen for the
later splits; fitting globally would leak future statistics. Given a
training range, ``build_feature_matrix`` fits them and normalizes the matrix
in the buffer its columns were written into, so the matrix is held once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .candles import CandleSeries, TimestampedFrame, _cast, column
from .indicators import IndicatorSpec, compute_indicator

DEFAULT_HORIZON = 5


@dataclass(frozen=True, eq=False)
class FeatureMatrix(TimestampedFrame):
    """One row of ``values`` per timestamp, one column per name: ``values``
    has shape ``(len(timestamps), len(column_names))``. Timestamps strictly
    increase, so ``fit_normalizer`` reads the training rows as one slice.
    ``values`` is held as a frame column is: as it is when no array can
    write into it, else as a read-only float64 copy, so ``write_csv`` can
    format it on a thread without a snapshot copy. A matrix from
    ``build_feature_matrix`` is a leading-rows view of the one buffer its
    columns were written into (and normalized in, when ``stats`` is set),
    flagged read-only as a whole, and is held without a copy. ``stats``
    holds the normalizer fitted on the training rows, or None for raw
    values."""

    column_names: tuple[str, ...]
    values: np.ndarray
    stats: NormStats | None = None

    def __post_init__(self):
        super().__post_init__()
        shape = (self.timestamps.size, len(self.column_names))
        values = _cast("values", self.values, np.float64)
        if values.shape != shape:
            raise ValueError(f"feature matrix values must have shape {shape} (timestamps, "
                             f"columns), got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class NormStats:
    """Per-column mean and sample (n-1) standard deviation, training rows only."""

    column_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {
            name: {"mean": float(m), "std": float(s), "flagged": bool(s == 0)}
            for name, m, s in zip(self.column_names, self.mean, self.std)
        }


@dataclass(frozen=True, eq=False)
class LabelSet(TimestampedFrame):
    """Per-timestamp direction (+1/-1), fractional forward return, and weight.

    price_change is ``CandleSeries.forward_return(horizon)``; direction =
    sign(price_change) with zero resolved to -1; the weight is
    |price_change|, so the zero case stays inert. Timestamps strictly
    increase, so predictions are matched to labels with ``candles.positions``.
    """

    direction: np.ndarray = column(np.int8)
    price_change: np.ndarray = column(np.float64)
    weight: np.ndarray = column(np.float64)
    horizon: int


# Rows moved, fitted or normalized per step over the matrix's buffer.
_BLOCK_ROWS = 4096


def build_feature_matrix(series: CandleSeries, grid: list[IndicatorSpec],
                         price_model: bool = False, horizon: int = DEFAULT_HORIZON,
                         train_range: tuple[int, int] | None = None) -> FeatureMatrix:
    """One column per spec, plus the price-model extras when requested.

    Every column is written into one (n, columns) buffer, and the fully
    defined rows are then moved up to its front in place. Given the
    inclusive ``train_range`` ``(lo, hi)`` of timestamps, the normalizer is
    fitted on those rows (``fit_normalizer``) and applied over the same
    buffer (``apply_normalizer``), and the matrix carries it as ``stats``.
    The matrix is held once, raw or normalized."""
    if not grid:
        raise ValueError("indicator grid is empty")
    fwd = series.forward_return(horizon) if price_model else None
    names = [spec.name for spec in grid]
    if price_model:
        names += [f"pc_{horizon}h_{k}" for k in range(1, 6)] + ["market_direction"]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ValueError(f"indicator column {name} appears more than once in the grid")

    n = len(series)
    values = np.empty((n, len(names)))
    # Huge finite candles can overflow an indicator; a non-finite value is
    # undefined, and its row is dropped below.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, spec in enumerate(grid):
            values[:, j] = compute_indicator(series, spec)
    if price_model:
        # Column k is the return realized k horizons back: fwd shifted down h*k rows.
        for k in range(1, 6):
            shift = min(horizon * k, n)
            col = values[:, len(grid) + k - 1]
            col[:shift] = np.nan
            col[shift:] = fwd[:n - shift]
        col = values[:, -1]
        col[:fwd.size] = np.where(fwd > 0, 1.0, -1.0)
        col[fwd.size:] = np.nan

    rows = np.flatnonzero(np.isfinite(values).all(axis=1))
    if not rows.size:
        raise ValueError("no fully defined rows after warm-up truncation")
    # rows[i] >= i, so each step reads only rows that no earlier step wrote.
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        values[start:start + block.size] = values[block]
    timestamps = series.timestamps[rows]
    names = tuple(names)
    stats = None
    if train_range is not None:
        stats = fit_normalizer(timestamps, values[:rows.size], names, train_range)
        apply_normalizer(values[:rows.size], stats)
    # The whole buffer, not only the view: so the matrix holds them, not copies.
    for col in (timestamps, values):
        col.setflags(write=False)
    return FeatureMatrix(timestamps, names, values[:rows.size], stats)


def make_labels(series: CandleSeries, horizon: int = DEFAULT_HORIZON,
                normalize_weights: bool = False) -> LabelSet:
    """``series.forward_return(horizon)``, its sign, and magnitude weights."""
    change = series.forward_return(horizon)
    if not change.size:
        raise ValueError(f"series length {len(series)} must exceed horizon {horizon}")
    direction = np.where(change > 0, 1, -1).astype(np.int8)
    weight = np.abs(change)
    if normalize_weights:
        m = weight.mean()
        if m > 0:
            weight = weight / m
    return LabelSet(series.timestamps[:change.size], direction, change, weight, horizon)


def fit_normalizer(timestamps: np.ndarray, values: np.ndarray, column_names: tuple[str, ...],
                   train_range: tuple[int, int]) -> NormStats:
    """Per-column mean/stddev of ``values`` over the rows whose strictly
    increasing ``timestamps`` lie inside train_range, the inclusive ``(lo,
    hi)``; the rows are one slice of ``values``, not a copy, and are read
    a block of rows at a time. The stats are numpy's ``mean`` and ``std``
    (ddof=1) over the rows, bit for bit. A column whose stats overflow
    (numpy's std squares raw deviations) is fitted again scaled by a power
    of two, which is exact; one whose mean or std is still not finite raises
    ValueError."""
    lo, hi = train_range
    start = np.searchsorted(timestamps, lo, side="left")
    stop = np.searchsorted(timestamps, hi, side="right")
    rows = values[start:stop]
    if rows.shape[0] < 2:
        raise ValueError(
            f"need at least 2 training rows to fit the normalizer, got {rows.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        if rows.shape[1] == 1:  # numpy sums a lone column pairwise
            std = rows.std(axis=0, ddof=1)
        else:
            std = np.sqrt(_squared_deviations(rows, mean) / (rows.shape[0] - 1))
        for j in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std))):
            _, exp = np.frexp(np.abs(rows[:, j]).max())
            col = np.ldexp(rows[:, j], -exp)
            mean[j], std[j] = np.ldexp(col.mean(), exp), np.ldexp(col.std(ddof=1), exp)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ValueError(f"feature column {column_names[bad[0]]} has a non-finite "
                         f"training mean or std")
    return NormStats(column_names, mean, std)


def _squared_deviations(rows: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per column of ``rows`` (two or more), the sum of ``(x - mean) ** 2``
    with the operations of numpy's ``std``, which adds such a matrix row
    after row: a block of rows at a time, the sum so far put before each
    block's squares. It holds one block, where ``std`` holds a copy of
    ``rows``."""
    buf = np.empty((min(len(rows), _BLOCK_ROWS) + 1, rows.shape[1]))
    total = None
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        squares = buf[1:len(block) + 1]
        np.subtract(block, mean, out=squares)
        squares *= squares
        if total is None:
            total = squares.sum(axis=0)
        else:
            buf[0] = total
            total = buf[:len(block) + 1].sum(axis=0)
    return total


def apply_normalizer(values: np.ndarray, stats: NormStats) -> None:
    """Affine transform (x - mean) / std of each column of ``values``, in
    place, a block of rows at a time; zero-std columns -> 0."""
    if values.shape[1] != len(stats.column_names):
        raise ValueError("normalizer columns do not match the matrix")
    flat = stats.std == 0
    safe = np.where(flat, 1.0, stats.std)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        block -= stats.mean
        block /= safe
        block[:, flat] = 0.0


def default_grid() -> list[IndicatorSpec]:
    """Documented default indicator grid (a config, not a reconstruction of
    any particular published feature set)."""
    grid = [IndicatorSpec("MACD", (12, 26)), IndicatorSpec("PPO", (12, 26))]
    for kind in ("TRIX", "ROC", "EFI_RATIO", "CMO", "RSI", "CCI", "WILLIAMS_R", "CMF"):
        for period in (7, 14, 28):
            grid.append(IndicatorSpec(kind, (period,)))
    return grid


def grid_from_config(entries: list[dict]) -> list[IndicatorSpec]:
    """Parse ``[{"kind": ..., "periods": [...]}, ...]`` config entries."""
    if not isinstance(entries, list):
        raise ValueError(f"grid indicators must be a list of entries, got {entries!r}")
    grid = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"grid entry must be an object, got {entry!r}")
        if "kind" not in entry:
            raise ValueError(f"grid entry missing kind: {entry}")
        periods = entry.get("periods", entry.get("period"))
        if periods is None:
            raise ValueError(f"grid entry missing periods: {entry}")
        if not isinstance(periods, list):
            periods = [periods]
        grid.append(IndicatorSpec(entry["kind"], tuple(periods)))
    return grid


def write_matrix_csv(matrix: FeatureMatrix, path: str) -> None:
    write_csv(path, ("timestamp",) + matrix.column_names,
              [matrix.timestamps, *matrix.values.T])


def write_labels_csv(labels: LabelSet, path: str) -> None:
    write_csv(path, ("timestamp", "direction", "price_change", "weight"),
              [labels.timestamps, labels.direction, labels.price_change, labels.weight])


def write_norm_stats_json(stats: NormStats, path: str) -> None:
    write_json(stats.to_dict(), path)
