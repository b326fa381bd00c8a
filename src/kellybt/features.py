"""Normalized feature matrices, horizon labels, and sample weights.

The feature matrix holds one column per indicator spec; the optional
price-model columns add the five trailing horizon-length fractional price
changes plus a market-direction column holding the realized forward
direction (the scenario machinery overrides it with +1/-1 at prediction
time). Rows with any undefined value are dropped, so warm-up rows vanish
from the front and, when the direction column is present, the last
``horizon`` rows vanish from the tail.

Normalization stats are fitted on training rows only and frozen for the
later splits; fitting globally would leak future statistics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .candles import CandleSeries
from .indicators import IndicatorSpec, compute_indicator

DEFAULT_HORIZON = 5


@dataclass(frozen=True)
class FeatureMatrix:
    timestamps: np.ndarray
    column_names: tuple[str, ...]
    values: np.ndarray
    norm_stats: "NormStats | None" = None

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


@dataclass(frozen=True)
class NormStats:
    """Per-column mean and sample (n-1) standard deviation, training rows only."""

    column_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    @property
    def flagged(self) -> tuple[str, ...]:
        """Columns with zero training stddev; they transform to 0."""
        return tuple(name for name, s in zip(self.column_names, self.std) if s == 0)

    def to_dict(self) -> dict:
        return {
            name: {"mean": float(m), "std": float(s), "flagged": bool(s == 0)}
            for name, m, s in zip(self.column_names, self.mean, self.std)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NormStats":
        names = tuple(data)
        return cls(
            names,
            np.array([data[n]["mean"] for n in names], dtype=np.float64),
            np.array([data[n]["std"] for n in names], dtype=np.float64),
        )


@dataclass(frozen=True)
class LabelSet:
    """Per-timestamp direction (+1/-1), fractional forward return, and weight.

    direction = sign(price_change) with zero resolved to -1; the weight is
    |price_change|, so the zero case stays inert. Timestamps strictly
    increase, so predictions are matched to labels with ``candles.positions``.
    """

    timestamps: np.ndarray
    direction: np.ndarray
    price_change: np.ndarray
    weight: np.ndarray
    horizon: int

    def __post_init__(self):
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):
            raise ValueError("label timestamps must be strictly increasing")

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def build_feature_matrix(series: CandleSeries, grid: list[IndicatorSpec],
                         price_model: bool = False,
                         horizon: int = DEFAULT_HORIZON) -> FeatureMatrix:
    """One column per spec, plus the price-model extras when requested."""
    if not grid:
        raise ValueError("indicator grid is empty")
    if price_model:
        _check_horizon(horizon)
    n = len(series)
    names: list[str] = []
    cols: list[np.ndarray] = []
    for spec in grid:
        vs = compute_indicator(series, spec)
        names.append(vs.name)
        cols.append(vs.values)

    if price_model:
        c = series.close
        for k in range(1, 6):
            lag_lo = horizon * k
            lag_hi = horizon * (k - 1)
            col = np.full(n, np.nan)
            if n > lag_lo:
                start = c[:n - lag_lo]
                end = c[lag_lo - lag_hi:n - lag_hi]
                col[lag_lo:] = (end - start) / start
            names.append(f"pc_{horizon}h_{k}")
            cols.append(col)
        direction = np.full(n, np.nan)
        if n > horizon:
            direction[:n - horizon] = np.where(c[horizon:] > c[:-horizon], 1.0, -1.0)
        names.append("market_direction")
        cols.append(direction)

    values = np.column_stack(cols)
    keep = ~np.isnan(values).any(axis=1)
    if not keep.any():
        raise ValueError("no fully defined rows after warm-up truncation")
    return FeatureMatrix(series.timestamps[keep], tuple(names), values[keep])


def make_labels(series: CandleSeries, horizon: int = DEFAULT_HORIZON,
                normalize_weights: bool = False) -> LabelSet:
    """Fractional horizon-forward return, its sign, and magnitude weights."""
    _check_horizon(horizon)
    n = len(series)
    if n <= horizon:
        raise ValueError(f"series length {n} must exceed horizon {horizon}")
    c = series.close
    change = (c[horizon:] - c[:-horizon]) / c[:-horizon]
    direction = np.where(change > 0, 1, -1).astype(np.int8)
    weight = np.abs(change)
    if normalize_weights:
        m = weight.mean()
        if m > 0:
            weight = weight / m
    return LabelSet(series.timestamps[:n - horizon], direction, change, weight, horizon)


def fit_normalizer(matrix: FeatureMatrix, train_range: tuple[int, int]) -> NormStats:
    """Per-column mean/stddev over rows with timestamps inside train_range."""
    lo, hi = train_range
    mask = (matrix.timestamps >= lo) & (matrix.timestamps <= hi)
    rows = matrix.values[mask]
    if rows.shape[0] < 2:
        raise ValueError(
            f"need at least 2 training rows to fit the normalizer, got {rows.shape[0]}"
        )
    return NormStats(matrix.column_names, rows.mean(axis=0), rows.std(axis=0, ddof=1))


def apply_normalizer(matrix: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Affine transform (x - mean) / std per column; zero-std columns -> 0."""
    if stats.column_names != matrix.column_names:
        raise ValueError("normalizer columns do not match the matrix")
    safe = np.where(stats.std == 0, 1.0, stats.std)
    values = (matrix.values - stats.mean) / safe
    values[:, stats.std == 0] = 0.0
    return FeatureMatrix(matrix.timestamps, matrix.column_names, values, norm_stats=stats)


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


def read_norm_stats_json(path: str) -> NormStats:
    with open(path) as fh:
        return NormStats.from_dict(json.load(fh))
