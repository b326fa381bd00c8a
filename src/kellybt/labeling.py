"""Triple-barrier labeling: two price barriers plus one time barrier.

Barrier touches are intrabar (high/low), matching how take-profit and
stop-loss orders execute. When one bar crosses both barriers the intrabar
ordering is unknowable from OHLC, so the label resolves to the barrier
nearer the bar's open (hit_kind AMBIGUOUS); ``ambiguous_to_lower`` forces
the pessimistic reading instead.

``label_series`` is the one entry point: it labels every stride-th entry at
once in one numpy kernel over sliding windows of the highs and lows, and
returns the read-only column frame ``BarrierLabels`` (a ``candles.Frame``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import write_csv
from .candles import CandleSeries, Frame, check_horizon, column

VERTICAL_ZERO = "ZERO"
VERTICAL_SIGN = "SIGN"

HIT_UPPER = "UPPER"
HIT_LOWER = "LOWER"
HIT_VERTICAL = "VERTICAL"
HIT_AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class BarrierConfig:
    """Fractional barrier distances, a vertical barrier in bars, and the
    vertical-touch labeling rule (ZERO -> 0, SIGN -> sign of the move, the
    series' ``forward_return(horizon)``, with no move counting as down)."""

    up_pct: float = 0.02
    down_pct: float = 0.02
    horizon: int = 5
    vertical_rule: str = VERTICAL_SIGN
    ambiguous_to_lower: bool = False

    def __post_init__(self):
        if not (0 < self.up_pct < math.inf and 0 < self.down_pct < math.inf):
            raise ValueError(f"barrier distances must be finite and > 0, "
                             f"got {self.up_pct}, {self.down_pct}")
        if not self.down_pct < 1:
            raise ValueError(f"down_pct must be < 1, got {self.down_pct}: the lower barrier "
                             f"would sit at or below zero price, where no low can reach it")
        check_horizon(self.horizon)
        if self.vertical_rule not in (VERTICAL_ZERO, VERTICAL_SIGN):
            raise ValueError(f"vertical_rule must be ZERO or SIGN, got {self.vertical_rule!r}")


@dataclass(frozen=True, eq=False)
class BarrierLabels(Frame):
    """Label columns, one row per labeled ``entry`` (a bar index): ``label``
    in {-1, 0, 1}, ``hit_bar`` (bars from the entry to the touch, or the
    horizon) and ``hit_kind``."""

    entry: np.ndarray = column(np.int64)
    label: np.ndarray = column(np.int64)
    hit_bar: np.ndarray = column(np.int64)
    hit_kind: np.ndarray = column(str)


# hit_kind by code: 0 UPPER, 1 LOWER, 2 AMBIGUOUS, 3 VERTICAL.
_HIT_KINDS = np.array([HIT_UPPER, HIT_LOWER, HIT_AMBIGUOUS, HIT_VERTICAL])


def label_series(series: CandleSeries, cfg: BarrierConfig, stride: int = 1) -> BarrierLabels:
    """Label every stride-th entry whose full horizon fits in the series, all
    at once.

    Row i of each window view holds bars entry+1 .. entry+horizon of one
    entry; the first touch of a barrier is the ``argmax`` of its touch mask,
    with ``horizon`` standing for no touch.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    h = cfg.horizon
    idx = np.arange(0, len(series) - h, stride)
    m = idx.size
    if m == 0:
        return BarrierLabels(idx, [], [], [])
    high = sliding_window_view(series.high[1:], h)[::stride]
    low = sliding_window_view(series.low[1:], h)[::stride]
    entry_price = series.close[idx]
    # An upper barrier past the largest float is inf, which no finite high
    # reaches: the barrier is out of reach, as it is just below that.
    with np.errstate(over="ignore"):
        upper = entry_price * (1.0 + cfg.up_pct)
    lower = entry_price * (1.0 - cfg.down_pct)

    def first_touch(touch):
        bar = touch.argmax(axis=1)
        return np.where(touch[np.arange(m), bar], bar, h)

    up_bar = first_touch(high >= upper[:, None])
    down_bar = first_touch(low <= lower[:, None])
    first = np.minimum(up_bar, down_bar)
    kind = np.select([up_bar < down_bar, down_bar < up_bar, first < h], [0, 1, 2], 3)

    # Same bar crossed both barriers: the barrier nearer the bar's open.
    bar_open = series.open[idx + 1 + np.minimum(first, h - 1)]
    ambiguous = -1 if cfg.ambiguous_to_lower else np.where(
        np.abs(upper - bar_open) < np.abs(bar_open - lower), 1, -1)
    vertical = 0 if cfg.vertical_rule == VERTICAL_ZERO else np.where(
        series.forward_return(h)[idx] > 0, 1, -1)
    label = np.choose(kind, (1, -1, ambiguous, vertical))
    return BarrierLabels(idx, label, np.minimum(first + 1, h), _HIT_KINDS[kind])


def write_barrier_labels_csv(series: CandleSeries, labeled: BarrierLabels, path: str) -> None:
    write_csv(path, ("timestamp", "label", "hit_kind", "hit_bar"),
              [series.timestamps[labeled.entry], labeled.label, labeled.hit_kind,
               labeled.hit_bar])
