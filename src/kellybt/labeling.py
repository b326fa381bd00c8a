"""Triple-barrier labeling: two price barriers plus one time barrier.

Barrier touches are intrabar (high/low), matching how take-profit and
stop-loss orders execute. When one bar crosses both barriers the intrabar
ordering is unknowable from OHLC, so the label resolves to the barrier
nearer the bar's open (hit_kind AMBIGUOUS); ``ambiguous_to_lower`` forces
the pessimistic reading instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .candles import CandleSeries

VERTICAL_ZERO = "ZERO"
VERTICAL_SIGN = "SIGN"

HIT_UPPER = "UPPER"
HIT_LOWER = "LOWER"
HIT_VERTICAL = "VERTICAL"
HIT_AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class BarrierConfig:
    """Fractional barrier distances, a vertical barrier in bars, and the
    vertical-touch labeling rule (ZERO -> 0, SIGN -> sign of the move)."""

    up_pct: float = 0.02
    down_pct: float = 0.02
    horizon: int = 5
    vertical_rule: str = VERTICAL_SIGN
    ambiguous_to_lower: bool = False

    def __post_init__(self):
        if not (0 < self.up_pct < math.inf and 0 < self.down_pct < math.inf):
            raise ValueError(f"barrier distances must be finite and > 0, "
                             f"got {self.up_pct}, {self.down_pct}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.vertical_rule not in (VERTICAL_ZERO, VERTICAL_SIGN):
            raise ValueError(f"vertical_rule must be ZERO or SIGN, got {self.vertical_rule!r}")


@dataclass(frozen=True)
class BarrierLabel:
    label: int
    hit_bar: int
    hit_kind: str


def triple_barrier_label(series: CandleSeries, entry: int, cfg: BarrierConfig) -> BarrierLabel:
    """Label one entry by the first barrier its forward path touches.

    Scans bars entry+1 .. entry+horizon; a bar touches UPPER when its high
    reaches entry_price*(1+up_pct), LOWER when its low reaches
    entry_price*(1-down_pct). No touch falls through to the vertical rule.
    """
    n = len(series)
    if not 0 <= entry < n:
        raise ValueError(f"entry index {entry} out of range")
    if entry + cfg.horizon >= n:
        raise ValueError(
            f"horizon {cfg.horizon} from entry {entry} extends past series end {n}"
        )
    entry_price = float(series.close[entry])
    upper = entry_price * (1.0 + cfg.up_pct)
    lower = entry_price * (1.0 - cfg.down_pct)

    lo, hi = entry + 1, entry + cfg.horizon + 1
    up_touch = series.high[lo:hi] >= upper
    down_touch = series.low[lo:hi] <= lower
    up_bar = int(np.argmax(up_touch)) if up_touch.any() else None
    down_bar = int(np.argmax(down_touch)) if down_touch.any() else None

    if up_bar is not None and (down_bar is None or up_bar < down_bar):
        return BarrierLabel(1, up_bar + 1, HIT_UPPER)
    if down_bar is not None and (up_bar is None or down_bar < up_bar):
        return BarrierLabel(-1, down_bar + 1, HIT_LOWER)
    if up_bar is not None:
        # Same bar crossed both barriers.
        if cfg.ambiguous_to_lower:
            return BarrierLabel(-1, up_bar + 1, HIT_AMBIGUOUS)
        bar_open = float(series.open[lo + up_bar])
        label = 1 if abs(upper - bar_open) < abs(bar_open - lower) else -1
        return BarrierLabel(label, up_bar + 1, HIT_AMBIGUOUS)

    if cfg.vertical_rule == VERTICAL_ZERO:
        return BarrierLabel(0, cfg.horizon, HIT_VERTICAL)
    end_close = float(series.close[entry + cfg.horizon])
    return BarrierLabel(1 if end_close > entry_price else -1, cfg.horizon, HIT_VERTICAL)


def label_series(series: CandleSeries, cfg: BarrierConfig,
                 stride: int = 1) -> list[tuple[int, BarrierLabel]]:
    """Label every stride-th entry whose full horizon fits in the series."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    out = []
    for entry in range(0, len(series) - cfg.horizon, stride):
        out.append((entry, triple_barrier_label(series, entry, cfg)))
    return out


def write_barrier_labels_csv(series: CandleSeries,
                             labeled: list[tuple[int, BarrierLabel]], path: str) -> None:
    write_csv(path, ("timestamp", "label", "hit_kind", "hit_bar"),
              [series.timestamps[[entry for entry, _ in labeled]],
               [lab.label for _, lab in labeled],
               [lab.hit_kind for _, lab in labeled], [lab.hit_bar for _, lab in labeled]])
