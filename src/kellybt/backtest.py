"""Trading loop: align predictions and estimates, size, hold, compound.

Fills happen at the decision bar's close and exits at the close ``horizon``
bars later. The default stride equals the horizon, so positions never
overlap; with stride < horizon each position's exposure is divided by the
maximum number of concurrently open trades (ceil(horizon/stride)) so
aggregate exposure never exceeds the leverage cap.

Flat decisions are recorded as zero-fraction trades so that every policy
run over the same inputs produces the same trade timestamps, which keeps
strategy comparisons aligned row for row.

Prediction and scenario frames are matched to bars and to each other with
``candles.positions``, which also drops what cannot trade (no scenario, no
room for the horizon) before the stride lattice is walked over plain ints;
``decide`` runs once per chosen point and ``Trade`` tuples come out. P&L is
computed per column and the bankroll is ``np.cumprod`` of the growth
factors, the same left-to-right product as sequential compounding, bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .candles import CandleSeries, positions
from .predictors import Predictions, Scenarios
from .sizing import SizingPolicy, decide

_FRACTION = attrgetter("fraction")
_SIDE = attrgetter("side")


@dataclass(frozen=True)
class BacktestConfig:
    horizon: int = 5
    stride: int | None = None  # None -> horizon (non-overlapping)
    fee_rate: float = 0.0
    initial_bankroll: float = 1.0
    ruin_floor: float = 0.01

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.stride is not None and self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not 0 <= self.fee_rate < math.inf:  # negated so NaN fails too
            raise ValueError(f"fee_rate must be finite and >= 0, got {self.fee_rate}")
        if not 0 < self.initial_bankroll < math.inf:
            raise ValueError(f"initial_bankroll must be finite and > 0, "
                             f"got {self.initial_bankroll}")
        if not 0 <= self.ruin_floor < 1:
            raise ValueError(f"ruin_floor must be in [0, 1), got {self.ruin_floor}")

    @property
    def effective_stride(self) -> int:
        return self.horizon if self.stride is None else self.stride


class Trade(NamedTuple):
    entry_ts: int
    exit_ts: int
    side: str
    fraction: float
    entry_price: float
    exit_price: float
    realized_return: float
    pnl_fraction: float


@dataclass(frozen=True)
class EquityCurve:
    """Compounding bankroll path: one point per trade exit plus the start."""

    timestamps: np.ndarray
    values: np.ndarray
    ruin: bool = False

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _series_positions(timestamps: np.ndarray, frame, what: str) -> np.ndarray:
    """Series index of each of the frame's timestamps; ValueError naming the
    first one that is not in the series."""
    pos, found = positions(timestamps, frame.timestamps)
    if not found.all():
        missing = frame.timestamps[np.argmin(found)]
        raise ValueError(f"{what} timestamp {missing} is not in the series")
    return pos


def run_backtest(series: CandleSeries, predictions: Predictions,
                 estimates: Scenarios | None, policy: SizingPolicy,
                 cfg: BacktestConfig = BacktestConfig()):
    """Run one policy over the series; returns (EquityCurve, list of Trade).

    Decisions fall on a stride lattice over timestamps that carry a
    prediction and (when estimates are supplied) a scenario; timestamps
    without a scenario are skipped. The simulation halts with the RUIN flag
    if the bankroll falls to ruin_floor * initial.
    """
    ts = series.timestamps
    n = len(series)
    horizon = cfg.horizon
    stride = cfg.effective_stride
    divisor = 1 if stride >= horizon else math.ceil(horizon / stride)

    pred_pos = _series_positions(ts, predictions, "prediction")
    usable = pred_pos + horizon < n
    if estimates is not None:
        _series_positions(ts, estimates, "estimate")
        est_at, has_est = positions(estimates.timestamps, predictions.timestamps)
        usable &= has_est
    candidates = np.flatnonzero(usable)

    # The lattice walk stays sequential: each chosen point moves the next
    # allowed index, and a skipped timestamp does not.
    chosen: list[int] = []
    next_allowed = -1
    for k, i in zip(candidates.tolist(), pred_pos[candidates].tolist()):
        if i >= next_allowed:
            chosen.append(k)
            next_allowed = i + stride

    if not chosen:
        raise ValueError("no usable decision timestamps (check alignment and estimates)")

    p_up = predictions.p_up[chosen].tolist()
    if estimates is None:
        scenarios = repeat(None)
    else:
        at = est_at[chosen]
        scenarios = zip(estimates.a[at].tolist(), estimates.b[at].tolist())
    decisions = list(map(decide, p_up, scenarios, repeat(policy)))

    entry_at = pred_pos[chosen]
    exit_at = entry_at + horizon
    fraction = np.fromiter(map(_FRACTION, decisions), np.float64, len(decisions)) / divisor
    entry_price = series.close[entry_at]
    exit_price = series.close[exit_at]
    realized = (exit_price - entry_price) / entry_price
    pnl = fraction * realized - cfg.fee_rate * np.abs(fraction) * 2.0

    initial = cfg.initial_bankroll
    values = np.cumprod(np.concatenate(([float(initial)], 1.0 + pnl)))
    hit = np.flatnonzero(values[1:] <= cfg.ruin_floor * initial)
    ruin = hit.size > 0
    if ruin:
        m = int(hit[0]) + 1
        values = values[:m + 1]
        if values[m] < 0.0:
            # A leveraged loss beyond -100% is a wipeout, not a debt.
            values[m] = 0.0
    else:
        m = len(chosen)

    exit_ts = ts[exit_at[:m]]
    trades = list(map(Trade, ts[entry_at[:m]].tolist(), exit_ts.tolist(),
                      map(_SIDE, decisions[:m]), fraction[:m].tolist(),
                      entry_price[:m].tolist(), exit_price[:m].tolist(),
                      realized[:m].tolist(), pnl[:m].tolist()))
    curve = EquityCurve(np.concatenate((ts[entry_at[:1]], exit_ts)), values, ruin=ruin)
    return curve, trades


@dataclass(frozen=True)
class StrategyResult:
    """One policy's outcome over the shared decision grid; ``report`` is a
    metrics.BacktestReport (typed loosely to keep metrics import one-way)."""

    policy: SizingPolicy
    curve: EquityCurve
    trades: list[Trade] = field(repr=False)
    report: object = None


def compare_strategies(series: CandleSeries, predictions: Predictions,
                       estimates: Scenarios | None,
                       policies: list[SizingPolicy],
                       cfg: BacktestConfig = BacktestConfig()) -> list[StrategyResult]:
    """Run each policy against identical predictions and trade timestamps."""
    from . import metrics

    if not policies:
        raise ValueError("need at least one policy")
    results = []
    for policy in policies:
        curve, trades = run_backtest(series, predictions, estimates, policy, cfg)
        results.append(StrategyResult(policy, curve, trades, metrics.build_report(curve, trades)))
    return results


def write_trades_csv(trades: list[Trade], path: str) -> None:
    write_csv(path, Trade._fields, list(zip(*trades)))


def write_equity_csv(curve: EquityCurve, path: str) -> None:
    write_csv(path, ("timestamp", "bankroll"), [curve.timestamps, curve.values])
