"""Trading loop: align predictions and estimates, size, hold, compound.

Fills happen at the decision bar's close and exits at the close ``horizon``
bars later. The default stride equals the horizon, so positions never
overlap; with stride < horizon each position's exposure is divided by the
maximum number of concurrently open trades (ceil(horizon/stride)) so
aggregate exposure never exceeds the leverage cap.

Flat decisions are recorded as zero-fraction trades so that every policy
run over the same inputs produces the same trade timestamps, which keeps
strategy comparisons aligned row for row.

Records cross the module boundary (predictions and estimates in, ``Trade``
tuples out, one ``decide`` call per lattice point) while the arithmetic runs
on numpy columns: timestamps are aligned with ``searchsorted``, prices and
P&L are computed per column in the order a per-trade loop would use, and the
bankroll is ``np.cumprod`` of the per-trade growth factors. ``cumprod`` is
the same left-to-right product as sequential compounding, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .candles import CandleSeries
from .predictors import DirectionPrediction, ScenarioEstimate
from .sizing import SizingPolicy, decide

_TIMESTAMP = attrgetter("timestamp")
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


def _series_positions(timestamps: np.ndarray, records, what: str) -> np.ndarray:
    """Series index of each record's timestamp; ValueError naming the first
    record whose timestamp is not in the series."""
    try:
        ts = np.fromiter(map(_TIMESTAMP, records), np.int64, len(records))
    except OverflowError:  # beyond int64, so not in the series
        pass
    else:
        pos = np.searchsorted(timestamps, ts)
        found = pos < timestamps.size
        found[found] = timestamps[pos[found]] == ts[found]
        if found.all():
            return pos
    known = set(timestamps.tolist())
    missing = next(r.timestamp for r in records if r.timestamp not in known)
    raise ValueError(f"{what} timestamp {missing} is not in the series")


def run_backtest(series: CandleSeries, predictions: list[DirectionPrediction],
                 estimates: list[ScenarioEstimate] | None, policy: SizingPolicy,
                 cfg: BacktestConfig = BacktestConfig()):
    """Run one policy over the series; returns (EquityCurve, list of Trade).

    Decisions fall on a stride lattice over timestamps that carry a
    prediction and (when estimates are supplied) a defined estimate;
    timestamps without an estimate are skipped. The simulation halts with
    the RUIN flag if the bankroll falls to ruin_floor * initial.
    """
    ts = series.timestamps
    pred_pos = _series_positions(ts, predictions, "prediction").tolist()
    est_at = None
    if estimates is not None:
        # A later estimate for the same timestamp replaces an earlier one.
        est_at = dict(zip(_series_positions(ts, estimates, "estimate").tolist(), estimates))

    n = len(series)
    horizon = cfg.horizon
    stride = cfg.effective_stride
    divisor = 1 if stride >= horizon else math.ceil(horizon / stride)

    # The lattice walk stays sequential: each chosen point moves the next
    # allowed index, and a point without an estimate does not.
    entries: list[int] = []
    decisions = []
    next_allowed = -1
    for i, p in zip(pred_pos, predictions):
        if i < next_allowed or i + horizon >= n:
            continue
        est = None
        if est_at is not None:
            est = est_at.get(i)
            if est is None:
                continue
        decisions.append(decide(p, est, policy))
        entries.append(i)
        next_allowed = i + stride

    if not entries:
        raise ValueError("no usable decision timestamps (check alignment and estimates)")

    entry_at = np.array(entries, dtype=np.intp)
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
        m = len(entries)

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


def compare_strategies(series: CandleSeries, predictions: list[DirectionPrediction],
                       estimates: list[ScenarioEstimate] | None,
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
    with open(path, "w", newline="") as fh:
        fh.write("entry_ts,exit_ts,side,fraction,entry_price,exit_price,"
                 "realized_return,pnl_fraction\n")
        for t in trades:
            fh.write(f"{t.entry_ts},{t.exit_ts},{t.side},{t.fraction!r},{t.entry_price!r},"
                     f"{t.exit_price!r},{t.realized_return!r},{t.pnl_fraction!r}\n")


def write_equity_csv(curve: EquityCurve, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,bankroll\n")
        for ts, v in zip(curve.timestamps, curve.values):
            fh.write(f"{int(ts)},{float(v)!r}\n")
