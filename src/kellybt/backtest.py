"""Trading loop: align predictions and estimates, size, hold, compound.

Fills happen at the decision bar's close and exits at the close ``horizon``
bars later. The default stride equals the horizon, so positions never
overlap; with stride < horizon each position's exposure is divided by the
maximum number of concurrently open trades (ceil(horizon/stride)) so
aggregate exposure never exceeds the leverage cap.

Flat decisions are recorded as zero-fraction trades so that every policy
run over the same inputs produces the same trade timestamps, which keeps
strategy comparisons aligned row for row.

A run splits in two. ``decision_grid`` matches the prediction timestamps and
the scenario frame to bars and to each other with ``candles.positions``,
drops what no policy trades (no scenario, no room for the horizon), walks the
stride lattice and gathers the entry and exit timestamps and prices, the
realized return (``CandleSeries.forward_return`` at the entry bar, the return
the labels and the scenario estimator read too), the predictions row and the
(a, b) of each chosen point as read-only arrays. The candidates' bars split
into runs of consecutive bars; a Python loop visits each run only to find its
first chosen bar, since each chosen point moves the next allowed bar and a
skipped one does not, and numpy takes every stride-th bar after it. The grid
reads no p, so it serves every policy and every predictions frame on the
timestamps it was built for; it holds those timestamps and its
``BacktestConfig``. A caller builds it once and passes it to each run:
``compare_strategies`` runs each of its policies over one grid, and the CLI's
``compare`` builds one per seed for all its simulators, whose predictions
share their labels' timestamps. ``run_backtest`` refuses predictions on other
timestamps, and calls ``decide`` once per chosen point, reading p (the
predictions' ``p_up`` at the grid's rows) and (a, b) through memoryviews, one
Python float at a time.
P&L is computed per column and the bankroll is ``np.cumprod`` of the growth
factors, the same left-to-right product as sequential compounding, bit for
bit. A run halts at ruin, and before the trade that would take the bankroll
past the largest float or to NaN (OVERFLOW: an inf P&L less an inf fee, or
the NaN Kelly fraction of subnormal (a, b)), so every point of the curve is
finite.
Trades and the equity curve come out as column frames (``candles.Frame``):
``Trades``, one row per trade with the ``trades.csv`` columns in header order,
and ``EquityCurve``. ``run_backtest`` flags the arrays it computes read-only,
so both frames hold them, and the grid's views, without a copy.
``compare_strategies`` reports each run with ``metrics.build_report``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .candles import CandleSeries, Frame, _cast, check_horizon, column, positions
from .metrics import BacktestReport, build_report
from .predictors import Predictions, Scenarios
from .sizing import SIDE_FLAT, SIDE_LONG, SIDE_SHORT, SizingPolicy, decide

# Trade side by code: 0 FLAT, 1 LONG, 2 SHORT.
_SIDES = np.array([SIDE_FLAT, SIDE_LONG, SIDE_SHORT])


@dataclass(frozen=True)
class BacktestConfig:
    horizon: int = 5
    stride: int | None = None  # None -> horizon (non-overlapping)
    fee_rate: float = 0.0
    initial_bankroll: float = 1.0
    ruin_floor: float = 0.01

    def __post_init__(self):
        check_horizon(self.horizon)
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


@dataclass(frozen=True, eq=False)
class Trades(Frame):
    """One row per trade in entry order; the fields are the ``trades.csv``
    header. ``side`` is LONG, SHORT or FLAT, ``fraction`` the bankroll
    fraction after the overlap divisor, ``pnl_fraction`` the bankroll change
    after fees."""

    entry_ts: np.ndarray = column(np.int64)
    exit_ts: np.ndarray = column(np.int64)
    side: np.ndarray = column(str)
    fraction: np.ndarray = column(np.float64)
    entry_price: np.ndarray = column(np.float64)
    exit_price: np.ndarray = column(np.float64)
    realized_return: np.ndarray = column(np.float64)
    pnl_fraction: np.ndarray = column(np.float64)


@dataclass(frozen=True, eq=False)
class EquityCurve(Frame):
    """Compounding bankroll path: one point per trade exit plus the start.
    Its timestamps need not increase strictly (``metrics.monthly_returns``
    asks only that they never decrease), so a hand-built curve may repeat one.
    ``ruin`` and ``overflow`` tell why a run halted, if it did."""

    timestamps: np.ndarray = column(np.int64)
    values: np.ndarray = column(np.float64)
    ruin: bool = False
    overflow: bool = False


def _series_positions(timestamps: np.ndarray, query: np.ndarray, what: str) -> np.ndarray:
    """Series index of each query timestamp; ValueError naming the first one
    that is not in the series."""
    pos, found = positions(timestamps, query)
    if not found.all():
        raise ValueError(f"{what} timestamp {query[np.argmin(found)]} is not in the series")
    return pos


class DecisionGrid(NamedTuple):
    """The decision points of one series, prediction timestamps, scenario
    frame and config, which every run over them trades: read-only columns,
    one row per chosen point, each with the predictions row that holds its p
    and its (a, b); then the prediction timestamps and the config the grid
    was built for."""

    entry_ts: np.ndarray
    exit_ts: np.ndarray
    entry_price: np.ndarray
    exit_price: np.ndarray
    realized: np.ndarray
    rows: np.ndarray
    a: np.ndarray
    b: np.ndarray
    timestamps: np.ndarray
    cfg: BacktestConfig


def decision_grid(series: CandleSeries, prediction_timestamps: np.ndarray,
                  estimates: Scenarios, cfg: BacktestConfig = BacktestConfig()) -> DecisionGrid:
    """Align, validate and walk the stride lattice; gather what each chosen
    point trades at.

    Decisions fall on a stride lattice over the prediction timestamps that
    carry a scenario and have room for the horizon; the others are skipped
    by every policy, so each trades the same grid."""
    ts = series.timestamps
    horizon, stride = cfg.horizon, cfg.effective_stride
    pred_ts = _cast("prediction timestamps", prediction_timestamps, np.int64)
    pred_ts.setflags(write=False)
    pred_pos = _series_positions(ts, pred_ts, "prediction")
    _series_positions(ts, estimates.timestamps, "estimate")
    est_at, has_est = positions(estimates.timestamps, pred_ts)
    # Not pred_pos + horizon: a horizon near the int64 limit would wrap it.
    candidates = np.flatnonzero(has_est & (pred_pos < len(series) - horizon))
    if not candidates.size:
        raise ValueError("no usable decision timestamps (check alignment and estimates)")

    # The candidates' bars strictly increase; split them into runs of
    # consecutive bars. Only a run's first chosen bar depends on the points
    # chosen before it (a skipped bar does not move the lattice), so the walk
    # visits each run once and numpy takes every stride-th bar after that one.
    bars = pred_pos[candidates]
    breaks = np.flatnonzero(np.diff(bars) != 1)  # where a run ends and the next starts
    starts = bars[np.concatenate(([0], breaks + 1))]
    ends = bars[np.append(breaks, bars.size - 1)]
    firsts: list[int] = []
    next_allowed = -1
    for bar, end in zip(starts.tolist(), ends.tolist()):
        if next_allowed <= end:
            if next_allowed < bar:
                next_allowed = bar
            firsts.append(next_allowed)
            next_allowed += ((end - next_allowed) // stride + 1) * stride
    first = np.array(firsts, np.intp)
    # A stride past every run takes one bar of each, and stays in int64.
    lattice = min(stride, bars.size)
    counts = (ends[np.searchsorted(ends, first)] - first) // lattice + 1
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    chosen = np.repeat(np.searchsorted(bars, first), counts) + lattice * step

    rows = candidates[chosen]
    entry_at = bars[chosen]
    exit_at = entry_at + horizon
    at = est_at[rows]
    columns = (ts[entry_at], ts[exit_at], series.close[entry_at], series.close[exit_at],
               series.forward_return(horizon)[entry_at], rows, estimates.a[at], estimates.b[at])
    for col in columns:
        col.setflags(write=False)
    return DecisionGrid(*columns, pred_ts, cfg)


def run_backtest(grid: DecisionGrid, predictions: Predictions, policy: SizingPolicy):
    """Run one policy over the grid; returns (EquityCurve, Trades).

    ``predictions`` must be on the timestamps the grid was built for. Horizon,
    stride, fees, bankroll and ruin floor come from ``grid.cfg``. The
    simulation halts with the RUIN flag if the bankroll falls to ruin_floor *
    initial, and with the OVERFLOW flag before the trade that would take it
    past the largest float or to NaN.
    """
    if not (predictions.timestamps is grid.timestamps
            or np.array_equal(predictions.timestamps, grid.timestamps)):
        raise ValueError("predictions are not on the timestamps the decision grid was built for")
    cfg = grid.cfg
    divisor = -(-cfg.horizon // cfg.effective_stride)  # ceil(horizon / stride), in ints

    p_up = predictions.p_up[grid.rows]
    # A memoryview yields the Python floats that tolist would, one at a time.
    scenarios = zip(memoryview(grid.a), memoryview(grid.b))
    decisions = map(decide, memoryview(p_up), scenarios, repeat(policy))
    fraction = np.fromiter(map(attrgetter("fraction"), decisions), np.float64, len(p_up))
    # decide's side, read from the sign before the divisor can round a
    # subnormal to 0: NaN, 0.0 and -0.0 are FLAT.
    side = _SIDES[(fraction > 0) + 2 * (fraction < 0)]
    fraction /= divisor

    initial = cfg.initial_bankroll
    floor = cfg.ruin_floor * initial
    with np.errstate(over="ignore", invalid="ignore"):  # an inf fee is ruin; halted before an inf
        pnl = fraction * grid.realized - cfg.fee_rate * np.abs(fraction) * 2.0
        # A fee past the largest float is a loss past it too: written as the
        # most negative float, not -inf. NaN stays NaN.
        np.maximum(pnl, -np.finfo(np.float64).max, out=pnl)
        values = np.cumprod(np.concatenate(([float(initial)], 1.0 + pnl)))
    # Negated, so that NaN ends the run too.
    end = np.flatnonzero(~((values[1:] > floor) & (values[1:] < math.inf)))
    m = int(end[0]) + 1 if end.size else len(pnl)
    ruin = end.size > 0 and bool(values[m] <= floor)
    overflow = end.size > 0 and not ruin
    if overflow:
        m -= 1  # the trade that would pass the largest float, or give NaN, is not made
    if ruin and values[m] < 0.0:
        # A leveraged loss beyond -100% is a wipeout, not a debt.
        values[m] = 0.0

    timestamps = np.concatenate((grid.entry_ts[:1], grid.exit_ts[:m]))
    for col in (fraction, side, pnl, values, timestamps):
        col.setflags(write=False)  # so the frames hold them, not copies
    trades = Trades(grid.entry_ts[:m], grid.exit_ts[:m], side[:m], fraction[:m],
                    grid.entry_price[:m], grid.exit_price[:m], grid.realized[:m], pnl[:m])
    curve = EquityCurve(timestamps, values[:m + 1], ruin=ruin, overflow=overflow)
    return curve, trades


@dataclass(frozen=True)
class StrategyResult:
    """One policy's outcome over the shared decision grid."""

    policy: SizingPolicy
    curve: EquityCurve
    trades: Trades = field(repr=False)
    report: BacktestReport


def compare_strategies(grid: DecisionGrid, predictions: Predictions,
                       policies: list[SizingPolicy]) -> list[StrategyResult]:
    """Run each policy over one grid, against identical predictions."""
    if not policies:
        raise ValueError("need at least one policy")
    results = []
    for policy in policies:
        curve, trades = run_backtest(grid, predictions, policy)
        results.append(StrategyResult(policy, curve, trades, build_report(curve, trades)))
    return results


def write_trades_csv(trades: Trades, path: str) -> None:
    header = [f.name for f in fields(trades)]
    write_csv(path, header, [getattr(trades, name) for name in header])


def write_equity_csv(curve: EquityCurve, path: str) -> None:
    write_csv(path, ("timestamp", "bankroll"), [curve.timestamps, curve.values])
