"""Performance metrics: return, drawdown, monthly Sharpe, RoMaD, plus
classification and regression diagnostics for ingested predictions.

Monthly aggregation uses calendar-month boundaries on the curve's UTC
timestamps, partial first and last months included; months with no curve
points carry the bankroll forward (zero return). Month keys come from one
``datetime64[s]`` -> ``datetime64[M]`` cast of the timestamp column, so
timestamps must be non-decreasing. Standard deviations use the sample (n-1)
convention throughout. Sharpe takes a zero risk-free rate. ``build_report``
computes the monthly returns and the drawdown once and shares them between
Sharpe and RoMaD. A run that halted before its bankroll passed the largest
float (``OVERFLOW``) can end near it; a figure of its report that cannot be
held as a float (the cumulative return in percent, or a Sharpe or RoMaD of
monthly returns that overflow) is None, so every report is strict JSON.
Of kellybt, only ``candles`` is imported at run time; the frame types are
annotations only, so ``backtest`` can import ``build_report`` from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candles import positions

if TYPE_CHECKING:
    from .backtest import EquityCurve, Trades
    from .features import LabelSet
    from .predictors import Predictions

FLAG_RUIN = "RUIN"
FLAG_OVERFLOW = "OVERFLOW"
FLAG_ROMAD_NA = "ROMAD_NA"
FLAG_SHARPE_NA = "SHARPE_NA"


@dataclass(frozen=True)
class BacktestReport:
    cumulative_return_pct: float | None
    max_drawdown_pct: float
    sharpe: float | None
    romad: float | None
    trade_count: int
    win_rate: float
    flags: tuple[str, ...] = ()


def cumulative_return(curve: EquityCurve) -> float:
    """(V_end - V_start) / V_start, in percent."""
    if len(curve) == 0:
        raise ValueError("empty equity curve")
    v = curve.values
    return (float(v[-1]) - float(v[0])) / float(v[0]) * 100.0


def max_drawdown(curve: EquityCurve) -> float:
    """Largest peak-to-trough drop relative to the running peak, in percent."""
    if len(curve) == 0:
        raise ValueError("empty equity curve")
    v = curve.values
    if v[0] <= 0 or np.any(v < 0):
        raise ValueError("equity curve values must be positive (zero only at ruin)")
    peaks = np.maximum.accumulate(v)
    return float(((peaks - v) / peaks).max()) * 100.0


def monthly_returns(curve: EquityCurve) -> np.ndarray:
    """Calendar-month compounded returns over the curve's span."""
    if len(curve) == 0:
        raise ValueError("empty equity curve")
    ts = curve.timestamps
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("equity curve timestamps must be non-decreasing")
    month = ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    month -= month[0]
    # The last point of each month sets its value; empty months carry the
    # previous value forward.
    last = np.flatnonzero(np.append(month[1:] != month[:-1], True))
    has_point = np.zeros(int(month[-1]) + 1, dtype=np.intp)
    has_point[month[last]] = 1
    value = curve.values[last][np.cumsum(has_point) - 1]
    prev = np.concatenate(([float(curve.values[0])], value[:-1]))
    if (prev == 0).any():
        raise ValueError("equity curve is zero before its last month")
    return value / prev - 1.0


def _sharpe(rets: np.ndarray) -> float | None:
    if rets.size < 2:
        raise ValueError(
            f"Sharpe needs a curve spanning at least 2 calendar months, got {rets.size}"
        )
    std = float(rets.std(ddof=1))
    if not 0 < std < math.inf:  # also NaN: returns that overflow
        return None
    return float(rets.mean()) / std


def _romad(rets: np.ndarray, drawdown_pct: float) -> float | None:
    dd = drawdown_pct / 100.0
    if dd == 0:
        return None
    return float(rets.mean()) / dd


def sharpe_monthly(curve: EquityCurve) -> float | None:
    """Mean monthly return over its sample stddev (a zero risk-free rate);
    None when the variance is zero."""
    return _sharpe(monthly_returns(curve))


def romad(curve: EquityCurve) -> float | None:
    """Mean monthly return over maximum drawdown (both fractions); None when
    the drawdown is zero."""
    return _romad(monthly_returns(curve), max_drawdown(curve))


def _finite(x: float | None) -> float | None:
    """``x``, or None when it is None, infinite or NaN."""
    return x if x is not None and math.isfinite(x) else None


def build_report(curve: EquityCurve, trades: Trades) -> BacktestReport:
    # Near the largest float a month's return or its moments can overflow;
    # ``_finite`` makes such a figure None.
    with np.errstate(over="ignore", invalid="ignore"):
        rets = monthly_returns(curve)
        drawdown_pct = max_drawdown(curve)
        try:
            sharpe = _finite(_sharpe(rets))
        except ValueError:
            sharpe = None
        rho = _finite(_romad(rets, drawdown_pct))
    flags = [flag for flag, raised in ((FLAG_RUIN, curve.ruin), (FLAG_OVERFLOW, curve.overflow),
                                       (FLAG_SHARPE_NA, sharpe is None),
                                       (FLAG_ROMAD_NA, rho is None)) if raised]
    wins = int((trades.pnl_fraction > 0).sum())
    return BacktestReport(
        cumulative_return_pct=_finite(cumulative_return(curve)),
        max_drawdown_pct=drawdown_pct,
        sharpe=sharpe,
        romad=rho,
        trade_count=len(trades),
        win_rate=wins / len(trades) if trades else 0.0,
        flags=tuple(flags),
    )


# --- prediction diagnostics --------------------------------------------------


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassificationReport:
    """The ``classification.json`` layout: ``macro`` and ``weighted`` map
    precision, recall and f1 to their averages over the two classes, and
    ``confusion`` maps tn, fp, fn and tp to their counts."""

    logloss: float
    down: ClassMetrics
    up: ClassMetrics
    macro: dict[str, float]
    weighted: dict[str, float]
    confusion: dict[str, int]


def _align(predictions: Predictions, labels: LabelSet):
    """p_up of each prediction that has a label, and that label as 1 (up) or 0."""
    pos, found = positions(labels.timestamps, predictions.timestamps)
    if not found.any():
        raise ValueError("no overlapping timestamps between predictions and labels")
    return predictions.p_up[found], (labels.direction[pos[found]] > 0).astype(np.int64)


def classification_report(predictions: Predictions, labels: LabelSet,
                          threshold: float = 0.5) -> ClassificationReport:
    """Logloss, per-class precision/recall/F1 with macro and weighted
    averages, and confusion counts. Predicted up means p_up > threshold,
    for a threshold in [0, 1]; undefined precision/recall fall back to 0."""
    if not 0 <= threshold <= 1:  # negated so NaN fails too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    p, y = _align(predictions, labels)
    logloss = float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)).mean())
    pred = (p > threshold).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())

    def of_class(hit, false_alarm, miss):
        precision = hit / (hit + false_alarm) if hit + false_alarm else 0.0
        recall = hit / (hit + miss) if hit + miss else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return ClassMetrics(precision, recall, f1, hit + miss)

    up, down = of_class(tp, fp, fn), of_class(tn, fn, fp)

    def average(w_down, w_up):
        return {k: (getattr(down, k) * w_down + getattr(up, k) * w_up) / (w_down + w_up)
                for k in ("precision", "recall", "f1")}

    return ClassificationReport(logloss, down, up, macro=average(1, 1),
                                weighted=average(down.support, up.support),
                                confusion={"tn": tn, "fp": fp, "fn": fn, "tp": tp})


def precision_recall_points(predictions: Predictions, labels: LabelSet) -> np.ndarray:
    """(threshold, precision, recall) points for the up class, for plotting:
    one float64 row per distinct probability, in increasing order.

    At each threshold, predicted up means p_up above it; the counts come
    from binary searches over the sorted probabilities of each class, and
    each ratio of two counts is correctly rounded, as Python's int division is."""
    p, y = _align(predictions, labels)
    # Not np.unique: its first call imports numpy.ma, about 9 ms of a report.
    ordered = np.sort(p)
    thresholds = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    up, down = np.sort(p[y == 1]), np.sort(p[y == 0])
    tp = (up.size - np.searchsorted(up, thresholds, side="right")).astype(np.float64)
    predicted = tp + (down.size - np.searchsorted(down, thresholds, side="right"))
    points = np.empty((thresholds.size, 3))
    points[:, 0] = thresholds
    points[:, 1] = 1.0  # the precision where nothing is predicted up
    np.divide(tp, predicted, out=points[:, 1], where=predicted > 0)
    points[:, 2] = tp / up.size if up.size else 0.0
    return points


@dataclass(frozen=True)
class RegressionReport:
    mae: float
    mse: float
    rmse: float
    r2: float | None


def regression_report(estimates, actuals) -> RegressionReport:
    """MAE / MSE / RMSE / R-squared of predicted vs realized fractional
    changes. Zero-variance actuals leave R-squared undefined (None)."""
    est = np.asarray(estimates, dtype=np.float64)
    act = np.asarray(actuals, dtype=np.float64)
    if est.size == 0 or est.shape != act.shape:
        raise ValueError(f"estimates and actuals must align, got {est.shape} vs {act.shape}")
    err = est - act
    mae = float(np.abs(err).mean())
    mse = float((err ** 2).mean())
    sst = float(((act - act.mean()) ** 2).sum())
    r2 = None if sst == 0 else 1.0 - float((err ** 2).sum()) / sst
    return RegressionReport(mae, mse, math.sqrt(mse), r2)
