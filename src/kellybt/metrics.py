"""Performance metrics: return, drawdown, monthly Sharpe, RoMaD, plus
classification and regression diagnostics for ingested predictions.

Monthly aggregation uses calendar-month boundaries on the curve's UTC
timestamps, partial first and last months included; months with no curve
points carry the bankroll forward (zero return). Month keys come from one
``datetime64[s]`` -> ``datetime64[M]`` cast of the timestamp column, so
timestamps must be non-decreasing. Standard deviations use the sample (n-1)
convention throughout. The risk-free rate defaults to 0. ``build_report``
computes the monthly returns and the drawdown once and shares them between
Sharpe and RoMaD.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .backtest import EquityCurve, Trade
from .features import LabelSet
from .predictors import DirectionPrediction

FLAG_RUIN = "RUIN"
FLAG_ROMAD_NA = "ROMAD_NA"
FLAG_SHARPE_NA = "SHARPE_NA"

_PNL = attrgetter("pnl_fraction")


@dataclass(frozen=True)
class BacktestReport:
    cumulative_return_pct: float
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
    ts = np.asarray(curve.timestamps)
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("equity curve timestamps must be non-decreasing")
    month = ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    month -= month[0]
    # The last point of each month sets its value; empty months carry the
    # previous value forward.
    last = np.flatnonzero(np.append(month[1:] != month[:-1], True))
    has_point = np.zeros(int(month[-1]) + 1, dtype=np.intp)
    has_point[month[last]] = 1
    value = np.asarray(curve.values, dtype=np.float64)[last][np.cumsum(has_point) - 1]
    prev = np.concatenate(([float(curve.values[0])], value[:-1]))
    if (prev == 0).any():
        raise ValueError("equity curve is zero before its last month")
    return value / prev - 1.0


def _sharpe(rets: np.ndarray, rf_monthly: float) -> float | None:
    if rets.size < 2:
        raise ValueError(
            f"Sharpe needs a curve spanning at least 2 calendar months, got {rets.size}"
        )
    std = float(rets.std(ddof=1))
    if std == 0:
        return None
    return (float(rets.mean()) - rf_monthly) / std


def _romad(rets: np.ndarray, drawdown_pct: float) -> float | None:
    dd = drawdown_pct / 100.0
    if dd == 0:
        return None
    return float(rets.mean()) / dd


def sharpe_monthly(curve: EquityCurve, rf_monthly: float = 0.0) -> float | None:
    """Mean monthly excess return over its sample stddev; None when the
    variance is zero."""
    return _sharpe(monthly_returns(curve), rf_monthly)


def romad(curve: EquityCurve) -> float | None:
    """Mean monthly return over maximum drawdown (both fractions); None when
    the drawdown is zero."""
    return _romad(monthly_returns(curve), max_drawdown(curve))


def build_report(curve: EquityCurve, trades: list[Trade]) -> BacktestReport:
    rets = monthly_returns(curve)
    drawdown_pct = max_drawdown(curve)
    flags: list[str] = []
    if curve.ruin:
        flags.append(FLAG_RUIN)
    try:
        sharpe = _sharpe(rets, 0.0)
    except ValueError:
        sharpe = None
    if sharpe is None:
        flags.append(FLAG_SHARPE_NA)
    rho = _romad(rets, drawdown_pct)
    if rho is None:
        flags.append(FLAG_ROMAD_NA)
    wins = int((np.fromiter(map(_PNL, trades), np.float64, len(trades)) > 0).sum())
    return BacktestReport(
        cumulative_return_pct=cumulative_return(curve),
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
    logloss: float
    down: ClassMetrics
    up: ClassMetrics
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: tuple[int, int, int, int]  # (tn, fp, fn, tp)


def _align(predictions: list[DirectionPrediction], labels: LabelSet):
    by_ts = {int(t): i for i, t in enumerate(labels.timestamps)}
    pairs = [(p.p_up, int(labels.direction[by_ts[p.timestamp]]))
             for p in predictions if p.timestamp in by_ts]
    if not pairs:
        raise ValueError("no overlapping timestamps between predictions and labels")
    p = np.array([x[0] for x in pairs], dtype=np.float64)
    y = np.array([1 if x[1] > 0 else 0 for x in pairs], dtype=np.int64)
    return p, y


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def classification_report(predictions: list[DirectionPrediction], labels: LabelSet,
                          threshold: float = 0.5) -> ClassificationReport:
    """Logloss, per-class precision/recall/F1 with macro and weighted
    averages, and confusion counts. Predicted up means p_up > threshold;
    undefined precision/recall fall back to 0."""
    p, y = _align(predictions, labels)
    logloss = float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)).mean())
    pred = (p > threshold).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())

    def _safe(num, den):
        return num / den if den else 0.0

    up = ClassMetrics(_safe(tp, tp + fp), _safe(tp, tp + fn),
                      _f1(_safe(tp, tp + fp), _safe(tp, tp + fn)), tp + fn)
    down = ClassMetrics(_safe(tn, tn + fn), _safe(tn, tn + fp),
                        _f1(_safe(tn, tn + fn), _safe(tn, tn + fp)), tn + fp)
    total = up.support + down.support
    return ClassificationReport(
        logloss=logloss,
        down=down,
        up=up,
        macro_precision=(down.precision + up.precision) / 2,
        macro_recall=(down.recall + up.recall) / 2,
        macro_f1=(down.f1 + up.f1) / 2,
        weighted_precision=(down.precision * down.support + up.precision * up.support) / total,
        weighted_recall=(down.recall * down.support + up.recall * up.support) / total,
        weighted_f1=(down.f1 * down.support + up.f1 * up.support) / total,
        confusion=(tn, fp, fn, tp),
    )


def precision_recall_points(predictions: list[DirectionPrediction],
                            labels: LabelSet) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) points for the up class, for plotting."""
    p, y = _align(predictions, labels)
    points = []
    for thr in sorted(set(p.tolist())):
        pred = p > thr
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        points.append((float(thr), precision, recall))
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
