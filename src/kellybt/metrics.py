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
from .candles import positions
from .features import LabelSet
from .predictors import Predictions

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


def _align(predictions: Predictions, labels: LabelSet):
    """p_up of each prediction that has a label, and that label as 1 (up) or 0."""
    pos, found = positions(labels.timestamps, predictions.timestamps)
    if not found.any():
        raise ValueError("no overlapping timestamps between predictions and labels")
    return predictions.p_up[found], (labels.direction[pos[found]] > 0).astype(np.int64)


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


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


def precision_recall_points(predictions: Predictions,
                            labels: LabelSet) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) points for the up class, for plotting.

    At each distinct probability, predicted up means p_up above it; the
    counts come from binary searches over the sorted probabilities of each
    class, and the ratios are of Python ints."""
    p, y = _align(predictions, labels)
    thresholds = np.unique(p)
    up, down = np.sort(p[y == 1]), np.sort(p[y == 0])
    tps = (up.size - np.searchsorted(up, thresholds, side="right")).tolist()
    fps = (down.size - np.searchsorted(down, thresholds, side="right")).tolist()
    return [(thr, tp / (tp + fp) if tp + fp else 1.0, tp / up.size if up.size else 0.0)
            for thr, tp, fp in zip(thresholds.tolist(), tps, fps)]


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
