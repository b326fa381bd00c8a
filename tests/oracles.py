"""Independent brute-force oracles used by the test suite.

Everything here is written as naive direct-definition loops, deliberately
separate from the library's vectorized implementations: window statistics
are recomputed from scratch at every bar, the normal CDF comes from a
Maclaurin erf series, and drawdown enumerates all peak/trough pairs.

The per-row section keeps the earlier implementations of the per-bet
sizing step (``o_decide``, with its own copies of the Kelly and Gaussian
formulas), the backtest loop, the monthly returns, the Gaussian simulator,
the scenario estimator and the precision/recall sweep, unchanged but
renamed ``o_*``, so the library code can be checked against them for exact
equality. The last section keeps the earlier hand-written CSV writers the
same way (the inline ones from the CLI wrapped in functions), so every
writer can be checked against them byte for byte; ``format_rows``, the
standard library's ``str`` per cell, is the reference for the numpy row
formatter and for every table ``write_csv`` formats. ``o_ema_array`` and
``o_svg_line_chart`` keep the per-element EMA loop and the per-point SVG
writer the same way, ``o_simulate_gaussian_blocks`` the Gaussian
simulator's per-draw walk over a stream drawn in blocks, ``o_cci_array``
CCI's whole-array mean absolute deviation, and ``o_fit_normalizer`` the
normalizer's boolean-mask copy of the training rows, fitted over every
column at once.

The per-row references take and return the per-row records the library used
before it moved predictions, scenarios and trades into column frames
(``DirectionPrediction``, ``ScenarioEstimate``, ``Trade``, kept below), and
the per-entry barrier label as a ``LabelRecord``; ``prediction_records``,
``scenario_records``, ``trade_records`` and ``barrier_label_records`` turn
frames into them.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kellybt import metrics, sizing
from kellybt.backtest import BacktestConfig, EquityCurve
from kellybt.candles import CANONICAL_COLUMNS, CandleSeries
from kellybt.features import FeatureMatrix, LabelSet
from kellybt.metrics import (FLAG_OVERFLOW, FLAG_ROMAD_NA, FLAG_RUIN, FLAG_SHARPE_NA,
                             BacktestReport, cumulative_return, max_drawdown)
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, P_CLIP_LO, _assign_correct,
                                _check_labels, _predicted_up)
from kellybt.sizing import SizingPolicy

NAN = float("nan")


def first_defined(xs):
    for i, x in enumerate(xs):
        if not math.isnan(x):
            return i
    return None


def o_ema(xs, n):
    """SMA-seeded EMA by direct recurrence."""
    out = [NAN] * len(xs)
    s = first_defined(xs)
    if s is None or len(xs) - s < n:
        return out
    alpha = 2.0 / (n + 1.0)
    acc = sum(xs[s:s + n]) / n
    out[s + n - 1] = acc
    for t in range(s + n, len(xs)):
        acc = alpha * xs[t] + (1.0 - alpha) * acc
        out[t] = acc
    return out


def o_ema_array(x: np.ndarray, n: int) -> np.ndarray:
    """The earlier ``indicators._ema_array``, which indexes the array once per bar."""
    out = np.full(x.size, np.nan)
    s = first_defined(x)
    if s is None or x.size - s < n:
        return out
    alpha = 2.0 / (n + 1.0)
    one_minus = 1.0 - alpha
    acc = float(np.mean(x[s:s + n]))
    out[s + n - 1] = acc
    for t in range(s + n, x.size):
        acc = alpha * float(x[t]) + one_minus * acc
        out[t] = acc
    return out


def o_cci_array(h: np.ndarray, l: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """The earlier ``indicators._cci``, whose mean absolute deviation is one
    whole-array expression over every window at once."""
    out = np.full(c.size, np.nan)
    tp = (h + l + c) / 3.0
    if tp.size < n:
        return out
    w = sliding_window_view(tp, n)
    m = w.mean(axis=1)
    md = np.abs(w - m[:, None]).mean(axis=1)
    num = tp[n - 1:] - m
    den = 0.015 * md
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    out[n - 1:] = np.where(den == 0, 0.0, ratio)
    return out


def o_fit_normalizer(matrix: FeatureMatrix, train_range: tuple[int, int]):
    """The earlier ``features.fit_normalizer``'s mean and sample std over the
    training rows, gathered by a boolean mask into a copy and fitted in one
    call over every column; a column whose stats overflow is fitted again
    scaled by a power of two, as the library does."""
    lo, hi = train_range
    rows = matrix.values[(matrix.timestamps >= lo) & (matrix.timestamps <= hi)]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = rows.mean(axis=0), rows.std(axis=0, ddof=1)
        for j in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std))):
            _, exp = np.frexp(np.abs(rows[:, j]).max())
            col = np.ldexp(rows[:, j], -exp)
            mean[j], std[j] = np.ldexp(col.mean(), exp), np.ldexp(col.std(ddof=1), exp)
    return mean, std


def o_trix(closes, n):
    e3 = o_ema(o_ema(o_ema(list(closes), n), n), n)
    out = [NAN] * len(closes)
    for t in range(1, len(closes)):
        if not math.isnan(e3[t]) and not math.isnan(e3[t - 1]):
            out[t] = 100.0 * (e3[t] - e3[t - 1]) / e3[t - 1]
    return out


def o_macd(closes, fast, slow):
    ef, es = o_ema(list(closes), fast), o_ema(list(closes), slow)
    return [f - s for f, s in zip(ef, es)]


def o_ppo(closes, fast, slow):
    ef, es = o_ema(list(closes), fast), o_ema(list(closes), slow)
    out = []
    for f, s in zip(ef, es):
        if math.isnan(f) or math.isnan(s) or s == 0:
            out.append(NAN)
        else:
            out.append(100.0 * (f - s) / s)
    return out


def o_roc(closes, n):
    out = [NAN] * len(closes)
    for t in range(n, len(closes)):
        out[t] = 100.0 * (closes[t] - closes[t - n]) / closes[t - n]
    return out


def o_efi_ratio(closes, volumes, n):
    out = [NAN] * len(closes)
    for t in range(n, len(closes)):
        if volumes[t] == 0:
            continue
        out[t] = (closes[t] - closes[t - n]) * (volumes[t] - volumes[t - n]) / volumes[t]
    return out


def o_efi_standard(closes, volumes, n):
    force = [NAN] * len(closes)
    for t in range(1, len(closes)):
        force[t] = (closes[t] - closes[t - 1]) * volumes[t]
    return o_ema(force, n)


def o_cmo(closes, n):
    out = [NAN] * len(closes)
    for t in range(n, len(closes)):
        p = sum(max(closes[i] - closes[i - 1], 0.0) for i in range(t - n + 1, t + 1))
        neg = sum(max(closes[i - 1] - closes[i], 0.0) for i in range(t - n + 1, t + 1))
        out[t] = 0.0 if p + neg == 0 else 100.0 * (p - neg) / (p + neg)
    return out


def o_rsi(closes, n):
    out = [NAN] * len(closes)
    for t in range(n, len(closes)):
        avg_gain = sum(max(closes[i] - closes[i - 1], 0.0)
                       for i in range(t - n + 1, t + 1)) / n
        avg_loss = sum(max(closes[i - 1] - closes[i], 0.0)
                       for i in range(t - n + 1, t + 1)) / n
        if avg_loss == 0:
            out[t] = 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


def o_cci(highs, lows, closes, n):
    tp = [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]
    out = [NAN] * len(closes)
    for t in range(n - 1, len(closes)):
        window = tp[t - n + 1:t + 1]
        m = sum(window) / n
        md = sum(abs(x - m) for x in window) / n
        out[t] = 0.0 if md == 0 else (tp[t] - m) / (0.015 * md)
    return out


def o_williams_r(highs, lows, closes, n):
    out = [NAN] * len(closes)
    for t in range(n - 1, len(closes)):
        hi = max(highs[t - n + 1:t + 1])
        lo = min(lows[t - n + 1:t + 1])
        if hi == lo:
            continue
        out[t] = (hi - closes[t]) / (hi - lo) * (-100.0)
    return out


def o_cmf(highs, lows, closes, volumes, n):
    out = [NAN] * len(closes)
    for t in range(n - 1, len(closes)):
        num = 0.0
        den = 0.0
        bad = False
        for i in range(t - n + 1, t + 1):
            if highs[i] == lows[i]:
                bad = True
                break
            mfm = ((closes[i] - lows[i]) - (highs[i] - closes[i])) / (highs[i] - lows[i])
            num += mfm * volumes[i]
            den += volumes[i]
        if bad or den == 0:
            continue
        out[t] = num / den
    return out


def oracle_indicator(series, kind, periods):
    h = list(series.high)
    l = list(series.low)
    c = list(series.close)
    v = list(series.volume)
    if kind == "TRIX":
        return o_trix(c, periods[0])
    if kind == "MACD":
        return o_macd(c, *periods)
    if kind == "PPO":
        return o_ppo(c, *periods)
    if kind == "ROC":
        return o_roc(c, periods[0])
    if kind == "EFI_RATIO":
        return o_efi_ratio(c, v, periods[0])
    if kind == "EFI_STANDARD":
        return o_efi_standard(c, v, periods[0])
    if kind == "CMO":
        return o_cmo(c, periods[0])
    if kind == "RSI":
        return o_rsi(c, periods[0])
    if kind == "CCI":
        return o_cci(h, l, c, periods[0])
    if kind == "WILLIAMS_R":
        return o_williams_r(h, l, c, periods[0])
    if kind == "CMF":
        return o_cmf(h, l, c, v, periods[0])
    raise ValueError(kind)


# --- probability / metric oracles --------------------------------------------


def erf_series(x):
    """Maclaurin erf, accurate to ~1e-15 for |x| <~ 4."""
    total = x
    term = x
    for k in range(1, 120):
        term *= -x * x / k
        total += term / (2 * k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(z):
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def truncated_normal_moments(mu, sigma, lo, hi):
    """Mean and stddev of N(mu, sigma) truncated to (lo, hi)."""
    alpha = (lo - mu) / sigma
    beta = (hi - mu) / sigma
    z = normal_cdf_series(beta) - normal_cdf_series(alpha)
    pa, pb = normal_pdf(alpha), normal_pdf(beta)
    mean = mu + sigma * (pa - pb) / z
    var = sigma * sigma * (1 + (alpha * pa - beta * pb) / z - ((pa - pb) / z) ** 2)
    return mean, math.sqrt(var)


def o_max_drawdown_pct(values):
    """All peak/trough pairs, O(n^2)."""
    best = 0.0
    for i in range(len(values)):
        for j in range(i, len(values)):
            dd = (values[i] - values[j]) / values[i]
            if dd > best:
                best = dd
    return best * 100.0


def o_barrier_label(series, entry, cfg):
    """Bar-by-bar scan mirroring the labeling rules."""
    entry_price = float(series.close[entry])
    upper = entry_price * (1.0 + cfg.up_pct)
    lower = entry_price * (1.0 - cfg.down_pct)
    for k in range(1, cfg.horizon + 1):
        bar = entry + k
        hit_up = float(series.high[bar]) >= upper
        hit_dn = float(series.low[bar]) <= lower
        if hit_up and hit_dn:
            if cfg.ambiguous_to_lower:
                return (-1, k, "AMBIGUOUS")
            o = float(series.open[bar])
            return ((1 if abs(upper - o) < abs(o - lower) else -1), k, "AMBIGUOUS")
        if hit_up:
            return (1, k, "UPPER")
        if hit_dn:
            return (-1, k, "LOWER")
    if cfg.vertical_rule == "ZERO":
        return (0, cfg.horizon, "VERTICAL")
    end = float(series.close[entry + cfg.horizon])
    return ((1 if end > entry_price else -1), cfg.horizon, "VERTICAL")


# --- per-row reference implementations ----------------------------------------


@dataclass(frozen=True)
class DirectionPrediction:
    """Probability of an upward move over the horizon; q = 1 - p_up is implied."""

    timestamp: int
    p_up: float


@dataclass(frozen=True)
class ScenarioEstimate:
    """Predicted fractional rise (a) given an up market and fall magnitude (b)
    given a down market; both strictly positive."""

    timestamp: int
    a: float
    b: float


class LabelRecord(NamedTuple):
    label: int
    hit_bar: int
    hit_kind: str


class Trade(NamedTuple):
    entry_ts: int
    exit_ts: int
    side: str
    fraction: float
    entry_price: float
    exit_price: float
    realized_return: float
    pnl_fraction: float


def prediction_records(preds) -> list[DirectionPrediction]:
    return list(map(DirectionPrediction, preds.timestamps.tolist(), preds.p_up.tolist()))


def scenario_records(ests) -> list[ScenarioEstimate]:
    return list(map(ScenarioEstimate, ests.timestamps.tolist(), ests.a.tolist(),
                    ests.b.tolist()))


def trade_records(trades) -> list[Trade]:
    return list(map(Trade, *(getattr(trades, name).tolist() for name in Trade._fields)))


def barrier_label_records(labeled) -> list[tuple[int, LabelRecord]]:
    return [(e, LabelRecord(lab, bar, kind)) for e, lab, bar, kind in
            zip(labeled.entry.tolist(), labeled.label.tolist(), labeled.hit_bar.tolist(),
                labeled.hit_kind.tolist())]


@dataclass(frozen=True)
class BetDecision:
    raw_fraction: float
    fraction: float
    side: str


def o_kelly_fraction(p: float, a: float, b: float) -> float:
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not (a > 0 and b > 0):
        raise ValueError(f"scenario magnitudes must be > 0, got a={a}, b={b}")
    return p / a - (1.0 - p) / b


def o_gaussian_bet_size(p_up: float, expected: float = 0.5) -> float:
    if not 0 < p_up < 1:
        raise ValueError(f"p_up must be in (0, 1), got {p_up}")
    if not 0 < expected < 1:
        raise ValueError(f"expected must be in (0, 1), got {expected}")
    if p_up > expected:
        z = (p_up - expected) / math.sqrt(p_up * (1.0 - p_up))
        return 2.0 * (0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))) - 1.0
    q = 1.0 - p_up
    if q == 1.0:
        return -1.0
    if q > expected:
        z = (q - expected) / math.sqrt(q * (1.0 - q))
        return -(2.0 * (0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))) - 1.0)
    return 0.0


def o_decide(p: float, scenario: tuple[float, float] | None,
             policy: SizingPolicy) -> BetDecision:
    """The per-bet sizing step as it was written first: a frozen dataclass,
    the clamp as ``min(max(...))`` and one formula call per kind, with the
    p check every kind shares."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if policy.kind == "KELLY":
        if scenario is None:
            raise ValueError("KELLY sizing needs a scenario estimate")
        raw = o_kelly_fraction(p, *scenario)
        scaled = policy.kelly_fraction * raw
    elif policy.kind == "GAUSSIAN":
        raw = o_gaussian_bet_size(p, policy.expected)
        scaled = raw
    else:
        raw = 1.0 if p > 0.5 else (-1.0 if p < 0.5 else 0.0)
        scaled = raw
    clamped = min(max(scaled, -policy.max_leverage), policy.max_leverage)
    fraction = clamped * policy.modifier
    side = "LONG" if fraction > 0 else ("SHORT" if fraction < 0 else "FLAT")
    return BetDecision(raw, fraction, side)


def _align(predictions: list[DirectionPrediction], labels: LabelSet):
    by_ts = {int(t): i for i, t in enumerate(labels.timestamps)}
    pairs = [(p.p_up, int(labels.direction[by_ts[p.timestamp]]))
             for p in predictions if p.timestamp in by_ts]
    if not pairs:
        raise ValueError("no overlapping timestamps between predictions and labels")
    p = np.array([x[0] for x in pairs], dtype=np.float64)
    y = np.array([1 if x[1] > 0 else 0 for x in pairs], dtype=np.int64)
    return p, y


def o_run_backtest(series: CandleSeries, predictions: list[DirectionPrediction],
                 estimates: list[ScenarioEstimate] | None, policy: SizingPolicy,
                 cfg: BacktestConfig = BacktestConfig()):
    """Run one policy over the series; returns (EquityCurve, list of Trade).

    Decisions fall on a stride lattice over timestamps that carry a
    prediction and (when estimates are supplied) a defined estimate;
    timestamps without an estimate are skipped. The simulation halts with
    the RUIN flag if the bankroll falls to ruin_floor * initial, and with the
    OVERFLOW flag before the trade that would take it past the largest float
    or whose P&L is NaN.
    """
    known = {int(t): i for i, t in enumerate(series.timestamps)}
    for p in predictions:
        if p.timestamp not in known:
            raise ValueError(f"prediction timestamp {p.timestamp} is not in the series")
    est_by_ts = None
    if estimates is not None:
        est_by_ts = {}
        for e in estimates:
            if e.timestamp not in known:
                raise ValueError(f"estimate timestamp {e.timestamp} is not in the series")
            est_by_ts[e.timestamp] = e

    n = len(series)
    horizon = cfg.horizon
    stride = cfg.effective_stride
    divisor = 1 if stride >= horizon else math.ceil(horizon / stride)

    entries = []
    next_allowed = -1
    for p in predictions:
        i = known[p.timestamp]
        if i < next_allowed or i + horizon >= n:
            continue
        est = None
        if est_by_ts is not None:
            est = est_by_ts.get(p.timestamp)
            if est is None:
                continue
        entries.append((i, o_decide(p.p_up, None if est is None else (est.a, est.b),
                                    policy)))
        next_allowed = i + stride

    if not entries:
        raise ValueError("no usable decision timestamps (check alignment and estimates)")

    initial = cfg.initial_bankroll
    floor = cfg.ruin_floor * initial
    bankroll = initial
    ruin = overflow = False
    trades: list[Trade] = []
    curve_ts = [int(series.timestamps[entries[0][0]])]
    curve_val = [bankroll]
    for i, dec in entries:
        fraction = dec.fraction / divisor
        entry_price = float(series.close[i])
        exit_price = float(series.close[i + horizon])
        realized = (exit_price - entry_price) / entry_price
        pnl = fraction * realized - cfg.fee_rate * abs(fraction) * 2.0
        if bankroll * (1.0 + pnl) == math.inf or math.isnan(pnl):
            overflow = True
            break
        bankroll = bankroll * (1.0 + pnl)
        if bankroll < 0.0:
            # A leveraged loss beyond -100% is a wipeout, not a debt.
            bankroll = 0.0
        trades.append(Trade(
            entry_ts=int(series.timestamps[i]),
            exit_ts=int(series.timestamps[i + horizon]),
            side=dec.side,
            fraction=fraction,
            entry_price=entry_price,
            exit_price=exit_price,
            realized_return=realized,
            pnl_fraction=pnl,
        ))
        curve_ts.append(int(series.timestamps[i + horizon]))
        curve_val.append(bankroll)
        if bankroll <= floor:
            ruin = True
            break

    curve = EquityCurve(np.array(curve_ts, dtype=np.int64),
                        np.array(curve_val, dtype=np.float64), ruin=ruin, overflow=overflow)
    return curve, trades


def o_month_key(ts: int) -> tuple[int, int]:
    dt = datetime.fromtimestamp(int(ts), tz=timezone.utc)
    return dt.year, dt.month


def o_next_month(key: tuple[int, int]) -> tuple[int, int]:
    y, m = key
    return (y + 1, 1) if m == 12 else (y, m + 1)


def o_monthly_returns(curve: EquityCurve) -> np.ndarray:
    """Calendar-month compounded returns over the curve's span."""
    if len(curve) == 0:
        raise ValueError("empty equity curve")
    last_in_month: dict[tuple[int, int], float] = {}
    for ts, v in zip(curve.timestamps, curve.values):
        last_in_month[o_month_key(ts)] = float(v)

    first = o_month_key(curve.timestamps[0])
    last = o_month_key(curve.timestamps[-1])
    rets = []
    prev_value = float(curve.values[0])
    key = first
    while True:
        value = last_in_month.get(key, prev_value)
        rets.append(value / prev_value - 1.0)
        prev_value = value
        if key == last:
            break
        key = o_next_month(key)
    return np.array(rets, dtype=np.float64)


def o_sharpe_monthly(curve: EquityCurve, rf_monthly: float = 0.0) -> float | None:
    """Mean monthly excess return over its sample stddev; None when the
    variance is zero."""
    rets = o_monthly_returns(curve)
    if rets.size < 2:
        raise ValueError(
            f"Sharpe needs a curve spanning at least 2 calendar months, got {rets.size}"
        )
    std = float(rets.std(ddof=1))
    if std == 0:
        return None
    return (float(rets.mean()) - rf_monthly) / std


def o_romad(curve: EquityCurve) -> float | None:
    """Mean monthly return over maximum drawdown (both fractions); None when
    the drawdown is zero."""
    rets = o_monthly_returns(curve)
    dd = max_drawdown(curve) / 100.0
    if dd == 0:
        return None
    return float(rets.mean()) / dd


def o_build_report(curve: EquityCurve, trades: list[Trade]) -> BacktestReport:
    flags: list[str] = []
    if curve.ruin:
        flags.append(FLAG_RUIN)
    if curve.overflow:
        flags.append(FLAG_OVERFLOW)
    try:
        sharpe = o_sharpe_monthly(curve)
    except ValueError:
        sharpe = None
    if sharpe is None:
        flags.append(FLAG_SHARPE_NA)
    rho = o_romad(curve)
    if rho is None:
        flags.append(FLAG_ROMAD_NA)
    wins = sum(1 for t in trades if t.pnl_fraction > 0)
    return BacktestReport(
        cumulative_return_pct=cumulative_return(curve),
        max_drawdown_pct=max_drawdown(curve),
        sharpe=sharpe,
        romad=rho,
        trade_count=len(trades),
        win_rate=wins / len(trades) if trades else 0.0,
        flags=tuple(flags),
    )


def o_draw_side(rng: np.random.Generator, mu: float, sigma: float, up: bool) -> float:
    """Normal(mu, sigma) draw truncated to the predicted side of 0.5 and
    clipped into [P_CLIP_LO, P_CLIP_HI]."""
    while True:
        v = float(rng.normal(mu, sigma))
        if up and v > 0.5:
            return min(v, P_CLIP_HI)
        if not up and v < 0.5:
            return max(v, P_CLIP_LO)


def o_simulate_gaussian(labels: LabelSet, seed: int, mu_long: float = 0.6,
                      mu_short: float = 0.4, sigma: float = 0.1,
                      hit_rate: float = 0.6) -> list[DirectionPrediction]:
    """Gaussian-probability simulator with the balanced model's exact-count
    correctness assignment."""
    _check_labels(labels)
    if not 0 < mu_short < 0.5 < mu_long < 1:
        raise ValueError(f"need 0 < mu_short < 0.5 < mu_long < 1, got {mu_short}, {mu_long}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not 0 < hit_rate <= 1:
        raise ValueError(f"hit_rate must be in (0, 1], got {hit_rate}")
    rng = np.random.default_rng(seed)
    correct = _assign_correct(len(labels), hit_rate, rng)
    out = []
    for i in range(len(labels)):
        d = int(labels.direction[i]) if correct[i] else -int(labels.direction[i])
        p = o_draw_side(rng, mu_long if d > 0 else mu_short, sigma, up=d > 0)
        out.append(DirectionPrediction(int(labels.timestamps[i]), p))
    return out


def o_simulate_gaussian_blocks(labels: LabelSet, seed: int, mu_long: float = 0.6,
                               mu_short: float = 0.4, sigma: float = 0.1,
                               hit_rate: float = 0.6) -> tuple[np.ndarray, int]:
    """The Gaussian simulator's walk before its acceptance marks moved to
    numpy: one Python step per draw of a stream of standard normals drawn n
    at a time. Returns p_up and the number of draws the walk took."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    up = _predicted_up(labels, _assign_correct(n, hit_rate, rng))

    def standard_normals():
        while True:
            yield from rng.standard_normal(n).tolist()

    z = standard_normals()
    p_up = []
    draws = 0
    for is_up in up.tolist():
        if is_up:
            for x in z:
                draws += 1
                v = mu_long + sigma * x
                if v > 0.5:
                    p_up.append(min(v, P_CLIP_HI))
                    break
        else:
            for x in z:
                draws += 1
                v = mu_short + sigma * x
                if v < 0.5:
                    p_up.append(max(v, P_CLIP_LO))
                    break
    return np.array(p_up, np.float64), draws


def o_estimate_scenarios(series: CandleSeries, horizon: int = 5,
                       window: int = 250) -> list[ScenarioEstimate]:
    """Causal trailing-window scenario estimates.

    At each index t >= window, a is the mean of the positive horizon-forward
    returns whose outcomes are fully realized by t (entries in
    [t-window, t-horizon]) and b is the magnitude of the mean of the negative
    ones; one-sided histories fall back to the floor.
    """
    if window < 10 * horizon:
        raise ValueError(f"window {window} must be >= 10 * horizon ({10 * horizon})")
    n = len(series)
    if n <= window:
        return []
    c = series.close
    r = (c[horizon:] - c[:-horizon]) / c[:-horizon]
    count = window - horizon + 1
    pos = np.where(r > 0, r, 0.0)
    neg = np.where(r < 0, r, 0.0)
    pos_sum = sliding_window_view(pos, count).sum(axis=1)
    neg_sum = sliding_window_view(neg, count).sum(axis=1)
    pos_cnt = sliding_window_view((r > 0).astype(np.float64), count).sum(axis=1)
    neg_cnt = sliding_window_view((r < 0).astype(np.float64), count).sum(axis=1)

    out = []
    for k in range(pos_sum.size):
        t = k + window
        if t >= n:
            break
        a = pos_sum[k] / pos_cnt[k] if pos_cnt[k] > 0 else AB_FLOOR
        b = -(neg_sum[k] / neg_cnt[k]) if neg_cnt[k] > 0 else AB_FLOOR
        out.append(ScenarioEstimate(
            int(series.timestamps[t]), max(float(a), AB_FLOOR), max(float(b), AB_FLOOR)
        ))
    return out


def o_precision_recall_points(predictions: list[DirectionPrediction],
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


# --- hand-written CSV writers ----------------------------------------------------

# Rows formatted per yielded string: bounds the text held in memory.
BLOCK_ROWS = 1024


def format_rows(columns, start: int, stop: int):
    """Yield the CSV text of rows ``[start, stop)`` of ``columns``, one block
    at a time: one ``str`` per cell, ``NA`` for None, ``,`` between cells and
    ``\\n`` after every row. A column is a list or a tuple, which may hold
    None, or an array whose slices have ``tolist`` (numpy, ``array.array``),
    which holds none. The standard-library reference that
    ``floattext.format_rows`` and ``artifacts.write_csv`` are tested against."""
    for lo in range(start, stop, BLOCK_ROWS):
        cells = []
        for col in columns:
            block = col[lo:min(lo + BLOCK_ROWS, stop)]
            if isinstance(block, (list, tuple)):
                cells.append(["NA" if v is None else str(v) for v in block])
            else:
                cells.append(map(str, block.tolist()))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def o_to_csv(self: CandleSeries, dest) -> None:
    """Write the canonical CSV. Float fields use repr (exact round trip)."""
    own = isinstance(dest, (str, bytes))
    fh = open(dest, "w", newline="") if own else dest
    try:
        fh.write(",".join(CANONICAL_COLUMNS) + "\n")
        for i in range(len(self)):
            fh.write(
                f"{int(self.timestamps[i])},{float(self.open[i])!r},"
                f"{float(self.high[i])!r},{float(self.low[i])!r},"
                f"{float(self.close[i])!r},{float(self.volume[i])!r}\n"
            )
    finally:
        if own:
            fh.close()


def o_write_matrix_csv(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("timestamp",) + matrix.column_names) + "\n")
        for i in range(len(matrix)):
            row = ",".join(repr(float(v)) for v in matrix.values[i])
            fh.write(f"{int(matrix.timestamps[i])},{row}\n")


def o_write_labels_csv(labels: LabelSet, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,direction,price_change,weight\n")
        for i in range(len(labels)):
            fh.write(
                f"{int(labels.timestamps[i])},{int(labels.direction[i])},"
                f"{float(labels.price_change[i])!r},{float(labels.weight[i])!r}\n"
            )


def o_write_barrier_labels_csv(series: CandleSeries,
                               labeled: list[tuple[int, LabelRecord]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,label,hit_kind,hit_bar\n")
        for entry, lab in labeled:
            fh.write(f"{int(series.timestamps[entry])},{lab.label},{lab.hit_kind},{lab.hit_bar}\n")


def o_write_trades_csv(trades: list[Trade], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("entry_ts,exit_ts,side,fraction,entry_price,exit_price,"
                 "realized_return,pnl_fraction\n")
        for t in trades:
            fh.write(f"{t.entry_ts},{t.exit_ts},{t.side},{t.fraction!r},{t.entry_price!r},"
                     f"{t.exit_price!r},{t.realized_return!r},{t.pnl_fraction!r}\n")


def o_write_equity_csv(curve: EquityCurve, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,bankroll\n")
        for ts, v in zip(curve.timestamps, curve.values):
            fh.write(f"{int(ts)},{float(v)!r}\n")


def o_write_predictions_csv(preds: list[DirectionPrediction],
                            ests: list[ScenarioEstimate] | None, path: str) -> None:
    """Write timestamp,p_up[,a,b] rows. With estimates supplied, predictions
    lacking one (estimator warm-up) are omitted, keeping rows loadable."""
    by_ts = {e.timestamp: e for e in ests or ()}
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,p_up\n" if ests is None else "timestamp,p_up,a,b\n")
        for p in preds:
            if ests is not None:
                e = by_ts.get(p.timestamp)
                if e is None:
                    continue
                fh.write(f"{p.timestamp},{p.p_up!r},{e.a!r},{e.b!r}\n")
            else:
                fh.write(f"{p.timestamp},{p.p_up!r}\n")


def o_report_row(report: metrics.BacktestReport) -> list[str]:
    def fmt(v):
        return "NA" if v is None else repr(float(v))

    return [fmt(report.cumulative_return_pct), fmt(report.max_drawdown_pct),
            fmt(report.sharpe), fmt(report.romad)]


def o_write_table5(rows: list[tuple[str, metrics.BacktestReport]], path: str) -> None:
    """Benchmark-table layout: Cumulative Return, Max Drawdown, Sharpe, RoMaD."""
    with open(path, "w", newline="") as fh:
        fh.write("Strategy,Cumulative Return,Max Drawdown,Sharpe,RoMaD\n")
        for name, report in rows:
            fh.write(",".join([name] + o_report_row(report)) + "\n")


def o_write_comparison(rows: list[dict], path: str) -> None:
    cols = ["model", "seed", "policy", "cumulative_return_pct", "max_drawdown_pct",
            "sharpe", "romad", "trade_count", "win_rate", "flags"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            out = []
            for col in cols:
                v = row.get(col)
                if v is None:
                    out.append("NA")
                elif isinstance(v, float):
                    out.append(repr(v))
                elif isinstance(v, (list, tuple)):
                    out.append(";".join(str(x) for x in v))
                else:
                    out.append(str(v))
            fh.write(",".join(out) + "\n")


def o_write_confusion(cls: metrics.ClassificationReport, cpath: str) -> None:
    with open(cpath, "w", newline="") as fh:
        fh.write("tn,fp,fn,tp\n")
        fh.write(",".join(str(x) for x in cls.confusion.values()) + "\n")


def o_write_pr_curve(preds, labels, prpath: str) -> None:
    with open(prpath, "w", newline="") as fh:
        fh.write("threshold,precision,recall\n")
        for thr, prec, rec in o_precision_recall_points(preds, labels):
            fh.write(f"{thr!r},{prec!r},{rec!r}\n")


def o_kelly_surface(resolved: dict, outdir: str) -> list[str]:
    written = []
    if resolved["p"] is not None:
        p = float(resolved["p"])
        grid = [i / 200.0 for i in range(1, 41)]  # 0.005 .. 0.2
        path = os.path.join(outdir, "kelly_surface_ab.csv")
        with open(path, "w", newline="") as fh:
            fh.write("a,b,f_star\n")
            for a in grid:
                for b in grid:
                    fh.write(f"{a!r},{b!r},{sizing.kelly_fraction(p, a, b)!r}\n")
        written.append(path)
        return written

    p_grid = [i / 100.0 for i in range(1, 100)]
    b_grid = [float(10.0 ** e) for e in np.linspace(-2.0, 0.0, 41)]
    path = os.path.join(outdir, "kelly_surface_pb.csv")
    with open(path, "w", newline="") as fh:
        fh.write("p,b,f\n")
        for p in p_grid:
            for b in b_grid:
                # Classic odds form: unit gain (a = 1), loss proportion b.
                fh.write(f"{p!r},{b!r},{sizing.kelly_fraction(p, 1.0, b)!r}\n")
    written.append(path)
    ab_grid = [i / 20.0 for i in range(2, 21)]  # 0.1 .. 1.0
    path = os.path.join(outdir, "kelly_surface_pab.csv")
    with open(path, "w", newline="") as fh:
        fh.write("p,ab,f_star\n")
        for p in p_grid:
            for ab in ab_grid:
                fh.write(f"{p!r},{ab!r},{sizing.kelly_fraction(p, ab, ab)!r}\n")
    written.append(path)
    return written


# --- per-point SVG writer -----------------------------------------------------------


def _o_fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def o_svg_line_chart(curves, path: str, title: str = "", width: int = 900,
                     height: int = 420) -> None:
    """The earlier ``artifacts.svg_line_chart``: every point through two closures."""
    margin = 60
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{_o_fmt(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{_o_fmt(x_hi)}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{_o_fmt(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{_o_fmt(y_hi)}</text>',
    ]
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for k, (label, xs, ys) in enumerate(curves):
        color = palette[k % len(palette)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
