"""Independent brute-force oracles used by the test suite.

Everything here is written as naive direct-definition loops, deliberately
separate from the library's vectorized implementations: window statistics
are recomputed from scratch at every bar, the normal CDF comes from a
Maclaurin erf series, and drawdown enumerates all peak/trough pairs.

The last section keeps the earlier per-row implementations of the backtest
loop, the monthly returns, the Gaussian simulator and the scenario
estimator, unchanged but renamed ``o_*``, so the columnar library code can
be checked against them for exact equality.
"""
from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kellybt.backtest import BacktestConfig, EquityCurve, Trade
from kellybt.candles import CandleSeries
from kellybt.features import LabelSet
from kellybt.metrics import (FLAG_ROMAD_NA, FLAG_RUIN, FLAG_SHARPE_NA, BacktestReport,
                             cumulative_return, max_drawdown)
from kellybt.predictors import (AB_FLOOR, P_CLIP_HI, P_CLIP_LO, DirectionPrediction,
                                ScenarioEstimate, _assign_correct, _check_labels)
from kellybt.sizing import SizingPolicy, decide

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


def o_sma(xs, n):
    out = [NAN] * len(xs)
    s = first_defined(xs)
    if s is None or len(xs) - s < n:
        return out
    for t in range(s + n - 1, len(xs)):
        out[t] = sum(xs[t - n + 1:t + 1]) / n
    return out


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


def o_run_backtest(series: CandleSeries, predictions: list[DirectionPrediction],
                 estimates: list[ScenarioEstimate] | None, policy: SizingPolicy,
                 cfg: BacktestConfig = BacktestConfig()):
    """Run one policy over the series; returns (EquityCurve, list of Trade).

    Decisions fall on a stride lattice over timestamps that carry a
    prediction and (when estimates are supplied) a defined estimate;
    timestamps without an estimate are skipped. The simulation halts with
    the RUIN flag if the bankroll falls to ruin_floor * initial.
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
        entries.append((i, decide(p, est, policy)))
        next_allowed = i + stride

    if not entries:
        raise ValueError("no usable decision timestamps (check alignment and estimates)")

    initial = cfg.initial_bankroll
    floor = cfg.ruin_floor * initial
    bankroll = initial
    ruin = False
    trades: list[Trade] = []
    curve_ts = [int(series.timestamps[entries[0][0]])]
    curve_val = [bankroll]
    for i, dec in entries:
        fraction = dec.fraction / divisor
        entry_price = float(series.close[i])
        exit_price = float(series.close[i + horizon])
        realized = (exit_price - entry_price) / entry_price
        pnl = fraction * realized - cfg.fee_rate * abs(fraction) * 2.0
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
                        np.array(curve_val, dtype=np.float64), ruin=ruin)
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
