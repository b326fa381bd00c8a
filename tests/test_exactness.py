"""Exactness properties: the columnar backtest, monthly returns, Gaussian
simulator, scenario estimator and precision/recall sweep equal the per-row
loops they replaced (kept in oracles.py) exactly, on drawn inputs, including
the errors they raise. The loops take per-bar records, so each frame is
turned into records (``oracles.prediction_records``/``scenario_records``)
before it is handed to one."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybt.backtest import BacktestConfig, EquityCurve, Trade, run_backtest
from kellybt.candles import HOUR, CandleSeries, generate_synthetic_series
from kellybt.features import LabelSet
from kellybt.metrics import build_report, monthly_returns, precision_recall_points
from kellybt.predictors import Predictions, Scenarios, estimate_scenarios, simulate_gaussian
from kellybt.sizing import SizingPolicy

import oracles

# Derandomized and bounded so the suite stays fast and reproducible.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

seeds = st.integers(0, 2**32 - 1)


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _assert_same_run(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    (curve, trades), (o_curve, o_trades) = got, want
    assert trades == o_trades
    assert repr(trades) == repr(o_trades)  # also tells -0.0 from 0.0
    assert curve.ruin == o_curve.ruin
    for col, o_col in ((curve.timestamps, o_curve.timestamps), (curve.values, o_curve.values)):
        assert col.dtype == o_col.dtype and col.tobytes() == o_col.tobytes()
    assert _outcome(build_report, curve, trades) == _outcome(oracles.o_build_report,
                                                              o_curve, o_trades)


@st.composite
def shocked_series(draw):
    """A synthetic series with a drawn bar spacing and, at a drawn rate, price
    jumps (crashes to 0.3x, squeezes to 3x) that drive leveraged bets through
    the ruin floor and beyond -100%."""
    n = draw(st.integers(12, 300))
    seed = draw(seeds)
    series = generate_synthetic_series(seed=seed, n=n,
                                       volatility=draw(st.sampled_from([0.0, 0.005, 0.03])))
    step = draw(st.sampled_from([1, 24, 24 * 9])) * HOUR
    ts = series.timestamps[0] + step * np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    jump = rng.random(n) < draw(st.sampled_from([0.05, 0.0]))
    scale = np.cumprod(np.where(jump, rng.choice([0.3, 3.0], n), 1.0))
    return CandleSeries(ts, series.open * scale, series.high * scale, series.low * scale,
                        series.close * scale, series.volume)


@PROPERTY
@given(data=st.data(), series=shocked_series(), seed=seeds)
def test_run_backtest_equals_sequential_loop(data, series, seed):
    n = len(series)
    rng = np.random.default_rng(seed)
    p_up = rng.uniform(0.01, 0.99, n)
    p_up[rng.random(n) < 0.05] = 0.5
    a, b = rng.uniform(0.001, 0.1, (2, n))
    ts = series.timestamps

    keep = rng.random(n) < data.draw(st.sampled_from([1.0, 0.6]))
    pred_ts, pred_p = ts[keep], p_up[keep]
    if rng.random() < 0.1:  # a last prediction that is not in the series
        pred_ts, pred_p = np.append(pred_ts, ts[-1] + HOUR), np.append(pred_p, 0.6)
    preds = Predictions(pred_ts, pred_p)
    ests = o_ests = None
    drop = data.draw(st.sampled_from([0.0, 0.3, None]))
    if drop is not None:
        kept = rng.random(n) >= drop
        ests = Scenarios(ts[kept], a[kept], b[kept])
        o_ests = oracles.scenario_records(ests)

    horizon = data.draw(st.integers(1, 8))
    cfg = BacktestConfig(horizon=horizon,
                         stride=data.draw(st.none() | st.integers(1, horizon + 2)),
                         fee_rate=data.draw(st.sampled_from([0.0, 0.001, 0.05])),
                         initial_bankroll=data.draw(st.sampled_from([1.0, 250.0])),
                         ruin_floor=data.draw(st.sampled_from([0.0, 0.01, 0.5, 0.95])))
    policy = SizingPolicy(data.draw(st.sampled_from(["none", "gaussian", "kelly"])),
                          kelly_fraction=data.draw(st.sampled_from([1.0, 0.5])),
                          max_leverage=data.draw(st.sampled_from([5.0, 2.0, 0.5])),
                          modifier=data.draw(st.sampled_from([1.0, 2.0, 0.0])))
    _assert_same_run(_outcome(run_backtest, series, preds, ests, policy, cfg),
                     _outcome(oracles.o_run_backtest, series, oracles.prediction_records(preds),
                              o_ests, policy, cfg))


@PROPERTY
@given(start=st.integers(-2**31, 2**33),
       steps=st.lists(st.sampled_from([0, 1, 3600, 86_400 * 20, 86_400 * 95]), max_size=60),
       seed=seeds)
def test_monthly_returns_and_report_equal_per_point_loop(start, steps, seed):
    rng = np.random.default_rng(seed)
    timestamps = start + np.cumsum([0] + steps, dtype=np.int64)
    values = rng.uniform(0.05, 3.0, timestamps.size)
    curve = EquityCurve(timestamps, values, ruin=bool(rng.random() < 0.5))
    trades = [Trade(0, 0, "LONG", 1.0, 1.0, 1.0, 0.0, float(x))
              for x in rng.normal(0.0, 0.01, timestamps.size - 1)]
    got, want = monthly_returns(curve), oracles.o_monthly_returns(curve)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert build_report(curve, trades) == oracles.o_build_report(curve, trades)


def _labels(seed, n):
    rng = np.random.default_rng(seed)
    direction = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    change = rng.normal(0.0, 0.01, n)
    ts = 1_600_000_000 + HOUR * np.arange(n, dtype=np.int64)
    return LabelSet(ts, direction, change, np.abs(change), horizon=5)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 400),
       mu_long=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       mu_short=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       sigma=st.floats(0.001, 1.0),
       hit_rate=st.floats(0.0, 1.0, exclude_min=True))
def test_simulate_gaussian_equals_scalar_draws(seed, n, mu_long, mu_short, sigma, hit_rate):
    labels = _labels(seed, n)
    got = oracles.prediction_records(
        simulate_gaussian(labels, seed, mu_long, mu_short, sigma, hit_rate))
    want = oracles.o_simulate_gaussian(labels, seed, mu_long, mu_short, sigma, hit_rate)
    assert got == want
    assert repr(got) == repr(want)


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 6), extra_window=st.integers(0, 60),
       extra_bars=st.integers(-5, 200), volatility=st.sampled_from([0.0, 0.002, 0.02]))
def test_estimate_scenarios_equals_per_row_loop(seed, horizon, extra_window, extra_bars,
                                                volatility):
    window = 10 * horizon + extra_window
    series = generate_synthetic_series(seed=seed, n=max(1, window + extra_bars),
                                       volatility=volatility)
    got = oracles.scenario_records(estimate_scenarios(series, horizon, window))
    want = oracles.o_estimate_scenarios(series, horizon, window)
    assert got == want
    assert repr(got) == repr(want)



@PROPERTY
@given(seed=seeds, n=st.integers(1, 400), distinct=st.sampled_from([1, 2, 7, None]),
       classes=st.sampled_from(["both", "up only", "down only"]),
       extra_labels=st.integers(0, 20))
def test_precision_recall_points_equal_threshold_loop(seed, n, distinct, classes,
                                                      extra_labels):
    rng = np.random.default_rng(seed)
    if distinct is None:
        p_up = rng.uniform(0.01, 0.99, n)
    else:  # a few values shared by many predictions: tied thresholds
        p_up = rng.choice(np.round(rng.uniform(0.01, 0.99, distinct), 2), n)
    m = n + extra_labels  # labels the predictions do not cover are skipped
    direction = {"both": rng.choice(np.array([-1, 1], np.int8), m),
                 "up only": np.ones(m, np.int8), "down only": -np.ones(m, np.int8)}[classes]
    ts = 3600 * np.arange(m, dtype=np.int64)
    labels = LabelSet(ts, direction, np.zeros(m), np.zeros(m), 5)
    preds = Predictions(np.sort(rng.permutation(ts)[:n]), p_up)
    got = precision_recall_points(preds, labels)
    want = oracles.o_precision_recall_points(oracles.prediction_records(preds), labels)
    assert got == want
    assert repr(got) == repr(want)
