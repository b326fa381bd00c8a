import math

import numpy as np
import pytest

from kellybt.backtest import BacktestConfig, compare_strategies, run_backtest
from kellybt.candles import HOUR, generate_synthetic_series
from kellybt.features import make_labels
from kellybt.predictors import (Predictions, Scenarios, estimate_scenarios,
                                simulate_balanced, simulate_gaussian, simulate_optimal)
from kellybt.sizing import SizingPolicy

from conftest import make_series_from_closes


def test_single_trade_worked_example():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    series = make_series_from_closes(closes)
    ts = int(series.timestamps[0])
    preds = Predictions([ts], [0.6])
    ests = Scenarios([ts], [0.05], [0.04])
    policy = SizingPolicy("kelly")  # full Kelly -> fraction 2.0
    curve, trades = run_backtest(series, preds, ests, policy, BacktestConfig())
    assert len(trades) == 1
    t = trades[0]
    assert abs(t.fraction - 2.0) <= 1e-12
    assert t.entry_price == 100.0 and t.exit_price == 105.0
    assert abs(t.realized_return - 0.05) <= 1e-12
    assert abs(t.pnl_fraction - 0.10) <= 1e-12
    assert abs(curve.values[-1] - 1.10) <= 1e-12
    assert t.exit_ts - t.entry_ts == 5 * HOUR


def test_zero_modifier_flat_curve():
    series = generate_synthetic_series(seed=1, n=200, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=2)
    curve, trades = run_backtest(series, preds, None,
                                 SizingPolicy("none", modifier=0.0), BacktestConfig())
    assert np.all(curve.values == 1.0)
    assert all(t.side == "FLAT" and t.pnl_fraction == 0.0 for t in trades)


def test_optimal_predictions_never_lose():
    series = generate_synthetic_series(seed=3, n=2000, volatility=0.012)
    labels = make_labels(series)
    preds = simulate_optimal(labels)
    ests = estimate_scenarios(series, window=100)
    for kind in ("none", "gaussian", "kelly"):
        policy = SizingPolicy(kind, modifier=0.5)
        curve, trades = run_backtest(series, preds, ests, policy, BacktestConfig())
        assert all(t.pnl_fraction >= 0.0 for t in trades)
        assert np.all(np.diff(curve.values) >= 0.0)


def test_determinism():
    series = generate_synthetic_series(seed=4, n=500, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_gaussian(labels, seed=5)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", kelly_fraction=0.2)
    a_curve, a_trades = run_backtest(series, preds, ests, policy, BacktestConfig())
    b_curve, b_trades = run_backtest(series, preds, ests, policy, BacktestConfig())
    assert np.array_equal(a_curve.values, b_curve.values)
    assert a_trades == b_trades


def test_compounding_identity():
    series = generate_synthetic_series(seed=6, n=1500, volatility=0.015)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=7)
    ests = estimate_scenarios(series, window=100)
    curve, trades = run_backtest(series, preds, ests,
                                 SizingPolicy("kelly", kelly_fraction=0.1),
                                 BacktestConfig())
    product = 1.0
    for t in trades:
        product *= 1.0 + t.pnl_fraction
    assert abs(curve.values[-1] / product - 1.0) <= 1e-12


def test_identical_trade_grid_across_policies():
    series = generate_synthetic_series(seed=8, n=1000, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_gaussian(labels, seed=9)
    ests = estimate_scenarios(series, window=100)
    policies = [SizingPolicy("none"), SizingPolicy("gaussian"),
                SizingPolicy("kelly", kelly_fraction=0.1)]
    results = compare_strategies(series, preds, ests, policies, BacktestConfig())
    counts = {len(r.trades) for r in results}
    assert len(counts) == 1
    ts0 = [t.entry_ts for t in results[0].trades]
    for r in results[1:]:
        assert [t.entry_ts for t in r.trades] == ts0


def test_duplicate_policy_identical_rows():
    series = generate_synthetic_series(seed=10, n=600, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=11)
    ests = estimate_scenarios(series, window=100)
    results = compare_strategies(series, preds, ests,
                                 [SizingPolicy("gaussian"), SizingPolicy("gaussian")],
                                 BacktestConfig())
    assert results[0].report == results[1].report
    assert np.array_equal(results[0].curve.values, results[1].curve.values)


def test_nonoverlapping_stride_disjoint_holding_periods():
    series = generate_synthetic_series(seed=12, n=400, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=13)
    curve, trades = run_backtest(series, preds, None, SizingPolicy("none"),
                                 BacktestConfig())
    for prev, cur in zip(trades, trades[1:]):
        assert cur.entry_ts >= prev.exit_ts


def test_overlapping_exposure_divided_and_capped():
    series = generate_synthetic_series(seed=14, n=400, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=15)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", max_leverage=3.0, modifier=1.0)
    cfg = BacktestConfig(horizon=5, stride=1)
    curve, trades = run_backtest(series, preds, ests, policy, cfg)
    # ceil(5/1) = 5 concurrent slots
    assert all(abs(t.fraction) <= 3.0 / 5 + 1e-12 for t in trades)
    open_exposure = {}
    for t in trades:
        for ts in range(t.entry_ts, t.exit_ts, HOUR):
            open_exposure[ts] = open_exposure.get(ts, 0.0) + abs(t.fraction)
    assert max(open_exposure.values()) <= 3.0 + 1e-9


def test_ruin_halts_and_floors_at_zero():
    closes = [100.0] * 6 + [100.0, 70.0, 60.0, 50.0, 40.0, 30.0] + [30.0] * 10
    series = make_series_from_closes(closes)
    ts = series.timestamps[[6, 12]]
    preds = Predictions(ts, [0.9, 0.9])
    ests = Scenarios(ts, [0.01, 0.01], [0.01, 0.01])
    policy = SizingPolicy("kelly", max_leverage=5.0)  # 5x long into a 70% crash
    curve, trades = run_backtest(series, preds, ests, policy, BacktestConfig())
    assert curve.ruin
    assert len(trades) == 1  # halted after the wipeout
    assert curve.values[-1] == 0.0


def test_skips_timestamps_without_estimates():
    series = generate_synthetic_series(seed=16, n=300, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=17)
    ests = estimate_scenarios(series, window=200)  # defined only from bar 200
    curve, trades = run_backtest(series, preds, ests, SizingPolicy("none"),
                                 BacktestConfig())
    first_est_ts = ests.timestamps[0]
    assert trades[0].entry_ts >= first_est_ts


def test_misaligned_prediction_rejected():
    series = generate_synthetic_series(seed=18, n=50)
    preds = Predictions([999_999_999], [0.7])
    with pytest.raises(ValueError, match="prediction timestamp 999999999 is not in"):
        run_backtest(series, preds, None, SizingPolicy("none"), BacktestConfig())
    preds = Predictions(series.timestamps, np.full(len(series), 0.7))
    ests = Scenarios([999_999_999], [0.01], [0.01])
    with pytest.raises(ValueError, match="estimate timestamp 999999999 is not in"):
        run_backtest(series, preds, ests, SizingPolicy("none"), BacktestConfig())


def test_empty_decision_set_rejected():
    series = generate_synthetic_series(seed=19, n=50)
    preds = Predictions(series.timestamps[-1:], [0.7])  # no horizon room
    with pytest.raises(ValueError, match="usable decision"):
        run_backtest(series, preds, None, SizingPolicy("none"), BacktestConfig())


def test_fees_charged_per_side():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    series = make_series_from_closes(closes)
    ts = int(series.timestamps[0])
    preds = Predictions([ts], [0.7])
    cfg = BacktestConfig(fee_rate=0.001)
    curve, trades = run_backtest(series, preds, None, SizingPolicy("none"), cfg)
    want = 1.0 * 0.05 - 0.001 * 1.0 * 2.0
    assert abs(trades[0].pnl_fraction - want) <= 1e-15


def test_no_lookahead_prefix_audit():
    series = generate_synthetic_series(seed=20, n=600, volatility=0.012)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=21)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", kelly_fraction=0.25)
    full_curve, full_trades = run_backtest(series, preds, ests, policy, BacktestConfig())
    cut = 400
    cut_ts = int(series.timestamps[cut])
    prefix = series.slice(0, cut + 1)
    keep = preds.timestamps <= cut_ts
    preds_p = Predictions(preds.timestamps[keep], preds.p_up[keep])
    ests_p = estimate_scenarios(prefix, window=100)
    p_curve, p_trades = run_backtest(prefix, preds_p, ests_p, policy, BacktestConfig())
    keep = [t for t in full_trades if t.exit_ts <= cut_ts]
    assert p_trades == keep


def test_config_validation():
    with pytest.raises(ValueError):
        BacktestConfig(horizon=0)
    with pytest.raises(ValueError):
        BacktestConfig(stride=0)
    with pytest.raises(ValueError):
        BacktestConfig(fee_rate=-0.1)
    with pytest.raises(ValueError):
        BacktestConfig(initial_bankroll=0.0)
    with pytest.raises(ValueError):
        BacktestConfig(ruin_floor=1.0)
    assert BacktestConfig(horizon=7).effective_stride == 7
    assert BacktestConfig(horizon=7, stride=2).effective_stride == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_fee_rate(value):
    with pytest.raises(ValueError, match="fee_rate must be finite"):
        BacktestConfig(fee_rate=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_initial_bankroll(value):
    with pytest.raises(ValueError, match="initial_bankroll must be finite"):
        BacktestConfig(initial_bankroll=value)


def test_compare_requires_policies():
    series = generate_synthetic_series(seed=22, n=100)
    with pytest.raises(ValueError, match="policy"):
        compare_strategies(series, Predictions([], []), None, [], BacktestConfig())
