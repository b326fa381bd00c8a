import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from kellybt import backtest, cli
from kellybt.backtest import (BacktestConfig, EquityCurve, Trades, compare_strategies,
                              decision_grid, run_backtest)
from kellybt.candles import HOUR, generate_synthetic_series
from kellybt.features import make_labels
from kellybt.metrics import build_report
from kellybt.predictors import (Predictions, Scenarios, estimate_scenarios,
                                simulate_balanced, simulate_gaussian, simulate_optimal)
from kellybt.sizing import SizingPolicy, decide

import oracles
from conftest import backtest_once, make_series_from_closes, scenarios_on, traced_peak


def test_single_trade_worked_example():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    series = make_series_from_closes(closes)
    ts = int(series.timestamps[0])
    preds = Predictions([ts], [0.6])
    ests = Scenarios([ts], [0.05], [0.04])
    policy = SizingPolicy("kelly")  # full Kelly -> fraction 2.0
    curve, trades = backtest_once(series, preds, ests, policy, BacktestConfig())
    assert len(trades) == 1
    assert abs(trades.fraction[0] - 2.0) <= 1e-12
    assert trades.entry_price[0] == 100.0 and trades.exit_price[0] == 105.0
    assert abs(trades.realized_return[0] - 0.05) <= 1e-12
    assert abs(trades.pnl_fraction[0] - 0.10) <= 1e-12
    assert abs(curve.values[-1] - 1.10) <= 1e-12
    assert trades.exit_ts[0] - trades.entry_ts[0] == 5 * HOUR


def test_zero_modifier_flat_curve():
    series = generate_synthetic_series(seed=1, n=200, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=2)
    curve, trades = backtest_once(series, preds, scenarios_on(preds),
                                  SizingPolicy("none", modifier=0.0), BacktestConfig())
    assert np.all(curve.values == 1.0)
    assert (trades.side == "FLAT").all() and (trades.pnl_fraction == 0.0).all()


def test_side_is_decides_for_a_negative_zero_fraction():
    # -1 * 0 is -0.0. A NaN fraction halts the run before its trade instead
    # (test_run_halts_before_a_trade_whose_growth_factor_is_nan).
    p, scenario, policy = 0.3, (0.05, 0.04), SizingPolicy("none", modifier=0.0)
    series = make_series_from_closes([100.0, 101.0, 99.0, 102.0, 98.0, 100.0])
    ts = series.timestamps[:4]
    preds = Predictions(ts, [p] * 4)
    ests = Scenarios(ts, [scenario[0]] * 4, [scenario[1]] * 4)
    cfg = BacktestConfig(horizon=2, stride=1)
    _, trades = backtest_once(series, preds, ests, policy, cfg)
    decision = decide(p, scenario, policy)
    assert decision.side == "FLAT"
    assert trades.side.tolist() == [decision.side] * 4
    assert trades.fraction.tobytes() == np.full(4, decision.fraction / 2).tobytes()


def test_optimal_predictions_never_lose():
    series = generate_synthetic_series(seed=3, n=2000, volatility=0.012)
    labels = make_labels(series)
    preds = simulate_optimal(labels)
    ests = estimate_scenarios(series, window=100)
    for kind in ("none", "gaussian", "kelly"):
        policy = SizingPolicy(kind, modifier=0.5)
        curve, trades = backtest_once(series, preds, ests, policy, BacktestConfig())
        assert (trades.pnl_fraction >= 0.0).all()
        assert np.all(np.diff(curve.values) >= 0.0)


def test_determinism():
    series = generate_synthetic_series(seed=4, n=500, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_gaussian(labels, seed=5)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", kelly_fraction=0.2)
    a_curve, a_trades = backtest_once(series, preds, ests, policy, BacktestConfig())
    b_curve, b_trades = backtest_once(series, preds, ests, policy, BacktestConfig())
    assert np.array_equal(a_curve.values, b_curve.values)
    assert oracles.trade_records(a_trades) == oracles.trade_records(b_trades)


def test_compounding_identity():
    series = generate_synthetic_series(seed=6, n=1500, volatility=0.015)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=7)
    ests = estimate_scenarios(series, window=100)
    curve, trades = backtest_once(series, preds, ests,
                                  SizingPolicy("kelly", kelly_fraction=0.1),
                                  BacktestConfig())
    product = 1.0
    for pnl in trades.pnl_fraction.tolist():
        product *= 1.0 + pnl
    assert abs(curve.values[-1] / product - 1.0) <= 1e-12


def test_identical_trade_grid_across_policies():
    series = generate_synthetic_series(seed=8, n=1000, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_gaussian(labels, seed=9)
    ests = estimate_scenarios(series, window=100)
    policies = [SizingPolicy("none"), SizingPolicy("gaussian"),
                SizingPolicy("kelly", kelly_fraction=0.1)]
    results = compare_strategies(decision_grid(series, preds.timestamps, ests), preds, policies)
    counts = {len(r.trades) for r in results}
    assert len(counts) == 1
    ts0 = results[0].trades.entry_ts.tolist()
    for r in results[1:]:
        assert r.trades.entry_ts.tolist() == ts0


def test_duplicate_policy_identical_rows():
    series = generate_synthetic_series(seed=10, n=600, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=11)
    ests = estimate_scenarios(series, window=100)
    results = compare_strategies(decision_grid(series, preds.timestamps, ests), preds,
                                 [SizingPolicy("gaussian"), SizingPolicy("gaussian")])
    assert results[0].report == results[1].report
    assert np.array_equal(results[0].curve.values, results[1].curve.values)


def test_nonoverlapping_stride_disjoint_holding_periods():
    series = generate_synthetic_series(seed=12, n=400, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=13)
    curve, trades = backtest_once(series, preds, scenarios_on(preds), SizingPolicy("none"),
                                  BacktestConfig())
    assert (trades.entry_ts[1:] >= trades.exit_ts[:-1]).all()


def test_overlapping_exposure_divided_and_capped():
    series = generate_synthetic_series(seed=14, n=400, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=15)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", max_leverage=3.0, modifier=1.0)
    cfg = BacktestConfig(horizon=5, stride=1)
    curve, trades = backtest_once(series, preds, ests, policy, cfg)
    # ceil(5/1) = 5 concurrent slots
    assert (np.abs(trades.fraction) <= 3.0 / 5 + 1e-12).all()
    open_exposure = {}
    for t in oracles.trade_records(trades):
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
    curve, trades = backtest_once(series, preds, ests, policy, BacktestConfig())
    assert curve.ruin
    assert len(trades) == 1  # halted after the wipeout
    assert curve.values[-1] == 0.0


def test_bankroll_landing_exactly_on_the_ruin_floor_is_ruin():
    closes = [100.0] * 7 + [90.0, 80.0, 70.0, 60.0, 50.0] + [50.0] * 10
    series = make_series_from_closes(closes)
    ts = series.timestamps[[6, 12]]
    preds = Predictions(ts, [0.9, 0.9])
    # NONE bets the whole bankroll long: one trade loses exactly 50 %.
    curve, trades = backtest_once(series, preds, scenarios_on(preds), SizingPolicy("none"),
                                  BacktestConfig(ruin_floor=0.5))
    assert trades.realized_return[0] == -0.5
    assert curve.ruin
    assert len(trades) == 1 and curve.values[-1] == 0.5


@pytest.mark.parametrize("initial", [1.0, 250.0, 1e308])
def test_run_halts_before_the_trade_that_would_overflow_the_bankroll(initial):
    # Closes rise by half each bar and NONE bets 10x long: each trade grows
    # the bankroll about 6-fold, past the largest float within 400 trades.
    series = make_series_from_closes([100.0 * 1.5 ** k for k in range(500)])
    preds = Predictions(series.timestamps[:-1], [0.9] * 499)
    ests = scenarios_on(preds)
    policy = SizingPolicy("none", modifier=10.0)
    cfg = BacktestConfig(horizon=1, initial_bankroll=initial)
    curve, trades = backtest_once(series, preds, ests, policy, cfg)
    assert curve.overflow and not curve.ruin
    assert 0 <= len(trades) < 400 and len(curve) == len(trades) + 1
    assert np.isfinite(curve.values).all() and curve.values[0] == initial
    next_pnl = 10.0 * float(series.forward_return(1)[len(trades)])
    assert float(curve.values[-1]) * (1.0 + next_pnl) == math.inf
    o_curve, o_trades = oracles.o_run_backtest(series, oracles.prediction_records(preds),
                                               oracles.scenario_records(ests), policy, cfg)
    assert oracles.trade_records(trades) == o_trades and o_curve.overflow
    assert curve.values.tobytes() == o_curve.values.tobytes()
    report = build_report(curve, trades)
    assert report.flags[0] == "OVERFLOW"
    json.dumps(asdict(report), allow_nan=False)


@pytest.mark.parametrize("closes, p, ab, policy, fee_rate", [
    # Kelly on subnormal (a, b): p/a - q/b is inf - inf, a NaN fraction.
    ([100.0, 101.0, 99.0], 0.6, 5e-324, SizingPolicy("kelly"), 0.0),
    # An inf P&L less an inf fee: 1e300 times a 1e10-fold rise, less 1e308 fees.
    ([1.0, 1e10, 1e10, 1e10], 0.9, 0.05, SizingPolicy("none", modifier=1e300), 1e308),
], ids=["kelly-subnormal-ab", "inf-pnl-less-inf-fee"])
def test_run_halts_before_a_trade_whose_growth_factor_is_nan(closes, p, ab, policy, fee_rate):
    # These runs once went on with curve values [1, nan, ...] and neither flag.
    series = make_series_from_closes(closes)
    ts = series.timestamps[:-1]
    preds = Predictions(ts, [p] * len(ts))
    ests = Scenarios(ts, [ab] * len(ts), [ab] * len(ts))
    cfg = BacktestConfig(horizon=1, fee_rate=fee_rate)
    curve, trades = backtest_once(series, preds, ests, policy, cfg)
    assert curve.overflow and not curve.ruin
    assert len(trades) == 0 and curve.values.tolist() == [1.0]
    o_curve, o_trades = oracles.o_run_backtest(series, oracles.prediction_records(preds),
                                               oracles.scenario_records(ests), policy, cfg)
    assert o_trades == [] and o_curve.overflow and not o_curve.ruin
    assert curve.values.tobytes() == o_curve.values.tobytes()
    report = build_report(curve, trades)
    assert report.flags[0] == "OVERFLOW"
    json.dumps(asdict(report), allow_nan=False)


def test_trades_and_curve_hold_the_grid_and_the_computed_columns(monkeypatch):
    # Every column is read-only when the frames are built, so they hold it.
    given = {}

    def spy(cls):
        def make(*args, **kwargs):
            given[cls] = args
            return cls(*args, **kwargs)
        return make

    monkeypatch.setattr(backtest, "Trades", spy(Trades))
    monkeypatch.setattr(backtest, "EquityCurve", spy(EquityCurve))
    series = generate_synthetic_series(seed=6, n=600, volatility=0.01)
    preds = simulate_gaussian(make_labels(series), seed=7)
    ests = estimate_scenarios(series, window=100)
    grid = decision_grid(series, preds.timestamps, ests, BacktestConfig(stride=1))
    curve, trades = run_backtest(grid, preds, SizingPolicy("kelly"))
    for frame, args in ((trades, given[Trades]), (curve, given[EquityCurve])):
        for f, arg in zip(fields(frame), args):
            assert getattr(frame, f.name) is arg
    for name, col in (("entry_ts", grid.entry_ts), ("exit_ts", grid.exit_ts),
                      ("entry_price", grid.entry_price), ("exit_price", grid.exit_price),
                      ("realized_return", grid.realized)):
        assert np.shares_memory(getattr(trades, name), col)


def _count_calls(monkeypatch):
    """The arguments of each ``decision_grid`` and ``run_backtest`` call."""
    builds, runs = [], []

    def count(calls, fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)
        return counted

    monkeypatch.setattr(backtest, "decision_grid", count(builds, backtest.decision_grid))
    monkeypatch.setattr(backtest, "run_backtest", count(runs, backtest.run_backtest))
    return builds, runs


def test_a_comparison_builds_one_grid_per_seed(monkeypatch, tmp_path):
    # The simulators of a seed predict on its labels' timestamps and share its
    # scenarios, so its nine runs share one grid; each policy still runs.
    builds, runs = _count_calls(monkeypatch)
    assert cli.main(["compare", "--seeds", "0-1", "--n", "600",
                     "--sims", "balanced,optimal,gaussian", "--policy", "none,gaussian,kelly",
                     "--out", str(tmp_path)]) == 0
    assert len(runs) == 2 * 3 * 3
    assert len(builds) == 2
    assert len({id(series) for series, *_ in builds}) == 2


def test_simulate_builds_one_grid_for_its_policies(monkeypatch, tmp_path):
    builds, runs = _count_calls(monkeypatch)
    assert cli.main(["simulate", "--n", "600", "--policy", "none,gaussian,kelly",
                     "--out", str(tmp_path)]) == 0
    assert len(runs) == 3
    assert len(builds) == 1
    assert len({id(grid) for grid, *_ in runs}) == 1


@pytest.mark.parametrize("command", ["backtest", "report"])
def test_a_command_over_a_prediction_file_builds_one_grid(monkeypatch, tmp_path, command):
    assert cli.main(["synth", "--n", "600", "--out", str(tmp_path / "synth")]) == 0
    candles = str(tmp_path / "synth" / "candles.csv")
    assert cli.main(["simulate", "--input", candles, "--out", str(tmp_path / "sim")]) == 0
    builds, runs = _count_calls(monkeypatch)
    assert cli.main([command, "--input", candles,
                     "--predictions", str(tmp_path / "sim" / "predictions.csv"),
                     "--out", str(tmp_path / command)]) == 0
    assert len(builds) == len(runs) == 1


def test_run_backtest_peak_memory_is_below_the_trades_it_returns():
    # 50,000 stride-1 bets over a cached grid. The frames hold the grid's
    # columns and the computed ones without a copy, and decide reads p, a and
    # b through memoryviews: the run peaks at about 0.7 times the bytes of the
    # trades' columns. Three lists of Python floats and a copy of every
    # column peaked at 3.2.
    n = 50_000
    series = generate_synthetic_series(seed=8, n=n + 5, volatility=0.01)
    rng = np.random.default_rng(9)
    ts = series.timestamps[:n]
    preds = Predictions(ts, rng.uniform(0.3, 0.7, n))
    ests = Scenarios(ts, *rng.uniform(0.01, 0.05, (2, n)))
    grid = decision_grid(series, preds.timestamps, ests, BacktestConfig(stride=1, ruin_floor=0.0))
    (_, trades), peak = traced_peak(run_backtest, grid, preds, SizingPolicy("gaussian"))
    assert len(trades) == n
    assert peak < 1.5 * sum(getattr(trades, f.name).nbytes for f in fields(trades))


def test_skips_timestamps_without_estimates():
    series = generate_synthetic_series(seed=16, n=300, volatility=0.01)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=17)
    ests = estimate_scenarios(series, window=200)  # defined only from bar 200
    curve, trades = backtest_once(series, preds, ests, SizingPolicy("none"),
                                  BacktestConfig())
    first_est_ts = ests.timestamps[0]
    assert trades.entry_ts[0] >= first_est_ts


def test_misaligned_prediction_rejected():
    series = generate_synthetic_series(seed=18, n=50)
    preds = Predictions([999_999_999], [0.7])
    with pytest.raises(ValueError, match="prediction timestamp 999999999 is not in"):
        backtest_once(series, preds, scenarios_on(preds), SizingPolicy("none"), BacktestConfig())
    preds = Predictions(series.timestamps, np.full(len(series), 0.7))
    ests = Scenarios([999_999_999], [0.01], [0.01])
    with pytest.raises(ValueError, match="estimate timestamp 999999999 is not in"):
        backtest_once(series, preds, ests, SizingPolicy("none"), BacktestConfig())


def test_empty_decision_set_rejected():
    series = generate_synthetic_series(seed=19, n=50)
    preds = Predictions(series.timestamps[-1:], [0.7])  # no horizon room
    with pytest.raises(ValueError, match="usable decision"):
        backtest_once(series, preds, scenarios_on(preds), SizingPolicy("none"), BacktestConfig())


def test_fees_charged_per_side():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    series = make_series_from_closes(closes)
    ts = int(series.timestamps[0])
    preds = Predictions([ts], [0.7])
    cfg = BacktestConfig(fee_rate=0.001)
    curve, trades = backtest_once(series, preds, scenarios_on(preds), SizingPolicy("none"), cfg)
    want = 1.0 * 0.05 - 0.001 * 1.0 * 2.0
    assert abs(trades.pnl_fraction[0] - want) <= 1e-15


def test_no_lookahead_prefix_audit():
    series = generate_synthetic_series(seed=20, n=600, volatility=0.012)
    labels = make_labels(series)
    preds = simulate_balanced(labels, seed=21)
    ests = estimate_scenarios(series, window=100)
    policy = SizingPolicy("kelly", kelly_fraction=0.25)
    full_curve, full_trades = backtest_once(series, preds, ests, policy, BacktestConfig())
    cut = 400
    cut_ts = int(series.timestamps[cut])
    prefix = series.slice(0, cut + 1)
    keep = preds.timestamps <= cut_ts
    preds_p = Predictions(preds.timestamps[keep], preds.p_up[keep])
    ests_p = estimate_scenarios(prefix, window=100)
    p_curve, p_trades = backtest_once(prefix, preds_p, ests_p, policy, BacktestConfig())
    keep = [t for t in oracles.trade_records(full_trades) if t.exit_ts <= cut_ts]
    assert oracles.trade_records(p_trades) == keep


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
    preds = Predictions(series.timestamps, np.full(len(series), 0.6))
    grid = decision_grid(series, preds.timestamps, scenarios_on(preds))
    with pytest.raises(ValueError, match="policy"):
        compare_strategies(grid, preds, [])
