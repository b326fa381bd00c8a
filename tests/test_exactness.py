"""Exactness properties: the per-bet sizing step and the scalar Kelly and
Gaussian sizes that read it, the columnar backtest,
monthly returns, Gaussian simulator, scenario estimator and precision/recall
sweep equal the per-row loops they replaced (kept in oracles.py) exactly, on
drawn inputs, including the errors they raise. The loops take and return
per-row records, so each frame is turned into records
(``oracles.prediction_records``, ``scenario_records``, ``trade_records``)
before it is handed to one or compared with its result. The backtest's
cached decision grid is checked the same way across sequences of runs that
share it, against a fresh grid per policy, and on candidate gap patterns the
drawn frames rarely reach. The normalizer's slice of
the training rows, fitted a block of rows at a time, gives the mean and std
of the boolean-mask copy fitted in one call that it replaced, bit for bit."""
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellybt.backtest import (BacktestConfig, EquityCurve, StrategyResult, Trades,
                              _decision_grid, compare_strategies, run_backtest)
from kellybt.candles import HOUR, CandleSeries, generate_synthetic_series
from kellybt import features
from kellybt.features import FeatureMatrix, LabelSet, fit_normalizer
from kellybt.metrics import build_report, monthly_returns, precision_recall_points
from kellybt.predictors import Predictions, Scenarios, estimate_scenarios, simulate_gaussian
from kellybt.sizing import SizingPolicy, decide, gaussian_bet_size, kelly_fraction

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
    records = oracles.trade_records(trades)
    assert records == o_trades
    assert repr(records) == repr(o_trades)  # also tells -0.0 from 0.0
    assert curve.ruin == o_curve.ruin
    for col, o_col in ((curve.timestamps, o_curve.timestamps), (curve.values, o_curve.values)):
        assert col.dtype == o_col.dtype and col.tobytes() == o_col.tobytes()
    assert _outcome(build_report, curve, trades) == _outcome(oracles.o_build_report,
                                                              o_curve, o_trades)


def _decision_bits(fn, p, scenario, policy):
    """fn's decision with both fractions as their IEEE bits (so -0.0, each
    NaN and each infinity count), or the type and text of its ValueError."""
    try:
        d = fn(p, scenario, policy)
    except ValueError as exc:
        return (type(exc), str(exc))
    return struct.pack("<2d", d.raw_fraction, d.fraction), d.side


# 0.75 or 0.25 with a = b = 0.25 is a Kelly fraction of exactly +-2; a subnormal
# a or b makes p/a or q/b inf, and both together inf - inf = NaN.
_EDGE_P = [0.5, 1e-17, 5e-324, 0.25, 0.75, 1.0 - 2**-53]
_BAD_P = [0.0, 1.0, -0.25, 1.5, math.nan, math.inf]
_EDGE_AB = [0.25, 0.05, 5e-324, 1e-310]
_BAD_AB = [0.0, -0.1, math.nan]


@st.composite
def decide_args(draw):
    kind = draw(st.sampled_from(["none", "gaussian", "kelly"]))
    policy = SizingPolicy(
        kind,
        kelly_fraction=draw(st.sampled_from([1.0, 0.5]) |
                            st.floats(0.0, 1.0, exclude_min=True)),
        max_leverage=draw(st.sampled_from([1.0, 2.0, 5.0]) | st.floats(1e-3, 1e3)),
        expected=draw(st.sampled_from([0.5, 0.6]) |
                      st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        modifier=draw(st.sampled_from([0.0, 1.0, 0.7]) | st.floats(0.0, 10.0)))
    p = draw(st.sampled_from(_EDGE_P + [policy.expected]) |
             st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) |
             st.sampled_from(_BAD_P))
    magnitude = st.sampled_from(_EDGE_AB) | st.floats(5e-324, 10.0) | st.sampled_from(_BAD_AB)
    scenario = draw(st.tuples(magnitude, magnitude))
    return p, scenario, policy


@settings(PROPERTY, max_examples=400)
@given(args=decide_args())
@example(args=(0.5, (0.05, 0.04), SizingPolicy("none")))
@example(args=(0.6, (0.05, 0.04), SizingPolicy("gaussian", expected=0.6)))
@example(args=(1e-17, (0.05, 0.04), SizingPolicy("gaussian", max_leverage=1.0)))
@example(args=(0.75, (0.25, 0.25), SizingPolicy("kelly", max_leverage=2.0)))
@example(args=(0.25, (0.25, 0.25), SizingPolicy("kelly", max_leverage=2.0, modifier=0.7)))
@example(args=(0.7, (0.05, 0.04), SizingPolicy("none", max_leverage=1.0)))
@example(args=(0.3, (0.05, 0.04), SizingPolicy("none", modifier=0.0)))
@example(args=(0.6, (5e-324, 0.05), SizingPolicy("kelly", kelly_fraction=0.5)))
@example(args=(0.6, (0.05, 5e-324), SizingPolicy("kelly")))
@example(args=(0.6, (5e-324, 5e-324), SizingPolicy("kelly", modifier=0.0)))
@example(args=(math.nan, (0.05, 0.04), SizingPolicy("none")))
@example(args=(1.5, (0.05, 0.04), SizingPolicy("none")))
def test_decide_equals_frozen_per_bet_arithmetic(args):
    got = _decision_bits(decide, *args)
    assert got == _decision_bits(oracles.o_decide, *args)


def _float_bits(fn, *args):
    """fn's float result as its IEEE bits, or the type and text of its ValueError."""
    try:
        return struct.pack("<d", fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc))


_PROBABILITY = (st.sampled_from(_EDGE_P) |
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) |
                st.sampled_from(_BAD_P))
_MAGNITUDE = st.sampled_from(_EDGE_AB) | st.floats(5e-324, 10.0) | st.sampled_from(_BAD_AB)


@settings(PROPERTY, max_examples=300)
@given(p=_PROBABILITY, a=_MAGNITUDE, b=_MAGNITUDE)
@example(p=0.75, a=0.25, b=0.25)
@example(p=0.6, a=5e-324, b=5e-324)
@example(p=math.nan, a=math.nan, b=0.05)
@example(p=0.6, a=0.05, b=math.nan)
def test_kelly_fraction_equals_frozen_arithmetic(p, a, b):
    # kelly_fraction reads decide's raw fraction; the oracle writes p/a - q/b out.
    assert _float_bits(kelly_fraction, p, a, b) == _float_bits(oracles.o_kelly_fraction, p, a, b)


@settings(PROPERTY, max_examples=300)
@given(p=_PROBABILITY, expected=_PROBABILITY)
@example(p=0.6, expected=0.6)
@example(p=1e-17, expected=0.5)
@example(p=0.3, expected=0.7)
@example(p=0.5, expected=math.nan)
def test_gaussian_bet_size_equals_frozen_arithmetic(p, expected):
    assert (_float_bits(gaussian_bet_size, p, expected)
            == _float_bits(oracles.o_gaussian_bet_size, p, expected))


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


def _drawn_frames(data, series, seed):
    """Predictions (a few missing, one maybe off the series), scenarios (all
    or some) and a config drawn for ``series``."""
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
    kept = rng.random(n) >= data.draw(st.sampled_from([0.0, 0.3]))
    ests = Scenarios(ts[kept], a[kept], b[kept])

    horizon = data.draw(st.integers(1, 8))
    cfg = BacktestConfig(horizon=horizon,
                         stride=data.draw(st.none() | st.integers(1, horizon + 2)),
                         fee_rate=data.draw(st.sampled_from([0.0, 0.001, 0.05])),
                         initial_bankroll=data.draw(st.sampled_from([1.0, 250.0])),
                         ruin_floor=data.draw(st.sampled_from([0.0, 0.01, 0.5, 0.95])))
    return preds, ests, cfg


def _o_run_backtest(series, preds, ests, policy, cfg):
    """The per-row oracle run on the frames' records."""
    return oracles.o_run_backtest(series, oracles.prediction_records(preds),
                                  oracles.scenario_records(ests), policy, cfg)


@PROPERTY
@given(data=st.data(), series=shocked_series(), seed=seeds)
def test_run_backtest_equals_sequential_loop(data, series, seed):
    preds, ests, cfg = _drawn_frames(data, series, seed)
    policy = SizingPolicy(data.draw(st.sampled_from(["none", "gaussian", "kelly"])),
                          kelly_fraction=data.draw(st.sampled_from([1.0, 0.5])),
                          max_leverage=data.draw(st.sampled_from([5.0, 2.0, 0.5])),
                          modifier=data.draw(st.sampled_from([1.0, 2.0, 0.0])))
    _assert_same_run(_outcome(run_backtest, series, preds, ests, policy, cfg),
                     _outcome(_o_run_backtest, series, preds, ests, policy, cfg))


@PROPERTY
@given(data=st.data(), series=shocked_series(), seed=seeds)
def test_decision_grid_cache_does_not_leak_between_inputs(data, series, seed):
    """One interleaved sequence of runs that share, miss and re-fill the grid
    cache: every outcome equals the per-row oracle's."""
    preds, ests, cfg = _drawn_frames(data, series, seed)
    ts = series.timestamps
    policies = [SizingPolicy(kind, max_leverage=2.0) for kind in ("none", "gaussian", "kelly")]
    copy = Predictions(preds.timestamps.copy(), preds.p_up.copy())
    mirrored = Predictions(preds.timestamps, 1.0 - preds.p_up)
    other_cfg = data.draw(st.sampled_from([
        replace(cfg, horizon=cfg.horizon + 1),
        replace(cfg, stride=cfg.effective_stride + 1),
        replace(cfg, fee_rate=0.01, ruin_floor=0.0)]))  # same grid, other P&L
    good = [(series, preds, ests, policy, cfg) for policy in policies]
    good += [(series, copy, ests, policies[2], cfg),
             (series, mirrored, ests, policies[1], cfg),
             (series, preds, ests, policies[2], other_cfg),
             (series, preds, ests, policies[0], cfg)]
    calls = data.draw(st.permutations(good))
    bad = data.draw(st.sampled_from([
        (series, Predictions([ts[-1] + HOUR], [0.6]), ests, policies[0], cfg),
        (series, preds, Scenarios([], [], []), policies[2], cfg),
        (series, Predictions(ts[-1:], [0.6]), ests, policies[1], cfg)]))
    calls.insert(data.draw(st.integers(1, len(calls) - 1)), bad)
    for args in calls:
        _assert_same_run(_outcome(run_backtest, *args), _outcome(_o_run_backtest, *args))

    try:
        grid = _decision_grid(series, preds, ests, cfg.horizon, cfg.effective_stride)
    except ValueError:
        return
    assert grid is _decision_grid(series, preds, ests, cfg.horizon, cfg.effective_stride)
    # The grid reads no p: predictions on the same timestamps array share it.
    assert grid is _decision_grid(series, mirrored, ests, cfg.horizon, cfg.effective_stride)
    for col in grid:
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0


def _frame_bits(frame):
    """Every field of a frame; float columns as their int64 bit patterns."""
    out = []
    for f in fields(frame):
        value = getattr(frame, f.name)
        if isinstance(value, np.ndarray):
            bits = value.view(np.int64) if value.dtype == np.float64 else value
            value = (value.dtype.str, bits.tolist())
        out.append((f.name, value))
    return out


def _result_bits(results):
    return [(r.policy, _frame_bits(r.curve), _frame_bits(r.trades), repr(r.report))
            for r in results]


def _afresh(preds):
    """The same predictions on a timestamps array no cached grid was built
    from, so that a run over them builds its grid afresh."""
    return Predictions(preds.timestamps.copy(), preds.p_up)


def _lone_runs(series, preds, ests, policies, cfg):
    """Each policy run by itself, on a grid built afresh."""
    results = []
    for policy in policies:
        curve, trades = run_backtest(series, _afresh(preds), ests, policy, cfg)
        results.append(StrategyResult(policy, curve, trades, build_report(curve, trades)))
    return results


@PROPERTY
@given(data=st.data(), series=shocked_series(), seed=seeds)
def test_compare_strategies_equals_lone_runs(data, series, seed):
    preds, ests, cfg = _drawn_frames(data, series, seed)
    cap = data.draw(st.sampled_from([5.0, 2.0, 0.5]))
    modifier = data.draw(st.sampled_from([1.0, 0.7, 0.0]))
    policies = [SizingPolicy(kind, max_leverage=cap, modifier=modifier)
                for kind in ("none", "gaussian", "kelly")]
    got = _outcome(compare_strategies, series, _afresh(preds), ests, policies, cfg)
    want = _outcome(_lone_runs, series, preds, ests, policies, cfg)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _result_bits(got) == _result_bits(want)


def _runs(lengths, gaps, count):
    """Bars of ``count`` runs of consecutive bars from bar 3, the i-th of
    ``lengths[i % len]`` bars followed by a gap of ``gaps[i % len]`` bars."""
    bars, at = [], 3
    for i in range(count):
        length, gap = lengths[i % len(lengths)], gaps[i % len(gaps)]
        bars.extend(range(at, at + length))
        at += length + gap
    return bars


# Candidate patterns the drawn frames rarely reach, as bars for a stride.
# With a stride of 3 or more, each run of stride + 1 bars after the first
# starts before the next bar the lattice allows, and its first chosen bar
# falls inside it.
_GAP_PATTERNS = {
    "every_other_bar": lambda stride: _runs([1], [1], 120),
    "isolated_bars": lambda stride: _runs([1], [2, 5, 1, 3, 8], 60),
    "gaps_of_stride_minus_one_stride_and_stride_plus_one":
        lambda stride: _runs([1, 3, stride + 2, 2], [stride - 1, stride, stride + 1], 36),
    "run_starts_before_next_allowed": lambda stride: _runs([stride + 1], [1], 24),
}


@pytest.mark.parametrize("horizon", [1, 2, 5])
@pytest.mark.parametrize("pattern", sorted(_GAP_PATTERNS))
def test_lattice_over_gap_patterns_equals_sequential_loop(pattern, horizon):
    """The run-wise lattice walk chooses the per-row loop's points on gap
    patterns, for every stride from 1 to horizon + 2, bit for bit."""
    for stride in range(1, horizon + 3):
        bars = np.array(_GAP_PATTERNS[pattern](stride))
        series = generate_synthetic_series(seed=stride, n=int(bars[-1]) + 1 + horizon // 2,
                                           volatility=0.02)
        rng = np.random.default_rng(horizon * 10 + stride)
        ts = series.timestamps
        preds = Predictions(ts[bars], rng.uniform(0.05, 0.95, bars.size))
        ests = Scenarios(ts, *rng.uniform(0.005, 0.05, (2, len(series))))
        cfg = BacktestConfig(horizon=horizon, stride=stride, fee_rate=0.001, ruin_floor=0.0)
        for kind in ("none", "gaussian", "kelly"):
            policy = SizingPolicy(kind, max_leverage=2.0)
            _assert_same_run(run_backtest(series, preds, ests, policy, cfg),
                             _o_run_backtest(series, preds, ests, policy, cfg))

        if pattern == "run_starts_before_next_allowed" and stride >= 3:
            chosen = set(_decision_grid(series, preds, ests, horizon, stride).rows.tolist())
            runs = np.split(np.arange(bars.size), np.flatnonzero(np.diff(bars) != 1) + 1)
            assert any(run[0] not in chosen and chosen.intersection(run.tolist())
                       for run in runs)


@PROPERTY
@given(start=st.integers(-2**31, 2**33),
       steps=st.lists(st.sampled_from([0, 1, 3600, 86_400 * 20, 86_400 * 95]), max_size=60),
       seed=seeds)
def test_monthly_returns_and_report_equal_per_point_loop(start, steps, seed):
    rng = np.random.default_rng(seed)
    timestamps = start + np.cumsum([0] + steps, dtype=np.int64)
    values = rng.uniform(0.05, 3.0, timestamps.size)
    curve = EquityCurve(timestamps, values, ruin=bool(rng.random() < 0.5))
    m = timestamps.size - 1
    trades = Trades(np.zeros(m), np.zeros(m), ["LONG"] * m, np.ones(m), np.ones(m),
                    np.ones(m), np.zeros(m), rng.normal(0.0, 0.01, m))
    got, want = monthly_returns(curve), oracles.o_monthly_returns(curve)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert build_report(curve, trades) == oracles.o_build_report(
        curve, oracles.trade_records(trades))


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


# Walks that need a third block of n draws: (seed, n), each with mu 0.51 and
# 0.49, sigma 3 and hit rate 1 (found with o_simulate_gaussian_blocks).
THIRD_BLOCK = [(1, 1), (1, 5), (3, 2), (3, 5)]


@settings(PROPERTY, max_examples=120)
@given(seed=seeds, n=st.integers(1, 400),
       mu_long=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       mu_short=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       sigma=st.one_of(st.floats(0.001, 3.0), st.sampled_from([3.0, 1e-9])),
       hit_rate=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)))
@example(seed=0, n=1, mu_long=0.6, mu_short=0.4, sigma=0.1, hit_rate=1.0)
def test_simulate_gaussian_equals_the_block_walk(seed, n, mu_long, mu_short, sigma, hit_rate):
    labels = _labels(seed, n)
    got = simulate_gaussian(labels, seed, mu_long, mu_short, sigma, hit_rate).p_up
    want, _ = oracles.o_simulate_gaussian_blocks(labels, seed, mu_long, mu_short, sigma,
                                                 hit_rate)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed, n", THIRD_BLOCK)
def test_simulate_gaussian_walks_into_a_third_block(seed, n):
    labels = _labels(seed, n)
    want, draws = oracles.o_simulate_gaussian_blocks(labels, seed, 0.51, 0.49, 3.0, 1.0)
    assert draws > 2 * n
    got = simulate_gaussian(labels, seed, 0.51, 0.49, 3.0, 1.0).p_up
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


def _train_bound(ts, where, i):
    """A bound before the first row, on row i, between rows i and i + 1 (the
    rows are at least 2 apart), or after the last row."""
    return {"before": int(ts[0]) - 1, "on": int(ts[i]), "between": int(ts[i]) + 1,
            "after": int(ts[-1]) + 1}[where]


bound_places = st.sampled_from(["before", "on", "between", "after"])


@PROPERTY
@given(seed=seeds, n=st.integers(1, 60), k=st.integers(1, 4), lo_at=bound_places,
       hi_at=bound_places, lo_row=st.integers(0, 59), hi_row=st.integers(0, 59))
def test_fit_normalizer_slice_equals_the_mask_copy(seed, n, k, lo_at, hi_at, lo_row, hi_row):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(2, 5, n)) - 2**40
    values = rng.normal(0.0, 1.0, (n, k)) * 10.0 ** rng.integers(-5, 6, k)
    values[:, rng.random(k) < 0.25] = 7.0  # constant columns
    matrix = FeatureMatrix(ts, tuple(f"c{j}" for j in range(k)), values)
    train = (_train_bound(ts, lo_at, lo_row % n), _train_bound(ts, hi_at, hi_row % n))
    rows = int(((ts >= train[0]) & (ts <= train[1])).sum())
    if rows < 2:
        with pytest.raises(ValueError, match=f"got {rows}$"):
            fit_normalizer(ts, values, matrix.column_names, train)
        return
    _assert_same_fit(matrix, train)


def _assert_same_fit(matrix, train):
    got = fit_normalizer(matrix.timestamps, matrix.values, matrix.column_names, train)
    mean, std = oracles.o_fit_normalizer(matrix, train)
    assert np.array_equal(got.mean.view(np.int64), mean.view(np.int64))
    assert np.array_equal(got.std.view(np.int64), std.view(np.int64))


@pytest.mark.parametrize("block_rows", [1, 2, 7, 4096])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 33])
def test_fit_normalizer_row_blocks_equal_one_fit_over_every_row(monkeypatch, k, block_rows):
    # The fit sums squared deviations a block of rows at a time, carrying the
    # sum into the next block; numpy's std adds the whole slice row after row
    # (a lone column pairwise). With two or more columns, the last overflows
    # numpy's std and takes the power-of-two refit.
    monkeypatch.setattr(features, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(k)
    n = 300
    ts = np.cumsum(rng.integers(1, 4, n)) * 3600
    values = rng.normal(0.0, 1.0, (n, k)) * 10.0 ** rng.integers(-8, 9, k) + rng.normal(0, 1e3, k)
    if k > 1:
        values[:, -1] = rng.choice([-1.0, 1.0], n) * rng.uniform(1e300, 1.7e300, n)
        with np.errstate(over="ignore"):
            assert not np.isfinite(values[:, -1].std(ddof=1))
    if k > 2:
        values[:, -2] = 3.0  # a constant column
    matrix = FeatureMatrix(ts, tuple(f"c{j}" for j in range(k)), values)
    for rows in (2, 3, 7, 8, 9, 14, 15, 100, n):
        for start in (0, n - rows):
            _assert_same_fit(matrix, (int(ts[start]), int(ts[start + rows - 1])))
