import dataclasses
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from kellybt.backtest import EquityCurve, Trades
from kellybt.features import LabelSet
from kellybt.metrics import (build_report, classification_report, cumulative_return,
                             max_drawdown, monthly_returns, precision_recall_points,
                             regression_report, romad, sharpe_monthly)
from kellybt.predictors import Predictions

import oracles


def _curve(values, timestamps=None, ruin=False):
    values = np.asarray(values, dtype=np.float64)
    if timestamps is None:
        timestamps = np.arange(values.size, dtype=np.int64) * 3600
    return EquityCurve(np.asarray(timestamps, dtype=np.int64), values, ruin=ruin)


def _epoch(y, m, d, h=0):
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp())


def test_cumulative_return_examples():
    assert abs(cumulative_return(_curve([100.0, 363.0])) - 263.0) <= 1e-12
    assert cumulative_return(_curve([50.0, 50.0, 50.0])) == 0.0
    assert abs(cumulative_return(_curve([100.0, 50.0])) - (-50.0)) <= 1e-12


def test_max_drawdown_examples():
    assert max_drawdown(_curve([1.0, 1.5, 2.0])) == 0.0
    assert abs(max_drawdown(_curve([100.0, 120.0, 90.0, 130.0])) - 25.0) <= 1e-12


def test_max_drawdown_equals_quadratic_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        values = np.exp(rng.normal(0, 0.05, size=n).cumsum()) * 100.0
        got = max_drawdown(_curve(values))
        want = oracles.o_max_drawdown_pct(list(values))
        assert got == want


def test_max_drawdown_rejects_negative_values():
    with pytest.raises(ValueError):
        max_drawdown(_curve([1.0, -0.5]))
    with pytest.raises(ValueError):
        max_drawdown(_curve([0.0, 1.0]))


def test_max_drawdown_accepts_zero_after_the_first_value():
    assert max_drawdown(_curve([1.0, 0.0])) == 100.0


def test_monthly_returns_hand_example():
    ts = [_epoch(2021, 1, 10), _epoch(2021, 1, 28), _epoch(2021, 2, 25)]
    curve = _curve([1.0, 1.02, 1.02 * 1.04], timestamps=ts)
    rets = monthly_returns(curve)
    assert np.allclose(rets, [0.02, 0.04], atol=1e-12)
    s = sharpe_monthly(curve)
    assert abs(s - 0.03 / 0.014142135623730951) <= 1e-9


def test_monthly_returns_gap_month_carries_forward():
    ts = [_epoch(2021, 1, 10), _epoch(2021, 1, 28), _epoch(2021, 3, 25)]
    curve = _curve([1.0, 1.1, 1.21], timestamps=ts)
    rets = monthly_returns(curve)
    assert np.allclose(rets, [0.1, 0.0, 0.1], atol=1e-12)


@pytest.mark.parametrize("metric", [cumulative_return, max_drawdown, monthly_returns])
def test_metrics_reject_an_empty_curve(metric):
    with pytest.raises(ValueError, match="empty equity curve"):
        metric(EquityCurve([], []))


@pytest.mark.parametrize("metric", [monthly_returns, sharpe_monthly, romad,
                                    lambda curve: build_report(curve, [])])
def test_monthly_metrics_reject_decreasing_timestamps(metric):
    # A curve ending in an earlier month than it starts used to loop forever.
    curve = _curve([1.0, 1.1], timestamps=[_epoch(2024, 3, 1), _epoch(2024, 1, 1)])
    with pytest.raises(ValueError, match="non-decreasing"):
        metric(curve)


def test_monthly_returns_reject_zero_before_last_month():
    ts = [_epoch(2024, 1, 1), _epoch(2024, 2, 10), _epoch(2024, 3, 20)]
    with pytest.raises(ValueError, match="zero before its last month"):
        monthly_returns(_curve([1.0, 0.0, 0.5], timestamps=ts))
    # A wipeout ends the curve, so a zero in the last month stays valid.
    assert monthly_returns(_curve([1.0, 0.5, 0.0], timestamps=ts))[-1] == -1.0


def test_sharpe_zero_variance_is_undefined():
    ts = [_epoch(2021, 1, 10), _epoch(2021, 1, 31), _epoch(2021, 2, 28)]
    curve = _curve([1.0, 1.02, 1.02 * 1.02], timestamps=ts)
    assert sharpe_monthly(curve) is None


def test_sharpe_needs_two_months():
    ts = [_epoch(2021, 1, 10), _epoch(2021, 1, 28)]
    with pytest.raises(ValueError, match="2 calendar months"):
        sharpe_monthly(_curve([1.0, 1.5], timestamps=ts))


def test_romad_hand_example():
    ts = [_epoch(2021, 1, 1), _epoch(2021, 1, 15), _epoch(2021, 1, 31)]
    curve = _curve([1.0, 0.98, 1.05], timestamps=ts)
    dd = max_drawdown(curve) / 100.0
    assert abs(dd - 0.02) <= 1e-12
    assert abs(romad(curve) - 0.05 / 0.02) <= 1e-9


def test_romad_zero_drawdown_is_undefined():
    ts = [_epoch(2021, 1, 1), _epoch(2021, 1, 31)]
    assert romad(_curve([1.0, 1.3], timestamps=ts)) is None


def test_scale_invariance_of_curve_metrics():
    rng = np.random.default_rng(1)
    values = np.exp(rng.normal(0.001, 0.03, size=400).cumsum())
    ts = _epoch(2021, 1, 1) + np.arange(400) * 3600 * 12
    base = _curve(values, timestamps=ts)
    scaled = _curve(values * 7.3, timestamps=ts)
    assert abs(cumulative_return(base) - cumulative_return(scaled)) <= 1e-9
    assert abs(max_drawdown(base) - max_drawdown(scaled)) <= 1e-9
    assert abs(sharpe_monthly(base) - sharpe_monthly(scaled)) <= 1e-9
    assert abs(romad(base) - romad(scaled)) <= 1e-9


def test_build_report_flags():
    ts = [_epoch(2021, 1, 1), _epoch(2021, 1, 31)]
    no_trades = Trades(*[[]] * 8)
    report = build_report(_curve([1.0, 1.3], timestamps=ts), no_trades)
    assert "SHARPE_NA" in report.flags and "ROMAD_NA" in report.flags
    assert report.sharpe is None and report.romad is None
    report = build_report(_curve([1.0, 0.5], timestamps=ts, ruin=True), no_trades)
    assert "RUIN" in report.flags



@pytest.mark.parametrize("values, cumulative, drawdown", [
    ([1.0, 1e-300, 1e307], None, 100.0),  # a month's return and the percent overflow
    ([1.0, 1e200, 1e200], 1e202, 0.0),  # the square of a month's return overflows
])
def test_build_report_gives_none_for_figures_past_the_largest_float(values, cumulative,
                                                                    drawdown):
    # numpy warns of no overflow either (warnings are errors here).
    ts = [_epoch(2021, 1, 1), _epoch(2021, 2, 1), _epoch(2021, 3, 1)]
    curve = EquityCurve(np.array(ts), np.array(values), overflow=True)
    report = build_report(curve, Trades(*[[]] * 8))
    assert report.cumulative_return_pct == cumulative
    assert report.max_drawdown_pct == drawdown
    assert report.sharpe is None and report.romad is None
    assert report.flags == ("OVERFLOW", "SHARPE_NA", "ROMAD_NA")
    json.dumps(dataclasses.asdict(report), allow_nan=False)


# --- classification -------------------------------------------------------------


def _label_set(directions, start_ts=0):
    n = len(directions)
    ts = np.arange(n, dtype=np.int64) * 3600 + start_ts
    d = np.asarray(directions, dtype=np.int8)
    change = d * 0.01
    return LabelSet(ts, d, change, np.abs(change), horizon=5)


def test_uniform_predictor_logloss_is_ln2():
    labels = _label_set([1, -1, 1, 1, -1, -1, 1, -1])
    preds = Predictions(labels.timestamps, np.full(len(labels), 0.5))
    report = classification_report(preds, labels)
    assert abs(report.logloss - math.log(2.0)) <= 1e-12


def test_perfect_hard_predictions():
    labels = _label_set([1, -1, 1, -1, 1, -1])
    preds = Predictions(labels.timestamps, np.where(labels.direction > 0, 0.99, 0.01))
    report = classification_report(preds, labels)
    for cls in (report.up, report.down):
        assert cls.precision == 1.0 and cls.recall == 1.0 and cls.f1 == 1.0


def test_classification_matches_hand_recount():
    rng = np.random.default_rng(2)
    directions = rng.choice([-1, 1], size=100)
    labels = _label_set(directions)
    preds = Predictions(labels.timestamps, rng.uniform(0.05, 0.95, len(labels)))
    report = classification_report(preds, labels)

    tp = fp = tn = fn = 0
    losses = []
    for p, d in zip(preds.p_up.tolist(), directions):
        y = 1 if d > 0 else 0
        yhat = 1 if p > 0.5 else 0
        losses.append(-(y * math.log(p) + (1 - y) * math.log(1 - p)))
        tp += yhat and y
        fp += yhat and not y
        tn += (not yhat) and (not y)
        fn += (not yhat) and y
    assert report.confusion == {"tn": tn, "fp": fp, "fn": fn, "tp": tp}
    assert abs(report.logloss - sum(losses) / len(losses)) <= 1e-12
    prec_up = tp / (tp + fp)
    rec_up = tp / (tp + fn)
    assert abs(report.up.precision - prec_up) <= 1e-12
    assert abs(report.up.recall - rec_up) <= 1e-12
    f1_up = 2 * prec_up * rec_up / (prec_up + rec_up)
    assert abs(report.up.f1 - f1_up) <= 1e-12
    w = (report.down.f1 * report.down.support + report.up.f1 * report.up.support)
    assert abs(report.weighted["f1"] - w / 100) <= 1e-12


def test_weighted_f1_between_class_extremes():
    rng = np.random.default_rng(3)
    labels = _label_set(rng.choice([-1, 1], size=60))
    preds = Predictions(labels.timestamps, rng.uniform(0.1, 0.9, len(labels)))
    report = classification_report(preds, labels)
    lo, hi = sorted([report.down.f1, report.up.f1])
    assert lo - 1e-12 <= report.weighted["f1"] <= hi + 1e-12


def test_classification_requires_overlap():
    labels = _label_set([1, -1])
    preds = Predictions([999_999], [0.6])
    with pytest.raises(ValueError, match="overlap"):
        classification_report(preds, labels)


@pytest.mark.parametrize("ts", [[7200, 3600, 10800], [3600, 3600, 7200]],
                         ids=["unsorted", "duplicate"])
def test_label_set_rejects_timestamps_that_do_not_increase(ts):
    # Predictions are matched to labels by a binary search over these timestamps.
    with pytest.raises(ValueError, match="strictly increasing"):
        LabelSet(np.array(ts, np.int64), np.ones(3, np.int8), np.zeros(3), np.zeros(3), 5)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 1.5])
def test_classification_rejects_threshold_outside_unit_interval(threshold):
    labels = _label_set([1, -1])
    preds = Predictions(labels.timestamps, [0.6, 0.4])
    with pytest.raises(ValueError, match="threshold"):
        classification_report(preds, labels, threshold=threshold)


@pytest.mark.parametrize("threshold, confusion", [
    (0.0, {"tn": 0, "fp": 1, "fn": 0, "tp": 2}),
    (0.6, {"tn": 1, "fp": 0, "fn": 1, "tp": 1}),  # p_up == threshold is a down call
    (1.0, {"tn": 1, "fp": 0, "fn": 2, "tp": 0}),
])
def test_classification_counts_up_strictly_above_the_threshold(threshold, confusion):
    labels = _label_set([1, -1, 1])
    preds = Predictions(labels.timestamps, [0.6, 0.4, 0.7])
    assert classification_report(preds, labels, threshold=threshold).confusion == confusion


def test_precision_recall_points_monotone_recall():
    rng = np.random.default_rng(4)
    labels = _label_set(rng.choice([-1, 1], size=50))
    preds = Predictions(labels.timestamps, rng.uniform(0.05, 0.95, len(labels)))
    points = precision_recall_points(preds, labels)
    recalls = [r for _, _, r in points]
    assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))


# --- regression ------------------------------------------------------------------


def test_regression_perfect():
    report = regression_report([0.01, -0.02, 0.03], [0.01, -0.02, 0.03])
    assert report.mae == 0.0 and report.mse == 0.0 and report.rmse == 0.0
    assert report.r2 == 1.0


def test_regression_constant_mean_estimate_r2_zero():
    actuals = [0.02, -0.04, 0.05]
    mean = sum(actuals) / 3
    report = regression_report([mean] * 3, actuals)
    assert abs(report.r2) <= 1e-12


def test_regression_hand_example():
    report = regression_report([0.01, -0.02], [0.02, -0.04])
    assert abs(report.mae - 0.015) <= 1e-12
    assert abs(report.mse - 0.00025) <= 1e-12
    assert abs(report.rmse - math.sqrt(0.00025)) <= 1e-12
    sse = (0.01 - 0.02) ** 2 + (-0.02 + 0.04) ** 2
    sst = (0.02 + 0.01) ** 2 + (-0.04 + 0.01) ** 2
    assert abs(report.r2 - (1 - sse / sst)) <= 1e-12


def test_regression_zero_variance_actuals():
    report = regression_report([0.01, 0.02], [0.05, 0.05])
    assert report.r2 is None


def test_regression_shape_mismatch():
    with pytest.raises(ValueError):
        regression_report([0.01], [0.01, 0.02])
